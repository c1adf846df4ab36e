package loadbal

import (
	"math/rand"
	"testing"
	"testing/quick"

	"logan/internal/seq"
)

func makePairs(seed int64, n int) []seq.Pair {
	rng := rand.New(rand.NewSource(seed))
	return seq.RandPairSet(rng, seq.PairSetOptions{
		N: n, MinLen: 100, MaxLen: 700, ErrorRate: 0.15, SeedLen: 17,
	})
}

func TestPartitionCompleteness(t *testing.T) {
	f := func(nRaw uint8, gRaw uint8, strat bool) bool {
		n := int(nRaw)%100 + 1
		g := int(gRaw)%8 + 1
		pairs := makePairs(int64(nRaw)*31+int64(gRaw), n)
		s := ByLength
		if strat {
			s = RoundRobin
		}
		buckets := Partition(pairs, g, s)
		if len(buckets) != g {
			return false
		}
		seen := make(map[int]bool)
		for _, b := range buckets {
			for _, idx := range b {
				if idx < 0 || idx >= n || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPartitionBalanceByLength(t *testing.T) {
	// Pathological mix: a few giants and many small reads. LPT must beat
	// round-robin's worst bucket.
	rng := rand.New(rand.NewSource(7))
	var pairs []seq.Pair
	for i := 0; i < 6; i++ {
		pairs = append(pairs, seq.Pair{
			Query: seq.RandSeq(rng, 8000), Target: seq.RandSeq(rng, 8000),
			SeedQPos: 100, SeedTPos: 100, SeedLen: 17, ID: i,
		})
	}
	for i := 0; i < 60; i++ {
		pairs = append(pairs, seq.Pair{
			Query: seq.RandSeq(rng, 200), Target: seq.RandSeq(rng, 200),
			SeedQPos: 50, SeedTPos: 50, SeedLen: 17, ID: 6 + i,
		})
	}
	weightOf := func(buckets [][]int) (maxW int64) {
		for _, b := range buckets {
			var w int64
			for _, idx := range b {
				w += int64(len(pairs[idx].Query) + len(pairs[idx].Target))
			}
			if w > maxW {
				maxW = w
			}
		}
		return maxW
	}
	lpt := weightOf(Partition(pairs, 6, ByLength))
	rr := weightOf(Partition(pairs, 6, RoundRobin))
	if lpt > rr {
		t.Fatalf("LPT worst bucket %d heavier than round-robin %d", lpt, rr)
	}
	// LPT should be near-perfect here: each giant on its own device.
	var total int64
	for i := range pairs {
		total += int64(len(pairs[i].Query) + len(pairs[i].Target))
	}
	if float64(lpt) > 1.25*float64(total)/6 {
		t.Fatalf("LPT imbalance: worst %d vs mean %d", lpt, total/6)
	}
}

func TestImbalanceOfEdgeCases(t *testing.T) {
	if got := ImbalanceOf(nil, nil); got != 1 {
		t.Fatalf("empty imbalance = %v", got)
	}
	if got := ImbalanceOf([]int64{0, 0}, [][]int{{0}, {1}}); got != 1 {
		t.Fatalf("zero-weight imbalance = %v", got)
	}
	w := []int64{10, 10, 10, 30}
	buckets := [][]int{{0, 1, 2}, {3}}
	// loads 30/30, mean 30 -> 1.0
	if got := ImbalanceOf(w, buckets); got != 1 {
		t.Fatalf("balanced = %v", got)
	}
	skewed := [][]int{{0}, {1, 2, 3}}
	// loads 10/50, mean 30 -> 50/30
	if got := ImbalanceOf(w, skewed); got < 1.66 || got > 1.67 {
		t.Fatalf("skewed = %v", got)
	}
}

// TestPartitionExactlyOnceProperty is the satellite coverage for the
// partitioner: for arbitrary weight vectors, bucket counts (including more
// buckets than items) and capacity vectors (including unusable workers),
// every index must land in exactly one bucket, under both strategies.
func TestPartitionExactlyOnceProperty(t *testing.T) {
	f := func(wRaw []uint16, gRaw uint8, capsRaw []int8, strat bool) bool {
		weights := make([]int64, len(wRaw))
		for i, w := range wRaw {
			weights[i] = int64(w)
		}
		g := int(gRaw)%12 + 1
		caps := make([]float64, g)
		for i := range caps {
			if i < len(capsRaw) {
				caps[i] = float64(capsRaw[i]) // may be zero or negative
			} else {
				caps[i] = 1
			}
		}
		s := ByLength
		if strat {
			s = RoundRobin
		}
		for _, buckets := range [][][]int{
			PartitionWeights(weights, g, s),
			PartitionCapacities(weights, caps, s),
		} {
			if len(buckets) != g {
				return false
			}
			seen := make(map[int]bool)
			for _, b := range buckets {
				for _, idx := range b {
					if idx < 0 || idx >= len(weights) || seen[idx] {
						return false
					}
					seen[idx] = true
				}
			}
			if len(seen) != len(weights) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPartitionEdgeCases pins the explicit boundary shapes the property
// test might not draw: empty batches, more buckets than items, and a
// single bucket.
func TestPartitionEdgeCases(t *testing.T) {
	for _, s := range []Strategy{ByLength, RoundRobin} {
		if got := Partition(nil, 4, s); len(got) != 4 {
			t.Fatalf("strat %v: empty batch buckets %v", s, got)
		}
		pairs := makePairs(11, 3)
		buckets := Partition(pairs, 8, s)
		if len(buckets) != 8 {
			t.Fatalf("strat %v: %d buckets", s, len(buckets))
		}
		seen := map[int]int{}
		nonEmpty := 0
		for _, b := range buckets {
			if len(b) > 0 {
				nonEmpty++
			}
			for _, idx := range b {
				seen[idx]++
			}
		}
		for idx, c := range seen {
			if c != 1 {
				t.Fatalf("strat %v: index %d assigned %d times", s, idx, c)
			}
		}
		if len(seen) != 3 || nonEmpty > 3 {
			t.Fatalf("strat %v: %d indices over %d buckets", s, len(seen), nonEmpty)
		}
		one := Partition(pairs, 1, s)
		if len(one) != 1 || len(one[0]) != 3 {
			t.Fatalf("strat %v: single bucket got %v", s, one)
		}
	}
}

// TestPartitionCapacitiesSkew: a worker with 3x the throughput must
// receive roughly 3x the weight under the heterogeneous LPT split.
func TestPartitionCapacitiesSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	weights := make([]int64, 400)
	for i := range weights {
		weights[i] = int64(rng.Intn(900) + 100)
	}
	buckets := PartitionCapacities(weights, []float64{3, 1}, ByLength)
	var w0, w1 int64
	for _, idx := range buckets[0] {
		w0 += weights[idx]
	}
	for _, idx := range buckets[1] {
		w1 += weights[idx]
	}
	ratio := float64(w0) / float64(w1)
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("capacity-3 worker holds %d vs %d (ratio %.2f, want ~3)", w0, w1, ratio)
	}
	// Unusable workers receive nothing; all work lands on the live one.
	buckets = PartitionCapacities(weights, []float64{0, 1, -2}, ByLength)
	if len(buckets[0]) != 0 || len(buckets[2]) != 0 || len(buckets[1]) != len(weights) {
		t.Fatalf("dead workers received work: %d/%d/%d", len(buckets[0]), len(buckets[1]), len(buckets[2]))
	}
	// All-dead capacity vectors degrade to an equal split, never drop work.
	buckets = PartitionCapacities(weights, []float64{0, 0}, RoundRobin)
	if len(buckets[0])+len(buckets[1]) != len(weights) {
		t.Fatal("all-dead capacities dropped work")
	}
	// RoundRobin deals item counts proportionally to capacity: a 9:1
	// split must not starve the slow worker (regression: the first
	// implementation handed it zero items).
	buckets = PartitionCapacities(weights, []float64{9, 1}, RoundRobin)
	if n := len(buckets[1]); n < len(weights)/20 || n > len(weights)/5 {
		t.Fatalf("capacity-1 worker got %d of %d items under 9:1 round-robin", n, len(weights))
	}
}

// TestPartitionNoBucketsPanics: items with zero buckets cannot satisfy
// the exactly-once contract; the partitioner must refuse loudly instead
// of silently dropping the batch.
func TestPartitionNoBucketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PartitionCapacities with items but no buckets did not panic")
		}
	}()
	PartitionCapacities([]int64{1, 2}, nil, ByLength)
}

// TestPartitionCapacitiesExclusion pins the negative-capacity contract:
// excluded buckets receive nothing even when every estimate has degraded
// to zero (the all-zero fallback must only resurrect zero-capacity
// buckets), and a fully-excluded vector still satisfies exactly-once.
func TestPartitionCapacitiesExclusion(t *testing.T) {
	weights := []int64{5, 4, 3, 2, 1}
	for _, strat := range []Strategy{ByLength, RoundRobin} {
		buckets := PartitionCapacities(weights, []float64{0, -1, 0}, strat)
		if len(buckets[1]) != 0 {
			t.Fatalf("strategy %v: excluded bucket resurrected by the all-zero fallback: %v", strat, buckets)
		}
		if len(buckets[0])+len(buckets[2]) != len(weights) {
			t.Fatalf("strategy %v: work dropped: %v", strat, buckets)
		}
		// Fully excluded (caller bug): equal split, never dropped work.
		all := PartitionCapacities(weights, []float64{-1, -1}, strat)
		if len(all[0])+len(all[1]) != len(weights) {
			t.Fatalf("strategy %v: fully-excluded vector dropped work: %v", strat, all)
		}
	}
}
