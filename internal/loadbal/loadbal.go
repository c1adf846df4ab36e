// Package loadbal holds the partitioners of LOGAN's multi-GPU load
// balancer (paper §IV-C, Fig. 7): the host divides the alignment batch
// across devices, weighting by sequence length so each GPU receives a
// comparable amount of DP work. It is pure index arithmetic — running the
// shards and gathering the results is the partitioned executor of
// internal/backend, the only caller that owns devices.
//
// Beyond the paper's equal-device split, PartitionCapacities generalizes
// the length-weighted LPT assignment to workers of unequal throughput
// (e.g. a CPU pool sharing a batch with a set of GPUs), the core of the
// hybrid scheduler in internal/backend.
package loadbal

import (
	"sort"

	"logan/internal/seq"
)

// Strategy selects how pairs are divided across devices.
type Strategy int

const (
	// ByLength is LOGAN's scheme: greedy longest-processing-time
	// assignment weighted by sequence length.
	ByLength Strategy = iota
	// RoundRobin is the naive count-based split, kept as the ablation
	// baseline for the load-balancing design point.
	RoundRobin
)

// Partition splits pair indices across n buckets under the given strategy.
// Every index appears in exactly one bucket.
func Partition(pairs []seq.Pair, n int, strat Strategy) [][]int {
	return PartitionWeights(PairWeights(pairs, nil), n, strat)
}

// PairWeights returns the DP-work proxy LOGAN partitions on — the summed
// sequence length of each pair — reusing dst's backing array when it has
// capacity (existing contents are overwritten).
func PairWeights(pairs []seq.Pair, dst []int64) []int64 {
	if cap(dst) < len(pairs) {
		dst = make([]int64, len(pairs))
	}
	dst = dst[:len(pairs)]
	for i := range pairs {
		dst[i] = int64(len(pairs[i].Query) + len(pairs[i].Target))
	}
	return dst
}

// PartitionWeights is the weight-level core of Partition, also used by the
// experiment harness to evaluate balance quality at full workload scale
// without materializing sequences. All buckets have equal capacity.
func PartitionWeights(weights []int64, n int, strat Strategy) [][]int {
	return PartitionCapacities(weights, equalCaps(n), strat)
}

func equalCaps(n int) []float64 {
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 1
	}
	return caps
}

// PartitionCapacities splits item indices across len(caps) buckets whose
// relative throughputs are caps[i] (cells/second, or any consistent unit).
// Every index appears in exactly one bucket.
//
// ByLength generalizes LOGAN's LPT greedy to heterogeneous workers: items
// are assigned heaviest-first to the bucket that would finish its load
// soonest, i.e. minimizing (load_b + w) / caps_b. With equal capacities
// this reduces exactly to the paper's scheme. RoundRobin deals items out
// proportionally to capacity (a worker with twice the throughput receives
// roughly twice the items), degenerating to the naive count split when
// capacities are equal.
//
// Capacity semantics distinguish "no estimate" from "excluded": a zero
// capacity marks a bucket with a degenerate estimate — it receives no
// items unless every positive capacity is absent, in which case the
// zero-capacity buckets are treated as equal so no work is dropped. A
// strictly negative capacity excludes the bucket: it never receives
// items, not even under the all-zero fallback — the hybrid scheduler
// uses this to keep non-linear batches off the GPU kernels, so a
// degraded estimate can never resurrect an excluded worker. The one
// exception preserves the exactly-once contract: if every bucket is
// excluded while items remain (a caller bug — the hybrid guards against
// it before partitioning), all buckets are treated as equal rather than
// dropping the batch. A nonempty item set with no buckets at all panics.
func PartitionCapacities(weights []int64, caps []float64, strat Strategy) [][]int {
	n := len(caps)
	buckets := make([][]int, n)
	if n == 0 {
		if len(weights) > 0 {
			panic("loadbal: PartitionCapacities with items but no buckets")
		}
		return buckets
	}
	usable := make([]int, 0, n)
	for b, c := range caps {
		if c > 0 {
			usable = append(usable, b)
		}
	}
	if len(usable) == 0 {
		// Degenerate estimates: fall back to an equal split among the
		// zero-capacity (non-excluded) buckets only.
		caps = append([]float64(nil), caps...)
		for b, c := range caps {
			if c == 0 {
				caps[b] = 1
				usable = append(usable, b)
			}
		}
	}
	if len(usable) == 0 {
		// Every bucket excluded: equal split rather than dropped work.
		caps = equalCaps(n)
		for b := range buckets {
			usable = append(usable, b)
		}
	}
	switch strat {
	case RoundRobin:
		// Smooth weighted round-robin: item i goes to the usable bucket
		// with the largest deficit between its capacity share of the
		// first i+1 items and what it has already received. With equal
		// capacities this is exactly the naive i-mod-n deal.
		var total float64
		for _, b := range usable {
			total += caps[b]
		}
		assigned := make([]float64, n)
		for i := range weights {
			target := usable[0]
			bestDeficit := caps[target]/total*float64(i+1) - assigned[target]
			for _, b := range usable[1:] {
				if d := caps[b]/total*float64(i+1) - assigned[b]; d > bestDeficit {
					target, bestDeficit = b, d
				}
			}
			buckets[target] = append(buckets[target], i)
			assigned[target]++
		}
	default: // ByLength: LPT greedy on normalized completion time
		type item struct {
			idx    int
			weight int64
		}
		items := make([]item, len(weights))
		for i, w := range weights {
			items[i] = item{idx: i, weight: w}
		}
		sort.Slice(items, func(a, b int) bool {
			if items[a].weight != items[b].weight {
				return items[a].weight > items[b].weight
			}
			return items[a].idx < items[b].idx
		})
		loads := make([]int64, n)
		for _, it := range items {
			best := usable[0]
			bestT := (float64(loads[best]) + float64(it.weight)) / caps[best]
			for _, b := range usable[1:] {
				if t := (float64(loads[b]) + float64(it.weight)) / caps[b]; t < bestT {
					best, bestT = b, t
				}
			}
			buckets[best] = append(buckets[best], it.idx)
			loads[best] += it.weight
		}
		// Keep input order within a bucket (helps locality and makes the
		// run deterministic).
		for b := range buckets {
			sort.Ints(buckets[b])
		}
	}
	return buckets
}

// ImbalanceOf evaluates a partition: max bucket weight over mean bucket
// weight (1.0 = perfect).
func ImbalanceOf(weights []int64, buckets [][]int) float64 {
	var total, maxW int64
	for _, b := range buckets {
		var w int64
		for _, idx := range b {
			w += weights[idx]
		}
		total += w
		if w > maxW {
			maxW = w
		}
	}
	if total == 0 || len(buckets) == 0 {
		return 1
	}
	mean := float64(total) / float64(len(buckets))
	return float64(maxW) / mean
}
