// Multigpu: the load-balancer scaling demo (paper §IV-C, Fig. 7). One
// batch of length-skewed pairs is aligned on 1..8 simulated V100s through
// the engine's partitioned executor, and the work each device received is
// compared with a count-based round-robin deal of the same pairs, showing
// why LOGAN weights by sequence length: with a few giant reads in the mix,
// round-robin leaves one device holding the bag.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"logan/internal/backend"
	"logan/internal/loadbal"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

func must[B backend.Backend](be B, err error) B {
	if err != nil {
		log.Fatal(err)
	}
	return be
}

// align runs one batch on be and closes it.
func align(be backend.Backend, pairs []seq.Pair, sch xdrop.Scheme, x int32) ([]xdrop.SeedResult, backend.BatchStats) {
	defer be.Close()
	out := make([]xdrop.SeedResult, len(pairs))
	st, err := be.ExtendBatch(context.Background(), pairs, out, sch, x)
	if err != nil {
		log.Fatal(err)
	}
	return out, st
}

func main() {
	rng := rand.New(rand.NewSource(3))

	// Length-skewed workload: mostly 1-2 kb reads plus a handful of 8 kb
	// giants (long-read length distributions have heavy tails).
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{
		N: 56, MinLen: 1000, MaxLen: 2000, ErrorRate: 0.15, SeedLen: 17,
	})
	giants := seq.RandPairSet(rng, seq.PairSetOptions{
		N: 8, MinLen: 8000, MaxLen: 9000, ErrorRate: 0.15, SeedLen: 17,
	})
	pairs = append(pairs, giants...)
	// Shuffle so the giants land at arbitrary batch positions, as they
	// would coming out of an overlapper.
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	// Part 1: real execution through the partitioned executor — results
	// must be identical to single-device alignment. The by-length
	// imbalance is what the devices actually computed (per-shard cells);
	// the round-robin column deals the same per-pair cells out by count.
	sch, x := xdrop.LinearScheme(xdrop.DefaultScoring()), int32(100)
	ref, _ := align(must(backend.NewV100("gpu0")), pairs, sch, x)
	cells := make([]int64, len(pairs))
	for i := range ref {
		cells[i] = ref[i].Cells()
	}
	fmt.Println("GPUs  identical-scores  by-length  round-robin   (work imbalance)")
	for _, g := range []int{2, 4, 8} {
		res, st := align(must(backend.NewV100MultiGPU(g)), pairs, sch, x)
		same := 0
		for i := range ref {
			if res[i].Score == ref[i].Score {
				same++
			}
		}
		var maxCells int64
		for _, sh := range st.Shards {
			maxCells = max(maxCells, sh.Cells)
		}
		lpt := float64(maxCells) * float64(g) / float64(st.Cells)
		rr := loadbal.ImbalanceOf(cells, loadbal.Partition(pairs, g, loadbal.RoundRobin))
		fmt.Printf("%4d  %13d/%d  %9.3f  %11.3f\n", g, same, len(pairs), lpt, rr)
	}

	// Part 2: partition quality at the paper's workload size (100K
	// pairs) — weights only, no alignment needed.
	fmt.Println("\npartition quality at 100K pairs (max device load / mean):")
	weights := make([]int64, 100000)
	for i := range weights {
		ln := 2500 + rng.Intn(5001)
		if rng.Intn(100) < 2 { // heavy tail
			ln *= 4
		}
		weights[i] = int64(2 * ln)
	}
	fmt.Println("GPUs  by-length  round-robin")
	for _, g := range []int{2, 4, 6, 8} {
		lpt := loadbal.ImbalanceOf(weights, loadbal.PartitionWeights(weights, g, loadbal.ByLength))
		rr := loadbal.ImbalanceOf(weights, loadbal.PartitionWeights(weights, g, loadbal.RoundRobin))
		fmt.Printf("%4d  %9.4f  %11.4f\n", g, lpt, rr)
	}
	fmt.Println("\nby-length (LPT) keeps the imbalance near 1.0; round-robin strands")
	fmt.Println("giants on one device, capping the multi-GPU speed-up — the ablation")
	fmt.Println("behind the paper's load-balancer design point.")
}
