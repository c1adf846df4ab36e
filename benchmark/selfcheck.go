package main

import (
	"fmt"
	"math"
	"os"
)

// selfCheck is the repeatability evidence: every workload runs `runs`
// times in each of two interleaved sets (A, B, A, B, …) of the same code,
// and for every end-to-end metric the two sets' medians must agree within
// the metric's bound. It also prints each set's quartiles and their spread
// (the distance between the first and third quartile as a share of the
// median), which is what a later change's paired runs are read against.
// With varySeed, run k of either set uses seed+k, the way the acceptance
// runs vary it; otherwise every run uses the same seed.
func selfCheck(env *runEnv, defs []workloadDef, runs int, varySeed bool) int {
	exit := 0
	baseSeed := env.seed
	for _, w := range defs {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for k := 0; k < runs; k++ {
			for set := range sets {
				env.seed = baseSeed
				if varySeed {
					env.seed += int64(k)
				}
				res, err := runWorkload(env, w, false)
				if err != nil {
					reapAll()
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "%s seed %d: %d of %d operations failed: %v\n", w.Name, env.seed, res.Failed, res.Attempted, res.Problems)
					exit = 1
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		seeds := fmt.Sprintf("seed %d", baseSeed)
		if varySeed {
			seeds += "+k"
		}
		fmt.Printf("\n%s: %d runs per set, %s\n", w.Name, runs, seeds)
		fmt.Printf("  %-14s %-9s %12s %12s %12s %8s %12s %8s  %s\n", "metric", "unit", "A median", "A q1", "A q3", "A spread", "B median", "B vs A", "bound")
		for _, d := range endToEnd {
			aq1, amed, aq3 := quartiles(sets[0][d.Name])
			_, bmed, _ := quartiles(sets[1][d.Name])
			spread := (aq3 - aq1) / amed
			// worse is how much set B's median is worse than set A's,
			// in the metric's own direction, as a share of A's.
			worse := (bmed - amed) / amed
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if math.Abs(worse) > d.Bound {
				verdict = "MEDIANS DISAGREE BEYOND THE BOUND"
				exit = 1
			} else if spread > d.Bound && d.Name != "setup_s" {
				verdict = "spread exceeds the bound"
				exit = 1
			}
			fmt.Printf("  %-14s %-9s %12.6g %12.6g %12.6g %7.2f%% %12.6g %+7.2f%%  %.3g %s\n",
				d.Name, d.Unit, amed, aq1, aq3, 100*spread, bmed, 100*worse, d.Bound, verdict)
		}
	}
	env.seed = baseSeed
	return exit
}
