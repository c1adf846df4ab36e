package bench

import (
	"fmt"
	"math/rand"
	"time"

	"logan/internal/core"
	"logan/internal/cuda"
	"logan/internal/loadbal"
	"logan/internal/seq"
	"logan/internal/stats"
)

// Ablation is one design-choice comparison: LOGAN's choice vs the
// alternative, on identical inputs, with modeled paper-scale times.
type Ablation struct {
	Name     string
	Baseline time.Duration // LOGAN's design
	Variant  time.Duration // the alternative
	Factor   float64       // Variant / Baseline (>1 = LOGAN's choice wins)
	Note     string
}

// RunAblations evaluates the §IV design points DESIGN.md calls out:
// X-proportional thread scheduling, HBM vs shared-memory anti-diagonals,
// query reversal for coalescing, dual extension streams, and length-aware
// multi-GPU partitioning. Every variant computes bit-identical scores;
// only the execution shape changes.
func RunAblations(scale Scale) ([]Ablation, error) {
	// Mid-read seeds: both extensions carry comparable work, so the
	// left-extension design points (reversal) are fully exercised.
	rng := rand.New(rand.NewSource(scale.Seed))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{
		N: scale.Pairs, MinLen: scale.MinLen, MaxLen: scale.MaxLen,
		ErrorRate: scale.ErrorRate, SeedLen: scale.SeedLen, SeedPosFrac: 0.5,
	})
	f := scale.Factor()
	platform := POWER9Node()
	var out []Ablation

	// Ablations compare modeled kernel time (the design points are about
	// device efficiency; host costs are identical across variants).
	modeled := func(cfg core.Config) (time.Duration, int64, error) {
		dev := cuda.MustV100()
		res, err := core.AlignBatch(dev, pairs, cfg)
		if err != nil {
			return 0, 0, err
		}
		scaled := ScaleStats(res.Stats, f)
		cuda.ApplyCacheModel(platform.Spec, &scaled)
		return platform.Timer.KernelTime(platform.Spec, scaled), res.Cells, nil
	}

	// 1. Thread scheduling proportional to X (§IV-B) vs a fixed maximal
	// block. Evaluated at small X, where oversized blocks stall lanes.
	const smallX = 20
	base, _, err := modeled(core.DefaultConfig(smallX))
	if err != nil {
		return nil, err
	}
	big := core.DefaultConfig(smallX)
	big.ThreadsPerBlock = 1024
	variant, _, err := modeled(big)
	if err != nil {
		return nil, err
	}
	out = append(out, ablation("threads-for-X vs fixed 1024 (X=20)", base, variant,
		"oversized blocks waste issue slots on stalled lanes"))

	// 2. Anti-diagonals in HBM vs shared memory (§IV-B). Shared memory
	// reserves a worst-case block footprint and caps SM residency at one
	// block, strangling inter-sequence parallelism.
	const midX = 100
	base, _, err = modeled(core.DefaultConfig(midX))
	if err != nil {
		return nil, err
	}
	sharedCfg := core.DefaultConfig(midX)
	sharedCfg.SharedMemAntidiags = true
	variant, _, err = modeled(sharedCfg)
	if err != nil {
		return nil, err
	}
	out = append(out, ablation("HBM anti-diagonals vs shared memory (X=100)", base, variant,
		"60KB/block reservation -> 1 resident block/SM"))

	// 3. Query reversal for coalescing (Fig. 6) vs backward reads.
	noRev := core.DefaultConfig(midX)
	noRev.NoQueryReversal = true
	variant, _, err = modeled(noRev)
	if err != nil {
		return nil, err
	}
	out = append(out, ablation("query reversal vs uncoalesced reads (X=100)", base, variant,
		fmt.Sprintf("uncoalesced sector traffic is %dx", cuda.UncoalescedFactor)))

	// 4. Two extension streams (Fig. 5) vs one. With dual streams the
	// host-to-device copies overlap the other stream's kernel; with a
	// single stream every copy sits on the critical path.
	dev := cuda.MustV100()
	res, err := core.AlignBatch(dev, pairs, core.DefaultConfig(midX))
	if err != nil {
		return nil, err
	}
	copyT := platform.Timer.CopyTime(platform.Spec, int64(float64(res.TransferBytes)*f))
	out = append(out, ablation("dual extension streams vs serialized (X=100)", base, base+copyT,
		"copy/compute overlap across the left/right streams"))

	// 5. Length-aware (LPT) vs round-robin partitioning across 6 GPUs at
	// full workload size, with a heavy-tailed length mix.
	weights := heavyTailWeights(scale)
	lpt := loadbal.ImbalanceOf(weights, loadbal.PartitionWeights(weights, 6, loadbal.ByLength))
	rr := loadbal.ImbalanceOf(weights, loadbal.PartitionWeights(weights, 6, loadbal.RoundRobin))
	lptT := time.Duration(float64(base) * lpt / 6)
	rrT := time.Duration(float64(base) * rr / 6)
	out = append(out, ablation("LPT partition vs round-robin (6 GPUs)", lptT, rrT,
		fmt.Sprintf("imbalance %.3f vs %.3f on a heavy-tailed length mix", lpt, rr)))

	return out, nil
}

func ablation(name string, base, variant time.Duration, note string) Ablation {
	a := Ablation{Name: name, Baseline: base, Variant: variant, Note: note}
	if base > 0 {
		a.Factor = float64(variant) / float64(base)
	}
	return a
}

// heavyTailWeights draws a 2%-giants length mix at paper workload size.
func heavyTailWeights(scale Scale) []int64 {
	weights := make([]int64, scale.PaperPairs)
	for i := range weights {
		// int64 so that the hash product fits on 32-bit targets too.
		ln := int64(scale.MinLen) + (int64(i)*2654435761)%int64(scale.MaxLen-scale.MinLen+1)
		if i%50 == 0 {
			ln *= 4
		}
		weights[i] = 2 * ln
	}
	return weights
}

// AblationTable renders the ablation results.
func AblationTable(abls []Ablation) stats.Table {
	t := stats.Table{
		Title:   "Design ablations: LOGAN's choice vs the alternative (modeled, 100K pairs)",
		Headers: []string{"design point", "LOGAN", "variant", "factor"},
	}
	for _, a := range abls {
		t.AddRow(a.Name, fmtDur(a.Baseline), fmtDur(a.Variant), a.Factor)
		t.Notes = append(t.Notes, a.Name+": "+a.Note)
	}
	return t
}
