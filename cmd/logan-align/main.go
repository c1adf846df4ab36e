// Command logan-align is the batch aligner CLI: it generates (or loads) a
// set of seeded read pairs and aligns them with the selected backend,
// reporting scores, timing and GCUPS — the standalone tool equivalent of
// the original LOGAN demo binary.
//
// Usage:
//
//	logan-align [-pairs 1000] [-x 100] [-backend gpu] [-gpus 2] [-seed 1]
//	            [-minlen 2500] [-maxlen 7500] [-err 0.15] [-v]
//	            [-match 1 -mismatch -1 -gap -1]
//	            [-gap-open -2 -gap-extend -1]   (affine; CPU/Hybrid only)
//	            [-matrix blosum62]              (matrix; CPU/Hybrid only)
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"logan"
	"logan/internal/seq"
)

func main() {
	var (
		nPairs  = flag.Int("pairs", 1000, "number of read pairs to align")
		x       = flag.Int("x", 100, "X-drop threshold")
		seed    = flag.Int64("seed", 42, "workload RNG seed")
		minLen  = flag.Int("minlen", 2500, "minimum read length")
		maxLen  = flag.Int("maxlen", 7500, "maximum read length")
		errRate = flag.Float64("err", 0.15, "pairwise error rate")
		input   = flag.String("input", "", "pair file to align instead of a generated workload (TSV: query, target, seedQ, seedT, seedLen)")
		dump    = flag.String("dump", "", "write the generated workload to this pair file and exit")
		verbose = flag.Bool("v", false, "print per-pair results")

		match    = flag.Int("match", 1, "linear/affine match reward (> 0)")
		mismatch = flag.Int("mismatch", -1, "linear/affine mismatch penalty (< 0)")
		gap      = flag.Int("gap", -1, "linear gap penalty, or the matrix gap with -matrix (< 0)")
		gapOpen  = flag.Int("gap-open", 0, "affine gap-open penalty (< 0); with -gap-extend selects affine scoring (CPU and hybrid backends only)")
		gapExt   = flag.Int("gap-extend", 0, "affine gap-extend penalty (< 0)")
		matrix   = flag.String("matrix", "", `substitution matrix ("blosum62"); scores with the matrix and -gap as its gap penalty (CPU and hybrid backends only)`)
	)
	var opt logan.EngineOptions
	flag.TextVar(&opt.Backend, "backend", logan.CPU, "alignment backend: cpu, gpu or hybrid")
	flag.IntVar(&opt.GPUs, "gpus", 1, "simulated GPU count (gpu and hybrid backends)")
	flag.Parse()

	cfg := logan.Config{X: int32(*x)}
	switch {
	case *matrix == "blosum62":
		if *gap >= 0 {
			fmt.Fprintf(os.Stderr, "logan-align: -matrix needs a negative -gap (got %d)\n", *gap)
			os.Exit(2)
		}
		cfg.Scoring = logan.MatrixScoring(logan.Blosum62(int32(*gap)))
	case *matrix != "":
		fmt.Fprintf(os.Stderr, "logan-align: unknown matrix %q (want blosum62)\n", *matrix)
		os.Exit(2)
	case *gapOpen != 0 || *gapExt != 0:
		cfg.Scoring = logan.AffineScoring(int32(*match), int32(*mismatch), int32(*gapOpen), int32(*gapExt))
	default:
		cfg.Scoring = logan.LinearScoring(int32(*match), int32(*mismatch), int32(*gap))
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "logan-align: %v\n", err)
		os.Exit(2)
	}

	var raw []seq.Pair
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintf(os.Stderr, "logan-align: %v\n", err)
			os.Exit(1)
		}
		if *matrix != "" {
			// Matrix workloads are not DNA (protein residues would fail
			// the ACGTN check); the engine validates them against the
			// matrix alphabet instead.
			raw, err = seq.ReadPairsAnyAlphabet(f)
		} else {
			raw, err = seq.ReadPairs(f)
		}
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "logan-align: %v\n", err)
			os.Exit(1)
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		raw = seq.RandPairSet(rng, seq.PairSetOptions{
			N: *nPairs, MinLen: *minLen, MaxLen: *maxLen,
			ErrorRate: *errRate, SeedLen: 17, SeedPosFrac: 0.05,
		})
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintf(os.Stderr, "logan-align: %v\n", err)
			os.Exit(1)
		}
		if err := seq.WritePairs(f, raw); err != nil {
			fmt.Fprintf(os.Stderr, "logan-align: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %d pairs to %s\n", len(raw), *dump)
		return
	}
	pairs := make([]logan.Pair, len(raw))
	for i, p := range raw {
		pairs[i] = logan.Pair{
			Query: []byte(p.Query), Target: []byte(p.Target),
			SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen,
		}
	}

	eng, err := logan.NewAligner(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logan-align: %v\n", err)
		os.Exit(1)
	}
	defer eng.Close()

	start := time.Now()
	results, stats, err := eng.Align(context.Background(), pairs, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logan-align: %v\n", err)
		os.Exit(1)
	}
	if *verbose {
		for i, r := range results {
			fmt.Printf("pair %d: score=%d q=[%d,%d) t=[%d,%d) cells=%d\n",
				i, r.Score, r.QBegin, r.QEnd, r.TBegin, r.TEnd, r.Cells)
		}
	}
	fmt.Printf("aligned %d pairs with X=%d (%s scoring) on %s backend\n",
		stats.Pairs, *x, cfg.Scoring.Mode(), opt.Backend)
	fmt.Printf("  DP cells:     %d\n", stats.Cells)
	fmt.Printf("  wall time:    %v\n", time.Since(start).Round(time.Millisecond))
	if stats.DeviceTime > 0 {
		fmt.Printf("  modeled time: %v on %d simulated V100(s)\n", stats.DeviceTime.Round(time.Microsecond), opt.GPUs)
	}
	fmt.Printf("  GCUPS:        %.2f\n", stats.GCUPS)
}
