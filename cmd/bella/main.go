// Command bella runs the BELLA long-read overlapper pipeline — the
// public logan.Overlapper subsystem — on a synthetic data set or a FASTA
// file: k-mer counting, reliable-k-mer pruning, SpGEMM overlap detection,
// binning, batched X-drop alignment on a shared engine (CPU, simulated
// GPU or Hybrid), adaptive-threshold filtering — and, for simulated data,
// evaluates recall/precision against the simulator's ground truth
// (paper §V). PAF output is byte-identical to logan-serve's /jobs API on
// the same inputs (both run the same Overlapper).
//
// bella -h lists the flags; -k, -cov, -errrate, -x and -minov are rows of
// logan.OverlapConfig's parameter table.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"logan"
	"logan/internal/bella"
	"logan/internal/genome"
	"logan/internal/seq"
)

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bella: %v\n", err)
	os.Exit(1)
}

func main() {
	// The pipeline flags are rows of the overlap parameter table, bound to
	// the configuration the run uses: -cov/-errrate matter for -fasta
	// input only (a simulated data set knows its own).
	cfg := logan.DefaultOverlapConfig(logan.DefaultCoverage, logan.DefaultErrorRate, 25)
	cfg.MinOverlap = 500
	cfg.Params().Flags(flag.CommandLine, map[string]string{
		"coverage": "cov", "errorRate": "errrate", "x": "x", "k": "k", "minOverlap": "minov",
	})
	opt := logan.EngineOptions{GPUs: 1}
	flag.TextVar(&opt.Backend, "backend", logan.CPU, "alignment backend: cpu, gpu or hybrid")
	flag.IntVar(&opt.GPUs, "gpus", opt.GPUs, "simulated GPU count")
	var (
		presetName = flag.String("preset", "tiny", "data set preset: ecoli-sim, celegans-sim or tiny")
		fasta      = flag.String("fasta", "", "align reads from this FASTA file instead of simulating (no ground-truth accuracy; the data set is described by -cov and -errrate)")
		seed       = flag.Int64("seed", 1, "simulation RNG seed")
		pafOut     = flag.String("paf", "", "write accepted overlaps to this file in PAF format")
		dumpReads  = flag.String("dump-reads", "", "write the simulated reads as FASTA and exit")
		dumpGenome = flag.String("dump-genome", "", "also write the simulated genome as FASTA (the mapping reference for logan-map / POST /map)")
		progress   = flag.Bool("progress", false, "print pipeline progress to stderr")
	)
	flag.BoolVar(&cfg.Traceback, "cigar", false, "recover CIGAR strings for accepted overlaps")
	flag.Parse()

	var preset genome.Preset
	switch *presetName {
	case "ecoli-sim":
		preset = genome.EColiSim()
	case "celegans-sim":
		preset = genome.CElegansSim()
	case "tiny":
		preset = genome.Preset{
			Name: "tiny", GenomeLen: 80_000, Coverage: 5,
			MinLen: 1000, MaxLen: 2500, ErrorRate: 0.15, RepeatFrac: 0.02,
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown preset %q\n", *presetName)
		os.Exit(2)
	}

	var rs genome.ReadSet
	haveTruth := false
	if *fasta != "" {
		f, err := os.Open(*fasta)
		if err != nil {
			fatal(err)
		}
		recs, err := seq.ReadFasta(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		rs = genome.FromRecords(recs)
		fmt.Printf("loaded %d reads from %s\n", len(rs.Reads), *fasta)
	} else {
		rng := rand.New(rand.NewSource(*seed))
		fmt.Printf("simulating %s: genome %d bp, coverage %.1f, error %.0f%%\n",
			preset.Name, preset.GenomeLen, preset.Coverage, preset.ErrorRate*100)
		rs = preset.Build(rng)
		cfg.Coverage, cfg.ErrorRate = preset.Coverage, preset.ErrorRate
		haveTruth = true
		fmt.Printf("  %d reads sampled\n", len(rs.Reads))
	}
	if *dumpGenome != "" {
		if len(rs.Genome.Seq) == 0 {
			fatal(fmt.Errorf("-dump-genome needs a simulated data set (-fasta input has no genome)"))
		}
		f, err := os.Create(*dumpGenome)
		if err != nil {
			fatal(err)
		}
		rec := []seq.Record{{Name: rs.Genome.Name, Seq: rs.Genome.Seq}}
		if err := seq.WriteFasta(f, rec); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote the %d bp genome to %s\n", len(rs.Genome.Seq), *dumpGenome)
	}
	if *dumpReads != "" {
		f, err := os.Create(*dumpReads)
		if err != nil {
			fatal(err)
		}
		if err := seq.WriteFasta(f, rs.Records()); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %d reads to %s\n", len(rs.Reads), *dumpReads)
		return
	}

	eng, err := logan.NewAligner(opt)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	ov, err := logan.NewOverlapper(eng, logan.OverlapperOptions{})
	if err != nil {
		fatal(err)
	}

	if *progress {
		cfg.OnProgress = func(p logan.OverlapProgress) {
			fmt.Fprintf(os.Stderr, "\rstage=%-8s kmers=%d cands=%d extended=%d/%d",
				p.Stage, p.ReliableKmers, p.CandidatePairs, p.ExtensionsDone, p.ExtensionsTotal)
			if p.Stage == logan.StageDone {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	reads := make([]logan.Read, len(rs.Reads))
	for i, r := range rs.Reads {
		reads[i] = logan.Read{Name: r.Name(), Seq: r.Seq}
	}

	start := time.Now()
	res, err := ov.Run(context.Background(), reads, cfg)
	if err != nil {
		fatal(err)
	}
	st := res.Stats
	fmt.Printf("pipeline (%s backend) in %v:\n", opt.Backend, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  reliable k-mers:  %d\n", st.ReliableKmers)
	fmt.Printf("  matrix nnz:       %d\n", st.MatrixNNZ)
	fmt.Printf("  candidate pairs:  %d\n", st.CandidatePairs)
	fmt.Printf("  accepted overlaps:%d\n", len(res.Records))
	fmt.Printf("  alignment cells:  %d\n", st.Cells)
	fmt.Printf("  stage times: count=%v prune=%v matrix=%v spgemm=%v bin=%v align=%v filter=%v\n",
		st.Times.Count.Round(time.Millisecond), st.Times.Prune.Round(time.Millisecond),
		st.Times.Matrix.Round(time.Millisecond), st.Times.SpGEMM.Round(time.Millisecond),
		st.Times.Binning.Round(time.Millisecond), st.Times.Alignment.Round(time.Millisecond),
		st.Times.Filter.Round(time.Millisecond))
	if st.DeviceTime > 0 {
		fmt.Printf("  modeled GPU time: %v\n", st.DeviceTime.Round(time.Microsecond))
	}
	if cfg.Traceback && len(res.Records) > 0 {
		n := min(3, len(res.Records))
		fmt.Printf("first %d overlaps with traceback:\n", n)
		for _, r := range res.Records[:n] {
			c := r.CIGAR
			if len(c) > 60 {
				c = c[:57] + "..."
			}
			fmt.Printf("  %d-%d score=%d identity=%.3f cigar=%s\n", r.QIndex, r.TIndex, r.Score, 1-r.Divergence, c)
		}
	}
	if *pafOut != "" {
		f, err := os.Create(*pafOut)
		if err != nil {
			fatal(err)
		}
		if err := logan.WritePAF(f, res.Records); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d overlaps to %s (PAF)\n", len(res.Records), *pafOut)
	}
	if haveTruth {
		// Ground-truth evaluation keys on read indices, which the public
		// records carry alongside the PAF fields.
		evs := make([]bella.Overlap, len(res.Records))
		for i, r := range res.Records {
			evs[i] = bella.Overlap{I: int32(r.QIndex), J: int32(r.TIndex)}
		}
		acc := bella.Evaluate(rs, evs, cfg.MinOverlap)
		fmt.Printf("accuracy vs ground truth (overlap >= %d bp):\n", cfg.MinOverlap)
		fmt.Printf("  recall %.3f  precision %.3f  F1 %.3f  (tp=%d, truth=%d, predicted=%d)\n",
			acc.Recall, acc.Precision, acc.F1, acc.TruePositives, acc.TruePairs, acc.PredictedPairs)
	}
}
