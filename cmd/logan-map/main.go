// Command logan-map is the reference-mapping CLI over logan.Mapper: it
// builds (w,k)-minimizer indexes of reference FASTA sets and places
// reads against them through the minimize → chain → extend pipeline,
// emitting PAF. The PAF bytes are identical to what logan-serve's
// POST /map returns for the same reads and index — both front ends are
// the same library call.
//
// Usage:
//
//	logan-map build-index -ref ref.fa -o ref.lgi [-k K] [-w W] [-max-occ N]
//	logan-map map (-index ref.lgi | -ref ref.fa) [reads.fa ...]
//	          [-x X] [-backend cpu|gpu|hybrid] [-gpus N] [-threads N]
//	          [-max-secondary N] [-o out.paf] [-stats]
//
// (-k, -w, -max-occ, -x and -max-secondary are rows of logan's index and
// mapping parameter tables; "logan-map <subcommand> -h" prints defaults.)
//
// build-index streams the reference FASTA, extracts its minimizers and
// writes the versioned binary index (CRC-verified on load). map loads a
// saved index (or builds one in memory from -ref) and maps the reads
// from the named FASTA files — stdin when none are given — writing PAF
// to stdout or -o. -stats prints the run's pipeline statistics to
// stderr.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"logan"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build-index":
		err = runBuildIndex(os.Args[2:])
	case "map":
		err = runMap(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "logan-map: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "logan-map: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  logan-map build-index -ref ref.fa -o ref.lgi [-k K] [-w W] [-max-occ N]
  logan-map map (-index ref.lgi | -ref ref.fa) [reads.fa ...] [-x X]
            [-backend cpu|gpu|hybrid] [-max-secondary N] [-o out.paf] [-stats]
  logan-map <subcommand> -h lists every flag with its default`)
}

// indexFlags names the index parameter table's rows on both subcommands
// (map uses them for its in-memory -ref build).
var indexFlags = map[string]string{"k": "k", "w": "w", "maxOcc": "max-occ"}

// runBuildIndex is the build-index subcommand: reference FASTA in,
// versioned binary minimizer index out.
func runBuildIndex(args []string) error {
	fs := flag.NewFlagSet("build-index", flag.ExitOnError)
	var (
		ref = fs.String("ref", "", "reference FASTA to index (required)")
		out = fs.String("o", "", "output index path (required)")
		opt logan.IndexOptions
	)
	opt.Params().Flags(fs, indexFlags)
	fs.Parse(args)
	if *ref == "" || *out == "" {
		return fmt.Errorf("build-index requires -ref and -o")
	}
	// build-index needs no extension engine, but the Mapper API hangs off
	// one; the smallest CPU engine serves as the construction context.
	eng, err := logan.NewAligner(logan.EngineOptions{Threads: 1})
	if err != nil {
		return err
	}
	defer eng.Close()
	m, err := logan.NewMapper(eng, logan.MapperOptions{})
	if err != nil {
		return err
	}
	f, err := os.Open(*ref)
	if err != nil {
		return err
	}
	start := time.Now()
	st, err := m.Build(context.Background(), f, opt)
	f.Close()
	if err != nil {
		return err
	}
	o, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := m.Save(o); err != nil {
		o.Close()
		return err
	}
	if err := o.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"logan-map: indexed %d refs (%d bases) in %v: %d minimizers kept, %d k-mers masked, occupancy %.2f -> %s\n",
		st.Refs, st.Bases, time.Since(start).Round(time.Millisecond),
		st.Kept, st.MaskedKmers, st.Occupancy, *out)
	return nil
}

// runMap is the map subcommand: reads FASTA in, PAF out.
func runMap(args []string) error {
	fs := flag.NewFlagSet("map", flag.ExitOnError)
	var (
		index  = fs.String("index", "", "saved minimizer index (from build-index)")
		ref    = fs.String("ref", "", "reference FASTA to index in memory instead of -index")
		out    = fs.String("o", "", "output PAF path (empty = stdout)")
		stats  = fs.Bool("stats", false, "print run statistics to stderr")
		opt    logan.EngineOptions
		idxOpt logan.IndexOptions
		cfg    = logan.DefaultMapConfig(100)
	)
	fs.TextVar(&opt.Backend, "backend", logan.CPU, "alignment backend: cpu, gpu or hybrid")
	fs.IntVar(&opt.GPUs, "gpus", 1, "simulated GPU count (gpu and hybrid backends)")
	fs.IntVar(&opt.Threads, "threads", 0, "CPU worker count (0 = GOMAXPROCS)")
	cfg.Params().Flags(fs, map[string]string{"x": "x", "maxSecondary": "max-secondary"})
	idxOpt.Params().Flags(fs, indexFlags)
	fs.Parse(args)
	if (*index == "") == (*ref == "") {
		return fmt.Errorf("map requires exactly one of -index and -ref")
	}
	eng, err := logan.NewAligner(opt)
	if err != nil {
		return err
	}
	defer eng.Close()
	m, err := logan.NewMapper(eng, logan.MapperOptions{})
	if err != nil {
		return err
	}
	if *index != "" {
		f, err := os.Open(*index)
		if err != nil {
			return err
		}
		_, err = m.Load(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		f, err := os.Open(*ref)
		if err != nil {
			return err
		}
		_, err = m.Build(context.Background(), f, idxOpt)
		f.Close()
		if err != nil {
			return err
		}
	}

	dst := io.Writer(os.Stdout)
	if *out != "" {
		o, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer o.Close()
		dst = o
	}
	bw := bufio.NewWriter(dst)

	var total logan.MapStats
	mapOne := func(name string, r io.Reader) error {
		res, err := m.MapFasta(context.Background(), r, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := logan.WritePAF(bw, res.Records); err != nil {
			return err
		}
		total.Reads += res.Stats.Reads
		total.Mapped += res.Stats.Mapped
		total.Anchors += res.Stats.Anchors
		total.Chains += res.Stats.Chains
		total.Extensions += res.Stats.Extensions
		total.Cells += res.Stats.Cells
		total.WallTime += res.Stats.WallTime
		return nil
	}
	if fs.NArg() == 0 {
		if err := mapOne("stdin", os.Stdin); err != nil {
			return err
		}
	}
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = mapOne(path, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if *stats {
		fmt.Fprintf(os.Stderr,
			"logan-map: mapped %d/%d reads in %v (%d anchors, %d chains, %d extensions, %d cells)\n",
			total.Mapped, total.Reads, total.WallTime.Round(time.Millisecond),
			total.Anchors, total.Chains, total.Extensions, total.Cells)
	}
	return nil
}
