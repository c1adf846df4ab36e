// Command benchmark is the repository's benchmark: it builds logan-serve
// and logan-worker from the checkout, generates a workload from a seed,
// starts real server processes with their default flags, drives them over
// HTTP, verifies the outputs, and prints every metric by name with its
// unit. README.md explains the workloads, the metrics and how the
// per-layer numbers relate to the end-to-end ones; BENCHMARK.json at the
// repository root is the contract the driver runs it under.
//
// Usage (from the repository root; benchmark/run.sh wraps the same binary
// and keeps Go's caches inside the checkout):
//
//	go -C benchmark run . -workload align-small -seed 7 [-seconds 12] [-trace 1]
//	go -C benchmark run . -workload all -quick
//	go -C benchmark run . -selfcheck -runs 5
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. The exit code is 0 only
// if every output verified.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed      = flag.Int64("seed", 1, "seed every input derives from")
		seconds   = flag.Float64("seconds", defaultSeconds, "nominal length of the measured phase; sizes the fixed work")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file, self-time table")
		quick     = flag.Bool("quick", false, "1/20 of the work; metrics are printed but not comparable")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in two interleaved sets and compare their medians with the bounds")
		runs      = flag.Int("runs", 5, "runs per set with -selfcheck")
		varySeed  = flag.Bool("vary-seed", false, "with -selfcheck: run k of either set uses seed+k, as the acceptance runs do")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fatal(2, "-seconds must be positive, -trace 0 or 1, -runs at least 1")
	}
	if *quick {
		*seconds /= 20
	}

	// Children are reaped on every way out: normal return and errors go
	// through the harness's close; a signal goes through reapAll.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		reapAll()
		os.Exit(130)
	}()

	env, err := newRunEnv(*seed, *seconds)
	if err != nil {
		fatal(1, "%v", err)
	}
	if *selfcheck && *workload == "" {
		*workload = "all"
	}
	var defs []workloadDef
	for _, w := range workloads {
		if *workload == w.Name || *workload == "all" {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fatal(2, "-workload must be one of %s, or all", workloadNames())
	}
	if *selfcheck {
		os.Exit(selfCheck(env, defs, *runs, *varySeed))
	}
	exit := 0
	for _, w := range defs {
		res, err := runWorkload(env, w, *trace == 1)
		if err != nil {
			reapAll()
			fatal(1, "%s: %v", w.Name, err)
		}
		report(env, res, *quick)
		if !res.Correct {
			exit = 1
		}
	}
	os.Exit(exit)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

// catalogFor is the metric list a run reports: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.
func catalogFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// report prints the run for people on standard error, writes the same as
// JSON under benchmark/out, and prints the driver's result object as the
// last line of standard output.
func report(env *runEnv, res *runResult, quick bool) {
	mode := "end-to-end"
	if res.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(os.Stderr, "\n%s seed %d, %.3g s nominal: %s metrics\n", res.Workload, res.Seed, res.Seconds, mode)
	if quick {
		fmt.Fprintln(os.Stderr, "  -quick: 1/20 of the work — these numbers are NOT comparable with a full run")
	}
	type valueJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]valueJSON{}
	for _, d := range catalogFor(res.Traced) {
		v := res.Metrics[d.Name]
		out[d.Name] = valueJSON{v, d.Unit}
		if res.Traced && v == 0 {
			continue // a layer this workload does not exercise
		}
		note := d.Better + " is better"
		if res.Traced {
			note += "; source " + d.Src + ", should move " + d.Moves
		}
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %-12s (%s)\n", d.Name, v, d.Unit, note)
	}
	fmt.Fprintf(os.Stderr, "  attempted %d, succeeded %d, failed %d", res.Attempted, res.Attempted-res.Failed, res.Failed)
	for _, k := range []string{"generate_s", "measured_s", "verify_s", "replay_s"} {
		if v, ok := res.Info[k]; ok {
			fmt.Fprintf(os.Stderr, "; %s %.2f", k, v)
		}
	}
	fmt.Fprintln(os.Stderr)
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "  WRONG: %s\n", p)
	}

	name := res.Workload + ".json"
	if res.Traced {
		name = res.Workload + ".layers.json"
	}
	if b, err := json.MarshalIndent(res, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(env.outDir, name), append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueJSON `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
	if err != nil {
		fatal(1, "encode result: %v", err)
	}
	fmt.Println(string(line))
}
