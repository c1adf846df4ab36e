// Command logan-worker is the execution tier of a logan-serve cluster.
// It builds a local logan.Aligner engine, registers with a router
// (logan-serve -cluster) over HTTP, and pulls overlap jobs under
// expiring leases: each leased job's FASTA payload runs through the
// BELLA overlap pipeline (logan.Overlapper) on the local engine and the
// resulting PAF streams back to the router. While a job executes, the
// worker extends its lease on a cadence the router dictates; heartbeats
// push the worker's full telemetry snapshot so a single scrape of the
// router's /metrics covers the fleet under worker="<name>" labels.
//
// Failure semantics: if the process dies abruptly (SIGKILL, panic,
// power loss) it simply stops extending its leases, and the router
// requeues the in-flight job for another worker — the output is
// byte-identical wherever it re-runs. SIGINT/SIGTERM shut down
// gracefully: the in-flight job is reported back as requeueable before
// the process exits, so the router reassigns it without waiting for the
// lease to expire.
//
// Usage:
//
//	logan-worker -router http://router:8080 [-name $(hostname)]
//	             [-token secret] [-backend cpu|gpu|hybrid] [-gpus 1]
//	             [-threads 0] [-cells-per-sec 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"regexp"
	"strings"
	"syscall"

	"logan"
	"logan/internal/cluster"
)

func main() {
	var (
		router  = flag.String("router", "", "router base URL, e.g. http://router:8080 (required)")
		name    = flag.String("name", "", "worker name, the worker=\"...\" label in the cluster rollup (default: hostname)")
		token   = flag.String("token", "", "shared cluster secret (the router's -cluster-token)")
		cellsPS = flag.Float64("cells-per-sec", 0, "advertised throughput estimate in DP cells/second (0 = unreported)")
		opt     logan.EngineOptions
	)
	flag.TextVar(&opt.Backend, "backend", logan.CPU, "alignment backend: cpu, gpu or hybrid")
	flag.IntVar(&opt.GPUs, "gpus", 1, "simulated GPU count (gpu and hybrid backends)")
	flag.IntVar(&opt.Threads, "threads", 0, "CPU worker count (0 = GOMAXPROCS)")
	flag.Parse()

	if *router == "" {
		fmt.Fprintln(os.Stderr, "logan-worker: -router is required")
		os.Exit(2)
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = fmt.Sprintf("worker-%d", os.Getpid())
		}
		*name = labelSafe(host)
	}

	eng, err := logan.NewAligner(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logan-worker: %v\n", err)
		os.Exit(1)
	}
	ov, err := logan.NewOverlapper(eng, logan.OverlapperOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "logan-worker: %v\n", err)
		os.Exit(1)
	}

	w, err := cluster.NewWorker(cluster.WorkerOptions{
		RouterURL:  strings.TrimRight(*router, "/"),
		Name:       *name,
		Token:      *token,
		Overlapper: ov,
		Backend:    opt.Backend.String(),
		CellsPS:    *cellsPS,
		Registry:   eng.Telemetry(),
		Logf:       log.Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "logan-worker: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("logan-worker: %s serving %s (backend %s)\n", *name, *router, opt.Backend)
	err = w.Run(ctx)
	eng.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "logan-worker: %v\n", err)
		os.Exit(1)
	}
}

// unsafeLabelChars matches everything a cluster worker name may not
// contain; hostnames are sanitized through it.
var unsafeLabelChars = regexp.MustCompile(`[^A-Za-z0-9_.-]+`)

// labelSafe rewrites s into a valid worker name.
func labelSafe(s string) string {
	s = unsafeLabelChars.ReplaceAllString(s, "-")
	s = strings.Trim(s, "-")
	if s == "" {
		return "worker"
	}
	return s
}
