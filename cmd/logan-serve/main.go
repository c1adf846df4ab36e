// Command logan-serve exposes a long-lived logan.Aligner engine over HTTP:
// the serve-mode proof that the engine sustains concurrent batch traffic
// without per-call setup. One engine is built at startup and shared by
// every request.
//
// Concurrent /align requests are coalesced: a logan.Coalescer merges
// whatever arrives while the engine is busy into the next batch (an idle
// server adds no wait; under load batches fill by themselves) and sheds
// overload with HTTP 429 + Retry-After. Admission is adaptive: requests
// shed when the projected queue delay at the measured drain rate exceeds
// -target-delay (or the request's own deadline). Shed responses carry an
// X-Logan-Trace header ending in a shed span, so a 429'd client sees
// exactly where admission control stopped it.
//
// With -api-keys the server is multi-tenant: requests authenticate via
// X-API-Key (or Authorization: Bearer), each key resolves to a named
// tenant with an optional pairs/sec token-bucket quota and a fair-share
// weight, and the coalescer schedules per-(tenant, class, config) lanes
// by deficit round robin — a flooding tenant exhausts its own share and
// sheds while other tenants' requests stay on time. Interactive /align
// traffic is scheduled ahead of bulk job-extension chunks, which still
// get at least every fifth batch.
// Unknown keys get 401; requests without credentials share the
// "anonymous" tenant. Without -api-keys everything is anonymous and
// unmetered, as before.
//
// The coalesced path also maintains a content-addressed result cache
// (-cache-entries alignments, LRU): a repeated (pair, configuration)
// is answered from the cache without queueing or charging quota, and
// cached responses are byte-identical to recomputation because the key
// covers the sequence bytes, seed placement and full scoring
// configuration. Per-tenant traffic, shed and cache-hit totals are
// exposed as logan_tenant_* series on /metrics and a "tenants" block on
// /statz; the cache as logan_cache_* and a "cache" block.
//
// Requests are request-scoped: the optional top-level "x" and "scoring"
// fields override the server defaults per request, so one server process
// serves mixed X / linear / affine / BLOSUM62 traffic on a single engine
// (the coalescer merges same-config requests). "scoring" selects
// {"mode":"linear","match","mismatch","gap"},
// {"mode":"affine","match","mismatch","gapOpen","gapExtend"} or
// {"mode":"blosum62","gap"}. Invalid schemes get 400; affine/blosum62 on
// a pure-GPU server get 422 (the kernel is linear-DNA only).
//
// The server also hosts the async overlap-job API: POST a FASTA data set
// to /jobs and the BELLA overlap pipeline (logan.Overlapper) runs it on
// the same shared engine — its extension chunks ride the request
// coalescer's bulk lanes, scheduled behind /align traffic on the same
// worker pools and devices. Jobs are bounded (-max-jobs retained
// records, -job-workers concurrent runs) and cancellable: DELETE aborts
// a running job promptly (a chunk running alone observes the job's
// context per pair; one merged with another job's chunk finishes that
// batch first). Retried submissions can carry an
// Idempotency-Key header: a repeat of a key the server still remembers
// maps onto the existing job (original ID, X-Logan-Replayed: true)
// instead of double-executing. See docs/SERVING.md for the full API
// reference.
//
// With -cluster the process becomes the router tier of a scale-out
// cluster: the front door (auth, quotas, admission) is unchanged, but
// accepted /jobs are persisted to a durable file-backed queue
// (-cluster-queue; replayed on restart) and executed by logan-worker
// processes that pull work over HTTP under expiring leases
// (-lease-ttl). A worker is known by its name alone, from its first
// poll on; its polls and lease extensions are its liveness and carry
// its telemetry. A worker that dies mid-job simply stops extending its
// lease; the router requeues the job (at most -max-requeues times) and
// a surviving worker produces byte-identical output. /statz gains a
// "cluster" block and /metrics becomes the fleet rollup: every worker's
// series re-exported under a worker="<name>" label. See docs/SERVING.md
// ("Running a cluster").
//
// The server also hosts the reference-mapping API (logan.Mapper): POST
// a reference FASTA to /map/index (or start with -map-ref/-map-index)
// and POST /map places FASTA reads against it, returning PAF that is
// byte-identical to the offline logan.Mapper.Map output for the same
// reads and index. Mapping extension batches run on the shared engine
// through the coalescer's bulk lanes, as job chunks do; logan_map_*
// series land in /metrics and a "map" block in /statz.
//
// Endpoints:
//
//	POST   /align        {"pairs":[{"query","target","seedQ","seedT","seedLen"}],
//	                     "x":..., "scoring":{...}}
//	POST   /jobs         FASTA body (config via ?x=&k=&coverage=... query) or
//	                     {"fastaPath","config":{...}} with -job-data-dir; 202 + id
//	GET    /jobs/{id}    status + progress (stage, reads, k-mers, candidates,
//	                     extensions done/total, shed/retry counts)
//	GET    /jobs/{id}/paf  the finished job's overlaps in PAF (409 until done)
//	DELETE /jobs/{id}    cancel and forget the job (404 afterwards)
//	POST   /map          FASTA reads in, PAF placements out: maps reads
//	                     against the installed minimizer index via the
//	                     minimize → chain → extend pipeline (409 until an
//	                     index is installed; ?x=&maxSecondary=... tune it)
//	POST   /map/index    reference FASTA in; builds the minimizer index
//	                     asynchronously (?k=&w=&maxOcc=) — 202, then poll
//	GET    /map/index    index state: none | building | ready | failed,
//	                     plus the installed index's statistics
//	GET    /healthz      pure liveness: 200 while the process can serve
//	GET    /readyz       readiness: 503 until the engine has run its
//	                     warm-up alignment (and, in router mode, until at
//	                     least one worker has polled), then 200
//	POST   /cluster/...  worker protocol (poll, extend, complete,
//	                     fail) — router mode only,
//	                     guarded by -cluster-token
//	GET    /statz        process-lifetime totals (requests, pairs, cells,
//	                     errors, shed, writeErrors), the per-backend
//	                     breakdown (cpu, gpu0, ...), the coalescer counters
//	                     and the jobs block — a JSON view over the same
//	                     registry snapshot /metrics renders
//	GET    /metrics      the whole telemetry registry in Prometheus text
//	                     exposition format (stage latency histograms,
//	                     per-backend gauges, shed/retry counters)
//
// With -debug-addr set, a second listener additionally serves Go's
// net/http/pprof profiles under /debug/pprof/ — kept off the public
// address so profiling endpoints are never exposed to clients.
//
// logan-serve -h lists the flags with their defaults; docs/SERVING.md
// carries the same table, generated from it.
//
// SIGINT/SIGTERM drain in-flight requests, cancel live jobs and run the
// coalescer queue dry, then release the engine before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"logan"
)

func main() {
	// Flags bind straight into the structures they configure: the engine
	// options, the serve configuration (whose defaults are
	// defaultServeConfig's) and the startup index options (whose three
	// flags are the index parameter table's rows).
	cfg := defaultServeConfig()
	var (
		opt    logan.EngineOptions
		mapOpt logan.IndexOptions
	)
	addr := flag.String("addr", ":8080", "listen address")
	x := flag.Int("x", int(cfg.defCfg.X), "X-drop threshold")
	flag.TextVar(&opt.Backend, "backend", logan.CPU, "alignment backend: cpu, gpu or hybrid")
	flag.IntVar(&opt.GPUs, "gpus", 1, "simulated GPU count (gpu and hybrid backends)")
	flag.IntVar(&opt.Threads, "threads", 0, "CPU worker count (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.maxPairs, "max-pairs", cfg.maxPairs, "largest accepted batch")
	flag.IntVar(&cfg.maxX, "max-x", cfg.maxX, "largest per-request X (caps client-controlled DP work)")

	flag.IntVar(&cfg.coalescePairs, "coalesce-pairs", 0,
		"merged-batch pair cap (0 = 4096)")
	flag.DurationVar(&cfg.targetDelay, "target-delay", 0,
		"adaptive admission sheds once projected queue delay exceeds this (0 = 20ms)")
	apiKeys := flag.String("api-keys", "",
		"API key file (\"key name [pairsPerSec [burst [weight]]]\" per line) enabling per-tenant quotas and fair-share scheduling (empty = open single-tenant server)")
	flag.IntVar(&cfg.cacheEntries, "cache-entries", cfg.cacheEntries,
		"content-addressed result cache capacity in alignments (0 = disabled)")
	debugAddr := flag.String("debug-addr", "",
		"separate listen address for net/http/pprof profiling endpoints (empty = disabled)")

	flag.BoolVar(&cfg.jobs, "jobs", cfg.jobs, "enable the async /jobs overlap API")
	flag.IntVar(&cfg.jobWorkers, "job-workers", cfg.jobWorkers, "overlap jobs running concurrently")
	flag.IntVar(&cfg.maxJobs, "max-jobs", cfg.maxJobs, "retained job records before submissions shed with 429")
	flag.Int64Var(&cfg.jobBodyLimit, "job-body-limit", cfg.jobBodyLimit, "largest accepted FASTA upload in bytes")
	flag.Int64Var(&cfg.jobPendingBytes, "job-pending-bytes", cfg.jobPendingBytes,
		"aggregate FASTA bytes buffered by ingesting upload jobs before submissions shed with 429")
	flag.Int64Var(&cfg.jobResultBytes, "job-result-bytes", cfg.jobResultBytes,
		"aggregate PAF bytes retained by finished jobs before the oldest are evicted")
	flag.StringVar(&cfg.jobDataDir, "job-data-dir", "",
		"root directory for server-side fastaPath submissions (empty = uploads only)")

	flag.BoolVar(&cfg.maps, "map", cfg.maps, "enable the reference-mapping /map API")
	mapRef := flag.String("map-ref", "",
		"reference FASTA to index at startup for /map (empty = build via POST /map/index)")
	mapIndex := flag.String("map-index", "",
		"saved minimizer index (from logan-map build-index) to load at startup for /map")
	mapOpt.Params().Flags(flag.CommandLine, map[string]string{"k": "map-k", "w": "map-w", "maxOcc": "map-max-occ"})

	flag.BoolVar(&cfg.cluster, "cluster", false,
		"router mode: accepted /jobs are persisted to a durable queue and executed by logan-worker processes instead of the local engine (requires -jobs)")
	flag.StringVar(&cfg.clusterQueue, "cluster-queue", "",
		"path of the durable job queue file (router mode; required with -cluster)")
	flag.DurationVar(&cfg.leaseTTL, "lease-ttl", 0,
		"work lease duration before an unextended job is requeued (router mode; 0 = 10s)")
	flag.DurationVar(&cfg.workerTTL, "worker-ttl", 0,
		"silence (no poll, no lease report) after which a worker is dropped from the registry; a long-poll is held at most a third of it (router mode; 0 = 3x lease TTL; never below the lease TTL)")
	flag.IntVar(&cfg.maxRequeues, "max-requeues", 0,
		"lease expiries tolerated per job before it fails terminally (router mode; 0 = 3)")
	flag.StringVar(&cfg.clusterToken, "cluster-token", "",
		"shared secret workers must present as X-Logan-Cluster-Token (empty = open worker endpoints)")
	flag.Parse()

	eng, err := logan.NewAligner(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logan-serve: %v\n", err)
		os.Exit(1)
	}

	cfg.defCfg = logan.DefaultConfig(int32(*x))
	// Fail fast on a misconfigured default: without this a -x -5 server
	// boots healthy and turns the operator error into per-request 400s.
	if err := cfg.defCfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "logan-serve: -x %d: %v\n", *x, err)
		os.Exit(2)
	}
	// The default must sit inside the per-request cap, or a client
	// explicitly sending the server's own X would be rejected while the
	// identical implicit config is served.
	if *x > cfg.maxX {
		fmt.Fprintf(os.Stderr, "logan-serve: -x %d exceeds -max-x %d\n", *x, cfg.maxX)
		os.Exit(2)
	}
	if *apiKeys != "" {
		keys, err := loadAPIKeys(*apiKeys)
		if err != nil {
			fmt.Fprintf(os.Stderr, "logan-serve: -api-keys: %v\n", err)
			os.Exit(2)
		}
		cfg.apiKeys = keys
	}
	// Router mode replaces the local job store: it only makes sense with
	// the /jobs API on, and it cannot run without somewhere durable to
	// put accepted work.
	if cfg.cluster {
		if !cfg.jobs {
			fmt.Fprintln(os.Stderr, "logan-serve: -cluster requires -jobs")
			os.Exit(2)
		}
		if cfg.clusterQueue == "" {
			fmt.Fprintln(os.Stderr, "logan-serve: -cluster requires -cluster-queue")
			os.Exit(2)
		}
	}
	if (*mapRef != "" || *mapIndex != "") && !cfg.maps {
		fmt.Fprintln(os.Stderr, "logan-serve: -map-ref/-map-index require -map")
		os.Exit(2)
	}
	if *mapRef != "" && *mapIndex != "" {
		fmt.Fprintln(os.Stderr, "logan-serve: -map-ref and -map-index are mutually exclusive")
		os.Exit(2)
	}
	handler, err := newServer(eng, cfg)
	if err != nil {
		eng.Close()
		fmt.Fprintf(os.Stderr, "logan-serve: %v\n", err)
		os.Exit(1)
	}
	// Startup index installation is synchronous: a -map-ref server that
	// accepts traffic before the index exists would 409 every /map until
	// the build lands, which reads as flapping to a load balancer.
	if *mapRef != "" || *mapIndex != "" {
		path := *mapRef
		if path == "" {
			path = *mapIndex
		}
		f, err := os.Open(path)
		if err == nil {
			if *mapRef != "" {
				_, err = handler.maps.mapper.Build(context.Background(), f, mapOpt)
			} else {
				_, err = handler.maps.mapper.Load(f)
			}
			f.Close()
		}
		if err != nil {
			handler.Close()
			eng.Close()
			fmt.Fprintf(os.Stderr, "logan-serve: %s: %v\n", path, err)
			os.Exit(1)
		}
		st, _ := handler.maps.mapper.IndexStats()
		fmt.Printf("logan-serve: mapping index ready (%d refs, %d bases, k=%d w=%d)\n",
			st.Refs, st.Bases, st.K, st.W)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Large batches upload slowly, but headers and idle keep-alives
		// must not let slow clients pin connections forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// pprof lives on its own listener (never the public mux) so profiling
	// and heap-dump endpoints stay reachable only from wherever the
	// operator points -debug-addr.
	var dbgSrv *http.Server
	if *debugAddr != "" {
		dbgMux := http.NewServeMux()
		dbgMux.HandleFunc("/debug/pprof/", pprof.Index)
		dbgMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbgMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbgMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbgMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbgSrv = &http.Server{Addr: *debugAddr, Handler: dbgMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "logan-serve: debug listener: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	fmt.Printf("logan-serve: listening on %s (backend %s, X=%d)\n", *addr, opt.Backend, *x)

	var exitErr error
	select {
	case exitErr = <-done:
	case <-ctx.Done():
		// Drain in-flight requests; the engine's worker pools are
		// released below, so the process exits with nothing still
		// running.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		exitErr = srv.Shutdown(shutdownCtx)
		cancel()
	}
	if dbgSrv != nil {
		dbgSrv.Close()
	}
	// In-flight handlers have returned; flush the coalescer's residual
	// queue before the engine goes away.
	handler.Close()
	eng.Close()
	if exitErr != nil && !errors.Is(exitErr, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "logan-serve: %v\n", exitErr)
		os.Exit(1)
	}
}
