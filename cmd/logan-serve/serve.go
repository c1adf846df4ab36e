package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"logan"
	"logan/internal/cluster"
	"logan/internal/telemetry"
	"logan/internal/xdrop"
)

// scoreParamLimit is a sanity bound on the magnitude of client-supplied
// score parameters; any real scheme is orders of magnitude below it. The
// int32 score-overflow invariant itself (parameter magnitude times pair
// length below MaxInt32) is enforced per pair by the engine's ingest,
// shared by every entry point, and surfaces here as 422.
const scoreParamLimit = 1 << 20

// requestConfig resolves a request's alignment configuration: the
// server's defaults overridden by the request's optional "x" and
// "scoring" fields, validated and bounded before admission. X is
// attacker-controlled work amplification — X-drop pruning is what keeps
// per-pair cost at O(band*length) instead of O(n*m) — so it is capped at
// -max-x just like body size and batch size are capped.
func (s *server) requestConfig(x *int32, sc *scoringJSON) (logan.Config, error) {
	cfg := s.cfg.defCfg
	if x != nil {
		if int(*x) > s.cfg.maxX {
			return logan.Config{}, fmt.Errorf("x %d exceeds the server's %d limit", *x, s.cfg.maxX)
		}
		cfg.X = *x
	}
	if sc != nil {
		for _, v := range []int32{sc.Match, sc.Mismatch, sc.Gap, sc.GapOpen, sc.GapExtend} {
			if v > scoreParamLimit || v < -scoreParamLimit {
				return logan.Config{}, fmt.Errorf("score parameter %d outside [%d, %d]", v, -scoreParamLimit, scoreParamLimit)
			}
		}
		switch sc.Mode {
		case "", "linear":
			cfg.Scoring = logan.LinearScoring(sc.Match, sc.Mismatch, sc.Gap)
		case "affine":
			cfg.Scoring = logan.AffineScoring(sc.Match, sc.Mismatch, sc.GapOpen, sc.GapExtend)
		case "blosum62":
			if sc.Gap >= 0 {
				return logan.Config{}, fmt.Errorf("blosum62 gap penalty %d must be negative", sc.Gap)
			}
			cfg.Scoring = logan.MatrixScoring(logan.Blosum62(sc.Gap))
		default:
			return logan.Config{}, fmt.Errorf("unknown scoring mode %q (want linear, affine or blosum62)", sc.Mode)
		}
	}
	if err := cfg.Validate(); err != nil {
		return logan.Config{}, err
	}
	return cfg, nil
}

// alignResponse mirrors logan.Align's results and stats.
type alignResponse struct {
	Alignments []alignmentJSON `json:"alignments"`
	Stats      statsJSON       `json:"stats"`
}

type alignmentJSON struct {
	Score  int32 `json:"score"`
	QBegin int   `json:"qBegin"`
	QEnd   int   `json:"qEnd"`
	TBegin int   `json:"tBegin"`
	TEnd   int   `json:"tEnd"`
	Cells  int64 `json:"cells"`
}

type statsJSON struct {
	Pairs    int     `json:"pairs"`
	Cells    int64   `json:"cells"`
	WallNS   int64   `json:"wallNs"`
	DeviceNS int64   `json:"deviceNs,omitempty"`
	GCUPS    float64 `json:"gcups"`
}

// serverTelemetry are the HTTP layer's instruments, registered in the
// engine's registry so one registry — and one atomic Snapshot of it —
// backs /metrics, /statz and the library counters alike. The per-backend
// breakdown that serverTotals used to track privately now comes from the
// engine's own logan_backend_* series.
type serverTelemetry struct {
	requests *telemetry.Counter
	pairs    *telemetry.Counter
	cells    *telemetry.Counter
	// errors counts failed requests; shed counts the 429 subset (also
	// included in errors). writeErrors counts responses that failed to
	// encode to the client (connection gone mid-response) — the alignment
	// work was already done and is counted in pairs/cells; only the
	// delivery failed.
	errors      *telemetry.Counter
	shed        *telemetry.Counter
	writeErrors *telemetry.Counter
}

func newServerTelemetry(reg *telemetry.Registry) serverTelemetry {
	return serverTelemetry{
		requests:    reg.Counter("logan_http_requests_total", "HTTP requests received (all endpoints)."),
		pairs:       reg.Counter("logan_http_pairs_total", "Pairs served by successful /align responses."),
		cells:       reg.Counter("logan_http_cells_total", "DP cells behind successful /align responses."),
		errors:      reg.Counter("logan_http_errors_total", "Requests answered with an error status."),
		shed:        reg.Counter("logan_http_shed_total", "Requests shed by admission control (HTTP 429)."),
		writeErrors: reg.Counter("logan_http_write_errors_total", "Responses that failed to encode to the client."),
	}
}

// serveConfig tunes the HTTP surface; defaultServeConfig gives the
// production defaults that main's flags override.
type serveConfig struct {
	// maxPairs bounds one request's batch; bodyLimit bounds its wire size.
	maxPairs  int
	bodyLimit int64
	// defCfg is the default alignment configuration applied to requests
	// that omit "x"/"scoring"; the zero value selects DefaultConfig(100).
	defCfg logan.Config
	// maxX caps the per-request "x" field (0 selects 10000): X scales
	// the DP band, so an unbounded client value would amplify per-pair
	// work to full quadratic DP.
	maxX int
	// coalescePairs and targetDelay map onto logan.CoalescerOptions of
	// the cross-request batching layer every /align request goes through
	// (zero values select that type's defaults).
	coalescePairs int
	targetDelay   time.Duration
	// apiKeys maps client API keys onto tenants (parsed from -api-keys
	// by loadAPIKeys); empty means the open single-tenant deployment
	// where every request is anonymous and unmetered.
	apiKeys map[string]*logan.Tenant
	// cacheEntries bounds the content-addressed result cache shared by
	// all tenants (0 disables it). Cached responses are byte-identical
	// to recomputation — the key covers sequence bytes, seed placement
	// and the full scoring configuration — so the cache is safe to share
	// across tenants: a hit reveals nothing the prober could not compute
	// from its own request.
	cacheEntries int
	// jobs enables the async /jobs overlap API; jobWorkers bounds the
	// concurrently running jobs, maxJobs the retained job records,
	// jobBodyLimit one FASTA upload's bytes, and jobDataDir (when set)
	// the root for server-side fastaPath submissions.
	jobs         bool
	jobWorkers   int
	maxJobs      int
	jobBodyLimit int64
	// jobPendingBytes bounds the aggregate FASTA bytes buffered by live
	// upload jobs — without it, maxJobs queued uploads of jobBodyLimit
	// each could pin maxJobs×jobBodyLimit of heap behind a few worker
	// slots. jobResultBytes bounds the aggregate PAF bytes retained by
	// finished jobs (output size is unrelated to input size), enforced by
	// evicting the oldest terminal jobs.
	jobPendingBytes int64
	jobResultBytes  int64
	jobDataDir      string
	// maps enables the reference-mapping API: POST /map places FASTA
	// reads against the installed minimizer index (built asynchronously
	// via POST /map/index, or at startup from -map-ref/-map-index).
	maps bool
	// cluster switches the /jobs subsystem from the in-process store to
	// the router tier: accepted jobs persist to the write-ahead queue at
	// clusterQueue and execute on polling logan-worker nodes under
	// expiring leases. leaseTTL/workerTTL/maxRequeues tune the failure
	// detector (zero values select cluster.RouterOptions defaults), and
	// clusterToken, when set, gates the worker API.
	cluster      bool
	clusterQueue string
	leaseTTL     time.Duration
	workerTTL    time.Duration
	maxRequeues  int
	clusterToken string
}

func defaultServeConfig() serveConfig {
	return serveConfig{
		maxPairs:        100_000,
		bodyLimit:       256 << 20,
		defCfg:          logan.DefaultConfig(100),
		maxX:            10_000,
		cacheEntries:    8192,
		jobs:            true,
		jobWorkers:      2,
		maxJobs:         64,
		jobBodyLimit:    64 << 20,
		jobPendingBytes: 256 << 20,
		jobResultBytes:  256 << 20,
		maps:            true,
	}
}

// server wires one shared Aligner engine into the HTTP surface. Handler
// goroutines enqueue into a shared logan.Coalescer that merges concurrent
// requests into engine-sized batches and sheds overload with 429.
type server struct {
	eng  *logan.Aligner
	coal *logan.Coalescer
	// store backs the /jobs API (nil when disabled). Its jobs run in this
	// process on a single node; in -cluster mode router, the store's
	// leased dispatcher, hands them to workers (and provides the worker
	// API, the rollup and the /statz cluster block).
	store  *cluster.Store
	router *cluster.Router
	// maps backs the reference-mapping API (nil when disabled): the
	// shared Mapper plus the single-slot async index build.
	maps *mapTier
	mux  *http.ServeMux
	// cfg is the server's configuration, defaulted by newServer.
	cfg serveConfig
	// ready flips once the warmup alignment completes; /readyz also
	// requires store.Ready() (in router mode: ≥1 live worker).
	ready atomic.Bool
	// tele is the engine's registry — the one store behind /metrics and
	// /statz; stages is a handle on the engine's stage-latency histogram
	// family, used to start per-request traces.
	tele   *telemetry.Registry
	stages *telemetry.Stages
	m      serverTelemetry
	// cache is the content-addressed result cache handed to the
	// coalescer; retained here for the /statz cache block.
	cache *logan.ResultCache
}

// newServer builds the HTTP surface for an engine. Callers must Close the
// returned server (after the HTTP listener has drained) to stop the
// coalescer's flusher and the job store; Close does not close the engine.
// Construction only fails in -cluster mode, when the write-ahead queue
// cannot be opened.
func newServer(eng *logan.Aligner, cfg serveConfig) (*server, error) {
	def := defaultServeConfig()
	if cfg.maxPairs <= 0 {
		cfg.maxPairs = def.maxPairs
	}
	if cfg.bodyLimit <= 0 {
		cfg.bodyLimit = def.bodyLimit
	}
	if cfg.defCfg == (logan.Config{}) {
		cfg.defCfg = def.defCfg
	}
	if cfg.maxX <= 0 {
		cfg.maxX = def.maxX
	}
	if cfg.jobBodyLimit <= 0 {
		cfg.jobBodyLimit = def.jobBodyLimit
	}
	s := &server{eng: eng, cfg: cfg}
	// The HTTP layer registers its instruments in the engine's registry:
	// NewStages get-or-creates the engine's own stage histogram family, so
	// the traces this layer starts and the stages the engine observes land
	// in the same series.
	s.tele = eng.Telemetry()
	s.stages = telemetry.NewStages(s.tele, "logan_stage_duration_seconds",
		"Pipeline stage latency by stage (admit, coalesce_wait, partition, kernel, scatter).")
	s.m = newServerTelemetry(s.tele)
	// The result cache lives inside the coalescer: probes happen at
	// admission (hits bypass queue and quota) and fills at scatter, so a
	// cached response is always the bytes a real batch produced.
	s.cache = logan.NewResultCache(cfg.cacheEntries)
	s.coal = eng.NewCoalescer(logan.CoalescerOptions{
		MaxBatchPairs: cfg.coalescePairs,
		TargetDelay:   cfg.targetDelay,
		Cache:         s.cache,
	})
	switch {
	case cfg.jobs && cfg.cluster:
		// Router mode: this node admits and persists jobs, polling
		// logan-worker nodes execute them. The front tier's own engine
		// still serves /align.
		router, err := cluster.NewRouter(cluster.RouterOptions{
			QueuePath:    cfg.clusterQueue,
			LeaseTTL:     cfg.leaseTTL,
			WorkerTTL:    cfg.workerTTL,
			MaxRequeues:  cfg.maxRequeues,
			MaxJobs:      cfg.maxJobs,
			MaxJobBytes:  cfg.jobBodyLimit,
			PendingBytes: cfg.jobPendingBytes,
			ResultBytes:  cfg.jobResultBytes,
			Token:        cfg.clusterToken,
			Registry:     s.tele,
		})
		if err != nil {
			s.coal.Close()
			return nil, err
		}
		s.router = router
		s.store = router.Store
	case cfg.jobs:
		// Jobs extend on the same engine as /align traffic, their chunks
		// riding the coalescer's bulk lanes behind it. A chunk that runs
		// alone runs under its job's context, so DELETE stops the engine
		// per pair.
		ov, err := logan.NewOverlapper(eng, logan.OverlapperOptions{Coalescer: s.coal})
		if err != nil {
			panic(err) // unreachable: eng is non-nil
		}
		s.store = cluster.NewLocal(cluster.LocalOptions{
			Overlapper:   ov,
			Workers:      cfg.jobWorkers,
			MaxJobs:      cfg.maxJobs,
			PendingBytes: cfg.jobPendingBytes,
			ResultBytes:  cfg.jobResultBytes,
			Registry:     s.tele,
		})
	}
	if cfg.maps {
		// The mapper extends on the shared engine; its batches ride the
		// coalescer's bulk lanes, as job chunks do.
		mapper, err := logan.NewMapper(eng, logan.MapperOptions{Coalescer: s.coal})
		if err != nil {
			panic(err) // unreachable: eng is non-nil
		}
		s.maps = &mapTier{mapper: mapper}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /align", s.handleAlign)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /statz", s.handleStatz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/paf", s.handleJobPAF)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobDelete)
	if s.maps != nil {
		mux.HandleFunc("POST /map", s.handleMap)
		mux.HandleFunc("POST /map/index", s.handleMapIndexBuild)
		mux.HandleFunc("GET /map/index", s.handleMapIndexStatus)
	}
	if s.router != nil {
		mux.Handle("/cluster/", s.router.Handler())
	}
	s.mux = mux
	// Warm the engine off the request path: the first alignment pays
	// one-time pool/device setup, and /readyz holds back load-balancer
	// traffic until it has been paid.
	go s.warmup()
	return s, nil
}

// warmup runs one trivial alignment through the engine and flips the
// readiness gate.
func (s *server) warmup() {
	pairs := []logan.Pair{{
		Query:   []byte("ACGTACGTACGTACGT"),
		Target:  []byte("ACGTACGTACGTACGT"),
		SeedLen: 8,
	}}
	s.eng.Align(context.Background(), pairs, s.cfg.defCfg)
	s.ready.Store(true)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels live jobs, waits for their runners, then stops the
// coalescer after flushing queued requests. Call it after the HTTP server
// has stopped accepting work and before the engine closes.
func (s *server) Close() {
	if s.store != nil {
		s.store.Close()
	}
	s.coal.Close()
}

func (s *server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.m.errors.Inc()
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// retryAfterSeconds renders a drain-rate estimate as a Retry-After header
// value: whole seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	return strconv.Itoa(max(1, int(math.Ceil(d.Seconds()))))
}

// alignRetryAfter is the Retry-After advertised on a shed /align request:
// the coalescer's live queue-drain projection.
func (s *server) alignRetryAfter() string {
	return retryAfterSeconds(s.coal.RetryAfter())
}

func (s *server) handleAlign(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	// Every /align request carries a trace: downstream layers (coalescer,
	// engine) stamp their stages onto it, and the spans come back to the
	// client in the X-Logan-Trace response header.
	tr := s.stages.StartTrace()
	ten, ok := s.tenantFor(r)
	if !ok {
		s.fail(w, http.StatusUnauthorized, "unknown API key")
		return
	}
	body, err := readBody(w, r, s.cfg.bodyLimit)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.fail(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		s.fail(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	req, err := decodeAlignRequest(body, s.cfg.maxPairs)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.n > s.cfg.maxPairs {
		s.fail(w, http.StatusRequestEntityTooLarge,
			"batch of %d pairs exceeds the %d-pair limit", req.n, s.cfg.maxPairs)
		return
	}
	cfg, err := s.requestConfig(req.x, req.scoring)
	if err != nil {
		// Invalid schemes are a client error, rejected before any pair
		// queues — a malformed configuration never reaches the engine.
		s.fail(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	// The pairs are views into body (see alignRequest): body must not be
	// reused before Align returns.
	pairs := req.pairs[:req.n]
	// Read + decode + validation is this layer's share of the
	// admit stage; the engine's ingest adds its own admit observation.
	tr.Step(telemetry.StageAdmit)
	ctx := telemetry.WithTrace(r.Context(), tr)
	if ten != nil {
		// The tenant rides the context into the coalescer (per-tenant
		// fair-share admission, quota, shed attribution).
		ctx = logan.WithTenant(ctx, ten)
	}

	out, st, err := s.coal.Align(ctx, pairs, cfg)
	if err != nil {
		switch {
		case errors.Is(err, logan.ErrOverloaded):
			// Shed, don't queue: admission control projects the queue delay
			// past its target (or the request's own deadline). Retry-After
			// carries the live drain-rate projection, not a constant. The
			// rejection closes the trace with a shed span, and the trace
			// still ships in X-Logan-Trace so a 429'd client sees exactly
			// where admission control stopped it.
			tr.Step(telemetry.StageShed)
			s.m.shed.Inc()
			w.Header().Set("Retry-After", s.alignRetryAfter())
			w.Header().Set("X-Logan-Trace", formatTrace(tr))
			s.fail(w, http.StatusTooManyRequests, "overloaded: %v", err)
		case errors.Is(err, logan.ErrUnsupportedConfig):
			// Well-formed scheme this server's backend cannot execute
			// (affine/matrix on a pure-GPU engine).
			s.fail(w, http.StatusUnprocessableEntity, "align: %v", err)
		case errors.Is(err, logan.ErrClosed):
			s.fail(w, http.StatusServiceUnavailable, "align: %v", err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The client abandoned the request mid-queue; the status is
			// for the books — nobody is left to read it.
			s.fail(w, http.StatusRequestTimeout, "align: %v", err)
		default:
			s.fail(w, http.StatusUnprocessableEntity, "align: %v", err)
		}
		return
	}
	s.m.pairs.Add(float64(st.Pairs))
	s.m.cells.Add(float64(st.Cells))

	resp := alignResponse{
		Alignments: make([]alignmentJSON, len(out)),
		Stats: statsJSON{
			Pairs: st.Pairs, Cells: st.Cells,
			WallNS: st.WallTime.Nanoseconds(), DeviceNS: st.DeviceTime.Nanoseconds(),
			GCUPS: st.GCUPS,
		},
	}
	for i, a := range out {
		resp.Alignments[i] = alignmentJSON{
			Score: a.Score, QBegin: a.QBegin, QEnd: a.QEnd,
			TBegin: a.TBegin, TEnd: a.TEnd, Cells: a.Cells,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Logan-Trace", formatTrace(tr))
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		s.m.writeErrors.Inc()
	}
}

// formatTrace renders a request trace as "stage=dur;stage=dur" for the
// X-Logan-Trace response header.
func formatTrace(tr *telemetry.Trace) string {
	var b strings.Builder
	for i, sp := range tr.Spans() {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(sp.Stage)
		b.WriteByte('=')
		b.WriteString(sp.D.Round(time.Microsecond).String())
	}
	return b.String()
}

// handleHealth is GET /healthz: pure liveness — the process is up and
// serving HTTP. Routability belongs to /readyz; a load balancer that
// health-checks here must not expect readiness semantics.
func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleReady is GET /readyz: 503 until the engine's warmup alignment
// has completed and — in router mode — at least one worker has polled
// or reported within its WorkerTTL, so load balancers never route to a
// node that would shed or queue everything.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"warming"}`)
	case s.store != nil && !s.store.Ready():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"no workers registered"}`)
	default:
		fmt.Fprintln(w, `{"status":"ready"}`)
	}
}

// statzJSON is the GET /statz payload: process-lifetime totals, the
// per-backend breakdown (which execution workers — CPU pool, each GPU —
// served how much of the traffic), and the coalescer's counters when
// cross-request batching is enabled. Every number is read from a single
// atomic registry snapshot — the same snapshot a concurrent /metrics
// scrape would see — so the JSON view and the Prometheus view of one
// instant agree. SIMD is not a counter: it names the instruction set the
// vector kernel runs on in this process ("avx512", "avx2", "sse2", or
// "none" off amd64, where the vector kernel is the scalar one), so a
// recorded number can say which path produced it.
type statzJSON struct {
	Requests    int64                       `json:"requests"`
	Pairs       int64                       `json:"pairs"`
	Cells       int64                       `json:"cells"`
	Errors      int64                       `json:"errors"`
	Shed        int64                       `json:"shed"`
	WriteErrors int64                       `json:"writeErrors"`
	Backends    map[string]backendStatzJSON `json:"backends"`
	Kernels     map[string]kernelStatzJSON  `json:"kernels,omitempty"`
	SIMD        string                      `json:"simd"`
	Coalescer   *coalescerStatzJSON         `json:"coalescer,omitempty"`
	Cache       *cacheStatzJSON             `json:"cache,omitempty"`
	Tenants     map[string]tenantStatzJSON  `json:"tenants,omitempty"`
	Jobs        *jobsStatzJSON              `json:"jobs,omitempty"`
	Map         *mapStatzJSON               `json:"map,omitempty"`
	Cluster     *clusterStatzJSON           `json:"cluster,omitempty"`
}

// clusterStatzJSON is the router-mode block of /statz: the worker fleet
// and the durable-queue counters.
type clusterStatzJSON struct {
	Workers           map[string]clusterWorkerJSON `json:"workers"`
	QueueDepth        int                          `json:"queueDepth"`
	Requeues          int64                        `json:"requeues"`
	LeaseExpired      int64                        `json:"leaseExpired"`
	StaleLeases       int64                        `json:"staleLeases"`
	WALReplayed       int64                        `json:"walReplayed"`
	IdempotentReplays int64                        `json:"idempotentReplays"`
}

// clusterWorkerJSON is one live worker's row in /statz. CellsPerSec is
// the engine throughput gauge of the worker's last telemetry snapshot,
// omitted before it has sent one.
type clusterWorkerJSON struct {
	Backend     string  `json:"backend"`
	CellsPerSec float64 `json:"cellsPerSec,omitempty"`
	Leases      int     `json:"leases"`
	Completed   int64   `json:"completed"`
	Failed      int64   `json:"failed"`
	LastSeen    string  `json:"lastSeen"`
}

// clusterStatz builds the cluster block from the router's worker
// registry and the registry snapshot.
func clusterStatz(router *cluster.Router, snap *telemetry.Snapshot) *clusterStatzJSON {
	out := &clusterStatzJSON{
		Workers:           map[string]clusterWorkerJSON{},
		QueueDepth:        int(snap.Value("logan_cluster_queue_depth")),
		Requeues:          snap.Int("logan_cluster_requeues_total"),
		LeaseExpired:      snap.Int("logan_cluster_lease_expired_total"),
		StaleLeases:       snap.Int("logan_cluster_stale_lease_total"),
		WALReplayed:       snap.Int("logan_cluster_wal_replayed_total"),
		IdempotentReplays: snap.Int("logan_jobs_idempotent_replays_total"),
	}
	for _, w := range router.Workers() {
		out.Workers[w.Name] = clusterWorkerJSON{
			Backend:     w.Backend,
			CellsPerSec: w.CellsPS,
			Leases:      w.Leases,
			Completed:   w.Completed,
			Failed:      w.Failed,
			LastSeen:    w.LastSeen.UTC().Format(time.RFC3339Nano),
		}
	}
	return out
}

// cacheStatzJSON is the result-cache block of /statz: hit/miss/eviction
// totals plus the current entry count.
type cacheStatzJSON struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// tenantStatzJSON is one tenant's slice of the traffic: totals from the
// per-tenant counter series plus the live queued-pairs gauge. The map
// only lists tenants that have sent traffic (the instruments register on
// first sight).
type tenantStatzJSON struct {
	Requests    int64 `json:"requests"`
	Pairs       int64 `json:"pairs"`
	Shed        int64 `json:"shed"`
	CacheHits   int64 `json:"cacheHits"`
	QueuedPairs int   `json:"queuedPairs"`
	RunningJobs int   `json:"runningJobs,omitempty"`
}

type backendStatzJSON struct {
	Pairs  int64 `json:"pairs"`
	Cells  int64 `json:"cells"`
	TimeNS int64 `json:"timeNs"`
}

// kernelStatzJSON is the per-extension-kernel-variant slice of the
// traffic: how many pairs and DP cells ran on the scalar kernel, the
// vector kernel, and the (simulated) GPU kernel.
type kernelStatzJSON struct {
	Pairs int64 `json:"pairs"`
	Cells int64 `json:"cells"`
}

// coalescerStatzJSON mirrors logan.CoalescerMetrics on the wire, plus the
// per-reason shed breakdown the admission controller produces.
type coalescerStatzJSON struct {
	Enqueued        int64   `json:"enqueued"`
	Shed            int64   `json:"shed"`
	ShedDelay       int64   `json:"shedDelay"`
	ShedDeadline    int64   `json:"shedDeadline"`
	ShedQuota       int64   `json:"shedQuota"`
	Direct          int64   `json:"direct"`
	MergedBatches   int64   `json:"mergedBatches"`
	MergedPairs     int64   `json:"mergedPairs"`
	MergedRequests  int64   `json:"mergedRequests"`
	MaxMergedPairs  int64   `json:"maxMergedPairs"`
	WaitNS          int64   `json:"waitNs"`
	DrainPairsPerS  float64 `json:"drainPairsPerSec"`
	ProjectedDelayS float64 `json:"projectedDelaySec"`
	QueuedRequests  int     `json:"queuedRequests"`
	QueuedPairs     int     `json:"queuedPairs"`
	// QueuedLanes counts distinct (tenant, class, config) scheduling
	// lanes; the JSON name keeps the pre-lane "queuedConfigs" wire name.
	QueuedLanes int `json:"queuedConfigs"`
}

func (s *server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	snap := s.tele.Snapshot()
	out := statzJSON{
		Requests:    snap.Int("logan_http_requests_total"),
		Pairs:       snap.Int("logan_http_pairs_total"),
		Cells:       snap.Int("logan_http_cells_total"),
		Errors:      snap.Int("logan_http_errors_total"),
		Shed:        snap.Int("logan_http_shed_total"),
		WriteErrors: snap.Int("logan_http_write_errors_total"),
		Backends: statzBreakdown(snap, "backend", map[string]func(*backendStatzJSON, float64){
			"logan_backend_pairs_total":        func(b *backendStatzJSON, v float64) { b.Pairs = int64(v) },
			"logan_backend_cells_total":        func(b *backendStatzJSON, v float64) { b.Cells = int64(v) },
			"logan_backend_busy_seconds_total": func(b *backendStatzJSON, v float64) { b.TimeNS = int64(v * 1e9) },
		}),
		Kernels: statzBreakdown(snap, "variant", map[string]func(*kernelStatzJSON, float64){
			"logan_kernel_pairs_total": func(k *kernelStatzJSON, v float64) { k.Pairs = int64(v) },
			"logan_kernel_cells_total": func(k *kernelStatzJSON, v float64) { k.Cells = int64(v) },
		}),
		SIMD: xdrop.VectorISA(),
	}
	if out.Backends == nil {
		out.Backends = map[string]backendStatzJSON{} // {} on the wire before the first batch
	}
	out.Coalescer = coalescerStatz(snap)
	if s.cache != nil {
		out.Cache = &cacheStatzJSON{
			Hits:      snap.Int("logan_cache_hits_total"),
			Misses:    snap.Int("logan_cache_misses_total"),
			Evictions: snap.Int("logan_cache_evictions_total"),
			Entries:   int(snap.Value("logan_cache_entries")),
		}
	}
	out.Tenants = statzBreakdown(snap, "tenant", map[string]func(*tenantStatzJSON, float64){
		"logan_tenant_requests_total":   func(t *tenantStatzJSON, v float64) { t.Requests = int64(v) },
		"logan_tenant_pairs_total":      func(t *tenantStatzJSON, v float64) { t.Pairs = int64(v) },
		"logan_tenant_shed_total":       func(t *tenantStatzJSON, v float64) { t.Shed = int64(v) },
		"logan_tenant_cache_hits_total": func(t *tenantStatzJSON, v float64) { t.CacheHits = int64(v) },
		"logan_tenant_queued_pairs":     func(t *tenantStatzJSON, v float64) { t.QueuedPairs = int(v) },
		"logan_tenant_running_jobs":     func(t *tenantStatzJSON, v float64) { t.RunningJobs = int(v) },
	})
	if s.store != nil {
		out.Jobs = jobsStatz(snap)
	}
	if s.maps != nil {
		out.Map = &mapStatzJSON{
			Reads:      snap.Int("logan_map_reads_total"),
			Mapped:     snap.Int("logan_map_reads_mapped_total"),
			Anchors:    snap.Int("logan_map_anchors_total"),
			Chains:     snap.Int("logan_map_chains_total"),
			Extensions: snap.Int("logan_map_extensions_total"),
			Records:    snap.Int("logan_map_records_total"),
			Shed:       snap.Int("logan_map_shed_total"),
			Retries:    snap.Int("logan_map_retries_total"),
			Index:      s.maps.status(),
		}
	}
	if s.router != nil {
		out.Cluster = clusterStatz(s.router, snap)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		s.m.writeErrors.Inc()
	}
}

// statzBreakdown folds labelled series into a /statz breakdown: one entry
// per value of label, each series in fields setting its part. A series
// without the label is left out. Nil until some series has it (the
// instruments register on first sight).
func statzBreakdown[T any](snap *telemetry.Snapshot, label string, fields map[string]func(*T, float64)) map[string]T {
	var out map[string]T
	for metric, set := range fields {
		for _, ss := range snap.Series(metric) {
			name := ss.LabelValue(label)
			if name == "" {
				continue
			}
			if out == nil {
				out = map[string]T{}
			}
			e := out[name]
			set(&e, ss.Value)
			out[name] = e
		}
	}
	return out
}

// coalescerStatz builds the coalescer block from the same snapshot.
func coalescerStatz(snap *telemetry.Snapshot) *coalescerStatzJSON {
	shedDelay := snap.Int("logan_coalescer_shed_total", telemetry.L("reason", "delay"))
	shedDeadline := snap.Int("logan_coalescer_shed_total", telemetry.L("reason", "deadline"))
	shedQuota := snap.Int("logan_coalescer_shed_total", telemetry.L("reason", "quota"))
	return &coalescerStatzJSON{
		Enqueued:        snap.Int("logan_coalescer_enqueued_total"),
		Shed:            shedDelay + shedDeadline + shedQuota,
		ShedDelay:       shedDelay,
		ShedDeadline:    shedDeadline,
		ShedQuota:       shedQuota,
		Direct:          snap.Int("logan_coalescer_direct_total"),
		MergedBatches:   snap.Int("logan_coalescer_merged_batches_total"),
		MergedPairs:     snap.Int("logan_coalescer_merged_pairs_total"),
		MergedRequests:  snap.Int("logan_coalescer_merged_requests_total"),
		MaxMergedPairs:  snap.Int("logan_coalescer_max_merged_pairs"),
		WaitNS:          int64(snap.Value("logan_coalescer_queue_wait_seconds_total") * 1e9),
		DrainPairsPerS:  snap.Value("logan_coalescer_drain_pairs_per_second"),
		ProjectedDelayS: snap.Value("logan_coalescer_projected_delay_seconds"),
		QueuedRequests:  int(snap.Value("logan_coalescer_queued_requests")),
		QueuedPairs:     int(snap.Value("logan_coalescer_queued_pairs")),
		QueuedLanes:     int(snap.Value("logan_coalescer_queued_configs")),
	}
}

// handleMetrics serves the whole registry in Prometheus text exposition
// format (version 0.0.4): one atomic snapshot, the same numbers a
// concurrent /statz request would report. In router mode the scrape is
// the cluster rollup: the series every live worker sent with its last
// poll or lease extension are merged in under a worker="<name>" label,
// so one scrape of the router
// covers the fleet's backend/kernel/tenant breakdowns.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.m.requests.Inc()
	snap := s.tele.Snapshot()
	if s.router != nil {
		snap = cluster.MergeSnapshots(snap, s.router.WorkerSnapshots())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := snap.WriteText(w); err != nil {
		s.m.writeErrors.Inc()
	}
}
