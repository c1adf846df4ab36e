package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"time"

	"logan/internal/cluster/queue"
	"logan/internal/telemetry"
)

// RouterOptions tunes the router tier. The zero value of every field
// but QueuePath selects a production default.
type RouterOptions struct {
	// QueuePath is the write-ahead queue file. Required: durability is
	// the point of the router.
	QueuePath string
	// LeaseTTL is how long a worker may hold a job without extending
	// its lease before the job requeues (default 10s). Workers extend
	// at TTL/3, so a dead worker delays its job by at most one TTL.
	LeaseTTL time.Duration
	// WorkerTTL is how long a worker may go without a poll or a lease
	// report before it is dropped from the registry and the
	// readiness/rollup views (default 3x LeaseTTL, never less than
	// LeaseTTL). A long-poll is held at most WorkerTTL/3, so an idle
	// worker re-polls well inside it; a busy one is seen only at its
	// lease extensions, every LeaseTTL/3.
	WorkerTTL time.Duration
	// MaxRequeues bounds lease-expiry retries per job before it fails
	// terminally (default 3): a job that kills every worker it lands on
	// must not circulate forever.
	MaxRequeues int
	// MaxJobs bounds retained job records (default 64); terminal jobs
	// evict oldest-first to make room, a store full of live jobs sheds.
	MaxJobs int
	// MaxJobBytes bounds one job's FASTA (default 64 MiB) — the router
	// buffers the whole spec for the WAL.
	MaxJobBytes int64
	// PendingBytes bounds the aggregate spec bytes of non-terminal jobs
	// (default 256 MiB); ResultBytes bounds the aggregate retained PAF
	// bytes (default 256 MiB, oldest terminal jobs evicted).
	PendingBytes int64
	ResultBytes  int64
	// Token, when set, is the shared secret workers must present in
	// X-Logan-Cluster-Token; empty leaves the worker API open (trusted
	// network).
	Token string
	// Registry receives the router's instruments (required).
	Registry *telemetry.Registry
}

func (o *RouterOptions) defaults() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = 3 * o.LeaseTTL
	}
	o.WorkerTTL = max(o.WorkerTTL, o.LeaseTTL) // or busy workers drop out between extensions
	if o.MaxRequeues <= 0 {
		o.MaxRequeues = 3
	}
	if o.MaxJobBytes <= 0 {
		o.MaxJobBytes = 64 << 20
	}
}

// workerNameRE constrains worker names to label-safe characters: the
// name becomes the worker="..." label on every rolled-up metric series.
var workerNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// lease is the leased dispatcher's state for one live job, guarded by
// Store.mu like the record it hangs off.
type lease struct {
	payload []byte // framed spec, as stored in the WAL and handed to workers
	token   string // current lease token; "" while queued
	expires time.Time
}

// workerState is one worker's row in the registry, which is keyed by
// the worker's name.
type workerState struct {
	backend  string
	seen     time.Time
	snapshot *telemetry.Snapshot // latest registry snapshot from a poll or extend
	done     int64
	failed   int64
}

// Router is the front tier's leased dispatcher: durable admission into
// the write-ahead queue, leased dispatch to the workers that poll it,
// lease-expiry requeue, and the cluster-wide telemetry rollup. The job
// records themselves live in the embedded Store, whose mutex also guards
// every field below it.
type Router struct {
	*Store
	opt RouterOptions
	wal *queue.WAL
	// The dispatcher's own counters; the logan_jobs_* family is the Store's.
	requeued, expired, replayed, staleLeases *telemetry.Counter

	pending []string                // queued job IDs, FIFO
	workers map[string]*workerState // by worker name
	wake    chan struct{}           // closed+replaced when work arrives
	done    chan struct{}
	loopWG  sync.WaitGroup
}

// NewRouter opens (or creates) the write-ahead queue at opt.QueuePath,
// replays every pending job back into the queued state, and starts the
// lease-expiry loop.
func NewRouter(opt RouterOptions) (*Router, error) { return newRouter(opt, time.Now) }

func newRouter(opt RouterOptions, now func() time.Time) (*Router, error) {
	if opt.QueuePath == "" {
		return nil, errors.New("cluster: RouterOptions.QueuePath is required")
	}
	if opt.Registry == nil {
		return nil, errors.New("cluster: RouterOptions.Registry is required")
	}
	opt.defaults()
	wal, recs, err := queue.Open(opt.QueuePath)
	if err != nil {
		return nil, err
	}
	reg := opt.Registry
	r := &Router{
		Store:   newStore(reg, opt.MaxJobs, opt.PendingBytes, opt.ResultBytes, now),
		opt:     opt,
		wal:     wal,
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}),
		done:    make(chan struct{}),

		requeued:    reg.Counter("logan_cluster_requeues_total", "Jobs requeued after a lease expired or a worker released them."),
		expired:     reg.Counter("logan_cluster_lease_expired_total", "Leases that expired without completion."),
		replayed:    reg.Counter("logan_cluster_wal_replayed_total", "Jobs replayed from the write-ahead queue at startup."),
		staleLeases: reg.Counter("logan_cluster_stale_lease_total", "Worker reports rejected for carrying a superseded lease token."),
	}
	r.Store.d = r
	reg.GaugeFunc("logan_cluster_workers", "Live workers (seen within WorkerTTL).", func() float64 {
		return float64(len(r.Workers()))
	})
	reg.GaugeFunc("logan_cluster_queue_depth", "Pending records in the write-ahead queue.", func() float64 {
		return float64(wal.Pending())
	})

	// Replay: every unacked record becomes a queued job again, outside
	// admission control — it was admitted once. The spec carries tenant
	// attribution and the idempotency key, so client retries keep
	// deduplicating across the restart.
	for _, rec := range recs {
		spec, err := UnmarshalSpec(rec.Payload)
		if err != nil || spec.ID != rec.ID {
			// A record the WAL's CRC accepted but the codec rejects is a
			// version-skew bug, not recoverable data; drop it durably.
			wal.Ack(rec.ID)
			continue
		}
		j := &record{id: spec.ID, idemKey: spec.IdempotencyKey, tenantRunning: r.runningGauge(spec.Tenant)}
		r.enqueue(j, rec.Payload)
		r.insert(j, int64(len(rec.Payload)))
		r.replayed.Inc()
	}

	r.loopWG.Add(1)
	go r.expiryLoop()
	return r, nil
}

// enqueue attaches the leased-dispatch state to a record about to be
// inserted and puts it at the back of the queue. Caller holds mu.
func (r *Router) enqueue(j *record, payload []byte) {
	j.lease = &lease{payload: payload}
	j.retire = func() {
		// The job will never execute again: drop the payload, ack the WAL.
		j.lease = nil
		r.wal.Ack(j.id)
	}
	r.pending = append(r.pending, j.id)
	r.wakeLocked()
}

// expiryLoop requeues jobs whose lease lapsed and forgets workers that
// fell silent.
func (r *Router) expiryLoop() {
	defer r.loopWG.Done()
	tick := max(r.opt.LeaseTTL/4, 10*time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			r.expire()
		}
	}
}

// expire is one sweep of the expiry loop.
func (r *Router) expire() {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	for _, j := range r.jobs {
		if j.state != StateRunning || now.Before(j.lease.expires) {
			continue
		}
		r.expired.Inc()
		r.requeueLocked(j, fmt.Sprintf("lease expired on worker %q", j.worker))
	}
	for name, w := range r.workers {
		if now.Sub(w.seen) > r.opt.WorkerTTL {
			delete(r.workers, name)
		}
	}
}

// requeueLocked returns a running job to the queue, or fails it once it
// has exhausted its retry budget. Caller holds mu.
func (r *Router) requeueLocked(j *record, cause string) {
	if j.requeues >= r.opt.MaxRequeues {
		r.fail(j, fmt.Sprintf("gave up after %d requeues: %s", j.requeues, cause))
		return
	}
	r.requeue(j)
	j.lease.token = ""
	r.pending = append(r.pending, j.id)
	r.requeued.Inc()
	r.wakeLocked()
}

// wakeLocked signals blocked pollers that the queue may have work.
func (r *Router) wakeLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

// submit reads the FASTA source in full, frames the spec, fsyncs it to
// the WAL, and queues the job. The 202 a client sees implies the job
// survives a router crash.
func (r *Router) submit(sub Submission) (JobStatus, bool, error) {
	// A retry is answered before its body is read; admit re-checks under
	// the lock for retries racing each other.
	r.mu.Lock()
	st, replayed := r.replay(sub.IdempotencyKey)
	r.mu.Unlock()
	if replayed {
		return st, true, nil
	}
	src, err := sub.Open()
	if err != nil {
		return JobStatus{}, false, err
	}
	fasta, err := io.ReadAll(io.LimitReader(src, r.opt.MaxJobBytes+1))
	src.Close()
	if err != nil {
		return JobStatus{}, false, err
	}
	if int64(len(fasta)) > r.opt.MaxJobBytes {
		return JobStatus{}, false, fmt.Errorf("cluster: job FASTA exceeds the %d-byte limit", r.opt.MaxJobBytes)
	}
	spec := &Spec{
		ID:             NewID(),
		Tenant:         TenantName(sub.Tenant),
		IdempotencyKey: sub.IdempotencyKey,
		Config:         ConfigFromOverlap(sub.Config),
		Fasta:          fasta,
	}
	payload, err := spec.Marshal()
	if err != nil {
		return JobStatus{}, false, err
	}
	return r.admit(spec.ID, spec.IdempotencyKey, spec.Tenant, int64(len(payload)), func(j *record) error {
		if err := r.wal.Append(spec.ID, payload); err != nil {
			return err
		}
		r.enqueue(j, payload)
		return nil
	})
}

// slots counts live workers: a router with none would accept jobs it
// cannot run.
func (r *Router) slots() int { return len(r.Workers()) }

// close stops the expiry loop and releases the WAL. Queued and running
// jobs stay in the log for the next router.
func (r *Router) close() {
	close(r.done)
	r.mu.Lock()
	r.wakeLocked()
	r.mu.Unlock()
	r.loopWG.Wait()
	r.wal.Close()
}

// WorkerInfo is one live worker's public state, for /statz. CellsPS is
// the engine throughput gauge of the worker's last telemetry snapshot,
// zero before it has sent one.
type WorkerInfo struct {
	Name      string
	Backend   string
	CellsPS   float64
	LastSeen  time.Time
	Completed int64
	Failed    int64
	Leases    int
}

// Workers lists live workers (seen within WorkerTTL).
func (r *Router) Workers() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	leases := map[string]int{}
	for _, j := range r.jobs {
		if j.state == StateRunning {
			leases[j.worker]++
		}
	}
	var out []WorkerInfo
	for name, w := range r.workers {
		if now.Sub(w.seen) > r.opt.WorkerTTL {
			continue
		}
		var cellsPS float64
		if w.snapshot != nil {
			cellsPS = w.snapshot.Value("logan_engine_throughput_cells_per_second")
		}
		out = append(out, WorkerInfo{
			Name: name, Backend: w.backend, CellsPS: cellsPS, LastSeen: w.seen,
			Completed: w.done, Failed: w.failed, Leases: leases[name],
		})
	}
	return out
}

// WorkerSnapshots returns the latest telemetry snapshot each live
// worker sent with a poll or lease extension, keyed by worker name — the
// input to the /metrics rollup.
func (r *Router) WorkerSnapshots() map[string]*telemetry.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := map[string]*telemetry.Snapshot{}
	for name, w := range r.workers {
		if w.snapshot != nil && now.Sub(w.seen) <= r.opt.WorkerTTL {
			out[name] = w.snapshot
		}
	}
	return out
}

// --- worker-facing HTTP API --------------------------------------------

// Wire types of the worker protocol. A poll and an extend are how the
// router knows a worker is alive, idle or busy. Each carries the worker's
// whole telemetry registry as Snapshot, which the router re-labels with
// worker=<name> in the cluster rollup. A poll names its worker; an
// extend, a completion and a failure report carry only the lease, whose
// job names the worker it was leased to.
type pollRequest struct {
	Name     string              `json:"name"`
	Backend  string              `json:"backend"`
	WaitMs   int64               `json:"waitMs"`
	Snapshot *telemetry.Snapshot `json:"snapshot,omitempty"`
}

type extendRequest struct {
	Lease    string              `json:"lease"`
	Progress Progress            `json:"progress"`
	Snapshot *telemetry.Snapshot `json:"snapshot,omitempty"`
}

type failRequest struct {
	Lease string `json:"lease"`
	Error string `json:"error"`
	// Requeue asks for the job back on the queue (graceful worker
	// shutdown) instead of a terminal failure (execution error).
	Requeue bool `json:"requeue"`
}

// Handler returns the worker-facing API, to be mounted under /cluster/.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/poll", r.auth(r.handlePoll))
	mux.HandleFunc("POST /cluster/jobs/{id}/extend", r.auth(r.handleExtend))
	mux.HandleFunc("POST /cluster/jobs/{id}/complete", r.auth(r.handleComplete))
	mux.HandleFunc("POST /cluster/jobs/{id}/fail", r.auth(r.handleFail))
	return mux
}

// auth gates a handler on the shared cluster token, when one is set.
func (r *Router) auth(h http.HandlerFunc) http.HandlerFunc {
	if r.opt.Token == "" {
		return h
	}
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("X-Logan-Cluster-Token") != r.opt.Token {
			http.Error(w, "bad cluster token", http.StatusUnauthorized)
			return
		}
		h(w, req)
	}
}

// decodeJSON reads one JSON document into dst, bounded.
func decodeJSON(w http.ResponseWriter, req *http.Request, dst any, limit int64) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, limit)).Decode(dst); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (r *Router) handlePoll(w http.ResponseWriter, req *http.Request) {
	var in pollRequest
	if !decodeJSON(w, req, &in, 8<<20) {
		return
	}
	if !workerNameRE.MatchString(in.Name) {
		http.Error(w, fmt.Sprintf("worker name %q is not label-safe (want %s)", in.Name, workerNameRE), http.StatusBadRequest)
		return
	}
	// An idle worker is known alive only by its polls, so one is never
	// held past a third of WorkerTTL.
	wait := min(time.Duration(in.WaitMs)*time.Millisecond, r.opt.WorkerTTL/3)
	deadline := time.Now().Add(wait)
	for {
		r.mu.Lock()
		ws := r.workers[in.Name]
		if ws == nil || r.now().Sub(ws.seen) > r.opt.WorkerTTL {
			// A worker's first poll, or its first since it fell silent
			// (router restart, or a sweep pending or done), starts a
			// fresh row.
			ws = &workerState{}
			r.workers[in.Name] = ws
		}
		ws.backend, ws.seen = in.Backend, r.now()
		if in.Snapshot != nil {
			ws.snapshot = in.Snapshot
		}
		if j := r.leaseLocked(in.Name); j != nil {
			id, lease, payload := j.id, j.lease.token, j.lease.payload
			r.mu.Unlock()
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("X-Logan-Job-Id", id)
			w.Header().Set("X-Logan-Lease", lease)
			w.Header().Set("X-Logan-Lease-Ttl-Ms", strconv.FormatInt(r.opt.LeaseTTL.Milliseconds(), 10))
			w.Write(payload)
			return
		}
		wake := r.wake
		closed := r.closed
		r.mu.Unlock()
		remain := time.Until(deadline)
		if closed || remain <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		timer := time.NewTimer(remain)
		select {
		case <-wake:
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

// leaseLocked pops the next queued job and leases it to the named
// worker. Caller holds mu.
func (r *Router) leaseLocked(workerName string) *record {
	for len(r.pending) > 0 {
		j := r.jobs[r.pending[0]]
		r.pending = r.pending[1:]
		if j == nil || !r.start(j, workerName) {
			continue // canceled while queued
		}
		j.lease.token = NewID()
		j.lease.expires = r.now().Add(r.opt.LeaseTTL)
		return j
	}
	return nil
}

// leased reports whether (id, lease) names the job's current lease,
// marking the worker the job is leased to alive when it does and
// returning its row (nil when the router has dropped it). The record
// comes back either way, for the duplicate-completion check. Caller
// holds mu.
func (r *Router) leased(id, lease string) (*record, *workerState, bool) {
	j := r.jobs[id]
	if j == nil || j.lease == nil || j.lease.token == "" || j.lease.token != lease {
		return j, nil, false
	}
	ws := r.workers[j.worker]
	if ws != nil {
		ws.seen = r.now()
	}
	return j, ws, true
}

// stale answers a report that carried a superseded lease token.
func (r *Router) stale(w http.ResponseWriter) {
	r.staleLeases.Inc()
	http.Error(w, "stale lease", http.StatusConflict)
}

func (r *Router) handleExtend(w http.ResponseWriter, req *http.Request) {
	var in extendRequest
	if !decodeJSON(w, req, &in, 8<<20) {
		return
	}
	r.mu.Lock()
	j, ws, ok := r.leased(req.PathValue("id"), in.Lease)
	if ok {
		j.lease.expires = r.now().Add(r.opt.LeaseTTL)
		r.progress(j, in.Progress)
		if ws != nil && in.Snapshot != nil {
			ws.snapshot = in.Snapshot
		}
	}
	r.mu.Unlock()
	if !ok {
		// Expired and requeued, or DELETEd: either way the worker's signal
		// to abort without publishing.
		r.stale(w)
		return
	}
	writeJSON(w, struct{}{})
}

func (r *Router) handleComplete(w http.ResponseWriter, req *http.Request) {
	paf, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.resultBudget))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("PAF exceeds the router's %d-byte result budget", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var sum summary
	sum.overlaps, _ = strconv.Atoi(req.Header.Get("X-Logan-Overlaps"))
	sum.reads, _ = strconv.Atoi(req.Header.Get("X-Logan-Reads"))
	sum.cells, _ = strconv.ParseInt(req.Header.Get("X-Logan-Cells"), 10, 64)

	r.mu.Lock()
	j, ws, ok := r.leased(req.PathValue("id"), req.Header.Get("X-Logan-Lease"))
	if ok {
		r.complete(j, paf, sum)
		if ws != nil {
			ws.done++
		}
	}
	// A job that finished under another lease (or a network retry of an
	// accepted completion) is an idempotent OK: the work must not be
	// reported as failed to a worker that did it.
	ok = ok || j != nil && j.state == StateDone
	r.mu.Unlock()
	if !ok {
		r.stale(w)
		return
	}
	writeJSON(w, struct{}{})
}

func (r *Router) handleFail(w http.ResponseWriter, req *http.Request) {
	var in failRequest
	if !decodeJSON(w, req, &in, 1<<20) {
		return
	}
	r.mu.Lock()
	j, ws, ok := r.leased(req.PathValue("id"), in.Lease)
	if ok {
		if ws != nil {
			ws.failed++
		}
		if in.Requeue {
			r.requeueLocked(j, fmt.Sprintf("released by worker %q: %s", j.worker, in.Error))
		} else {
			r.fail(j, in.Error)
		}
	}
	r.mu.Unlock()
	if !ok {
		r.stale(w)
		return
	}
	writeJSON(w, struct{}{})
}

// writeJSON renders v with a 200.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
