package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"logan/internal/telemetry"
)

// summary is what a finished run reports besides its PAF bytes.
type summary struct {
	overlaps int
	reads    int
	cells    int64
}

// record is one job. Every field is guarded by Store.mu.
//
//	queued -> running -> done | failed
//	   \--------\--------> canceled (DELETE, shutdown)
//	running -> queued (leased dispatch only: lease expiry, worker release)
type record struct {
	id       string
	idemKey  string // client Idempotency-Key, "" when absent
	state    string
	err      string
	progress Progress
	paf      []byte // serialized PAF, set when state == StateDone
	sum      summary
	created  time.Time
	started  time.Time
	finished time.Time
	// reserved is the job's charge against the pending-byte budget: the
	// bytes its dispatcher holds for it (buffered upload, WAL spec). It
	// drops to zero when the dispatcher releases it or the job ends.
	reserved int64
	// worker and requeues attribute leased executions; both stay zero
	// under the local dispatcher.
	worker   string
	requeues int
	// tenantRunning is the submitting tenant's running-jobs gauge.
	tenantRunning *telemetry.Gauge
	// retire is the dispatcher's hook for the moment the job can never
	// execute again (local: cancel the run context; leased: ack the WAL
	// record). It runs once, under Store.mu.
	retire func()
	// lease is the leased dispatcher's per-job state; nil under the local
	// dispatcher and once the job is terminal.
	lease *lease
}

// dispatcher is the half of the jobs subsystem that differs between a
// single node and a cluster: how an admitted job gets executed.
type dispatcher interface {
	// submit resolves the submission's source and registers it through
	// Store.admit.
	submit(Submission) (JobStatus, bool, error)
	// slots is how many jobs can execute at once right now: the divisor
	// of the Retry-After projection, and zero when accepted jobs could
	// make no progress.
	slots() int
	// close stops execution. It is called once, after the store has
	// stopped admitting.
	close()
}

// storeTelemetry is the logan_jobs_* family: registered here and nowhere
// else, so /statz and dashboards read the same series in both modes.
type storeTelemetry struct {
	submitted, completed, failed, canceled *telemetry.Counter
	// rejected counts submissions shed by admission control (HTTP 429);
	// replays counts submissions deduplicated by Idempotency-Key.
	rejected, replays *telemetry.Counter
	pafBytes          *telemetry.Counter
	// avgDuration is the EWMA wall time of completed jobs — the drain-rate
	// estimate behind Retry-After.
	avgDuration *telemetry.Gauge
}

// Store is the one record of overlap jobs behind the /jobs API: the
// bounded job table (at most maxJobs retained, terminal jobs evicted
// oldest-first, a table full of live jobs sheds), the pending- and
// result-byte budgets, the idempotency map, and the logan_jobs_* series.
// A dispatcher — NewLocal's in-process runner or the leased Router —
// executes what the store admits and reports back through the transition
// methods, which each do state change, byte accounting and counters once.
type Store struct {
	d             dispatcher
	now           func() time.Time
	maxJobs       int
	pendingBudget int64
	resultBudget  int64
	reg           *telemetry.Registry
	t             storeTelemetry

	// mu also guards the dispatcher's own per-job state, so a lease check
	// and the transition it authorizes are one critical section.
	mu    sync.Mutex
	jobs  map[string]*record
	order []string // insertion order, for eviction scans
	// idem maps client Idempotency-Keys onto retained job IDs, so a
	// retried POST lands on the original job instead of double-running.
	idem            map[string]string
	queued, running int
	// pendingBytes is the sum of live jobs' reservations. resultBytes is
	// the PAF retained by done jobs: output size is unrelated to input
	// size (dense overlap sets are quadratic), so it has its own budget.
	pendingBytes int64
	resultBytes  int64
	closed       bool
}

// jobDurationAlpha weights the completed-job wall-time EWMA behind
// Retry-After.
const jobDurationAlpha = 0.3

// newStore builds an empty store and registers its instruments in reg.
// Non-positive limits select the defaults (64 jobs, 256 MiB each way).
// The caller sets d before the store is used.
func newStore(reg *telemetry.Registry, maxJobs int, pendingBudget, resultBudget int64, now func() time.Time) *Store {
	if maxJobs <= 0 {
		maxJobs = 64
	}
	if pendingBudget <= 0 {
		pendingBudget = 256 << 20
	}
	if resultBudget <= 0 {
		resultBudget = 256 << 20
	}
	s := &Store{
		now: now, maxJobs: maxJobs, pendingBudget: pendingBudget, resultBudget: resultBudget,
		reg:  reg,
		jobs: make(map[string]*record),
		idem: make(map[string]string),
		t: storeTelemetry{
			submitted:   reg.Counter("logan_jobs_submitted_total", "Overlap jobs accepted by POST /jobs."),
			completed:   reg.Counter("logan_jobs_completed_total", "Overlap jobs that finished successfully."),
			failed:      reg.Counter("logan_jobs_failed_total", "Overlap jobs that finished with an error."),
			canceled:    reg.Counter("logan_jobs_canceled_total", "Overlap jobs canceled by DELETE or shutdown."),
			rejected:    reg.Counter("logan_jobs_rejected_total", "Job submissions shed by admission control (HTTP 429)."),
			replays:     reg.Counter("logan_jobs_idempotent_replays_total", "Submissions deduplicated onto an existing job by Idempotency-Key."),
			pafBytes:    reg.Counter("logan_jobs_paf_bytes_total", "Serialized PAF bytes produced by completed jobs."),
			avgDuration: reg.Gauge("logan_jobs_duration_seconds_avg", "EWMA wall time of completed jobs (the Retry-After drain estimate)."),
		},
	}
	gauge := func(name, help string, v func() float64) {
		reg.GaugeFunc(name, help, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return v()
		})
	}
	gauge("logan_jobs_queued", "Jobs waiting to execute.", func() float64 { return float64(s.queued) })
	gauge("logan_jobs_running", "Jobs currently executing.", func() float64 { return float64(s.running) })
	gauge("logan_jobs_buffered_bytes", "Input bytes held for live jobs (buffered uploads, queued specs).", func() float64 { return float64(s.pendingBytes) })
	gauge("logan_jobs_result_bytes", "Serialized PAF bytes retained by finished jobs.", func() float64 { return float64(s.resultBytes) })
	return s
}

// runningGauge returns the tenant's running-jobs gauge, registered on
// first sight. Callers resolve it before taking mu: a registry snapshot
// evaluates the gauge funcs above under the registry lock, so registering
// under mu would invert the two.
func (s *Store) runningGauge(tenant string) *telemetry.Gauge {
	return s.reg.Gauge("logan_tenant_running_jobs", "Overlap jobs currently executing, by tenant.", telemetry.L("tenant", tenant))
}

// Submit admits one job. replayed reports an Idempotency-Key hit (the
// returned status is the original job's). Admission rejections wrap
// ErrStoreFull or ErrBusy; ErrUnavailable means the store itself cannot
// take work; anything else is a fault of the submitted source.
func (s *Store) Submit(sub Submission) (st JobStatus, replayed bool, err error) {
	return s.d.submit(sub)
}

// replay returns the retained job a client idempotency key maps to (the
// empty key maps to none). Caller holds mu.
func (s *Store) replay(key string) (JobStatus, bool) {
	id, ok := s.idem[key]
	if !ok {
		return JobStatus{}, false
	}
	s.t.replays.Inc()
	return s.jobs[id].status(), true
}

// admit registers a queued job under the admission policy, or returns
// the retained job its idempotency key already maps to — checked under
// the lock, so two concurrent retries still collapse onto one job. bytes
// is the job's charge against the pending-byte budget. commit runs under
// the lock once admission has passed and makes the job executable (and,
// for the leased dispatcher, durable); its error voids the admission and
// surfaces as ErrUnavailable.
func (s *Store) admit(id, idemKey, tenant string, bytes int64, commit func(*record) error) (JobStatus, bool, error) {
	running := s.runningGauge(tenant)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, false, ErrUnavailable
	}
	if st, ok := s.replay(idemKey); ok {
		return st, true, nil
	}
	if bytes > 0 && s.pendingBytes+bytes > s.pendingBudget {
		s.t.rejected.Inc()
		return JobStatus{}, false, ErrBusy
	}
	if len(s.jobs) >= s.maxJobs && !s.evictOldest() {
		s.t.rejected.Inc()
		return JobStatus{}, false, ErrStoreFull
	}
	j := &record{id: id, idemKey: idemKey, tenantRunning: running}
	if err := commit(j); err != nil {
		return JobStatus{}, false, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	s.insert(j, bytes)
	s.t.submitted.Inc()
	return j.status(), false, nil
}

// insert files a new queued record. Caller holds mu.
func (s *Store) insert(j *record, bytes int64) {
	j.state, j.created, j.reserved = StateQueued, s.now(), bytes
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if j.idemKey != "" {
		s.idem[j.idemKey] = j.id
	}
	s.queued++
	s.pendingBytes += bytes
}

// evictOldest drops the oldest terminal job to make room; false means
// every retained job is live. Caller holds mu.
func (s *Store) evictOldest() bool {
	for _, id := range s.order {
		if j := s.jobs[id]; TerminalState(j.state) {
			s.drop(j)
			return true
		}
	}
	return false
}

// drop removes the job from every map and returns its retained result
// bytes to the budget. Caller holds mu.
func (s *Store) drop(j *record) {
	delete(s.jobs, j.id)
	s.order = slices.DeleteFunc(s.order, func(id string) bool { return id == j.id })
	if j.idemKey != "" {
		delete(s.idem, j.idemKey)
	}
	s.resultBytes -= int64(len(j.paf))
}

// trimResults evicts the oldest done jobs (sparing keep, the one that
// just finished) until retained PAF bytes fit the result budget. Caller
// holds mu.
func (s *Store) trimResults(keep string) {
	for i := 0; i < len(s.order) && s.resultBytes > s.resultBudget; {
		if j := s.jobs[s.order[i]]; j.id != keep && len(j.paf) > 0 {
			s.drop(j)
		} else {
			i++
		}
	}
}

// --- transitions. Caller holds mu for all of them. ---

// start moves a queued job to running (on the named worker, for leased
// dispatch); false means the job is no longer queued and must not run.
func (s *Store) start(j *record, worker string) bool {
	if j.state != StateQueued {
		return false
	}
	j.state, j.worker = StateRunning, worker
	if j.started.IsZero() {
		j.started = s.now()
	}
	s.queued--
	s.running++
	j.tenantRunning.Add(1)
	return true
}

// progress publishes a running job's pipeline progress.
func (s *Store) progress(j *record, p Progress) {
	if j.state == StateRunning {
		j.progress = p
	}
}

// release returns the job's pending-byte reservation: its dispatcher no
// longer holds the input.
func (s *Store) release(j *record) {
	s.pendingBytes -= j.reserved
	j.reserved = 0
}

// requeue returns a running job to the queue for another execution.
func (s *Store) requeue(j *record) {
	if j.state != StateRunning {
		return
	}
	j.state, j.progress = StateQueued, Progress{}
	j.requeues++
	s.running--
	s.queued++
	j.tenantRunning.Add(-1)
}

// finish is the one way into a terminal state: gauges, reservation and
// the dispatcher's retire hook, exactly once per job.
func (s *Store) finish(j *record, state, msg string) bool {
	switch j.state {
	case StateQueued:
		s.queued--
	case StateRunning:
		s.running--
		j.tenantRunning.Add(-1)
	default:
		return false
	}
	j.state, j.err, j.finished = state, msg, s.now()
	s.release(j)
	j.retire()
	return true
}

// complete publishes a run's result. A job that is already terminal —
// canceled or evicted while the run raced to the finish line — keeps its
// state and the result is dropped: nobody could fetch it and nothing
// would ever subtract it from the budget.
func (s *Store) complete(j *record, paf []byte, sum summary) {
	if !s.finish(j, StateDone, "") {
		return
	}
	j.paf, j.sum = paf, sum
	s.resultBytes += int64(len(paf))
	s.t.completed.Inc()
	s.t.pafBytes.Add(float64(len(paf)))
	s.t.avgDuration.ObserveEWMA(j.finished.Sub(j.started).Seconds(), jobDurationAlpha)
	s.trimResults(j.id)
}

// fail ends a job with an error.
func (s *Store) fail(j *record, msg string) {
	if s.finish(j, StateFailed, msg) {
		s.t.failed.Inc()
	}
}

// cancel ends a job on behalf of a DELETE or a shutdown.
func (s *Store) cancel(j *record) {
	if s.finish(j, StateCanceled, "context canceled") {
		s.t.canceled.Inc()
	}
}

// --- the read side and DELETE, as the /jobs handlers see them ---

// status snapshots the record. Caller holds mu.
func (j *record) status() JobStatus {
	return JobStatus{
		ID: j.id, State: j.state, Error: j.err, Progress: j.progress,
		Overlaps: j.sum.overlaps, Reads: j.sum.reads, Cells: j.sum.cells,
		PAFBytes: len(j.paf), Worker: j.worker, Requeues: j.requeues,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
}

// Status reports the job's current state.
func (s *Store) Status(id string) (JobStatus, bool) {
	_, st, ok := s.PAF(id)
	return st, ok
}

// PAF returns the finished job's serialized result along with its
// status; a job that is not done returns its status and a nil slice.
func (s *Store) PAF(id string) ([]byte, JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, false
	}
	return j.paf, j.status(), true
}

// Cancel aborts the job if live and forgets it either way (the ID is
// unknown from here on); false means it already was.
func (s *Store) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	s.drop(j)
	s.cancel(j)
	return true
}

// RetryAfter projects when a shed submission should retry: the average
// job duration spread over the queue depth ahead of it and the execution
// slots, floored at one second and capped at a minute (an uncalibrated
// store — no job has completed yet — advertises the floor).
func (s *Store) RetryAfter() time.Duration {
	avg := s.t.avgDuration.Value()
	if avg <= 0 {
		return time.Second
	}
	s.mu.Lock()
	ahead := s.queued + s.running + 1
	s.mu.Unlock()
	d := time.Duration(avg * float64(ahead) / float64(max(s.d.slots(), 1)) * float64(time.Second))
	return min(max(d, time.Second), time.Minute)
}

// Ready reports whether the store can make progress on accepted jobs (a
// router with no live workers cannot).
func (s *Store) Ready() bool { return s.d.slots() > 0 }

// Close stops admitting, then stops the dispatcher: the local runner
// cancels live jobs and waits for them, the router leaves them in the
// write-ahead queue for its next incarnation.
func (s *Store) Close() {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !closed {
		s.d.close()
	}
}
