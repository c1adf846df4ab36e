package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"logan"
	"logan/internal/telemetry"
)

// fakeClock is the injected now() of a Store under test.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// limits are the Store caps a suite row runs under; zero fields select
// the defaults. pendingJobs is the pending-byte budget in units of one
// suite job's charge, which differs by dispatcher (upload bytes locally,
// framed spec bytes in the WAL).
type limits struct {
	maxJobs     int
	pendingJobs float64
	resultBytes int64
}

// harness drives one dispatcher through the conformance suite. Every
// suite body has len(suiteBody) bytes, so every job charges the same.
type harness interface {
	store() *Store
	// submit admits a job whose FASTA is body.
	submit(body, key string) (JobStatus, bool, error)
	// begin takes the next job into execution.
	begin() execution
	// stop ends the harness (closing the store); ran then reports whether
	// the job was ever handed to an execution.
	stop()
	ran(id string) bool
}

// execution is one job in the hands of its executor.
type execution interface {
	id() string
	progress(p Progress)
	// complete and fail report the outcome and return once the dispatcher
	// has processed it (accepted or not).
	complete(paf string)
	fail(msg string)
	// aborted reports whether the dispatcher has told the executor to
	// stop (local: the run context is canceled; leased: the lease is
	// stale).
	aborted() bool
}

const suiteBody = ">a\nACGT\n"

var suiteConfig = logan.DefaultOverlapConfig(5, 0.12, 15)

func openBody(body string) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(body)), nil }
}

// --- local dispatcher under a blocking fake run ---

type localHarness struct {
	st      *Store
	l       *local
	started chan *localExec
	quit    chan struct{}
	next    []*localExec // started runs settle() met before begin() asked

	mu     sync.Mutex
	byBody map[string]string // body -> job id
	bodies map[string]bool   // bodies the fake run was handed
}

type localOutcome struct {
	paf string
	err error
}

type localExec struct {
	h       *localHarness
	body    string
	ctx     context.Context
	cfg     logan.OverlapConfig
	outcome chan localOutcome
}

func newLocalHarness(t *testing.T, clock *fakeClock, lim limits, reg *telemetry.Registry) harness {
	h := &localHarness{
		started: make(chan *localExec), quit: make(chan struct{}),
		byBody: map[string]string{}, bodies: map[string]bool{},
	}
	h.st = newLocal(LocalOptions{
		Workers: 1, MaxJobs: lim.maxJobs, ResultBytes: lim.resultBytes,
		PendingBytes: int64(lim.pendingJobs * float64(len(suiteBody))),
		Registry:     reg,
	}, clock.Now, h.run)
	h.l = h.st.d.(*local)
	t.Cleanup(h.stop)
	return h
}

// run is the fake runFunc: announce the start, then block until the test
// decides the outcome. Until begin() has adopted it, it honors its
// context like a real run; from then on only the test ends it, so a row
// can let a canceled run finish late.
func (h *localHarness) run(ctx context.Context, in io.Reader, cfg logan.OverlapConfig) ([]byte, summary, error) {
	body, _ := io.ReadAll(in)
	e := &localExec{h: h, body: string(body), ctx: ctx, cfg: cfg, outcome: make(chan localOutcome)}
	h.mu.Lock()
	h.bodies[e.body] = true
	h.mu.Unlock()
	select {
	case h.started <- e:
	case <-ctx.Done():
		return nil, summary{}, ctx.Err()
	case <-h.quit:
		return nil, summary{}, ctx.Err()
	}
	select {
	case o := <-e.outcome:
		return []byte(o.paf), summary{overlaps: 1}, o.err
	case <-h.quit:
		return nil, summary{}, ctx.Err()
	}
}

func (h *localHarness) store() *Store { return h.st }

// submit: a run function is not told its job's ID, so the harness keys
// jobs by their (distinct) bodies.
func (h *localHarness) submit(body, key string) (JobStatus, bool, error) {
	st, replayed, err := h.st.Submit(Submission{
		Config: suiteConfig, Open: openBody(body), BufBytes: int64(len(body)), IdempotencyKey: key,
	})
	if err == nil && !replayed {
		h.mu.Lock()
		h.byBody[body] = st.ID
		h.mu.Unlock()
	}
	return st, replayed, err
}

func (h *localHarness) begin() execution {
	if len(h.next) > 0 {
		e := h.next[0]
		h.next = h.next[1:]
		return e
	}
	return <-h.started
}

// settle returns once the run that just got its outcome has published it:
// its worker slot (the only one) is free again, or already taken by the
// next queued job.
func (h *localHarness) settle() {
	select {
	case h.l.sem <- struct{}{}:
		<-h.l.sem
	case e := <-h.started:
		h.next = append(h.next, e)
	}
}

func (h *localHarness) stop() {
	select {
	case <-h.quit:
	default:
		close(h.quit)
	}
	h.st.Close()
}

func (h *localHarness) ran(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for body := range h.bodies {
		if h.byBody[body] == id {
			return true
		}
	}
	return false
}

func (e *localExec) id() string {
	e.h.mu.Lock()
	defer e.h.mu.Unlock()
	return e.h.byBody[e.body]
}

func (e *localExec) progress(p Progress) { e.cfg.OnProgress(p) }

func (e *localExec) complete(paf string) { e.outcome <- localOutcome{paf: paf}; e.h.settle() }
func (e *localExec) fail(msg string)     { e.outcome <- localOutcome{err: errors.New(msg)}; e.h.settle() }
func (e *localExec) aborted() bool       { return e.ctx.Err() != nil }

// --- leased dispatcher under the fake worker client ---

type leasedHarness struct {
	t      *testing.T
	r      *Router
	w      *fakeWorker
	leased map[string]bool
}

type leasedExec struct {
	h            *leasedHarness
	jobID, lease string
}

func newLeasedHarness(t *testing.T, clock *fakeClock, lim limits, reg *telemetry.Registry) harness {
	spec := Spec{ID: NewID(), Tenant: TenantName(nil), Config: ConfigFromOverlap(suiteConfig), Fasta: []byte(suiteBody)}
	payload, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRouter(RouterOptions{
		QueuePath: filepath.Join(t.TempDir(), "jobs.wal"),
		// The suite's clock jumps by minutes; neither a lease nor the
		// worker's registration may lapse under a row that is not about that.
		LeaseTTL: time.Hour, WorkerTTL: 24 * time.Hour,
		MaxJobs: lim.maxJobs, ResultBytes: lim.resultBytes,
		PendingBytes: int64(lim.pendingJobs * float64(len(payload))),
		Registry:     reg,
	}, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	h := &leasedHarness{t: t, r: r, leased: map[string]bool{}}
	t.Cleanup(func() {
		h.stop()
		srv.Close()
	})
	h.w = registerFake(t, srv.URL, "w1")
	return h
}

func (h *leasedHarness) store() *Store { return h.r.Store }

func (h *leasedHarness) submit(body, key string) (JobStatus, bool, error) {
	return h.r.Submit(Submission{Config: suiteConfig, Open: openBody(body), IdempotencyKey: key})
}

func (h *leasedHarness) begin() execution {
	h.t.Helper()
	_, id, lease, ok := h.w.lease(0)
	if !ok {
		h.t.Fatal("begin: the queue has no job to lease")
	}
	h.leased[id] = true
	return &leasedExec{h: h, jobID: id, lease: lease}
}

func (h *leasedHarness) stop() {
	// Drain the queue: a job nobody should have leased shows up here.
	for {
		_, id, _, ok := h.w.lease(0)
		if !ok {
			break
		}
		h.leased[id] = true
	}
	h.r.Close()
}

func (h *leasedHarness) ran(id string) bool { return h.leased[id] }

func (e *leasedExec) id() string { return e.jobID }

func (e *leasedExec) extend(p Progress) int {
	resp := e.h.w.post("/cluster/jobs/"+e.jobID+"/extend", extendRequest{WorkerID: e.h.w.id, Lease: e.lease, Progress: p}, nil)
	resp.Body.Close()
	return resp.StatusCode
}

func (e *leasedExec) progress(p Progress) { e.extend(p) }
func (e *leasedExec) aborted() bool       { return e.extend(Progress{}) == http.StatusConflict }
func (e *leasedExec) complete(paf string) { e.h.w.complete(e.jobID, e.lease, []byte(paf)) }

func (e *leasedExec) fail(msg string) {
	resp := e.h.w.post("/cluster/jobs/"+e.jobID+"/fail", failRequest{WorkerID: e.h.w.id, Lease: e.lease, Error: msg}, nil)
	resp.Body.Close()
}

// --- the suite ---

// suiteEnv is what one row gets: a fresh store behind one dispatcher.
type suiteEnv struct {
	t     *testing.T
	h     harness
	st    *Store
	clock *fakeClock
	reg   *telemetry.Registry
}

// series reads one registered series as /metrics would report it.
func (e *suiteEnv) series(name string, labels ...telemetry.Label) int64 {
	return e.reg.Snapshot().Int(name, labels...)
}

// expectSeries checks name=value pairs against the registry.
func (e *suiteEnv) expectSeries(want map[string]int64) {
	e.t.Helper()
	for name, v := range want {
		if got := e.series(name); got != v {
			e.t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

// submit admits a fresh job and fails the row if it is refused.
func (e *suiteEnv) submit(body string) JobStatus {
	e.t.Helper()
	st, replayed, err := e.h.submit(body, "")
	if err != nil || replayed {
		e.t.Fatalf("submit %q: err=%v replayed=%v", body, err, replayed)
	}
	return st
}

// state reports the job's state, "" once the store has forgotten it.
func (e *suiteEnv) state(id string) string {
	st, _ := e.st.Status(id)
	return st.State
}

// live reports whether the job is queued or running. Which of the two is
// the dispatcher's business: the local one starts a job the moment a slot
// is free, the leased one when a worker asks.
func (e *suiteEnv) live(id string) bool {
	s := e.state(id)
	return s == StateQueued || s == StateRunning
}

var conformance = []struct {
	name string
	lim  limits
	run  func(e *suiteEnv)
}{
	{name: "lifecycle", run: func(e *suiteEnv) {
		t := e.t
		st := e.submit(suiteBody)
		if st.State != StateQueued || !st.Created.Equal(e.clock.Now()) {
			t.Fatalf("accepted job: %+v", st)
		}
		// The local dispatcher starts a job as soon as a slot is free, so
		// "queued" may already be "running" here.
		e.expectSeries(map[string]int64{"logan_jobs_submitted_total": 1})
		e.st.mu.Lock()
		if e.st.queued+e.st.running != 1 {
			t.Errorf("queued=%d running=%d, want one live job", e.st.queued, e.st.running)
		}
		e.st.mu.Unlock()
		if e.series("logan_jobs_buffered_bytes") == 0 {
			t.Error("live job holds no pending bytes")
		}
		ex := e.h.begin()
		if ex.id() != st.ID {
			t.Fatalf("began %q, want %q", ex.id(), st.ID)
		}
		got, _ := e.st.Status(st.ID)
		if got.State != StateRunning || !got.Started.Equal(e.clock.Now()) {
			t.Fatalf("running job: %+v", got)
		}
		e.expectSeries(map[string]int64{"logan_jobs_queued": 0, "logan_jobs_running": 1})
		if n := e.series("logan_tenant_running_jobs", telemetry.L("tenant", "anonymous")); n != 1 {
			t.Errorf("tenant running gauge %d, want 1", n)
		}
		ex.progress(Progress{Stage: "align", ReadsParsed: 7, ExtensionsTotal: 3})
		if got, _ := e.st.Status(st.ID); got.Progress.Stage != "align" || got.Progress.ReadsParsed != 7 {
			t.Errorf("published progress: %+v", got.Progress)
		}
		if paf, _, ok := e.st.PAF(st.ID); !ok || paf != nil {
			t.Errorf("PAF of a running job: ok=%v %q", ok, paf)
		}
		e.clock.Advance(2 * time.Second)
		ex.complete("paf-bytes\n")
		paf, got, ok := e.st.PAF(st.ID)
		if !ok || got.State != StateDone || string(paf) != "paf-bytes\n" || got.PAFBytes != 10 || got.Overlaps != 1 {
			t.Fatalf("done job: ok=%v %+v paf=%q", ok, got, paf)
		}
		if !got.Finished.Equal(e.clock.Now()) || got.Finished.Sub(got.Started) != 2*time.Second {
			t.Errorf("timestamps: started %v finished %v", got.Started, got.Finished)
		}
		e.expectSeries(map[string]int64{
			"logan_jobs_completed_total": 1, "logan_jobs_failed_total": 0, "logan_jobs_canceled_total": 0,
			"logan_jobs_queued": 0, "logan_jobs_running": 0,
			"logan_jobs_paf_bytes_total": 10, "logan_jobs_result_bytes": 10, "logan_jobs_buffered_bytes": 0,
		})
		if n := e.series("logan_tenant_running_jobs", telemetry.L("tenant", "anonymous")); n != 0 {
			t.Errorf("tenant running gauge %d after completion, want 0", n)
		}
		// DELETE of a finished job forgets it and its bytes; it was not
		// live, so it does not count as canceled.
		if !e.st.Cancel(st.ID) || e.st.Cancel(st.ID) {
			t.Error("Cancel of a done job: want true once, then false")
		}
		e.expectSeries(map[string]int64{"logan_jobs_canceled_total": 0, "logan_jobs_result_bytes": 0})
	}},
	{name: "failure", run: func(e *suiteEnv) {
		st := e.submit(suiteBody)
		e.h.begin().fail("boom")
		got, _ := e.st.Status(st.ID)
		if got.State != StateFailed || got.Error != "boom" {
			e.t.Fatalf("failed job: %+v", got)
		}
		if paf, _, _ := e.st.PAF(st.ID); paf != nil {
			e.t.Errorf("failed job has a PAF: %q", paf)
		}
		e.st.Cancel(st.ID)
		e.expectSeries(map[string]int64{
			"logan_jobs_failed_total": 1, "logan_jobs_completed_total": 0, "logan_jobs_canceled_total": 0,
			"logan_jobs_running": 0, "logan_jobs_buffered_bytes": 0,
		})
	}},
	{name: "cancel-queued", run: func(e *suiteEnv) {
		a := e.submit(">a\nACGT\n")
		exA := e.h.begin()
		b := e.submit(">b\nACGT\n")
		if !e.st.Cancel(b.ID) {
			e.t.Fatal("cancel of a queued job failed")
		}
		if e.state(b.ID) != "" || e.st.Cancel(b.ID) {
			e.t.Error("canceled job still known")
		}
		e.expectSeries(map[string]int64{"logan_jobs_canceled_total": 1, "logan_jobs_queued": 0, "logan_jobs_running": 1})
		exA.complete("x")
		// The next job to start is a new one, not the canceled one.
		c := e.submit(">c\nACGT\n")
		if ex := e.h.begin(); ex.id() != c.ID {
			e.t.Errorf("began %q after the cancel, want %q", ex.id(), c.ID)
		}
		e.h.stop()
		if e.h.ran(b.ID) || !e.h.ran(a.ID) {
			e.t.Errorf("ran: a=%v b=%v, want a only", e.h.ran(a.ID), e.h.ran(b.ID))
		}
	}},
	{name: "cancel-running", lim: limits{resultBytes: 100}, run: func(e *suiteEnv) {
		st := e.submit(suiteBody)
		ex := e.h.begin()
		if ex.aborted() {
			e.t.Fatal("execution aborted before any cancel")
		}
		if !e.st.Cancel(st.ID) {
			e.t.Fatal("cancel of a running job failed")
		}
		if !ex.aborted() {
			e.t.Error("executor was not told to stop")
		}
		want := map[string]int64{
			"logan_jobs_canceled_total": 1, "logan_jobs_completed_total": 0, "logan_jobs_failed_total": 0,
			"logan_jobs_running": 0, "logan_jobs_buffered_bytes": 0, "logan_jobs_result_bytes": 0,
			"logan_jobs_paf_bytes_total": 0,
		}
		e.expectSeries(want)
		// The run races the DELETE to the finish line: its result has no
		// owner and must neither count nor leak into the result budget.
		ex.complete("late-paf\n")
		e.expectSeries(want)
		if e.state(st.ID) != "" {
			e.t.Error("late completion resurrected the job")
		}
	}},
	{name: "store-full", lim: limits{maxJobs: 2}, run: func(e *suiteEnv) {
		e.submit(">a\nACGT\n")
		e.h.begin()
		e.submit(">b\nACGT\n")
		if _, _, err := e.h.submit(">c\nACGT\n", ""); !errors.Is(err, ErrStoreFull) {
			e.t.Fatalf("third live job: err=%v, want ErrStoreFull", err)
		}
		e.expectSeries(map[string]int64{"logan_jobs_rejected_total": 1, "logan_jobs_submitted_total": 2})
	}},
	{name: "evict-oldest-terminal", lim: limits{maxJobs: 3}, run: func(e *suiteEnv) {
		a, _, err := e.h.submit(">a\nACGT\n", "key-a")
		if err != nil {
			e.t.Fatal(err)
		}
		e.h.begin().complete("a")
		b := e.submit(">b\nACGT\n")
		e.h.begin().fail("b failed")
		c := e.submit(">c\nACGT\n")
		// Full (a done, b failed, c queued): the oldest terminal job goes.
		d := e.submit(">d\nACGT\n")
		if e.state(a.ID) != "" || e.state(b.ID) != StateFailed || !e.live(c.ID) || !e.live(d.ID) {
			e.t.Fatalf("after first eviction: a=%q b=%q c=%q d=%q", e.state(a.ID), e.state(b.ID), e.state(c.ID), e.state(d.ID))
		}
		e.expectSeries(map[string]int64{"logan_jobs_result_bytes": 0})
		// a's idempotency key went with it: the key now names a new job.
		again, replayed, err := e.h.submit(">e\nACGT\n", "key-a")
		if err != nil || replayed || again.ID == a.ID {
			e.t.Fatalf("reuse of an evicted job's key: id=%q replayed=%v err=%v", again.ID, replayed, err)
		}
		if e.state(b.ID) != "" {
			e.t.Error("second eviction spared the remaining terminal job")
		}
		// Nothing terminal is left to evict.
		if _, _, err := e.h.submit(">f\nACGT\n", ""); !errors.Is(err, ErrStoreFull) {
			e.t.Fatalf("submit to a store full of live jobs: %v", err)
		}
	}},
	{name: "pending-bytes", lim: limits{pendingJobs: 1.5}, run: func(e *suiteEnv) {
		a := e.submit(">a\nACGT\n")
		held := e.series("logan_jobs_buffered_bytes")
		if _, _, err := e.h.submit(">b\nACGT\n", ""); !errors.Is(err, ErrBusy) {
			e.t.Fatalf("submit past the byte budget: err=%v, want ErrBusy", err)
		}
		e.expectSeries(map[string]int64{"logan_jobs_rejected_total": 1, "logan_jobs_buffered_bytes": held})
		// Every way out of the live states returns the reservation.
		e.st.Cancel(a.ID)
		e.expectSeries(map[string]int64{"logan_jobs_buffered_bytes": 0})
		e.submit(">c\nACGT\n")
		e.h.begin().complete("c")
		e.expectSeries(map[string]int64{"logan_jobs_buffered_bytes": 0})
		e.submit(">d\nACGT\n")
		e.h.begin().fail("d failed")
		e.expectSeries(map[string]int64{"logan_jobs_buffered_bytes": 0})
		e.submit(">e\nACGT\n")
	}},
	{name: "result-bytes", lim: limits{resultBytes: 15}, run: func(e *suiteEnv) {
		a := e.submit(">a\nACGT\n")
		e.h.begin().complete("0123456789")
		b := e.submit(">b\nACGT\n")
		e.h.begin().complete("abcdefghij")
		// 20 retained bytes over a 15-byte budget: the oldest result goes,
		// the one that just finished stays.
		if e.state(a.ID) != "" {
			e.t.Error("oldest result not evicted")
		}
		if paf, _, _ := e.st.PAF(b.ID); string(paf) != "abcdefghij" {
			e.t.Errorf("newest result: %q", paf)
		}
		e.expectSeries(map[string]int64{"logan_jobs_result_bytes": 10, "logan_jobs_paf_bytes_total": 20})
	}},
	{name: "idempotency", run: func(e *suiteEnv) {
		first, replayed, err := e.h.submit(">a\nACGT\n", "retry-1")
		if err != nil || replayed {
			e.t.Fatalf("first submit: %v replayed=%v", err, replayed)
		}
		again, replayed, err := e.h.submit(">b\nACGT\n", "retry-1")
		if err != nil || !replayed || again.ID != first.ID {
			e.t.Fatalf("retry: id=%q replayed=%v err=%v, want %q replayed", again.ID, replayed, err, first.ID)
		}
		e.expectSeries(map[string]int64{"logan_jobs_submitted_total": 1, "logan_jobs_idempotent_replays_total": 1})
		// Two retries racing each other still collapse onto one job.
		type result struct {
			id       string
			replayed bool
			err      error
		}
		out := make(chan result, 2)
		for i := 0; i < 2; i++ {
			go func() {
				st, replayed, err := e.h.submit(">c\nACGT\n", "retry-2")
				out <- result{st.ID, replayed, err}
			}()
		}
		r1, r2 := <-out, <-out
		if r1.err != nil || r2.err != nil || r1.id != r2.id || r1.replayed == r2.replayed {
			e.t.Fatalf("concurrent same-key submits: %+v / %+v, want one job and one replay", r1, r2)
		}
		e.expectSeries(map[string]int64{"logan_jobs_submitted_total": 2, "logan_jobs_idempotent_replays_total": 2})
	}},
	{name: "retry-after", run: func(e *suiteEnv) {
		expect := func(want time.Duration) {
			e.t.Helper()
			if got := e.st.RetryAfter(); (got - want).Abs() > time.Millisecond {
				e.t.Errorf("RetryAfter = %v, want %v", got, want)
			}
		}
		expect(time.Second) // uncalibrated: the floor
		run := func(body string, d time.Duration) {
			e.submit(body)
			ex := e.h.begin()
			e.clock.Advance(d)
			ex.complete("x")
		}
		run(">a\nACGT\n", 100*time.Millisecond)
		expect(time.Second) // 0.1s average: still the floor
		// EWMA(0.3): 0.1 -> 0.1 + 0.3*(19.9) = 6.07s, one slot, nothing ahead.
		run(">b\nACGT\n", 20*time.Second)
		expect(6070 * time.Millisecond)
		e.submit(">c\nACGT\n")
		expect(2 * 6070 * time.Millisecond) // one job ahead
		ex := e.h.begin()
		expect(2 * 6070 * time.Millisecond) // running counts as ahead too
		e.clock.Advance(10 * time.Minute)
		ex.complete("x")
		expect(time.Minute) // capped
	}},
	{name: "closed", run: func(e *suiteEnv) {
		e.h.stop()
		if _, _, err := e.h.submit(suiteBody, ""); !errors.Is(err, ErrUnavailable) {
			e.t.Fatalf("submit to a closed store: err=%v, want ErrUnavailable", err)
		}
		e.expectSeries(map[string]int64{"logan_jobs_submitted_total": 0, "logan_jobs_rejected_total": 0})
	}},
}

// TestStoreConformance runs every lifecycle, admission and accounting
// case against both dispatchers: whatever executes the jobs, the Store
// must behave — and count — the same.
func TestStoreConformance(t *testing.T) {
	dispatchers := []struct {
		name string
		mk   func(*testing.T, *fakeClock, limits, *telemetry.Registry) harness
	}{
		{"local", newLocalHarness},
		{"leased", newLeasedHarness},
	}
	for _, d := range dispatchers {
		for _, row := range conformance {
			t.Run(d.name+"/"+row.name, func(t *testing.T) {
				clock, reg := newFakeClock(), telemetry.NewRegistry()
				h := d.mk(t, clock, row.lim, reg)
				row.run(&suiteEnv{t: t, h: h, st: h.store(), clock: clock, reg: reg})
			})
		}
	}
}

// TestLocalReleasesUploadAfterIngest: the local dispatcher returns an
// upload's pending bytes as soon as the pipeline is past ingestion — the
// buffer is dead weight from there on — not only when the job ends.
func TestLocalReleasesUploadAfterIngest(t *testing.T) {
	clock, reg := newFakeClock(), telemetry.NewRegistry()
	h := newLocalHarness(t, clock, limits{pendingJobs: 1.5}, reg)
	e := &suiteEnv{t: t, h: h, st: h.store(), clock: clock, reg: reg}
	e.submit(">a\nACGT\n")
	ex := h.begin()
	ex.progress(Progress{Stage: logan.StageIngest, ReadsParsed: 1})
	if e.series("logan_jobs_buffered_bytes") == 0 {
		t.Fatal("reservation released while still ingesting")
	}
	ex.progress(Progress{Stage: "count", ReadsParsed: 1})
	e.expectSeries(map[string]int64{"logan_jobs_buffered_bytes": 0, "logan_jobs_running": 1})
	// The budget (1.5 uploads) has room again while the first job runs.
	e.submit(">b\nACGT\n")
}
