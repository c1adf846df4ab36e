package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"logan"
	"logan/internal/genome"
	"logan/internal/seq"
	"logan/internal/telemetry"
)

// testFasta builds a deterministic read set with real overlaps.
func testFasta(t testing.TB, seed int64, genomeLen int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := genome.Synthetic(rng, "t", genome.SyntheticOptions{Length: genomeLen, RepeatFrac: 0.03, RepeatLen: 1200})
	rs := genome.Simulate(rng, g, genome.SimOptions{Coverage: 5, MinLen: 900, MaxLen: 2000, ErrorRate: 0.12})
	var buf bytes.Buffer
	if err := seq.WriteFasta(&buf, rs.Records()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testRouter boots a router on a temp WAL and serves its worker API.
func testRouter(t *testing.T, mut func(*RouterOptions)) (*Router, *httptest.Server) {
	return testRouterAt(t, time.Now, mut)
}

// testRouterAt is testRouter on an injected clock.
func testRouterAt(t *testing.T, now func() time.Time, mut func(*RouterOptions)) (*Router, *httptest.Server) {
	t.Helper()
	opt := RouterOptions{
		QueuePath: filepath.Join(t.TempDir(), "jobs.wal"),
		LeaseTTL:  80 * time.Millisecond,
		Registry:  telemetry.NewRegistry(),
	}
	if mut != nil {
		mut(&opt)
	}
	r, err := newRouter(opt, now)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		srv.Close()
		r.Close()
	})
	return r, srv
}

// submitBytes submits fasta under cfg and returns the accepted status.
func submitBytes(t *testing.T, r *Router, fasta []byte, key string) JobStatus {
	t.Helper()
	st, replayed, err := r.Submit(Submission{
		Config:         logan.DefaultOverlapConfig(5, 0.12, 15),
		Open:           openBody(string(fasta)),
		IdempotencyKey: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("fresh submission reported replayed")
	}
	return st
}

// fakeWorker drives the worker protocol by hand, without an engine.
type fakeWorker struct {
	t    *testing.T
	url  string
	id   string
	name string
}

func registerFake(t *testing.T, url, name string) *fakeWorker {
	t.Helper()
	f := &fakeWorker{t: t, url: url, name: name}
	resp := f.post("/cluster/register", registerRequest{Name: name, Backend: "cpu"}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", resp.Status)
	}
	var out registerResponse
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	f.id = out.WorkerID
	return f
}

func (f *fakeWorker) post(path string, body any, hdr map[string]string) *http.Response {
	f.t.Helper()
	var rd io.Reader
	if b, ok := body.([]byte); ok {
		rd = bytes.NewReader(b)
	} else if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			f.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPost, f.url+path, rd)
	if err != nil {
		f.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	return resp
}

// lease long-polls one job; ok=false on an empty poll.
func (f *fakeWorker) lease(waitMs int64) (spec *Spec, jobID, lease string, ok bool) {
	f.t.Helper()
	resp := f.post("/cluster/poll", map[string]any{"workerId": f.id, "waitMs": waitMs}, nil)
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil, "", "", false
	}
	if resp.StatusCode != http.StatusOK {
		f.t.Fatalf("poll: %s", resp.Status)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		f.t.Fatal(err)
	}
	spec, err = UnmarshalSpec(payload)
	if err != nil {
		f.t.Fatal(err)
	}
	return spec, resp.Header.Get("X-Logan-Job-Id"), resp.Header.Get("X-Logan-Lease"), true
}

func (f *fakeWorker) complete(jobID, lease string, paf []byte) int {
	resp := f.post("/cluster/jobs/"+jobID+"/complete", paf, map[string]string{
		"X-Logan-Lease":     lease,
		"X-Logan-Worker-Id": f.id,
		"X-Logan-Overlaps":  "1",
	})
	resp.Body.Close()
	return resp.StatusCode
}

func TestSpecRoundtrip(t *testing.T) {
	in := &Spec{
		ID:             NewID(),
		Tenant:         "acme",
		IdempotencyKey: "retry-7",
		Config:         ConfigFromOverlap(logan.DefaultOverlapConfig(6, 0.15, 21)),
		Fasta:          []byte(">r1\nACGT\n"),
	}
	b, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Tenant != in.Tenant || out.IdempotencyKey != in.IdempotencyKey {
		t.Fatalf("roundtrip mangled identity: %+v", out)
	}
	if !reflect.DeepEqual(out.Config, in.Config) {
		t.Fatalf("roundtrip mangled config: %+v vs %+v", out.Config, in.Config)
	}
	if !bytes.Equal(out.Fasta, in.Fasta) {
		t.Fatalf("roundtrip mangled fasta: %q", out.Fasta)
	}
	// The reconstructed executable config must match a direct default.
	want := logan.DefaultOverlapConfig(6, 0.15, 21)
	got := out.Config.Overlap()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Overlap() reconstruction drifted:\n got %+v\nwant %+v", got, want)
	}
	if _, err := UnmarshalSpec(b[:3]); err == nil {
		t.Fatal("truncated spec decoded")
	}
}

// TestSpecHeaderFixture decodes a Spec header written by the commit
// before the parameter table (testdata/spec_header.json; the served
// replay is cmd/logan-serve's TestClusterReplaysParentSpec): every field
// must land where the old hand-kept JobConfig put it. A header is
// foreign bytes, so the same decode refuses values outside a row's
// bounds; a field no row knows is skipped, so a record written under a
// different table still replays.
func TestSpecHeaderFixture(t *testing.T) {
	hdr, err := os.ReadFile("testdata/spec_header.json")
	if err != nil {
		t.Fatal(err)
	}
	frame := func(hdr []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))
		return append(append(b, hdr...), ">r1\nACGT\n"...)
	}
	spec, err := UnmarshalSpec(frame(hdr))
	if err != nil {
		t.Fatal(err)
	}
	if spec.ID != "0123456789abcdef" || spec.Tenant != "acme" || spec.IdempotencyKey != "retry-7" || string(spec.Fasta) != ">r1\nACGT\n" {
		t.Errorf("identity: %+v", spec)
	}
	want := logan.DefaultOverlapConfig(5, 0.12, 20)
	want.MinOverlap = 400
	if got := spec.Config.Overlap(); !reflect.DeepEqual(got, want) {
		t.Errorf("config:\n got %+v\nwant %+v", got, want)
	}
	for _, bad := range []string{
		`{"id":"a","config":{"coverage":1000000}}`,
		`{"id":"a","config":{"errorRate":1}}`,
		`{"id":"a","config":{"maxSeeds":-1}}`,
		`{"id":"a","config":{"x":4294967297}}`,
		`{"id":"a","config":{"workers":-1}}`,
	} {
		if _, err := UnmarshalSpec(frame([]byte(bad))); err == nil {
			t.Errorf("%s decoded", bad)
		}
	}
	later, err := UnmarshalSpec(frame([]byte(`{"id":"a","config":{"minOverlap":400,"rowOfALaterTable":7,"workers":3}}`)))
	if err != nil {
		t.Fatalf("header with an unknown config field: %v", err)
	}
	if got := later.Config.Overlap(); got.MinOverlap != 400 || got.Workers != 3 || got.Coverage != logan.DefaultCoverage || got.K != 17 {
		t.Errorf("header with an unknown config field decoded to %+v", got)
	}
}

func TestRouterLeaseLifecycle(t *testing.T) {
	r, srv := testRouter(t, nil)
	st := submitBytes(t, r, []byte(">r1\nACGT\n"), "")
	if st.State != StateQueued {
		t.Fatalf("state %q after submit", st.State)
	}

	w := registerFake(t, srv.URL, "w1")
	spec, jobID, lease, ok := w.lease(1000)
	if !ok || jobID != st.ID {
		t.Fatalf("lease: ok=%v job=%q want %q", ok, jobID, st.ID)
	}
	if string(spec.Fasta) != ">r1\nACGT\n" {
		t.Fatalf("leased fasta %q", spec.Fasta)
	}
	if got, _ := r.Status(jobID); got.State != StateRunning || got.Worker != "w1" {
		t.Fatalf("running status %+v", got)
	}

	if code := w.complete(jobID, "bogus-lease", []byte("x")); code != http.StatusConflict {
		t.Fatalf("stale-lease complete returned %d, want 409", code)
	}
	if code := w.complete(jobID, lease, []byte("paf-bytes\n")); code != http.StatusOK {
		t.Fatalf("complete returned %d", code)
	}
	paf, got, ok := r.PAF(jobID)
	if !ok || got.State != StateDone || string(paf) != "paf-bytes\n" {
		t.Fatalf("PAF after complete: ok=%v st=%+v paf=%q", ok, got, paf)
	}
	// A duplicate completion (network retry) is idempotent, not a 409.
	if code := w.complete(jobID, lease, []byte("paf-bytes\n")); code != http.StatusOK {
		t.Fatalf("retried complete returned %d, want 200", code)
	}
	if r.wal.Pending() != 0 {
		t.Fatalf("WAL still holds %d records after ack", r.wal.Pending())
	}
}

// TestLeaseExpiryRequeues drives the failure detector on an injected
// clock: a lease nobody extends lapses after LeaseTTL, the job goes to
// the next worker, and a job that keeps dying fails after MaxRequeues
// retries — reporting the requeues that happened, not one more.
func TestLeaseExpiryRequeues(t *testing.T) {
	clock := newFakeClock()
	const ttl = 10 * time.Second
	r, srv := testRouterAt(t, clock.Now, func(o *RouterOptions) {
		o.LeaseTTL = ttl
		// Registration must outlive many expired leases: a worker that
		// leases-and-dies repeatedly is still registered, just useless.
		o.WorkerTTL = time.Hour
		o.MaxRequeues = 2
	})
	st := submitBytes(t, r, []byte(">r\nAC\n"), "")
	dead := registerFake(t, srv.URL, "dead")
	if _, id, _, ok := dead.lease(0); !ok || id != st.ID {
		t.Fatal("dead worker failed to lease")
	}
	clock.Advance(ttl - time.Second)
	r.expire()
	if got, _ := r.Status(st.ID); got.State != StateRunning {
		t.Fatalf("lease expired early: %+v", got)
	}
	// The dead worker never extends: one second later the job requeues and
	// goes to the survivor with requeues=1.
	clock.Advance(time.Second)
	r.expire()
	survivor := registerFake(t, srv.URL, "survivor")
	_, id, lease, ok := survivor.lease(0)
	if !ok || id != st.ID {
		t.Fatalf("survivor lease: ok=%v id=%q", ok, id)
	}
	got, _ := r.Status(id)
	if got.Requeues != 1 || got.Worker != "survivor" {
		t.Fatalf("after requeue: %+v", got)
	}
	// Extending moves the deadline: a full TTL after the lease was taken
	// the job is still the survivor's.
	clock.Advance(ttl - time.Second)
	resp := survivor.post("/cluster/jobs/"+id+"/extend", extendRequest{WorkerID: survivor.id, Lease: lease}, nil)
	resp.Body.Close()
	clock.Advance(2 * time.Second)
	r.expire()
	if code := survivor.complete(id, lease, []byte("ok\n")); code != http.StatusOK {
		t.Fatalf("survivor complete after an extended lease: %d", code)
	}

	// Exhaustion: MaxRequeues=2 allows three executions.
	st2 := submitBytes(t, r, []byte(">r2\nAC\n"), "")
	for run := 0; run < 3; run++ {
		if _, id, _, ok := dead.lease(0); !ok || id != st2.ID {
			t.Fatalf("execution %d: lease ok=%v id=%q", run, ok, id)
		}
		clock.Advance(ttl)
		r.expire()
	}
	got2, _ := r.Status(st2.ID)
	if got2.State != StateFailed || got2.Requeues != 2 || !strings.Contains(got2.Error, "gave up after 2 requeues") {
		t.Fatalf("exhausted job: %+v", got2)
	}
	if _, _, _, ok := dead.lease(0); ok {
		t.Fatal("a failed job was leased again")
	}
	if r.wal.Pending() != 0 {
		t.Fatalf("WAL still holds %d records after the jobs ended", r.wal.Pending())
	}
}

// TestWorkerTTL: a worker that stops heartbeating drops out of the
// registry (and readiness) after WorkerTTL, and is told to re-register.
func TestWorkerTTL(t *testing.T) {
	clock := newFakeClock()
	r, srv := testRouterAt(t, clock.Now, func(o *RouterOptions) {
		o.LeaseTTL = 10 * time.Second
		o.WorkerTTL = 30 * time.Second
	})
	w := registerFake(t, srv.URL, "w1")
	clock.Advance(30 * time.Second)
	if !r.Ready() {
		t.Fatal("worker dropped at exactly WorkerTTL")
	}
	beat := func() int {
		resp := w.post("/cluster/heartbeat", heartbeatRequest{WorkerID: w.id}, nil)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := beat(); code != http.StatusOK {
		t.Fatalf("heartbeat: %d", code)
	}
	clock.Advance(30 * time.Second)
	if !r.Ready() {
		t.Fatal("heartbeat did not renew the registration")
	}
	clock.Advance(time.Second)
	if r.Ready() || len(r.Workers()) != 0 {
		t.Fatal("silent worker still listed after WorkerTTL")
	}
	r.expire()
	if code := beat(); code != http.StatusGone {
		t.Fatalf("heartbeat of a dropped worker: %d, want 410", code)
	}
}

func TestWALReplayAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	reg := telemetry.NewRegistry()
	r1, err := NewRouter(RouterOptions{QueuePath: path, Registry: reg, LeaseTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fasta := []byte(">r1\nACGTACGT\n")
	st := submitBytes(t, r1, fasta, "replay-key")
	r1.Close()

	r2, err := NewRouter(RouterOptions{QueuePath: path, Registry: telemetry.NewRegistry(), LeaseTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got, ok := r2.Status(st.ID)
	if !ok || got.State != StateQueued {
		t.Fatalf("replayed job: ok=%v %+v", ok, got)
	}
	// Identity survives: the idempotency key still dedupes after restart.
	again, replayed, err := r2.Submit(Submission{
		Config:         logan.DefaultOverlapConfig(5, 0.12, 15),
		Open:           func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(fasta)), nil },
		IdempotencyKey: "replay-key",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || again.ID != st.ID {
		t.Fatalf("post-restart retry: replayed=%v id=%q want %q", replayed, again.ID, st.ID)
	}
	// And the leased spec carries the original payload.
	srv := httptest.NewServer(r2.Handler())
	defer srv.Close()
	w := registerFake(t, srv.URL, "w1")
	spec, id, _, ok := w.lease(1000)
	if !ok || id != st.ID || !bytes.Equal(spec.Fasta, fasta) {
		t.Fatalf("replayed lease: ok=%v id=%q fasta=%q", ok, id, spec.Fasta)
	}
}

func TestRouterAuthToken(t *testing.T) {
	_, srv := testRouter(t, func(o *RouterOptions) { o.Token = "s3cret" })
	resp, err := http.Post(srv.URL+"/cluster/register", "application/json",
		strings.NewReader(`{"name":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless register: %s, want 401", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/cluster/register", strings.NewReader(`{"name":"w1"}`))
	req.Header.Set("X-Logan-Cluster-Token", "s3cret")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("tokened register: %s", resp2.Status)
	}
}

// TestWorkerExecutesJob runs the real Worker client against the router
// and checks the served PAF is byte-identical to a direct engine run.
func TestWorkerExecutesJob(t *testing.T) {
	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ov, err := logan.NewOverlapper(eng, logan.OverlapperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fasta := testFasta(t, 42, 30000)
	cfg := logan.DefaultOverlapConfig(5, 0.12, 15)

	res, err := ov.RunFasta(context.Background(), bytes.NewReader(fasta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := logan.WritePAF(&want, res.Records); err != nil {
		t.Fatal(err)
	}

	r, srv := testRouter(t, func(o *RouterOptions) { o.LeaseTTL = 200 * time.Millisecond })
	wk, err := NewWorker(WorkerOptions{
		RouterURL:  srv.URL,
		Name:       "w1",
		Overlapper: ov,
		Backend:    "cpu",
		Registry:   telemetry.NewRegistry(),
		PollWait:   200 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); wk.Run(ctx) }()
	defer func() { cancel(); <-done }()

	st, replayed, err := r.Submit(Submission{
		Config: cfg,
		Open:   func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(fasta)), nil },
	})
	if err != nil || replayed {
		t.Fatalf("submit: %v replayed=%v", err, replayed)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, ok := r.Status(st.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if TerminalState(got.State) {
			if got.State != StateDone {
				t.Fatalf("job finished %q: %s", got.State, got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	paf, got, _ := r.PAF(st.ID)
	if !bytes.Equal(paf, want.Bytes()) {
		t.Fatalf("cluster PAF differs from direct run: %d vs %d bytes", len(paf), want.Len())
	}
	if got.Worker != "w1" || got.Overlaps != len(res.Records) {
		t.Fatalf("completion metadata: %+v", got)
	}
}

// TestWorkerReportsRejectedCompletion: a PAF one byte over the router's
// result budget is refused at /complete. The worker must report that as
// the job's failure — once — instead of logging "done" and leaving the
// job to expire, re-execute MaxRequeues times and fail as "lease expired".
func TestWorkerReportsRejectedCompletion(t *testing.T) {
	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ov, err := logan.NewOverlapper(eng, logan.OverlapperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fasta := testFasta(t, 42, 30000)
	cfg := logan.DefaultOverlapConfig(5, 0.12, 15)
	paf, _, err := runOverlap(ov)(context.Background(), bytes.NewReader(fasta), cfg)
	if err != nil || len(paf) < 2 {
		t.Fatalf("reference run: %d PAF bytes, err %v", len(paf), err)
	}

	r, srv := testRouter(t, func(o *RouterOptions) {
		o.LeaseTTL = 200 * time.Millisecond
		o.ResultBytes = int64(len(paf)) - 1
	})
	wk, err := NewWorker(WorkerOptions{
		RouterURL: srv.URL, Name: "w1", Overlapper: ov, Backend: "cpu",
		PollWait: 200 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); wk.Run(ctx) }()
	defer func() { cancel(); <-done }()

	st, _, err := r.Submit(Submission{Config: cfg, Open: openBody(string(fasta))})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var got JobStatus
	for {
		if got, _ = r.Status(st.ID); TerminalState(got.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got.State != StateFailed || !strings.Contains(got.Error, "result budget") {
		t.Fatalf("over-budget job: state %q error %q, want failed with the size error", got.State, got.Error)
	}
	if got.Requeues != 0 {
		t.Errorf("job executed %d times, want once", got.Requeues+1)
	}
	if ws := r.Workers(); len(ws) != 1 || ws[0].Failed != 1 || ws[0].Completed != 0 {
		t.Errorf("worker tallies: %+v", ws)
	}
}

// TestSubmitUnavailable: a write-ahead queue that refuses the append is
// the store's fault, not the request's — ErrUnavailable, not a bad
// request — and admits nothing.
func TestSubmitUnavailable(t *testing.T) {
	r, srv := testRouter(t, nil)
	r.wal.Close()
	_, _, err := r.Submit(Submission{Config: suiteConfig, Open: openBody(suiteBody)})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("submit with a dead WAL: err=%v, want ErrUnavailable", err)
	}
	if n := r.t.submitted.Value(); n != 0 {
		t.Fatalf("a refused append still counted %v submissions", n)
	}
	if _, _, _, ok := registerFake(t, srv.URL, "w1").lease(0); ok {
		t.Fatal("a refused append left a job in the queue")
	}
}

func TestMergeSnapshots(t *testing.T) {
	localReg := telemetry.NewRegistry()
	localReg.Counter("logan_jobs_submitted_total", "h").Add(3)
	wReg := telemetry.NewRegistry()
	wReg.Counter("logan_align_requests_total", "h", telemetry.L("backend", "cpu")).Add(7)
	wReg.Counter("logan_jobs_submitted_total", "h").Add(1)

	merged := MergeSnapshots(localReg.Snapshot(), map[string]*telemetry.Snapshot{
		"w2": wReg.Snapshot(),
	})
	if v := merged.Value("logan_jobs_submitted_total"); v != 3 {
		t.Fatalf("local series clobbered: %v", v)
	}
	if v := merged.Value("logan_jobs_submitted_total", telemetry.L("worker", "w2")); v != 1 {
		t.Fatalf("worker series missing from shared family: %v", v)
	}
	if v := merged.Value("logan_align_requests_total", telemetry.L("worker", "w2"), telemetry.L("backend", "cpu")); v != 7 {
		t.Fatalf("worker-only family missing: %v", v)
	}
	var text bytes.Buffer
	if err := merged.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), `worker="w2"`) {
		t.Fatalf("rollup text lacks worker label:\n%s", text.String())
	}
	// The local snapshot must not have been mutated.
	if n := len(localReg.Snapshot().Families); n != 1 {
		t.Fatalf("local registry grew: %d families", n)
	}
}

func TestRouterReadyNeedsWorker(t *testing.T) {
	r, srv := testRouter(t, nil)
	if r.Ready() {
		t.Fatal("workerless router reports ready")
	}
	registerFake(t, srv.URL, "w1")
	if !r.Ready() {
		t.Fatal("router with a registered worker reports not ready")
	}
	ws := r.Workers()
	if len(ws) != 1 || ws[0].Name != "w1" || ws[0].Backend != "cpu" {
		t.Fatalf("workers: %+v", ws)
	}
}

func TestSubmitLimits(t *testing.T) {
	r, _ := testRouter(t, func(o *RouterOptions) { o.MaxJobBytes = 16 })
	_, _, err := r.Submit(Submission{
		Config: logan.DefaultOverlapConfig(5, 0.12, 15),
		Open: func() (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader(fmt.Sprintf(">r\n%s\n", strings.Repeat("A", 64)))), nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "byte limit") {
		t.Fatalf("oversized submit: %v", err)
	}
}
