package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"logan"
	"logan/internal/cluster"
)

// clusterTestServer boots a router-mode serve stack with short lease
// TTLs (fast failure detection in tests) and the durable queue at
// queuePath.
func clusterTestServer(t *testing.T, queuePath string, mut func(*serveConfig)) (*httptest.Server, *server, func()) {
	t.Helper()
	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultServeConfig()
	cfg.cluster = true
	cfg.clusterQueue = queuePath
	cfg.leaseTTL = 200 * time.Millisecond
	if mut != nil {
		mut(&cfg)
	}
	s, err := newServer(eng, cfg)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	stop := func() {
		s.Close()
		srv.Close()
		eng.Close()
	}
	t.Cleanup(stop)
	return srv, s, stop
}

// startWorker builds a logan-worker-equivalent in-process: its own
// engine and overlapper, registered against the router, serving until
// the returned stop function is called (graceful) or Kill (abrupt).
func startWorker(t *testing.T, routerURL, name string) (*cluster.Worker, func()) {
	t.Helper()
	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := logan.NewOverlapper(eng, logan.OverlapperOptions{})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		RouterURL:  routerURL,
		Name:       name,
		Overlapper: ov,
		Backend:    "cpu",
		Registry:   eng.Telemetry(),
		Logf:       t.Logf,
	})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker %s: %v", name, err)
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			wg.Wait()
			eng.Close()
		})
	}
	t.Cleanup(stop)
	return w, stop
}

// offlinePAF runs the reference pipeline (the cmd/bella path) on fasta
// and returns the PAF bytes every cluster execution must reproduce.
func offlinePAF(t *testing.T, fasta []byte, cfg logan.OverlapConfig) []byte {
	t.Helper()
	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ov, _ := logan.NewOverlapper(eng, logan.OverlapperOptions{})
	res, err := ov.RunFasta(context.Background(), bytes.NewReader(fasta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := logan.WritePAF(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("offline reference produced no overlaps; test set too small")
	}
	return buf.Bytes()
}

// getPAF fetches the finished job's PAF body.
func getPAF(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/paf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET paf: status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestClusterWorkerDeathRetry is the scale-out acceptance path: two
// workers serve a router, the one executing the job is killed without
// warning (no fail report, no release — pure lease expiry), and the
// survivor completes the job with output byte-identical to the offline
// single-node pipeline.
func TestClusterWorkerDeathRetry(t *testing.T) {
	fasta := jobsTestFasta(t, 21, 50_000)
	refCfg := logan.DefaultOverlapConfig(5, 0.12, 500)
	refCfg.MinOverlap = 400
	want := offlinePAF(t, fasta, refCfg)

	srv, _, _ := clusterTestServer(t, filepath.Join(t.TempDir(), "queue.wal"), nil)
	w1, _ := startWorker(t, srv.URL, "w1")
	w2, _ := startWorker(t, srv.URL, "w2")
	waitReady(t, srv.URL)

	// x=500 keeps the job running long enough to observe and kill its
	// executing worker.
	id := postJob(t, srv.URL, fasta, "?x=500&minOverlap=400&coverage=5&errorRate=0.12")

	// Wait until a worker holds the lease, then kill that worker.
	var victim string
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, code := getStatus(t, srv.URL, id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		if st.State == cluster.StateRunning && st.Worker != "" {
			victim = st.Worker
			break
		}
		if st.State != cluster.StateQueued {
			t.Fatalf("job %s before any kill: %s (%s)", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var survivor string
	switch victim {
	case "w1":
		w1.Kill()
		survivor = "w2"
	case "w2":
		w2.Kill()
		survivor = "w1"
	default:
		t.Fatalf("job leased by unknown worker %q", victim)
	}

	st := waitJob(t, srv.URL, id, 60*time.Second)
	if st.State != cluster.StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	if st.Requeues != 1 {
		t.Errorf("job requeued %d times, want exactly 1", st.Requeues)
	}
	if st.Worker != survivor {
		t.Errorf("job completed by %q, want survivor %q", st.Worker, survivor)
	}
	if got := getPAF(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Errorf("cluster PAF diverges from the offline pipeline (%d vs %d bytes)", len(got), len(want))
	}

	// The /statz cluster block reflects the death: the requeue counted,
	// the survivor is registered with a completion.
	var stz statzJSON
	resp, err := http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stz.Cluster == nil {
		t.Fatal("router-mode /statz has no cluster block")
	}
	if stz.Cluster.Requeues < 1 || stz.Cluster.LeaseExpired < 1 {
		t.Errorf("cluster statz counted %d requeues / %d expiries, want >= 1 each",
			stz.Cluster.Requeues, stz.Cluster.LeaseExpired)
	}
	ws, ok := stz.Cluster.Workers[survivor]
	if !ok || ws.Completed < 1 {
		t.Errorf("cluster statz workers %+v: want %s with >= 1 completion", stz.Cluster.Workers, survivor)
	}
}

// TestClusterWALReplay: jobs accepted before a router crash survive the
// restart — the WAL replays them as queued and a worker attached to the
// new incarnation completes them.
func TestClusterWALReplay(t *testing.T) {
	fasta := jobsTestFasta(t, 22, 30_000)
	refCfg := logan.DefaultOverlapConfig(5, 0.12, 20)
	refCfg.MinOverlap = 400
	want := offlinePAF(t, fasta, refCfg)

	queue := filepath.Join(t.TempDir(), "queue.wal")
	srv1, _, stop1 := clusterTestServer(t, queue, nil)
	id := postJob(t, srv1.URL, fasta, "?x=20&minOverlap=400&coverage=5&errorRate=0.12")
	stop1() // no worker ever saw the job; only the WAL remembers it

	srv2, _, _ := clusterTestServer(t, queue, nil)
	st, code := getStatus(t, srv2.URL, id)
	if code != http.StatusOK {
		t.Fatalf("job %s lost across restart: status %d", id, code)
	}
	if st.State != cluster.StateQueued {
		t.Fatalf("replayed job state %s, want queued", st.State)
	}

	startWorker(t, srv2.URL, "w1")
	fin := waitJob(t, srv2.URL, id, 60*time.Second)
	if fin.State != cluster.StateDone {
		t.Fatalf("replayed job finished %s: %s", fin.State, fin.Error)
	}
	if got := getPAF(t, srv2.URL, id); !bytes.Equal(got, want) {
		t.Errorf("post-replay PAF diverges from the offline pipeline (%d vs %d bytes)", len(got), len(want))
	}
}

// TestClusterReadyz: in router mode readiness requires both the local
// engine warm-up and at least one registered worker; /healthz stays 200
// throughout (pure liveness).
func TestClusterReadyz(t *testing.T) {
	srv, _, _ := clusterTestServer(t, filepath.Join(t.TempDir(), "queue.wal"), nil)

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz before workers: %d, want 200", code)
	}
	// No worker yet: readiness must be refused even once warm. Poll
	// briefly to let the warm-up finish — the answer must stay 503.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if code := get("/readyz"); code != http.StatusServiceUnavailable {
			t.Fatalf("readyz with no workers: %d, want 503", code)
		}
		time.Sleep(20 * time.Millisecond)
	}

	startWorker(t, srv.URL, "w1")
	waitReady(t, srv.URL)
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz after workers: %d, want 200", code)
	}
}

// TestClusterIdempotencyKey: an Idempotency-Key retry maps onto the
// original job over HTTP — same ID, X-Logan-Replayed: true, one
// execution.
func TestClusterIdempotencyKey(t *testing.T) {
	fasta := jobsTestFasta(t, 23, 30_000)
	srv, _, _ := clusterTestServer(t, filepath.Join(t.TempDir(), "queue.wal"), nil)
	startWorker(t, srv.URL, "w1")

	post := func(key string) (cluster.JobStatus, *http.Response) {
		req, err := http.NewRequest(http.MethodPost,
			srv.URL+"/jobs?x=20&minOverlap=400&coverage=5&errorRate=0.12", bytes.NewReader(fasta))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-fasta")
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, body)
		}
		var st cluster.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("POST /jobs response %q: %v", body, err)
		}
		return st, resp
	}

	first, resp := post("retry-abc")
	if resp.Header.Get("X-Logan-Replayed") != "" {
		t.Error("first submission marked replayed")
	}
	second, resp := post("retry-abc")
	if second.ID != first.ID {
		t.Errorf("retry created a new job %s, want original %s", second.ID, first.ID)
	}
	if resp.Header.Get("X-Logan-Replayed") != "true" {
		t.Error("retry response missing X-Logan-Replayed: true")
	}
	other, _ := post("retry-def")
	if other.ID == first.ID {
		t.Error("distinct Idempotency-Key mapped onto the same job")
	}

	if st := waitJob(t, srv.URL, first.ID, 60*time.Second); st.State != cluster.StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	waitJob(t, srv.URL, other.ID, 60*time.Second)
}

// TestClusterMetricsRollup: the router's /metrics scrape re-exports
// every live worker's series under worker="<name>" labels — one scrape
// covers the fleet.
func TestClusterMetricsRollup(t *testing.T) {
	srv, _, _ := clusterTestServer(t, filepath.Join(t.TempDir(), "queue.wal"), nil)
	startWorker(t, srv.URL, "w1")
	startWorker(t, srv.URL, "w2")

	// Worker snapshots arrive with heartbeats; poll until both appear.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: status %d", resp.StatusCode)
		}
		text := string(body)
		if strings.Contains(text, `worker="w1"`) && strings.Contains(text, `worker="w2"`) {
			// The local series stay unlabeled: the router's own process
			// metrics must not acquire a worker label.
			if !strings.Contains(text, "logan_http_requests_total ") {
				t.Error("router's own unlabeled series missing from the rollup")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rollup never showed both workers; last scrape:\n%.2000s", text)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobsSubmitFaultStatus: a fault of the store (closed for shutdown,
// write-ahead queue refusing appends) is a 503 with Retry-After in both
// modes, never a 400; a fault of the submitted source (unreadable, over
// the per-job byte limit — the router reads it at admission) stays a 400.
func TestJobsSubmitFaultStatus(t *testing.T) {
	fasta := jobsTestFasta(t, 24, 30_000)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "big.fa"), fasta, 0o644); err != nil {
		t.Fatal(err)
	}
	mut := func(c *serveConfig) {
		c.jobDataDir = dir
		c.jobBodyLimit = int64(len(fasta)) - 1
	}
	localSrv, localS := jobsTestServer(t, logan.EngineOptions{}, mut)
	routerSrv, routerS, _ := clusterTestServer(t, filepath.Join(t.TempDir(), "queue.wal"), mut)

	post := func(url, ct, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(url+"/jobs", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for _, body := range []string{`{"fastaPath":"missing.fa"}`, `{"fastaPath":"big.fa"}`} {
		if resp := post(routerSrv.URL, "application/json", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("router, %s: status %d, want 400", body, resp.StatusCode)
		}
	}

	for _, tc := range []struct {
		name string
		url  string
		s    *server
	}{{"local", localSrv.URL, localS}, {"router", routerSrv.URL, routerS}} {
		tc.s.store.Close()
		resp := post(tc.url, "application/x-fasta", ">r\nACGT\n")
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s, closed store: status %d Retry-After %q, want 503 with Retry-After",
				tc.name, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
}
