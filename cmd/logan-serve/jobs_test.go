package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logan"
	"logan/internal/cluster"
	"logan/internal/genome"
	"logan/internal/seq"
)

// jobsTestFasta builds a deterministic FASTA data set with real overlaps.
func jobsTestFasta(t testing.TB, seed int64, genomeLen int) []byte {
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

// jobsTestServer boots a serve stack with the /jobs API enabled on the
// given engine shape.
func jobsTestServer(t *testing.T, opt logan.EngineOptions, mut func(*serveConfig)) (*httptest.Server, *server) {
	t.Helper()
	eng, err := logan.NewAligner(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultServeConfig()
	if mut != nil {
		mut(&cfg)
	}
	s, err := newServer(eng, cfg)
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Close()
		srv.Close()
		eng.Close()
	})
	return srv, s
}

// jobsSeries reads one logan_jobs_* series as /metrics would report it.
func jobsSeries(s *server, name string) int64 {
	return s.tele.Snapshot().Int(name)
}

// postJob submits a FASTA body and returns the job id.
func postJob(t *testing.T, url string, fasta []byte, query string) string {
	t.Helper()
	resp, err := http.Post(url+"/jobs"+query, "application/x-fasta", bytes.NewReader(fasta))
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
	if st.ID == "" || st.State != cluster.StateQueued {
		t.Fatalf("POST /jobs response %+v", st)
	}
	return st.ID
}

// getStatus fetches GET /jobs/{id}.
func getStatus(t *testing.T, url, id string) (cluster.JobStatus, int) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return cluster.JobStatus{}, resp.StatusCode
	}
	var st cluster.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("status %q: %v", body, err)
	}
	return st, resp.StatusCode
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, url, id string, timeout time.Duration) cluster.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, code := getStatus(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		if cluster.TerminalState(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v (progress %+v)", id, st.State, timeout, st.Progress)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobsLifecycle is the acceptance path: POST FASTA, poll status
// through completion, fetch PAF bit-identical to an offline Overlapper
// run of the same configuration, then DELETE and observe 404 — on both a
// CPU and a Hybrid engine.
func TestJobsLifecycle(t *testing.T) {
	fasta := jobsTestFasta(t, 21, 50_000)
	const query = "?x=20&minOverlap=400&coverage=5&errorRate=0.12"

	// Offline reference: the same pipeline the cmd/bella binary runs.
	refEng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer refEng.Close()
	refOv, _ := logan.NewOverlapper(refEng, logan.OverlapperOptions{})
	refCfg := logan.DefaultOverlapConfig(5, 0.12, 20)
	refCfg.MinOverlap = 400
	refRes, err := refOv.RunFasta(context.Background(), bytes.NewReader(fasta), refCfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := logan.WritePAF(&want, refRes.Records); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("offline reference produced no overlaps; test set too small")
	}

	for _, tc := range []struct {
		name string
		opt  logan.EngineOptions
	}{
		{"cpu", logan.EngineOptions{}},
		{"hybrid", logan.EngineOptions{Backend: logan.Hybrid, GPUs: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := jobsTestServer(t, tc.opt, nil)
			id := postJob(t, srv.URL, fasta, query)

			st := waitJob(t, srv.URL, id, 60*time.Second)
			if st.State != cluster.StateDone {
				t.Fatalf("job finished %s: %s", st.State, st.Error)
			}
			if st.Progress.Stage != logan.StageDone {
				t.Fatalf("done job progress %+v", st.Progress)
			}
			if st.Progress.ReadsParsed == 0 || st.Progress.CandidatePairs == 0 ||
				st.Progress.ExtensionsDone != st.Progress.ExtensionsTotal {
				t.Errorf("implausible final progress %+v", st.Progress)
			}
			if st.Overlaps != len(refRes.Records) {
				t.Errorf("job found %d overlaps, offline run %d", st.Overlaps, len(refRes.Records))
			}

			resp, err := http.Get(srv.URL + "/jobs/" + id + "/paf")
			if err != nil {
				t.Fatal(err)
			}
			paf, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET paf: status %d: %s", resp.StatusCode, paf)
			}
			if !bytes.Equal(paf, want.Bytes()) {
				t.Errorf("served PAF diverges from the offline pipeline (%d vs %d bytes)", len(paf), want.Len())
			}

			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
			resp, err = http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("DELETE: status %d", resp.StatusCode)
			}
			if _, code := getStatus(t, srv.URL, id); code != http.StatusNotFound {
				t.Fatalf("GET after DELETE: status %d, want 404", code)
			}
		})
	}
}

// TestJobsCancel DELETEs a job that is provably mid-run — its source is
// a pipe the runner is blocked reading — and expects the job to vanish at
// once and the run to observe the cancellation at its next FASTA record.
func TestJobsCancel(t *testing.T) {
	srv, s := jobsTestServer(t, logan.EngineOptions{}, nil)
	pr, pw := io.Pipe()
	defer pw.Close()
	st, _, err := s.store.Submit(cluster.Submission{
		Config: logan.DefaultOverlapConfig(5, 0.12, 15),
		Open:   func() (io.ReadCloser, error) { return pr, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Once a read arrives on the pipe the job is running, and stays so.
	if _, err := pw.Write([]byte(">r0\nACGT\n")); err != nil {
		t.Fatal(err)
	}
	if got, _ := getStatus(t, srv.URL, st.ID); got.State != cluster.StateRunning {
		t.Fatalf("job reading its source is %q, want running", got.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if _, code := getStatus(t, srv.URL, st.ID); code != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d, want 404", code)
	}
	if n := jobsSeries(s, "logan_jobs_canceled_total"); n != 1 {
		t.Fatalf("canceled total %d after DELETE, want 1", n)
	}
	if n := jobsSeries(s, "logan_jobs_running"); n != 0 {
		t.Fatalf("running gauge %d after DELETE, want 0", n)
	}

	// The runner checks its context per ingested record: a canceled run
	// stops reading and closes the source, which fails the write. A run
	// that missed the cancellation would swallow every record.
	for i := 1; ; i++ {
		if _, err := fmt.Fprintf(pw, ">r%d\nACGT\n", i); err != nil {
			if !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("write to canceled run: %v", err)
			}
			break
		}
		if i == 1000 {
			t.Fatal("run kept ingesting after DELETE; cancellation not observed")
		}
	}
}

// TestJobsAdmissionAndErrors covers the error surface: invalid configs,
// invalid FASTA, full stores, unknown ids, data-dir sandboxing, and the
// disabled API.
func TestJobsAdmissionAndErrors(t *testing.T) {
	fasta := jobsTestFasta(t, 23, 30_000)
	srv, s := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) {
		c.maxJobs = 2
		c.jobWorkers = 1
		c.jobBodyLimit = int64(len(fasta) + 1024)
	})

	post := func(body, ct, query string) (int, string) {
		resp, err := http.Post(srv.URL+"/jobs"+query, ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// k is validated at submission: seq.MaxK is 31, so 32 — one past the
	// documented (0,31] — is a 400 here, not a job that fails later.
	for _, k := range []string{"32", "99", "-1"} {
		if code, body := post("ACGT", "application/x-fasta", "?k="+k); code != http.StatusBadRequest {
			t.Errorf("k=%s: status %d (%s), want 400", k, code, body)
		}
	}
	if code, body := post("ACGT", "application/x-fasta", "?x=1000000"); code != http.StatusBadRequest {
		t.Errorf("x over max-x: status %d (%s), want 400", code, body)
	}
	if code, body := post("ACGT", "application/x-fasta", "?x=abc"); code != http.StatusBadRequest {
		t.Errorf("x=abc: status %d (%s), want 400", code, body)
	}
	if code, body := post("", "application/x-fasta", ""); code != http.StatusBadRequest {
		t.Errorf("empty body: status %d (%s), want 400", code, body)
	}
	if code, body := post(string(fasta)+strings.Repeat("A", 2048), "application/x-fasta", ""); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (%.100s), want 413", code, body)
	}
	// fastaPath submissions need -job-data-dir.
	if code, body := post(`{"fastaPath":"x.fa"}`, "application/json", ""); code != http.StatusBadRequest {
		t.Errorf("fastaPath without data dir: status %d (%s), want 400", code, body)
	}

	// A malformed FASTA is accepted (the parse is part of the job) and
	// fails asynchronously.
	id := postJob(t, srv.URL, []byte("not fasta at all"), "")
	st := waitJob(t, srv.URL, id, 30*time.Second)
	if st.State != cluster.StateFailed || st.Error == "" {
		t.Errorf("bad FASTA job: %+v, want failed with error", st)
	}
	// Its PAF is unavailable.
	resp, err := http.Get(srv.URL + "/jobs/" + id + "/paf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("paf of failed job: status %d, want 409", resp.StatusCode)
	}

	// Unknown ids are 404 everywhere.
	for _, p := range []string{"/jobs/deadbeef", "/jobs/deadbeef/paf"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", p, resp.StatusCode)
		}
	}

	// Fill the store with live jobs: maxJobs=2, one worker. Two real jobs
	// occupy the store (one running, one queued; the failed job above is
	// terminal and gets evicted), so a third submission sheds with 429.
	idA := postJob(t, srv.URL, fasta, "?x=500&coverage=5&errorRate=0.12")
	idB := postJob(t, srv.URL, fasta, "?x=500&coverage=5&errorRate=0.12")
	code, body := post(string(fasta), "application/x-fasta", "")
	if code != http.StatusTooManyRequests {
		t.Errorf("submission to full store: status %d (%.100s), want 429", code, body)
	}
	if jobsSeries(s, "logan_jobs_rejected_total") == 0 {
		t.Error("rejected submission not counted")
	}
	// Drain so cleanup does not race long-running work.
	for _, id := range []string{idA, idB} {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestJobsByteBudget checks the aggregate upload-byte budget: queued
// uploads (blocked behind the single worker, so their ingestion has not
// started) hold their reservation, and submissions past the budget shed
// with 429 even though the job-count cap is not reached. A running job
// releases its reservation once ingestion completes.
func TestJobsByteBudget(t *testing.T) {
	fasta := jobsTestFasta(t, 26, 40_000)
	srv, s := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) {
		c.jobWorkers = 1
		c.jobBodyLimit = int64(len(fasta) + 1024)
		// Budget fits one and a half uploads: the running (post-ingest,
		// released) job plus one queued reservation, but not two.
		c.jobPendingBytes = int64(len(fasta)) + int64(len(fasta))/2
	})
	// Job A: expensive (x=500) so it occupies the worker for a while.
	idA := postJob(t, srv.URL, fasta, "?x=500&coverage=5&errorRate=0.12")
	// Wait until A's ingestion finished — its reservation is released.
	deadline := time.Now().Add(30 * time.Second)
	for s.tele.Snapshot().Value("logan_jobs_buffered_bytes") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("job A's upload reservation never released after ingestion")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Job B queues behind A (1 worker): its reservation is held.
	idB := postJob(t, srv.URL, fasta, "?x=15&coverage=5&errorRate=0.12")
	// Job C would push reservations to 2× the upload size — over budget.
	resp, err := http.Post(srv.URL+"/jobs", "application/x-fasta", bytes.NewReader(fasta))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("upload past byte budget: status %d (%.100s), want 429", resp.StatusCode, body)
	}
	// Drain: cancel A, let B run; once B ingests, uploads admit again.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+idA, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Post(srv.URL+"/jobs?x=15&coverage=5&errorRate=0.12", "application/x-fasta", bytes.NewReader(fasta))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("upload still shed after the queue drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = idB
}

// TestJobsResultBudget checks retained-PAF eviction: when finished jobs'
// aggregate PAF bytes exceed the result budget, the oldest terminal job
// is evicted (404) while the newest result survives.
func TestJobsResultBudget(t *testing.T) {
	fasta := jobsTestFasta(t, 27, 40_000)
	srv, _ := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) {
		// Far below one run's PAF output (tens of KB), so the second
		// completion must evict the first.
		c.jobResultBytes = 1024
	})
	idA := postJob(t, srv.URL, fasta, "?x=15&minOverlap=400&coverage=5&errorRate=0.12")
	stA := waitJob(t, srv.URL, idA, 60*time.Second)
	if stA.State != cluster.StateDone || stA.PAFBytes <= 1024 {
		t.Fatalf("job A: %+v (need a PAF larger than the budget)", stA)
	}
	idB := postJob(t, srv.URL, fasta, "?x=15&minOverlap=400&coverage=5&errorRate=0.12")
	stB := waitJob(t, srv.URL, idB, 60*time.Second)
	if stB.State != cluster.StateDone {
		t.Fatalf("job B: %+v", stB)
	}
	if _, code := getStatus(t, srv.URL, idA); code != http.StatusNotFound {
		t.Errorf("oldest result not evicted: GET A = %d, want 404", code)
	}
	resp, err := http.Get(srv.URL + "/jobs/" + idB + "/paf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("newest result must survive eviction: GET B paf = %d", resp.StatusCode)
	}
}

// TestJobsDataDir exercises server-side fastaPath submissions and the
// path sandbox.
func TestJobsDataDir(t *testing.T) {
	fasta := jobsTestFasta(t, 24, 30_000)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "reads.fa"), fasta, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _ := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) {
		c.jobDataDir = dir
	})

	post := func(req string) (int, string) {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	for _, bad := range []string{
		`{"fastaPath":"../etc/passwd"}`,
		`{"fastaPath":"/etc/passwd"}`,
		`{"fastaPath":""}`,
	} {
		if code, body := post(bad); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", bad, code, body)
		}
	}

	code, body := post(`{"fastaPath":"reads.fa","config":{"x":15,"minOverlap":400,"coverage":5,"errorRate":0.12}}`)
	if code != http.StatusAccepted {
		t.Fatalf("fastaPath submit: status %d (%s)", code, body)
	}
	var st cluster.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, srv.URL, st.ID, 60*time.Second)
	if fin.State != cluster.StateDone || fin.Overlaps == 0 {
		t.Fatalf("fastaPath job: %+v", fin)
	}

	// A missing file fails the job, not the submission.
	code, body = post(`{"fastaPath":"nope.fa"}`)
	if code != http.StatusAccepted {
		t.Fatalf("missing-file submit: status %d (%s)", code, body)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	fin = waitJob(t, srv.URL, st.ID, 30*time.Second)
	if fin.State != cluster.StateFailed {
		t.Fatalf("missing-file job: %+v", fin)
	}
}

// TestJobsDisabled checks the -jobs=false surface.
func TestJobsDisabled(t *testing.T) {
	srv, _ := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) { c.jobs = false })
	resp, err := http.Post(srv.URL+"/jobs", "application/x-fasta", strings.NewReader(">r\nACGT\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST with jobs disabled: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/jobs/abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET with jobs disabled: status %d, want 404", resp.StatusCode)
	}
}

// TestJobsStatz checks the /statz jobs block counts a completed run.
func TestJobsStatz(t *testing.T) {
	fasta := jobsTestFasta(t, 25, 30_000)
	srv, _ := jobsTestServer(t, logan.EngineOptions{}, nil)
	id := postJob(t, srv.URL, fasta, "?x=15&minOverlap=400&coverage=5&errorRate=0.12")
	st := waitJob(t, srv.URL, id, 60*time.Second)
	if st.State != cluster.StateDone {
		t.Fatalf("job: %+v", st)
	}

	resp, err := http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out statzJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Jobs == nil {
		t.Fatal("statz missing jobs block")
	}
	if out.Jobs.Submitted != 1 || out.Jobs.Completed != 1 || out.Jobs.PAFBytes == 0 {
		t.Errorf("jobs statz %+v", out.Jobs)
	}
	if out.Jobs.Running != 0 || out.Jobs.Queued != 0 {
		t.Errorf("jobs gauges not drained: %+v", out.Jobs)
	}
	_ = fmt.Sprintf("%v", out)
}

// TestJobsMeteredTenantBucketUntouched: a metered tenant's job extends
// through the coalescer's bulk lanes, which draw no pairs/sec quota. The
// job completes although its extension work far exceeds the tenant's
// bucket, and the whole burst is still there for /align afterwards.
func TestJobsMeteredTenantBucketUntouched(t *testing.T) {
	fasta := jobsTestFasta(t, 25, 30_000)
	const burst = 16 // alignBody has 28 distinct pairs: the probes below must all miss the cache
	// A rate too low to refill anything during the test.
	ten := logan.NewTenant(logan.TenantOptions{Name: "metered", PairsPerSec: 0.001, Burst: burst})
	srv, _ := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) {
		c.apiKeys = map[string]*logan.Tenant{"k-metered": ten}
	})
	post := func(path, body string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
		req.Header.Set("X-API-Key", "k-metered")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := post("/jobs?x=15&minOverlap=400&coverage=5&errorRate=0.12", string(fasta))
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", code, body)
	}
	var sub cluster.JobStatus
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, srv.URL, sub.ID, 60*time.Second)
	if st.State != cluster.StateDone || st.Overlaps == 0 {
		t.Fatalf("metered tenant's job finished %s with %d overlaps: %s", st.State, st.Overlaps, st.Error)
	}
	if code, body := post("/align", alignBody(burst, 0)); code != http.StatusOK {
		t.Fatalf("a full burst after the job: status %d (%s), want 200 — the job drew on the bucket", code, body)
	}
	if code, _ := post("/align", alignBody(1, burst)); code != http.StatusTooManyRequests {
		t.Fatalf("one pair past the burst: status %d, want 429 (the bucket is live)", code)
	}
}
