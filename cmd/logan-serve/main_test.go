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
	"strings"
	"sync"
	"testing"
	"time"

	"logan"
	"logan/internal/seq"
)

// testServerCfg builds a serve stack with the given config; cleanup order
// matters: the coalescer must drain before the listener and engine close.
func testServerCfg(t *testing.T, cfg serveConfig) (*httptest.Server, *server, *logan.Aligner) {
	t.Helper()
	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.defCfg == (logan.Config{}) {
		cfg.defCfg = logan.DefaultConfig(50)
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
	return srv, s, eng
}

// waitReady polls /readyz until it reports 200, failing the test if the
// server never becomes ready.
func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server not ready within 30s (last status %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func testServer(t *testing.T) (*httptest.Server, *logan.Aligner) {
	t.Helper()
	cfg := defaultServeConfig()
	cfg.defCfg = logan.DefaultConfig(50)
	cfg.maxPairs = 1000
	srv, _, eng := testServerCfg(t, cfg)
	return srv, eng
}

// holdEngine posts one slow single-pair request — a wide X-drop band over
// 16 kb sequences, a few hundred milliseconds of DP — and returns once the
// coalescer's flusher has taken it: until it completes, every coalesced
// request queues behind it. The returned channel yields its HTTP status.
func holdEngine(t *testing.T, url string, s *server) <-chan int {
	t.Helper()
	long := strings.Repeat("ACGT", 4000)
	body := fmt.Sprintf(`{"pairs":[{"query":%q,"target":%q,"seedLen":4}],"x":10000}`, long, long)
	status := make(chan int, 1)
	before := s.coal.Metrics().Enqueued
	go func() {
		resp, err := http.Post(url+"/align", "application/json", strings.NewReader(body))
		if err != nil {
			status <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for m := s.coal.Metrics(); m.Enqueued != before+1 || m.QueuedRequests != 0; m = s.coal.Metrics() {
		if time.Now().After(deadline) {
			t.Fatalf("slow request never reached the engine: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
	return status
}

func postAlign(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/align", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestServeAlign(t *testing.T) {
	srv, _ := testServer(t)
	resp, data := postAlign(t, srv.URL,
		`{"pairs":[{"query":"ACGTACGTACGTACGT","target":"ACGTACGTACGTACGT","seedQ":4,"seedT":4,"seedLen":4}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out alignResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Alignments) != 1 {
		t.Fatalf("alignments: %+v", out)
	}
	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref := []byte("ACGTACGTACGTACGT")
	offline, _, err := eng.Align(context.Background(),
		[]logan.Pair{{Query: ref, Target: ref, SeedQ: 4, SeedT: 4, SeedLen: 4}}, logan.DefaultConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	want, got := offline[0], out.Alignments[0]
	if got.Score != want.Score || got.QBegin != want.QBegin || got.QEnd != want.QEnd {
		t.Fatalf("served %+v, want %+v", got, want)
	}
	if out.Stats.Pairs != 1 || out.Stats.WallNS <= 0 {
		t.Fatalf("stats %+v", out.Stats)
	}
}

func TestServeErrors(t *testing.T) {
	srv, _ := testServer(t)
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed json", `{"pairs":`, http.StatusBadRequest},
		{"trailing garbage", `{"pairs":[]} GARBAGE`, http.StatusBadRequest},
		{"second json document", `{"pairs":[]} {"pairs":[]}`, http.StatusBadRequest},
		{"invalid base", `{"pairs":[{"query":"AXGT","target":"ACGT","seedLen":2}]}`, http.StatusUnprocessableEntity},
		{"seed out of range", `{"pairs":[{"query":"ACGT","target":"ACGT","seedQ":3,"seedLen":4}]}`, http.StatusUnprocessableEntity},
		{"seed position overflow", `{"pairs":[{"query":"ACGT","target":"ACGT","seedQ":9223372036854775806,"seedLen":4}]}`, http.StatusUnprocessableEntity},
		{"upper-case keys", `{"PAIRS":[{"QUERY":"ACGT","Target":"ACGT","SEEDLEN":2}],"X":50}`, http.StatusOK},
		{"unknown top-level key", `{"client":{"name":"x","tags":[1,2]},"pairs":[{"query":"ACGT","target":"ACGT","seedLen":2}]}`, http.StatusOK},
		{"fraction in an integer field", `{"pairs":[{"query":"ACGT","target":"ACGT","seedLen":2.0}]}`, http.StatusBadRequest},
		{"x over int32", `{"pairs":[],"x":2147483648}`, http.StatusBadRequest},
		{"oversized batch", func() string {
			var b strings.Builder
			b.WriteString(`{"pairs":[`)
			for i := 0; i < 1001; i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(`{"query":"ACGT","target":"ACGT","seedLen":2}`)
			}
			b.WriteString(`]}`)
			return b.String()
		}(), http.StatusRequestEntityTooLarge},
	} {
		resp, data := postAlign(t, srv.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.status, data)
		}
	}
	// Trailing whitespace after the document is not garbage.
	resp, data := postAlign(t, srv.URL, `{"pairs":[]}`+"\n  \n")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status %d: %s", resp.StatusCode, data)
	}
	// An escaped base decodes to the base itself: the escaped spelling of
	// a pair scores exactly like the plain one.
	score := func(query string) alignmentJSON {
		t.Helper()
		resp, data := postAlign(t, srv.URL,
			`{"pairs":[{"query":"`+query+`","target":"ACGTTGCAACGT","seedQ":4,"seedT":4,"seedLen":4}]}`)
		var out alignResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &out) != nil || len(out.Alignments) != 1 {
			t.Fatalf("query %s: status %d: %s", query, resp.StatusCode, data)
		}
		return out.Alignments[0]
	}
	if plain, escaped := score("ACGTTGCAACGT"), score(`\u0041CGTTGC\u0061ACGT`); escaped != plain || plain.Score != 12 {
		t.Errorf("escaped query scored %+v, plain %+v (want score 12)", escaped, plain)
	}
}

// TestServeOversizedBody pins the 413 contract: a body over the wire limit
// must not surface as a generic 400 decode error.
func TestServeOversizedBody(t *testing.T) {
	cfg := defaultServeConfig()
	cfg.bodyLimit = 128
	srv, _, _ := testServerCfg(t, cfg)

	big := fmt.Sprintf(`{"pairs":[{"query":%q,"target":%q,"seedLen":4}]}`,
		strings.Repeat("ACGT", 100), strings.Repeat("ACGT", 100))
	resp, data := postAlign(t, srv.URL, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (want 413): %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "128-byte limit") {
		t.Fatalf("413 body does not name the limit: %s", data)
	}
	// Over the limit is 413 even when a JSON document inside the body
	// ends early and only padding crosses the limit.
	for _, pad := range []string{"GARBAGE", " "} {
		resp, data = postAlign(t, srv.URL, `{"pairs":[]}`+strings.Repeat(pad, 200))
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(data), "128-byte limit") {
			t.Errorf("document padded with %q past the limit: status %d (want 413 naming the limit): %s", pad, resp.StatusCode, data)
		}
	}
	// A body under the limit still works.
	resp, data = postAlign(t, srv.URL, `{"pairs":[]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body after big: status %d: %s", resp.StatusCode, data)
	}
}

// failingWriter is a ResponseWriter whose client is gone: every write
// fails. It drives the WriteErrors accounting deterministically.
type failingWriter struct {
	h    http.Header
	code int
}

func (f *failingWriter) Header() http.Header       { return f.h }
func (f *failingWriter) WriteHeader(code int)      { f.code = code }
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestServeWriteErrors checks that response-encoding failures are counted
// and surfaced in /statz rather than silently dropped.
func TestServeWriteErrors(t *testing.T) {
	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := defaultServeConfig()
	cfg.defCfg = logan.DefaultConfig(50)
	s, err := newServer(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	req := httptest.NewRequest("POST", "/align",
		strings.NewReader(`{"pairs":[{"query":"ACGTACGT","target":"ACGTACGT","seedLen":4}]}`))
	fw := &failingWriter{h: make(http.Header)}
	s.ServeHTTP(fw, req)
	if got := s.m.writeErrors.Value(); got != 1 {
		t.Fatalf("WriteErrors = %g, want 1", got)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	var totals statzJSON
	if err := json.NewDecoder(rec.Body).Decode(&totals); err != nil {
		t.Fatal(err)
	}
	if totals.WriteErrors != 1 {
		t.Fatalf("statz writeErrors = %d, want 1: %+v", totals.WriteErrors, totals)
	}
	// The alignment itself ran; only delivery failed.
	if totals.Pairs != 1 {
		t.Fatalf("statz pairs = %d, want 1", totals.Pairs)
	}
	switch totals.SIMD {
	case "avx2", "sse2", "portable":
	default:
		t.Fatalf("statz simd = %q, want the vector kernel's instruction set", totals.SIMD)
	}
}

// TestServeShed pins the admission-control contract: once a tenant's
// share of the queue is full, requests get 429 with a Retry-After header,
// and the queued requests still complete when the engine frees up.
func TestServeShed(t *testing.T) {
	cfg := defaultServeConfig()
	// A delay target no queue can meet leaves exactly the one-batch floor
	// of 4 pairs, once a first batch has measured a drain rate.
	cfg.coalescePairs = 4
	cfg.targetDelay = time.Nanosecond
	srv, s, _ := testServerCfg(t, cfg)
	if resp, data := postAlign(t, srv.URL, `{"pairs":[{"query":"TTGCATTGCATTGCAT","target":"TTGCATTGCATTGCAT","seedQ":4,"seedT":4,"seedLen":4}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("calibrating request: status %d: %s", resp.StatusCode, data)
	}
	// The queue fills behind one slow batch (which, once executing, no
	// longer counts against the share).
	held := holdEngine(t, srv.URL, s)

	pairBody := func(n int) string {
		var b strings.Builder
		b.WriteString(`{"pairs":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"query":"ACGTACGTACGTACGT","target":"ACGTACGTACGTACGT","seedQ":4,"seedT":4,"seedLen":4}`)
		}
		b.WriteString(`]}`)
		return b.String()
	}

	type result struct {
		status int
		body   string
	}
	queued := make(chan result, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/align", "application/json",
			strings.NewReader(pairBody(3)))
		if err != nil {
			queued <- result{status: -1, body: err.Error()}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		queued <- result{status: resp.StatusCode, body: string(data)}
	}()

	// Wait until the 3 pairs are visibly queued before overflowing.
	deadline := time.Now().Add(10 * time.Second)
	for s.coal.Metrics().QueuedPairs != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("request never queued: %+v", s.coal.Metrics())
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(srv.URL+"/align", "application/json", strings.NewReader(pairBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d (want 429): %s", resp.StatusCode, data)
	}
	// Three short pairs drain in microseconds at the measured rate: the
	// header is the one-second minimum.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want %q", ra, "1")
	}
	// Every shed response closes its trace with a shed span and ships it,
	// so a 429'd client sees where admission control stopped it.
	if trh := resp.Header.Get("X-Logan-Trace"); !strings.Contains(trh, "shed=") {
		t.Fatalf("shed response X-Logan-Trace %q missing shed span", trh)
	}

	// The slow batch ends and the queued request completes with 200.
	if st := <-held; st != http.StatusOK {
		t.Fatalf("slow request: status %d", st)
	}
	r := <-queued
	if r.status != http.StatusOK {
		t.Fatalf("queued request: status %d: %s", r.status, r.body)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/statz", nil))
	var totals statzJSON
	if err := json.NewDecoder(rec.Body).Decode(&totals); err != nil {
		t.Fatal(err)
	}
	if totals.Shed != 1 || totals.Coalescer == nil || totals.Coalescer.Shed != 1 || totals.Coalescer.ShedDelay != 1 {
		t.Fatalf("statz shed accounting: %+v (coalescer %+v)", totals, totals.Coalescer)
	}
	if totals.Coalescer.MergedBatches != 3 {
		t.Fatalf("statz merged batches: %+v, want the calibrating batch, the slow one and the queued one", totals.Coalescer)
	}
}

func TestServeHealthAndStatz(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	postAlign(t, srv.URL, `{"pairs":[{"query":"ACGTACGT","target":"ACGTACGT","seedLen":4}]}`)
	resp, err = http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var totals statzJSON
	if err := json.NewDecoder(resp.Body).Decode(&totals); err != nil {
		t.Fatal(err)
	}
	if totals.Requests < 1 || totals.Pairs < 1 || totals.Cells < 1 {
		t.Fatalf("statz %+v", totals)
	}
	// The per-backend breakdown must cover the served pairs: the test
	// engine is CPU-backed, so everything lands on the "cpu" worker.
	cpu, ok := totals.Backends["cpu"]
	if !ok || cpu.Pairs < 1 || cpu.Cells < 1 {
		t.Fatalf("statz backends %+v", totals.Backends)
	}
	// Coalescing is on in the test server, so the merged-batch counters
	// must account for the aligned request.
	c := totals.Coalescer
	if c == nil || c.MergedBatches < 1 || c.MergedPairs < 1 {
		t.Fatalf("statz coalescer %+v", c)
	}
}

// TestServeConcurrentRequests hammers the shared engine from many client
// goroutines; run with -race this is the serve-mode acceptance check. Each
// client posts a distinct pair set and must get exactly its own alignments
// back, bit-identical to a direct engine call — the HTTP-level scatter
// correctness check for the coalescing layer. Each client repeats its
// body, so rounds after the first are served by the result cache and the
// same assertion doubles as the cache's bit-identity check over HTTP.
func TestServeConcurrentRequests(t *testing.T) {
	srv, eng := testServer(t)

	const clients, perClient = 8, 10
	type workload struct {
		body string
		want []logan.Alignment
	}
	loads := make([]workload, clients)
	for c := range loads {
		rng := rand.New(rand.NewSource(int64(100 + c)))
		raw := seq.RandPairSet(rng, seq.PairSetOptions{
			N: 2 + c%3, MinLen: 80, MaxLen: 200, ErrorRate: 0.15, SeedLen: 17,
		})
		pairs := make([]logan.Pair, len(raw))
		js := make([]string, len(raw))
		for i, p := range raw {
			pairs[i] = logan.Pair{
				Query: []byte(p.Query), Target: []byte(p.Target),
				SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen,
			}
			js[i] = fmt.Sprintf(`{"query":%q,"target":%q,"seedQ":%d,"seedT":%d,"seedLen":%d}`,
				p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen)
		}
		want, _, err := eng.Align(context.Background(), pairs, logan.DefaultConfig(50))
		if err != nil {
			t.Fatal(err)
		}
		loads[c] = workload{
			body: `{"pairs":[` + strings.Join(js, ",") + `]}`,
			want: want,
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(srv.URL+"/align", "application/json",
					bytes.NewReader([]byte(loads[c].body)))
				if err != nil {
					errs <- err
					return
				}
				var out alignResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if len(out.Alignments) != len(loads[c].want) {
					errs <- fmt.Errorf("client %d: %d alignments, want %d",
						c, len(out.Alignments), len(loads[c].want))
					return
				}
				for j, a := range out.Alignments {
					w := loads[c].want[j]
					if a.Score != w.Score || a.QBegin != w.QBegin || a.QEnd != w.QEnd ||
						a.TBegin != w.TBegin || a.TEnd != w.TEnd || a.Cells != w.Cells {
						errs <- fmt.Errorf("client %d pair %d: served %+v, want %+v", c, j, a, w)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var totals statzJSON
	if err := json.NewDecoder(resp.Body).Decode(&totals); err != nil {
		t.Fatal(err)
	}
	if totals.Errors != 0 {
		t.Fatalf("statz errors %d: %+v", totals.Errors, totals)
	}
	// Each client's first round fills the cache (its own fill completes
	// before its response is sent), so only round one per client reaches
	// the engine and every later round is all cache hits.
	c := totals.Coalescer
	if c == nil || c.MergedRequests != clients || c.QueuedPairs != 0 {
		t.Fatalf("statz coalescer %+v: want %d merged requests (one per distinct workload), empty queue", c, clients)
	}
	if totals.Cache == nil || totals.Cache.Hits != (perClient-1)*c.MergedPairs {
		t.Fatalf("statz cache %+v: want %d hits for %d repeated rounds of %d pairs",
			totals.Cache, (perClient-1)*c.MergedPairs, perClient-1, c.MergedPairs)
	}
}

// TestServePerRequestConfig pins the request-scoped parameters end to
// end: "x" and "scoring" must reach the engine (scores change
// accordingly), with exact known values. The pair has 4 substitutions
// between two exact runs, so the right extension recovers +4 only when X
// allows crossing the mismatch trough.
func TestServePerRequestConfig(t *testing.T) {
	srv, _ := testServer(t)
	const pairQ = `"query":"AAAAAAAACCCCAAAAAAAA","target":"AAAAAAAAGGGGAAAAAAAA","seedQ":0,"seedT":0,"seedLen":8`

	score := func(body string) (int32, int, string) {
		t.Helper()
		resp, data := postAlign(t, srv.URL, body)
		if resp.StatusCode != http.StatusOK {
			return 0, resp.StatusCode, string(data)
		}
		var out alignResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out.Alignments[0].Score, resp.StatusCode, ""
	}

	// Server default (X=50, linear +1/-1/-1): recovers past the trough.
	if got, code, body := score(`{"pairs":[{` + pairQ + `}]}`); code != 200 || got != 12 {
		t.Fatalf("default config: score %d code %d %s, want 12", got, code, body)
	}
	// Per-request X=2: the trough prunes the extension, score drops to 8.
	if got, code, body := score(`{"pairs":[{` + pairQ + `}],"x":2}`); code != 200 || got != 8 {
		t.Fatalf("x=2: score %d code %d %s, want 8", got, code, body)
	}
	// Per-request affine scoring: substitutions still beat gaps, 12.
	if got, code, body := score(`{"pairs":[{` + pairQ + `}],"scoring":{"mode":"affine","match":1,"mismatch":-1,"gapOpen":-2,"gapExtend":-1}}`); code != 200 || got != 12 {
		t.Fatalf("affine: score %d code %d %s, want 12", got, code, body)
	}
	// Per-request doubled linear scheme: 8*2 + 4*(recover 4*2-4*3... )
	// keep it simple — match 2 doubles the all-match seed+recovery arm:
	// seed 8*2=16, trough -4*3=-12 then +8*2=16 nets +4 at X=50.
	if got, code, body := score(`{"pairs":[{` + pairQ + `}],"scoring":{"mode":"linear","match":2,"mismatch":-3,"gap":-2}}`); code != 200 || got != 20 {
		t.Fatalf("linear 2/-3/-2: score %d code %d %s, want 20", got, code, body)
	}
	// Per-request BLOSUM62 over DNA letters (all in the amino alphabet):
	// identical 16-mers score 2*(A4+C9+G6+T5)*2 = 96.
	if got, code, body := score(`{"pairs":[{"query":"ACGTACGTACGTACGT","target":"ACGTACGTACGTACGT","seedQ":0,"seedT":0,"seedLen":8}],"scoring":{"mode":"blosum62","gap":-6}}`); code != 200 || got != 96 {
		t.Fatalf("blosum62: score %d code %d %s, want 96", got, code, body)
	}
	// Protein sequences are accepted under a matrix config...
	if got, code, body := score(`{"pairs":[{"query":"MKWVTFISLL","target":"MKWVTFISLL","seedQ":2,"seedT":2,"seedLen":4}],"scoring":{"mode":"blosum62","gap":-6}}`); code != 200 || got <= 0 {
		t.Fatalf("protein blosum62: score %d code %d %s", got, code, body)
	}
	// ...and rejected by the default DNA path.
	if _, code, _ := score(`{"pairs":[{"query":"MKWVTFISLL","target":"MKWVTFISLL","seedQ":2,"seedT":2,"seedLen":4}]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("protein under DNA config: code %d, want 422", code)
	}
}

// TestServeInvalidScoring pins the error semantics for bad schemes: 400
// before any pair queues, with nothing aligned.
func TestServeInvalidScoring(t *testing.T) {
	srv, _ := testServer(t)
	for _, tc := range []struct{ name, body string }{
		{"unknown mode", `{"pairs":[],"scoring":{"mode":"smith-waterman"}}`},
		{"zero linear", `{"pairs":[],"scoring":{"mode":"linear"}}`},
		{"positive gap", `{"pairs":[],"scoring":{"mode":"linear","match":1,"mismatch":-1,"gap":1}}`},
		{"affine missing extend", `{"pairs":[],"scoring":{"mode":"affine","match":1,"mismatch":-1,"gapOpen":-2}}`},
		{"blosum62 bad gap", `{"pairs":[],"scoring":{"mode":"blosum62","gap":0}}`},
		{"negative x", `{"pairs":[],"x":-5}`},
		{"x over the server cap", `{"pairs":[],"x":2147483647}`},
		{"score parameter over the bound", `{"pairs":[],"scoring":{"mode":"linear","match":16777216,"mismatch":-1,"gap":-1}}`},
	} {
		resp, data := postAlign(t, srv.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", tc.name, resp.StatusCode, data)
		}
	}
	// The per-pair score-overflow budget is enforced by the engine's
	// ingest (shared with library/CLI callers) and surfaces as 422.
	overflow := fmt.Sprintf(`{"pairs":[{"query":%q,"target":%q,"seedLen":4}],"scoring":{"mode":"linear","match":1048576,"mismatch":-1,"gap":-1}}`,
		strings.Repeat("ACGT", 1024), strings.Repeat("ACGT", 1024))
	resp, data := postAlign(t, srv.URL, overflow)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("score overflow budget: status %d (want 422): %s", resp.StatusCode, data)
	}
}

// TestServeGPURejectsNonLinear: a pure-GPU server answers affine and
// matrix requests with 422 — the documented backend restriction.
func TestServeGPURejectsNonLinear(t *testing.T) {
	eng, err := logan.NewAligner(logan.EngineOptions{Backend: logan.GPU})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultServeConfig()
	cfg.defCfg = logan.DefaultConfig(50)
	s, err := newServer(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { s.Close(); srv.Close(); eng.Close() })

	body := `{"pairs":[{"query":"ACGTACGT","target":"ACGTACGT","seedLen":4}],"scoring":{"mode":"affine","match":1,"mismatch":-1,"gapOpen":-2,"gapExtend":-1}}`
	resp, data := postAlign(t, srv.URL, body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("affine on GPU: status %d (want 422): %s", resp.StatusCode, data)
	}
	// Linear traffic on the same server still works.
	resp, data = postAlign(t, srv.URL, `{"pairs":[{"query":"ACGTACGT","target":"ACGTACGT","seedLen":4}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("linear on GPU after 422: status %d: %s", resp.StatusCode, data)
	}
}

// TestServeMixedConfigCoalescing drives concurrent mixed-config traffic
// through the HTTP layer: every response must be correct and the
// coalescer must still merge (mergedBatches < requests).
func TestServeMixedConfigCoalescing(t *testing.T) {
	cfg := defaultServeConfig()
	cfg.defCfg = logan.DefaultConfig(50)
	srv, s, _ := testServerCfg(t, cfg)
	// The traffic arrives while one slow batch is executing, so what merges
	// does not depend on how the clients interleave.
	held := holdEngine(t, srv.URL, s)

	bodies := []struct {
		body string
		want int32
	}{
		{`{"pairs":[{"query":"AAAAAAAACCCCAAAAAAAA","target":"AAAAAAAAGGGGAAAAAAAA","seedQ":0,"seedT":0,"seedLen":8}]}`, 12},
		{`{"pairs":[{"query":"AAAAAAAACCCCAAAAAAAA","target":"AAAAAAAAGGGGAAAAAAAA","seedQ":0,"seedT":0,"seedLen":8}],"x":2}`, 8},
		{`{"pairs":[{"query":"AAAAAAAACCCCAAAAAAAA","target":"AAAAAAAAGGGGAAAAAAAA","seedQ":0,"seedT":0,"seedLen":8}],"scoring":{"mode":"affine","match":1,"mismatch":-1,"gapOpen":-2,"gapExtend":-1}}`, 12},
		{`{"pairs":[{"query":"ACGTACGTACGTACGT","target":"ACGTACGTACGTACGT","seedQ":0,"seedT":0,"seedLen":8}],"scoring":{"mode":"blosum62","gap":-6}}`, 96},
	}
	const perBody = 8
	var wg sync.WaitGroup
	for i := range bodies {
		for j := 0; j < perBody; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, data := postAlign(t, srv.URL, bodies[i].body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("body %d: status %d: %s", i, resp.StatusCode, data)
					return
				}
				var out alignResponse
				if err := json.Unmarshal(data, &out); err != nil {
					t.Error(err)
					return
				}
				if out.Alignments[0].Score != bodies[i].want {
					t.Errorf("body %d: score %d, want %d", i, out.Alignments[0].Score, bodies[i].want)
				}
			}(i)
		}
	}
	wg.Wait()
	if st := <-held; st != http.StatusOK {
		t.Fatalf("slow request: status %d", st)
	}

	m := s.coal.Metrics()
	total := int64(len(bodies)*perBody) + 1
	if m.MergedRequests != total {
		t.Fatalf("metrics %+v: want %d merged requests", m, total)
	}
	if m.MergedBatches == 0 || m.MergedBatches >= total {
		t.Fatalf("mixed-config HTTP traffic did not merge: %d batches / %d requests", m.MergedBatches, total)
	}
}
