package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// drain reads a response to its end and closes it, so the connection goes
// back to the pool.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// opResult is one operation (a request, or a whole job) as the client saw
// it. Bodies are kept raw and parsed after the measured phase, so the
// load generator spends as little CPU as it can while the clock runs — it
// shares the machine's cores with the server.
type opResult struct {
	Start, End time.Time
	Status     int
	Err        error
	Body       []byte
	Header     http.Header
	// Jobs only: the final status document and the submit and
	// PAF-download intervals.
	Job                *jobStatus
	SubmitEnd, PAFFrom time.Time
}

func (r opResult) latency() time.Duration { return r.End.Sub(r.Start) }

// ok reports whether the transport worked and the server answered 2xx.
func (r opResult) ok() bool { return r.Err == nil && r.Status >= 200 && r.Status < 300 }

func (r opResult) failure() string {
	if r.Err != nil {
		return r.Err.Error()
	}
	return fmt.Sprintf("HTTP %d: %s", r.Status, bytes.TrimSpace(r.Body))
}

// server is a running logan-serve (plus its worker in cluster mode) and
// the client that drives it.
type server struct {
	h      *harness
	base   string
	client *http.Client
}

// newHTTPClient keeps up to conns connections alive to the one server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   150 * time.Second,
	}
}

// do sends one request and reads the whole reply.
func (s *server) do(method, path, ctype string, body []byte) opResult {
	r := opResult{Start: time.Now()}
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		r.Err, r.End = err, time.Now()
		return r
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		r.Err, r.End = err, time.Now()
		return r
	}
	r.Body, r.Err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.End = time.Now()
	r.Status, r.Header = resp.StatusCode, resp.Header
	return r
}

func (s *server) statz() (statz, error) {
	var st statz
	r := s.do(http.MethodGet, "/statz", "", nil)
	if !r.ok() {
		return st, fmt.Errorf("GET /statz: %s", r.failure())
	}
	if err := json.Unmarshal(r.Body, &st); err != nil {
		return st, fmt.Errorf("GET /statz: %w", err)
	}
	return st, nil
}

// jobPollInterval is how often a waiting client asks for a job's status.
const jobPollInterval = 20 * time.Millisecond

// runJob is one overlap job as a client runs it: submit the FASTA, poll
// the status until it is terminal, download the PAF. The result's latency
// is submit → PAF fully downloaded; Body is the PAF.
func (s *server) runJob(query string, fasta []byte) opResult {
	sub := s.do(http.MethodPost, "/jobs?"+query, "text/x-fasta", fasta)
	out := opResult{Start: sub.Start, SubmitEnd: sub.End}
	fail := func(r opResult, what string) opResult {
		out.End, out.Status, out.Body = time.Now(), r.Status, r.Body
		out.Err = fmt.Errorf("%s: %s", what, r.failure())
		return out
	}
	if !sub.ok() {
		return fail(sub, "POST /jobs")
	}
	var st jobStatus
	if err := json.Unmarshal(sub.Body, &st); err != nil || st.ID == "" {
		return fail(sub, "POST /jobs: no job id in reply")
	}
	for st.State != "done" {
		if st.State == "failed" || st.State == "canceled" {
			out.End, out.Job = time.Now(), &st
			out.Err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
			return out
		}
		time.Sleep(jobPollInterval)
		poll := s.do(http.MethodGet, "/jobs/"+st.ID, "", nil)
		if !poll.ok() {
			return fail(poll, "GET /jobs/"+st.ID)
		}
		st = jobStatus{}
		if err := json.Unmarshal(poll.Body, &st); err != nil {
			return fail(poll, "GET /jobs/{id}: bad status document")
		}
	}
	paf := s.do(http.MethodGet, "/jobs/"+st.ID+"/paf", "", nil)
	if !paf.ok() {
		return fail(paf, "GET /jobs/"+st.ID+"/paf")
	}
	out.PAFFrom, out.End = paf.Start, paf.End
	out.Status, out.Body, out.Job = paf.Status, paf.Body, &st
	return out
}

// closedLoop sends operations 0..n-1 exactly once each from `clients`
// callers; every caller waits for its reply before sending its next
// request, so at most `clients` are in flight. It returns the results in
// index order and the wall time from the first send to the last reply.
// done, when not nil, is told each operation's completion ordinal (1..n)
// right after it completes, on the caller's goroutine.
func closedLoop(n, clients int, op func(i int) opResult, done func(i, ordinal int)) ([]opResult, time.Time, time.Duration) {
	results := make([]opResult, n)
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < min(clients, n); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i] = op(i)
				if done != nil {
					done(i, int(completed.Add(1)))
				}
			}
		}()
	}
	wg.Wait()
	return results, start, time.Since(start)
}
