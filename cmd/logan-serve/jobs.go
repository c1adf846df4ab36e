package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"logan"
	"logan/internal/cluster"
	"logan/internal/telemetry"
)

// jobRequestJSON is the application/json POST /jobs payload: a
// server-side FASTA path (relative to -job-data-dir) plus the pipeline
// configuration — the same request parameters raw-FASTA submissions send
// in the query string, each field's JSON text handed to the same setter.
type jobRequestJSON struct {
	FastaPath string                     `json:"fastaPath"`
	Config    map[string]json.RawMessage `json:"config"`
}

// params is the config object as the query string it is another spelling
// of; a null field reads as absent.
func (r jobRequestJSON) params() url.Values {
	q := url.Values{}
	for name, raw := range r.Config {
		if string(raw) != "null" {
			q.Set(name, string(raw))
		}
	}
	return q
}

// setParams is the one place a request parameter becomes a value: every
// query key of /jobs, /map and /map/index goes through the bound table's
// setter, so an unknown name, a malformed number and a value outside its
// row's bounds are the same 400 on every endpoint. A key without a value
// (?k=) reads as absent. x, where the table has one, then meets the one
// bound the table cannot know: this server's -max-x.
func (s *server) setParams(ps logan.Params, q url.Values, x *int32) error {
	for name, vals := range q {
		if v := vals[0]; v != "" {
			if err := ps.Set(name, v); err != nil {
				return err
			}
		}
	}
	if x != nil && int(*x) > s.cfg.maxX {
		return fmt.Errorf("x %d exceeds the server's %d limit", *x, s.cfg.maxX)
	}
	return nil
}

// jobConfig resolves a submission's configuration: the table's defaults
// under the server's -x, then the request's parameters, then Validate.
func (s *server) jobConfig(q url.Values) (logan.OverlapConfig, error) {
	cfg := logan.DefaultOverlapConfig(logan.DefaultCoverage, logan.DefaultErrorRate, s.cfg.defCfg.X)
	if err := s.setParams(cfg.Params(), q, &cfg.X); err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

// handleJobSubmit is POST /jobs. An application/json body names a
// server-side FASTA under -job-data-dir; any other content type is the
// FASTA itself (configuration via query parameters). Accepted jobs get
// 202 with the job id; a store full of live jobs sheds with 429. An
// Idempotency-Key header dedupes client retries onto the original job,
// marked by X-Logan-Replayed: true in the response.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	// The submit trace only surfaces on rejection: accepted jobs run
	// asynchronously (their pipeline stages land in the job's progress),
	// but a shed submission closes its trace with a shed span so the 429
	// carries X-Logan-Trace like a shed /align does.
	tr := s.stages.StartTrace()
	if s.store == nil {
		s.fail(w, http.StatusNotFound, "job API disabled (-jobs=false)")
		return
	}
	ten, ok := s.tenantFor(r)
	if !ok {
		s.fail(w, http.StatusUnauthorized, "unknown API key")
		return
	}
	var (
		cfg     logan.OverlapConfig
		src     func() (io.ReadCloser, error)
		bufSize int64
	)
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "application/json" {
		var req jobRequestJSON
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		err := dec.Decode(&req)
		if err == nil && !errors.Is(dec.Decode(&struct{}{}), io.EOF) {
			err = errors.New("trailing data after JSON document")
		}
		if err == nil {
			cfg, err = s.jobConfig(req.params())
		}
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		path, err := s.resolveDataPath(req.FastaPath)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		src = func() (io.ReadCloser, error) { return os.Open(path) }
	} else {
		var err error
		cfg, err = s.jobConfig(r.URL.Query())
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		// The upload is buffered at admission (bounded by -job-body-limit)
		// so the job holds bytes, not the client connection.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.jobBodyLimit))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.fail(w, http.StatusRequestEntityTooLarge,
					"FASTA upload exceeds the %d-byte limit", tooBig.Limit)
				return
			}
			s.fail(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		if len(body) == 0 {
			s.fail(w, http.StatusBadRequest, "bad request: empty FASTA body")
			return
		}
		// The source transfers ownership of the buffer on open: the
		// closure drops its reference, so once the overlapper's ingest
		// loop stops reading, nothing but a dead local pins the bytes and
		// the reservation release at end-of-ingest matches reality.
		bufSize = int64(len(body))
		src = func() (io.ReadCloser, error) {
			b := body
			body = nil
			return io.NopCloser(bytes.NewReader(b)), nil
		}
	}

	stat, replayed, err := s.store.Submit(cluster.Submission{
		Tenant: ten, Config: cfg, Open: src, BufBytes: bufSize,
		IdempotencyKey: r.Header.Get("Idempotency-Key"),
	})
	switch {
	case err == nil:
	case errors.Is(err, cluster.ErrStoreFull), errors.Is(err, cluster.ErrBusy):
		s.m.shed.Inc()
		// Retry-After projects a worker slot freeing up from the measured
		// job duration EWMA and the current queue depth, not a constant.
		tr.Step(telemetry.StageShed)
		w.Header().Set("Retry-After", retryAfterSeconds(s.store.RetryAfter()))
		w.Header().Set("X-Logan-Trace", formatTrace(tr))
		s.fail(w, http.StatusTooManyRequests, "overloaded: %v", err)
		return
	case errors.Is(err, cluster.ErrUnavailable):
		// The store's fault, not the request's: shutting down, or the
		// durable queue refused the append.
		w.Header().Set("Retry-After", retryAfterSeconds(s.store.RetryAfter()))
		s.fail(w, http.StatusServiceUnavailable, "unavailable: %v", err)
		return
	default:
		// The source could not be read, or exceeds the per-job limit.
		s.fail(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/jobs/"+stat.ID)
	if replayed {
		// The Idempotency-Key matched a retained job: this 202 restates
		// the original submission rather than creating a new one.
		w.Header().Set("X-Logan-Replayed", "true")
	}
	w.WriteHeader(http.StatusAccepted)
	if err := json.NewEncoder(w).Encode(stat); err != nil {
		s.m.writeErrors.Inc()
	}
}

// resolveDataPath maps a client-supplied relative path onto the
// -job-data-dir sandbox, rejecting escapes. In router mode the path is
// read router-side at admission: workers receive the bytes in the spec,
// never a path.
func (s *server) resolveDataPath(p string) (string, error) {
	if s.cfg.jobDataDir == "" {
		return "", errors.New("server-side FASTA paths are disabled (start with -job-data-dir)")
	}
	if p == "" {
		return "", errors.New("fastaPath is required for JSON submissions")
	}
	if filepath.IsAbs(p) {
		return "", fmt.Errorf("fastaPath %q must be relative to the server's data directory", p)
	}
	clean := filepath.Clean(p)
	if clean == ".." || len(clean) >= 3 && clean[:3] == ".."+string(filepath.Separator) {
		return "", fmt.Errorf("fastaPath %q escapes the server's data directory", p)
	}
	return filepath.Join(s.cfg.jobDataDir, clean), nil
}

// handleJobStatus is GET /jobs/{id}.
func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	stat, ok := s.jobLookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(stat); err != nil {
		s.m.writeErrors.Inc()
	}
}

// handleJobPAF is GET /jobs/{id}/paf: the result stream of a finished
// job. Jobs that are not done yet answer 409 with their current state.
func (s *server) handleJobPAF(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	if s.store == nil {
		s.fail(w, http.StatusNotFound, "job API disabled (-jobs=false)")
		return
	}
	paf, stat, ok := s.store.PAF(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, "no such job")
		return
	}
	if stat.State != cluster.StateDone {
		msg := fmt.Sprintf("job %s is %s", stat.ID, stat.State)
		if stat.Error != "" {
			msg += ": " + stat.Error
		}
		s.fail(w, http.StatusConflict, "%s", msg)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(paf)))
	if _, err := w.Write(paf); err != nil {
		s.m.writeErrors.Inc()
	}
}

// handleJobDelete is DELETE /jobs/{id}: cancel the job if live, forget it
// either way. The id answers 404 from this point on.
func (s *server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	if s.store == nil {
		s.fail(w, http.StatusNotFound, "job API disabled (-jobs=false)")
		return
	}
	if !s.store.Cancel(r.PathValue("id")) {
		s.fail(w, http.StatusNotFound, "no such job")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// jobLookup resolves {id} for the GET handlers.
func (s *server) jobLookup(w http.ResponseWriter, r *http.Request) (cluster.JobStatus, bool) {
	if s.store == nil {
		s.fail(w, http.StatusNotFound, "job API disabled (-jobs=false)")
		return cluster.JobStatus{}, false
	}
	stat, ok := s.store.Status(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, "no such job")
		return cluster.JobStatus{}, false
	}
	return stat, true
}

// jobsStatzJSON is the "jobs" block of GET /statz.
type jobsStatzJSON struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
	Replayed  int64 `json:"replayed,omitempty"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	PAFBytes  int64 `json:"pafBytes"`
}

// jobsStatz builds the jobs block of /statz from the shared registry
// snapshot, so it reports the same instant as every other block.
func jobsStatz(snap *telemetry.Snapshot) *jobsStatzJSON {
	return &jobsStatzJSON{
		Submitted: snap.Int("logan_jobs_submitted_total"),
		Completed: snap.Int("logan_jobs_completed_total"),
		Failed:    snap.Int("logan_jobs_failed_total"),
		Canceled:  snap.Int("logan_jobs_canceled_total"),
		Rejected:  snap.Int("logan_jobs_rejected_total"),
		Replayed:  snap.Int("logan_jobs_idempotent_replays_total"),
		Queued:    int(snap.Value("logan_jobs_queued")),
		Running:   int(snap.Value("logan_jobs_running")),
		PAFBytes:  snap.Int("logan_jobs_paf_bytes_total"),
	}
}
