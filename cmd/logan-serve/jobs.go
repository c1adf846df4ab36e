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
	"time"

	"logan"
	"logan/internal/cluster"
	"logan/internal/telemetry"
)

// overlapConfigJSON is the wire form of a job's pipeline configuration:
// every field optional, zero values replaced by the DefaultOverlapConfig
// defaults (coverage 6, error rate 0.15, the paper's +1/-1/-1 scoring).
// The same fields are accepted as query parameters on raw-FASTA
// submissions.
type overlapConfigJSON struct {
	K          int     `json:"k"`
	Coverage   float64 `json:"coverage"`
	ErrorRate  float64 `json:"errorRate"`
	X          *int32  `json:"x"`
	MinOverlap int     `json:"minOverlap"`
	MinShared  int     `json:"minShared"`
	MaxSeeds   int     `json:"maxSeeds"`
	BinWidth   int     `json:"binWidth"`
	Delta      float64 `json:"delta"`
}

// jobRequestJSON is the application/json POST /jobs payload: a
// server-side FASTA path (relative to -job-data-dir) plus the pipeline
// configuration.
type jobRequestJSON struct {
	FastaPath string            `json:"fastaPath"`
	Config    overlapConfigJSON `json:"config"`
}

// overlapConfig resolves the wire configuration against the server's
// defaults and caps.
func (s *server) overlapConfig(req overlapConfigJSON) (logan.OverlapConfig, error) {
	cov, er := req.Coverage, req.ErrorRate
	if cov == 0 {
		cov = 6
	}
	if er == 0 {
		er = 0.15
	}
	if cov < 0 || er < 0 || er >= 1 {
		return logan.OverlapConfig{}, fmt.Errorf("coverage %g / errorRate %g out of range", cov, er)
	}
	x := s.defCfg.X
	if req.X != nil {
		x = *req.X
	}
	if x > s.maxX {
		return logan.OverlapConfig{}, fmt.Errorf("x %d exceeds the server's %d limit", x, s.maxX)
	}
	cfg := logan.DefaultOverlapConfig(cov, er, x)
	if req.K != 0 {
		cfg.K = req.K
	}
	cfg.MinOverlap = req.MinOverlap
	if req.MinShared != 0 {
		cfg.MinShared = req.MinShared
	}
	if req.MaxSeeds != 0 {
		cfg.MaxSeeds = req.MaxSeeds
	}
	if req.BinWidth != 0 {
		cfg.BinWidth = req.BinWidth
	}
	if req.Delta != 0 {
		cfg.Delta = req.Delta
	}
	if err := cfg.Validate(); err != nil {
		return logan.OverlapConfig{}, err
	}
	return cfg, nil
}

// queryOverlapConfig parses the overlapConfigJSON fields from URL query
// parameters (the raw-FASTA submission form).
func queryOverlapConfig(q url.Values) (overlapConfigJSON, error) {
	var out overlapConfigJSON
	var err error
	geti := func(key string, dst *int) {
		if v := q.Get(key); v != "" && err == nil {
			*dst, err = strconv.Atoi(v)
			if err != nil {
				err = fmt.Errorf("query parameter %s=%q: %w", key, v, err)
			}
		}
	}
	getf := func(key string, dst *float64) {
		if v := q.Get(key); v != "" && err == nil {
			*dst, err = strconv.ParseFloat(v, 64)
			if err != nil {
				err = fmt.Errorf("query parameter %s=%q: %w", key, v, err)
			}
		}
	}
	geti("k", &out.K)
	getf("coverage", &out.Coverage)
	getf("errorRate", &out.ErrorRate)
	if v := q.Get("x"); v != "" && err == nil {
		xv, perr := strconv.ParseInt(v, 10, 32)
		if perr != nil {
			err = fmt.Errorf("query parameter x=%q: %w", v, perr)
		} else {
			x32 := int32(xv)
			out.X = &x32
		}
	}
	geti("minOverlap", &out.MinOverlap)
	geti("minShared", &out.MinShared)
	geti("maxSeeds", &out.MaxSeeds)
	geti("binWidth", &out.BinWidth)
	getf("delta", &out.Delta)
	return out, err
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
		if err := dec.Decode(&req); err != nil {
			s.fail(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
			s.fail(w, http.StatusBadRequest, "bad request: trailing data after JSON document")
			return
		}
		var err error
		cfg, err = s.overlapConfig(req.Config)
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
		q, err := queryOverlapConfig(r.URL.Query())
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		cfg, err = s.overlapConfig(q)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		// The upload is buffered at admission (bounded by -job-body-limit)
		// so the job holds bytes, not the client connection.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.jobBodyLimit))
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
	if err := json.NewEncoder(w).Encode(statusJSON(stat)); err != nil {
		s.m.writeErrors.Inc()
	}
}

// resolveDataPath maps a client-supplied relative path onto the
// -job-data-dir sandbox, rejecting escapes. In router mode the path is
// read router-side at admission: workers receive the bytes in the spec,
// never a path.
func (s *server) resolveDataPath(p string) (string, error) {
	if s.dataDir == "" {
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
	return filepath.Join(s.dataDir, clean), nil
}

// jobProgressJSON is the progress block of GET /jobs/{id}.
type jobProgressJSON struct {
	Stage           string `json:"stage"`
	ReadsParsed     int64  `json:"readsParsed"`
	ReliableKmers   int64  `json:"reliableKmers"`
	CandidatePairs  int64  `json:"candidatePairs"`
	ExtensionsDone  int64  `json:"extensionsDone"`
	ExtensionsTotal int64  `json:"extensionsTotal"`
	Shed            int64  `json:"shed"`
	Retries         int64  `json:"retries"`
}

// jobStatusJSON is the GET /jobs/{id} payload (also returned by POST).
// Worker and Requeues only appear in router mode: which node holds (or
// held) the job's lease, and how many retries it survived.
type jobStatusJSON struct {
	ID       string           `json:"id"`
	State    string           `json:"state"`
	Error    string           `json:"error,omitempty"`
	Progress *jobProgressJSON `json:"progress,omitempty"`
	// Overlaps/Reads/Cells/PAFBytes summarize a finished job.
	Overlaps   int    `json:"overlaps,omitempty"`
	Reads      int    `json:"reads,omitempty"`
	Cells      int64  `json:"cells,omitempty"`
	PAFBytes   int    `json:"pafBytes,omitempty"`
	Worker     string `json:"worker,omitempty"`
	Requeues   int    `json:"requeues,omitempty"`
	CreatedAt  string `json:"createdAt"`
	StartedAt  string `json:"startedAt,omitempty"`
	FinishedAt string `json:"finishedAt,omitempty"`
}

// statusJSON renders a job status for the wire.
func statusJSON(st cluster.JobStatus) jobStatusJSON {
	out := jobStatusJSON{
		ID:    st.ID,
		State: st.State,
		Error: st.Error,
		Progress: &jobProgressJSON{
			Stage:           st.Progress.Stage,
			ReadsParsed:     st.Progress.ReadsParsed,
			ReliableKmers:   st.Progress.ReliableKmers,
			CandidatePairs:  st.Progress.CandidatePairs,
			ExtensionsDone:  st.Progress.ExtensionsDone,
			ExtensionsTotal: st.Progress.ExtensionsTotal,
			Shed:            st.Progress.Shed,
			Retries:         st.Progress.Retries,
		},
		Overlaps:  st.Overlaps,
		Reads:     st.Reads,
		Cells:     st.Cells,
		PAFBytes:  st.PAFBytes,
		Worker:    st.Worker,
		Requeues:  st.Requeues,
		CreatedAt: st.Created.UTC().Format(time.RFC3339Nano),
	}
	if out.Progress.Stage == "" {
		out.Progress.Stage = st.State
	}
	if !st.Started.IsZero() {
		out.StartedAt = st.Started.UTC().Format(time.RFC3339Nano)
	}
	if !st.Finished.IsZero() {
		out.FinishedAt = st.Finished.UTC().Format(time.RFC3339Nano)
	}
	return out
}

// handleJobStatus is GET /jobs/{id}.
func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	stat, ok := s.jobLookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(statusJSON(stat)); err != nil {
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
