package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"logan"
	"logan/internal/telemetry"
)

// WorkerOptions configures a cluster worker.
type WorkerOptions struct {
	// RouterURL is the router's base URL (e.g. http://router:8080); the
	// worker talks to RouterURL/cluster/*.
	RouterURL string
	// Name is the worker's one cluster identity: every poll carries it,
	// the router leases jobs to it, and it is the worker="..." label in
	// the metrics rollup. Must be label-safe ([A-Za-z0-9_.-]+) and unique
	// in the fleet.
	Name string
	// Token is the shared cluster secret, if the router requires one.
	Token string
	// Overlapper executes leased jobs on the local engine (required).
	Overlapper *logan.Overlapper
	// Backend names the local engine backend; each poll carries it.
	Backend string
	// Registry, when non-nil, is snapshotted into each poll and lease
	// extension so the router can roll this worker's series into the
	// cluster /metrics.
	Registry *telemetry.Registry
	// Client overrides the HTTP client (tests); nil uses a client with
	// no overall timeout (long-polls hold connections open).
	Client *http.Client
	// PollWait is the long-poll duration per work request (default 10s,
	// capped router-side at a third of its WorkerTTL).
	PollWait time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Worker is the cluster client that pulls leased jobs from a router and
// executes them on the local engine. Run drives it; Kill is the test
// hook that simulates abrupt death.
type Worker struct {
	opt    WorkerOptions
	client *http.Client

	mu        sync.Mutex
	killCancl []context.CancelFunc

	killed chan struct{}
	kill   sync.Once
}

// NewWorker validates opt and returns an idle worker; call Run to serve.
func NewWorker(opt WorkerOptions) (*Worker, error) {
	if opt.RouterURL == "" || opt.Overlapper == nil {
		return nil, errors.New("cluster: WorkerOptions needs RouterURL and Overlapper")
	}
	if !workerNameRE.MatchString(opt.Name) {
		return nil, fmt.Errorf("cluster: worker name %q is not label-safe", opt.Name)
	}
	if opt.PollWait <= 0 {
		opt.PollWait = 10 * time.Second
	}
	c := opt.Client
	if c == nil {
		c = &http.Client{}
	}
	return &Worker{opt: opt, client: c, killed: make(chan struct{})}, nil
}

// Kill simulates SIGKILL: every in-flight execution stops and the worker
// never contacts the router again — no release, no fail report, no
// poll. The router must discover the death by lease expiry. Run
// returns after Kill.
func (w *Worker) Kill() {
	w.kill.Do(func() {
		close(w.killed)
		w.mu.Lock()
		for _, cancel := range w.killCancl {
			cancel()
		}
		w.mu.Unlock()
	})
}

// logf emits an operational log line, if a sink is configured.
func (w *Worker) logf(format string, args ...any) {
	if w.opt.Logf != nil {
		w.opt.Logf(format, args...)
	}
}

// Run serves leased jobs until ctx is canceled (graceful: the
// in-flight job is released back to the queue) or Kill is called
// (abrupt: the router finds out via lease expiry). There is no
// handshake: the first poll introduces the worker to the router. A poll
// the router refuses (bad name, bad token) ends Run with that error;
// any other failed poll is retried after a second.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.killCancl = append(w.killCancl, cancel)
	w.mu.Unlock()

	for ctx.Err() == nil {
		job, err := w.poll(ctx)
		switch {
		case err == nil && job != nil:
			w.execute(ctx, job)
		case err == nil: // long-poll timed out empty
		case ctx.Err() != nil || w.isKilled():
			return nil // the stop, not a failure
		case errors.Is(err, errRefused):
			return err
		default:
			w.logf("worker %s: poll: %v", w.opt.Name, err)
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
			}
		}
	}
	return nil
}

// errRefused marks a poll the router answered 400 or 401: a
// configuration error (bad name, bad token) that a retry cannot fix.
var errRefused = errors.New("cluster: router refused this worker")

func (w *Worker) isKilled() bool {
	select {
	case <-w.killed:
		return true
	default:
		return false
	}
}

// do issues one POST to the router, honoring the kill switch: a []byte
// body travels raw, anything else as JSON.
func (w *Worker) do(ctx context.Context, path string, body any, hdr map[string]string) (*http.Response, error) {
	if w.isKilled() {
		return nil, errors.New("cluster: worker killed")
	}
	raw, isRaw := body.([]byte)
	if !isRaw && body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.RouterURL+path, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if isRaw {
		req.Header.Set("Content-Type", "application/octet-stream")
	} else if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if w.opt.Token != "" {
		req.Header.Set("X-Logan-Cluster-Token", w.opt.Token)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return w.client.Do(req)
}

// httpErr drains and formats a non-2xx response.
func httpErr(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("router returned %s: %s", resp.Status, bytes.TrimSpace(b))
}

// snapshot is the local telemetry registry's snapshot, nil without one.
func (w *Worker) snapshot() *telemetry.Snapshot {
	if w.opt.Registry == nil {
		return nil
	}
	return w.opt.Registry.Snapshot()
}

// leasedJob is one job the router leased to this worker.
type leasedJob struct {
	spec      *Spec
	id, lease string
	ttl       time.Duration // extend at a third of it
}

// poll long-polls the router for one leased job, carrying the telemetry
// snapshot. A nil job means the poll returned empty.
func (w *Worker) poll(ctx context.Context) (*leasedJob, error) {
	resp, err := w.do(ctx, "/cluster/poll", pollRequest{
		Name: w.opt.Name, Backend: w.opt.Backend,
		WaitMs: w.opt.PollWait.Milliseconds(), Snapshot: w.snapshot(),
	}, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusBadRequest, http.StatusUnauthorized:
		return nil, fmt.Errorf("%w: poll: %w", errRefused, httpErr(resp))
	case http.StatusOK:
	default:
		return nil, httpErr(resp)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	spec, err := UnmarshalSpec(payload)
	if err != nil {
		return nil, err
	}
	ttlMs, _ := strconv.ParseInt(resp.Header.Get("X-Logan-Lease-Ttl-Ms"), 10, 64)
	return &leasedJob{
		spec:  spec,
		id:    resp.Header.Get("X-Logan-Job-Id"),
		lease: resp.Header.Get("X-Logan-Lease"),
		ttl:   time.Duration(ttlMs) * time.Millisecond,
	}, nil
}

// execute runs one leased job: the overlap pipeline on the local engine,
// a lease-extension loop at TTL/3 publishing progress and telemetry, and
// the final complete (or fail) report. Errors are reported to the
// router, never returned — the worker keeps serving.
func (w *Worker) execute(ctx context.Context, job *leasedJob) {
	jobID, lease := job.id, job.lease
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var pmu sync.Mutex
	var prog Progress
	cfg := job.spec.Config.Overlap()
	cfg.OnProgress = func(p Progress) {
		pmu.Lock()
		prog = p
		pmu.Unlock()
	}

	extendEvery := max(job.ttl/3, 10*time.Millisecond)

	// canceledByRouter distinguishes "the router took the job away" (the
	// lease expired, or the client deleted the job: vanish silently) from
	// a local error (report it).
	var canceledByRouter bool
	var extWG sync.WaitGroup
	extWG.Add(1)
	go func() {
		defer extWG.Done()
		t := time.NewTicker(extendEvery)
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
			}
			pmu.Lock()
			p := prog
			pmu.Unlock()
			resp, err := w.do(runCtx, "/cluster/jobs/"+jobID+"/extend",
				extendRequest{Lease: lease, Progress: p, Snapshot: w.snapshot()}, nil)
			if err != nil {
				continue // transient; the lease survives a missed beat or two
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusConflict {
				// Superseded: the job was deleted, or the lease expired and
				// it belongs to someone else now. Abort; publishing would
				// double-execute.
				pmu.Lock()
				canceledByRouter = true
				pmu.Unlock()
				cancel()
				return
			}
		}
	}()

	paf, sum, runErr := runOverlap(w.opt.Overlapper)(runCtx, bytes.NewReader(job.spec.Fasta), cfg)
	cancel()
	extWG.Wait()

	pmu.Lock()
	routerCanceled := canceledByRouter
	pmu.Unlock()
	if w.isKilled() || routerCanceled {
		return
	}

	if runErr == nil {
		resp, err := w.do(ctx, "/cluster/jobs/"+jobID+"/complete", paf, map[string]string{
			"X-Logan-Lease":    lease,
			"X-Logan-Overlaps": strconv.Itoa(sum.overlaps),
			"X-Logan-Reads":    strconv.Itoa(sum.reads),
			"X-Logan-Cells":    strconv.FormatInt(sum.cells, 10),
		})
		if err != nil {
			w.logf("worker %s: job %s: complete: %v", w.opt.Name, jobID, err)
			return
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			w.logf("worker %s: job %s: done (%d overlaps, %d PAF bytes)", w.opt.Name, jobID, sum.overlaps, len(paf))
			return
		case resp.StatusCode == http.StatusConflict:
			w.logf("worker %s: job %s: completion rejected (stale lease)", w.opt.Name, jobID)
			return
		}
		// Any other refusal (the PAF is over the router's result budget,
		// say) is this job's outcome: the same bytes would be refused
		// again, and saying nothing would leave the job to expire and
		// re-execute until it failed as "lease expired".
		runErr = fmt.Errorf("completion rejected: %w", httpErr(resp))
	}

	fr := failRequest{Lease: lease, Error: runErr.Error()}
	// A graceful shutdown mid-job releases the job for another worker; a
	// genuine execution error is terminal.
	if errors.Is(runErr, context.Canceled) && ctx.Err() != nil {
		fr.Requeue = true
		fr.Error = "worker shutting down"
		// ctx is dead; report over a fresh, short-lived context.
		rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer rcancel()
		ctx = rctx
	}
	w.logf("worker %s: job %s: %s (requeue=%v)", w.opt.Name, jobID, fr.Error, fr.Requeue)
	if resp, err := w.do(ctx, "/cluster/jobs/"+jobID+"/fail", fr, nil); err == nil {
		resp.Body.Close()
	}
}
