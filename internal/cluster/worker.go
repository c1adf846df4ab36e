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
	// Name is the worker's cluster identity and its worker="..." label
	// in the metrics rollup. Must be label-safe ([A-Za-z0-9_.-]+).
	Name string
	// Token is the shared cluster secret, if the router requires one.
	Token string
	// Overlapper executes leased jobs on the local engine (required).
	Overlapper *logan.Overlapper
	// Backend names the local engine backend in capability reports.
	Backend string
	// CellsPS is the worker's advertised throughput estimate
	// (cells/second); zero omits the report.
	CellsPS float64
	// Registry, when non-nil, is snapshotted into each heartbeat so the
	// router can roll this worker's series into the cluster /metrics.
	Registry *telemetry.Registry
	// Client overrides the HTTP client (tests); nil uses a client with
	// no overall timeout (long-polls hold connections open).
	Client *http.Client
	// PollWait is the long-poll duration per work request (default 10s,
	// capped router-side at 30s).
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
	id        string
	leaseTTL  time.Duration
	beatEvery time.Duration
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
// heartbeat. The router must discover the death by lease expiry. Run
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

// Run registers with the router and serves leased jobs until ctx is
// canceled (graceful: the in-flight job is released back to the queue)
// or Kill is called (abrupt: the router finds out via lease expiry).
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.killCancl = append(w.killCancl, cancel)
	w.mu.Unlock()

	if err := w.register(ctx); err != nil {
		return err
	}
	hbCtx, hbCancel := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(hbCtx)
	}()
	defer hbWG.Wait()
	defer hbCancel() // LIFO: cancel fires before the Wait above

	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		spec, jobID, lease, ok, err := w.poll(ctx)
		if err != nil {
			if ctx.Err() != nil || w.isKilled() {
				return nil
			}
			var re *reregisterError
			if errors.As(err, &re) {
				// The router forgot us (restart or missed heartbeats);
				// re-register and carry on.
				if err := w.register(ctx); err != nil {
					return err
				}
				continue
			}
			w.logf("worker %s: poll: %v", w.opt.Name, err)
			if !sleepCtx(ctx, time.Second) {
				return nil
			}
			continue
		}
		if !ok {
			continue // long-poll timed out empty
		}
		w.execute(ctx, spec, jobID, lease)
	}
}

// reregisterError marks a 410 from the router: this worker ID is gone.
type reregisterError struct{}

func (*reregisterError) Error() string { return "router no longer knows this worker" }

// sleepCtx sleeps d or until ctx cancels; false means canceled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

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

// register announces the worker and adopts the router's lease/heartbeat
// cadence, retrying until the router answers or ctx cancels.
func (w *Worker) register(ctx context.Context) error {
	req := registerRequest{Name: w.opt.Name, Backend: w.opt.Backend, CellsPS: w.opt.CellsPS}
	for {
		resp, err := w.do(ctx, "/cluster/register", req, nil)
		if err == nil && resp.StatusCode == http.StatusOK {
			var out registerResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				return err
			}
			w.mu.Lock()
			w.id = out.WorkerID
			w.leaseTTL = time.Duration(out.LeaseTTLMs) * time.Millisecond
			w.beatEvery = max(time.Duration(out.HeartbeatMs)*time.Millisecond, 10*time.Millisecond)
			w.mu.Unlock()
			w.logf("worker %s: registered as %s (lease TTL %v)", w.opt.Name, out.WorkerID, w.leaseTTL)
			return nil
		}
		if err == nil {
			err = httpErr(resp)
			resp.Body.Close()
			// 4xx is a configuration error (bad name, bad token) that a
			// retry cannot fix.
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				return fmt.Errorf("cluster: register: %w", err)
			}
		}
		if ctx.Err() != nil || w.isKilled() {
			return ctx.Err()
		}
		w.logf("worker %s: register: %v (retrying)", w.opt.Name, err)
		if !sleepCtx(ctx, time.Second) {
			return ctx.Err()
		}
	}
}

// workerID reads the current registration.
func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// heartbeatLoop pushes liveness plus the local telemetry snapshot at the
// router-assigned cadence.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	w.mu.Lock()
	every := w.beatEvery
	w.mu.Unlock()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		hb := heartbeatRequest{WorkerID: w.workerID(), CellsPS: w.opt.CellsPS}
		if w.opt.Registry != nil {
			hb.Snapshot = w.opt.Registry.Snapshot()
		}
		resp, err := w.do(ctx, "/cluster/heartbeat", hb, nil)
		if err != nil {
			continue
		}
		resp.Body.Close()
	}
}

// poll long-polls the router for one leased job. ok=false means the
// poll returned empty.
func (w *Worker) poll(ctx context.Context) (spec *Spec, jobID, lease string, ok bool, err error) {
	body := struct {
		WorkerID string `json:"workerId"`
		WaitMs   int64  `json:"waitMs"`
	}{w.workerID(), w.opt.PollWait.Milliseconds()}
	resp, err := w.do(ctx, "/cluster/poll", body, nil)
	if err != nil {
		return nil, "", "", false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, "", "", false, nil
	case http.StatusGone:
		return nil, "", "", false, &reregisterError{}
	case http.StatusOK:
	default:
		return nil, "", "", false, httpErr(resp)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", "", false, err
	}
	spec, err = UnmarshalSpec(payload)
	if err != nil {
		return nil, "", "", false, err
	}
	jobID = resp.Header.Get("X-Logan-Job-Id")
	lease = resp.Header.Get("X-Logan-Lease")
	if ttlMs, _ := strconv.ParseInt(resp.Header.Get("X-Logan-Lease-Ttl-Ms"), 10, 64); ttlMs > 0 {
		w.mu.Lock()
		w.leaseTTL = time.Duration(ttlMs) * time.Millisecond
		w.mu.Unlock()
	}
	return spec, jobID, lease, true, nil
}

// execute runs one leased job: the overlap pipeline on the local engine,
// a lease-extension loop at TTL/3 publishing progress, and the final
// complete (or fail) report. Errors are reported to the router, never
// returned — the worker keeps serving.
func (w *Worker) execute(ctx context.Context, spec *Spec, jobID, lease string) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var pmu sync.Mutex
	var prog Progress
	cfg := spec.Config.Overlap()
	cfg.OnProgress = func(p Progress) {
		pmu.Lock()
		prog = p
		pmu.Unlock()
	}

	w.mu.Lock()
	ttl := w.leaseTTL
	w.mu.Unlock()
	extendEvery := max(ttl/3, 10*time.Millisecond)

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
				extendRequest{WorkerID: w.workerID(), Lease: lease, Progress: p}, nil)
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

	paf, sum, runErr := runOverlap(w.opt.Overlapper)(runCtx, bytes.NewReader(spec.Fasta), cfg)
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
			"X-Logan-Lease":     lease,
			"X-Logan-Worker-Id": w.workerID(),
			"X-Logan-Overlaps":  strconv.Itoa(sum.overlaps),
			"X-Logan-Reads":     strconv.Itoa(sum.reads),
			"X-Logan-Cells":     strconv.FormatInt(sum.cells, 10),
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

	fr := failRequest{WorkerID: w.workerID(), Lease: lease, Error: runErr.Error()}
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
