package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"logan"
	"logan/internal/telemetry"
)

// runFunc executes one overlap job: FASTA in, serialized PAF and its
// summary out. Tests substitute a blocking fake.
type runFunc func(ctx context.Context, fasta io.Reader, cfg logan.OverlapConfig) ([]byte, summary, error)

// runOverlap is the runFunc both execution sites share — the local
// dispatcher and Worker.execute — so a served PAF is the same bytes
// wherever the job ran.
func runOverlap(ov *logan.Overlapper) runFunc {
	return func(ctx context.Context, fasta io.Reader, cfg logan.OverlapConfig) ([]byte, summary, error) {
		res, err := ov.RunFasta(ctx, fasta, cfg)
		if err != nil {
			return nil, summary{}, err
		}
		var buf bytes.Buffer
		if err := logan.WritePAF(&buf, res.Records); err != nil {
			return nil, summary{}, err
		}
		return buf.Bytes(), summary{overlaps: len(res.Records), reads: res.Stats.Reads, cells: res.Stats.Cells}, nil
	}
}

// LocalOptions configures the single-node jobs subsystem. Non-positive
// limits select the defaults (2 workers; the Store's job and byte caps).
type LocalOptions struct {
	// Overlapper executes jobs on the node's own engine (required).
	Overlapper *logan.Overlapper
	// Workers bounds concurrently running jobs; the rest wait queued.
	Workers int
	// MaxJobs, PendingBytes and ResultBytes are the Store's limits.
	// PendingBytes counts buffered upload bodies only: a server-side
	// fastaPath holds no memory while it waits.
	MaxJobs      int
	PendingBytes int64
	ResultBytes  int64
	// Registry receives the store's instruments (required).
	Registry *telemetry.Registry
}

// local is the in-process dispatcher: one goroutine per admitted job,
// bounded to a fixed number running at once by a semaphore.
type local struct {
	st      *Store
	run     runFunc
	sem     chan struct{} // worker slots
	baseCtx context.Context
	stopAll context.CancelFunc
	wg      sync.WaitGroup
}

// NewLocal builds a Store whose jobs run in this process.
func NewLocal(opt LocalOptions) *Store {
	return newLocal(opt, time.Now, runOverlap(opt.Overlapper))
}

func newLocal(opt LocalOptions, now func() time.Time, run runFunc) *Store {
	if opt.Workers <= 0 {
		opt.Workers = 2
	}
	l := &local{run: run, sem: make(chan struct{}, opt.Workers)}
	l.baseCtx, l.stopAll = context.WithCancel(context.Background())
	l.st = newStore(opt.Registry, opt.MaxJobs, opt.PendingBytes, opt.ResultBytes, now)
	l.st.d = l
	return l.st
}

func (l *local) slots() int { return cap(l.sem) }

// close cancels every live job and waits for the runners to drain. Call
// it before closing the coalescer/engine the overlapper extends on.
func (l *local) close() {
	l.stopAll()
	l.wg.Wait()
}

// submit registers the job and starts its runner. The source is opened
// only once a worker slot frees up, so a deep queue does not hold file
// handles.
func (l *local) submit(sub Submission) (JobStatus, bool, error) {
	ctx, cancel := context.WithCancel(l.baseCtx)
	st, replayed, err := l.st.admit(NewID(), sub.IdempotencyKey, TenantName(sub.Tenant), sub.BufBytes, func(j *record) error {
		// DELETE lands here: a queued extension chunk is dropped at
		// once, and one running alone stops per pair.
		j.retire = cancel
		l.wg.Add(1)
		go l.exec(ctx, j, sub)
		return nil
	})
	if err != nil || replayed {
		cancel()
	}
	return st, replayed, err
}

// exec runs one job: wait for a worker slot, stream the FASTA through
// the pipeline, publish the outcome.
func (l *local) exec(ctx context.Context, j *record, sub Submission) {
	defer l.wg.Done()
	st := l.st
	select {
	case l.sem <- struct{}{}:
		defer func() { <-l.sem }()
	case <-ctx.Done():
	}
	st.mu.Lock()
	if ctx.Err() != nil {
		st.cancel(j) // shutdown while queued; a DELETE already did this
	}
	ok := st.start(j, "")
	st.mu.Unlock()
	if !ok {
		return
	}
	cfg := sub.Config
	cfg.OnProgress = func(p Progress) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if p.Stage != logan.StageIngest {
			// Ingestion is over: the upload buffer is dead weight from here
			// on and must not count against new submissions.
			st.release(j)
		}
		st.progress(j, p)
	}
	var paf []byte
	var sum summary
	in, err := sub.Open()
	if err == nil {
		paf, sum, err = l.run(ctx, in, cfg)
		in.Close()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case err == nil:
		st.complete(j, paf, sum)
	case errors.Is(err, context.Canceled):
		st.cancel(j)
	default:
		st.fail(j, err.Error())
	}
}
