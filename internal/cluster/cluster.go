// Package cluster is the distributed scale-out layer: a router tier
// that admits overlap jobs, persists them to a durable write-ahead
// queue, and hands them to a fleet of alignment workers under expiring
// leases — plus the worker client that registers, heartbeats, pulls
// work, executes it on its local engine, and streams results back.
//
// The package also owns the job lifecycle itself: Store is the one job
// table behind the serve layer's /jobs handlers (states, admission,
// eviction, byte budgets, idempotency, the logan_jobs_* series), and the
// two ways of executing what it admits — NewLocal's in-process runner on
// a single node, the leased Router in a cluster — share it and nothing
// else.
//
// Dataflow of one clustered job:
//
//	client ── POST /jobs ──▶ router: admit (auth/quota) ─▶ WAL fsync ─▶ queued
//	worker ── poll ─────────▶ lease (token, TTL) ─▶ execute on local engine
//	worker ── extend ───────▶ lease renewed, progress published
//	worker ── complete ─────▶ PAF stored, WAL ack fsync ─▶ done
//	 (no extend before TTL) ─▶ lease expires ─▶ requeued for another worker
//
// Job IDs are idempotent: a requeued job re-executes under the same ID,
// and a completion carrying a stale lease token is rejected, so a slow
// worker racing its own replacement can never double-publish a result.
package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"logan"
)

// Store.Submit's errors. The HTTP layer maps the first two (admission
// control) to 429 and ErrUnavailable to 503; any other error is the
// submitted source's fault, a 400.
var (
	// ErrStoreFull reports a store whose every retained job is still
	// live: nothing can be evicted to make room.
	ErrStoreFull = errors.New("cluster: job store full of live jobs")
	// ErrBusy reports an exhausted byte budget (buffered uploads or
	// queued job specs).
	ErrBusy = errors.New("cluster: job byte budget exhausted")
	// ErrUnavailable reports a store that cannot take work through no
	// fault of the request: it is closed, or the durable queue refused
	// the append.
	ErrUnavailable = errors.New("cluster: job store unavailable")
)

// JobConfig is the serializable subset of logan.OverlapConfig that the
// serve-layer jobs API exposes: the numeric pipeline parameters. The
// scoring scheme is always the paper's +1/-1/-1 linear family (the only
// one the overlap pipeline validates), so it does not travel.
type JobConfig struct {
	K          int     `json:"k"`
	Coverage   float64 `json:"coverage"`
	ErrorRate  float64 `json:"errorRate"`
	X          int32   `json:"x"`
	BinWidth   int     `json:"binWidth"`
	MinShared  int     `json:"minShared"`
	MaxSeeds   int     `json:"maxSeeds"`
	Delta      float64 `json:"delta"`
	MinOverlap int     `json:"minOverlap"`
	BatchPairs int     `json:"batchPairs"`
	Workers    int     `json:"workers"`
}

// ConfigFromOverlap projects an overlap configuration onto the wire
// form, dropping the non-serializable hooks (OnProgress, Traceback).
func ConfigFromOverlap(c logan.OverlapConfig) JobConfig {
	return JobConfig{
		K: c.K, Coverage: c.Coverage, ErrorRate: c.ErrorRate, X: c.X,
		BinWidth: c.BinWidth, MinShared: c.MinShared, MaxSeeds: c.MaxSeeds,
		Delta: c.Delta, MinOverlap: c.MinOverlap, BatchPairs: c.BatchPairs,
		Workers: c.Workers,
	}
}

// Overlap reconstructs the executable configuration on the worker side.
func (c JobConfig) Overlap() logan.OverlapConfig {
	cov, er := c.Coverage, c.ErrorRate
	if cov == 0 {
		cov = 6
	}
	if er == 0 {
		er = 0.15
	}
	out := logan.DefaultOverlapConfig(cov, er, c.X)
	if c.K != 0 {
		out.K = c.K
	}
	if c.BinWidth != 0 {
		out.BinWidth = c.BinWidth
	}
	if c.MinShared != 0 {
		out.MinShared = c.MinShared
	}
	if c.MaxSeeds != 0 {
		out.MaxSeeds = c.MaxSeeds
	}
	if c.Delta != 0 {
		out.Delta = c.Delta
	}
	out.MinOverlap = c.MinOverlap
	out.BatchPairs = c.BatchPairs
	out.Workers = c.Workers
	return out
}

// Spec is the self-contained, durable description of one job: what the
// WAL stores and what a lease hands to a worker. The FASTA rides along
// raw — a worker needs nothing but the spec to execute.
type Spec struct {
	ID             string    `json:"id"`
	Tenant         string    `json:"tenant,omitempty"`
	IdempotencyKey string    `json:"idempotencyKey,omitempty"`
	Config         JobConfig `json:"config"`
	Fasta          []byte    `json:"-"`
}

// maxSpecHeader bounds the JSON header of a decoded spec; any real
// header is a few hundred bytes.
const maxSpecHeader = 1 << 20

// Marshal frames the spec as a 4-byte little-endian JSON-header length,
// the header, then the raw FASTA bytes — one codec for the WAL payload
// and the lease HTTP body.
func (s *Spec) Marshal() ([]byte, error) {
	hdr, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal spec: %w", err)
	}
	out := make([]byte, 0, 4+len(hdr)+len(s.Fasta))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr)))
	out = append(out, hdr...)
	return append(out, s.Fasta...), nil
}

// UnmarshalSpec decodes a framed spec. The FASTA slice aliases b.
func UnmarshalSpec(b []byte) (*Spec, error) {
	if len(b) < 4 {
		return nil, errors.New("cluster: spec too short")
	}
	hlen := int(binary.LittleEndian.Uint32(b))
	if hlen <= 0 || hlen > maxSpecHeader || len(b) < 4+hlen {
		return nil, fmt.Errorf("cluster: spec header length %d invalid", hlen)
	}
	var s Spec
	if err := json.Unmarshal(b[4:4+hlen], &s); err != nil {
		return nil, fmt.Errorf("cluster: unmarshal spec: %w", err)
	}
	s.Fasta = b[4+hlen:]
	return &s, nil
}

// Progress is the wire form of a job's pipeline progress, pushed by the
// executing worker with each lease extension.
type Progress struct {
	Stage           string `json:"stage"`
	ReadsParsed     int64  `json:"readsParsed"`
	ReliableKmers   int64  `json:"reliableKmers"`
	CandidatePairs  int64  `json:"candidatePairs"`
	ExtensionsDone  int64  `json:"extensionsDone"`
	ExtensionsTotal int64  `json:"extensionsTotal"`
	Overlaps        int64  `json:"overlaps"`
	Shed            int64  `json:"shed"`
	Retries         int64  `json:"retries"`
}

// FromOverlap folds a pipeline progress snapshot into the wire form.
func (p *Progress) FromOverlap(u logan.OverlapProgress) {
	p.Stage = string(u.Stage)
	p.ReadsParsed = int64(u.ReadsParsed)
	p.ReliableKmers = int64(u.ReliableKmers)
	p.CandidatePairs = int64(u.CandidatePairs)
	p.ExtensionsDone = int64(u.ExtensionsDone)
	p.ExtensionsTotal = int64(u.ExtensionsTotal)
	p.Overlaps = int64(u.Overlaps)
	p.Shed = u.Shed
	p.Retries = u.Retries
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// TerminalState reports whether a job in the given state can never
// change again.
func TerminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is one job's externally visible state (Worker and Requeues
// stay zero on a single node).
type JobStatus struct {
	ID       string
	State    string
	Error    string
	Progress Progress
	// Overlaps/Reads/Cells/PAFBytes summarize a finished job.
	Overlaps int
	Reads    int
	Cells    int64
	PAFBytes int
	// Worker names the node executing (or having executed) the job;
	// Requeues counts lease-expiry or shutdown retries it survived.
	Worker   string
	Requeues int
	Created  time.Time
	Started  time.Time
	Finished time.Time
}

// Submission is one POST /jobs, resolved by the HTTP layer: the
// authenticated tenant, the validated configuration, and a one-shot
// opener for the FASTA source. BufBytes is the source's already
// buffered upload size (0 for lazily opened server-side paths).
type Submission struct {
	Tenant   *logan.Tenant
	Config   logan.OverlapConfig
	Open     func() (io.ReadCloser, error)
	BufBytes int64
	// IdempotencyKey, when non-empty, dedupes client retries: a
	// submission whose key matches a retained job returns that job's
	// status (replayed=true) instead of creating a second job.
	IdempotencyKey string
}

// NewID returns a 16-hex-character random identifier, used for job IDs,
// worker IDs and lease tokens alike.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// TenantName renders a tenant for attribution; the nil (unmetered)
// tenant reads as anonymous.
func TenantName(t *logan.Tenant) string {
	if t == nil {
		return "anonymous"
	}
	return t.Name()
}
