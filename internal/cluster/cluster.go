// Package cluster is the distributed scale-out layer: a router tier
// that admits overlap jobs, persists them to a durable write-ahead
// queue, and hands them to a fleet of alignment workers under expiring
// leases — plus the worker client that pulls work under its name (no
// handshake: its polls and lease extensions are its liveness and carry
// its telemetry), executes it on its local engine, and streams results
// back.
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

// JobConfig is an overlap configuration as a Spec header carries it: a
// logan.OverlapConfig whose JSON form is its parameter table (one field
// per logan.OverlapConfig.Params row), so a parameter added to the table
// travels to workers without an edit here. The scoring scheme is always
// the paper's +1/-1/-1 linear family (the only one the overlap pipeline
// validates), and the hooks (OnProgress, Traceback) are per-process, so
// neither travels.
type JobConfig logan.OverlapConfig

// ConfigFromOverlap projects an overlap configuration onto the wire
// form, dropping the non-serializable hooks.
func ConfigFromOverlap(c logan.OverlapConfig) JobConfig {
	c.OnProgress, c.Traceback = nil, false
	return JobConfig(c)
}

// Overlap returns the executable configuration on the worker side.
func (c JobConfig) Overlap() logan.OverlapConfig { return logan.OverlapConfig(c) }

// MarshalJSON emits the parameter table as one JSON object.
func (c JobConfig) MarshalJSON() ([]byte, error) {
	return (*logan.OverlapConfig)(&c).Params().MarshalJSON()
}

// UnmarshalJSON reads the parameter table back over the defaults, through
// the table's own setter: a WAL record or a lease body is foreign bytes,
// and a value outside a row's bounds fails the decode like it fails a
// request. A field the table does not know is skipped, so records written
// before or after a table change still replay.
func (c *JobConfig) UnmarshalJSON(b []byte) error {
	*c = defaultJobConfig()
	return (*logan.OverlapConfig)(c).Params().UnmarshalJSON(b)
}

// defaultJobConfig is the configuration a header's config object is read
// over, and the one a header without a config object gets.
func defaultJobConfig() JobConfig {
	return JobConfig(logan.DefaultOverlapConfig(logan.DefaultCoverage, logan.DefaultErrorRate, 0))
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
	s := Spec{Config: defaultJobConfig()}
	if err := json.Unmarshal(b[4:4+hlen], &s); err != nil {
		return nil, fmt.Errorf("cluster: unmarshal spec: %w", err)
	}
	s.Fasta = b[4+hlen:]
	return &s, nil
}

// Progress is a job's pipeline progress — the overlapper's own record,
// whose JSON form a worker pushes with each lease extension and
// GET /jobs/{id} reports.
type Progress = logan.OverlapProgress

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

// JobStatus is one job's externally visible state, and by its JSON form
// the GET /jobs/{id} body. Worker (the node holding or having held the
// job's lease) and Requeues (the retries it survived) stay zero on a
// single node; Overlaps/Reads/Cells/PAFBytes summarize a finished job.
type JobStatus struct {
	ID       string    `json:"id"`
	State    string    `json:"state"`
	Error    string    `json:"error,omitempty"`
	Progress Progress  `json:"progress"`
	Overlaps int       `json:"overlaps,omitempty"`
	Reads    int       `json:"reads,omitempty"`
	Cells    int64     `json:"cells,omitempty"`
	PAFBytes int       `json:"pafBytes,omitempty"`
	Worker   string    `json:"worker,omitempty"`
	Requeues int       `json:"requeues,omitempty"`
	Created  time.Time `json:"createdAt"`
	Started  time.Time `json:"startedAt,omitzero"`
	Finished time.Time `json:"finishedAt,omitzero"`
}

// MarshalJSON renders the status for the wire: timestamps in UTC, a job
// without progress yet reporting its state as the stage, and the
// accepted-overlap count once, at the top level.
func (st JobStatus) MarshalJSON() ([]byte, error) {
	type wire JobStatus
	st.Progress.Overlaps = 0
	if st.Progress.Stage == "" {
		st.Progress.Stage = logan.OverlapStage(st.State)
	}
	st.Created, st.Started, st.Finished = st.Created.UTC(), st.Started.UTC(), st.Finished.UTC()
	return json.Marshal(wire(st))
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

// NewID returns a 16-hex-character random identifier, used for job IDs
// and lease tokens alike.
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
