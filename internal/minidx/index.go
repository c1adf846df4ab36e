package minidx

import (
	"fmt"
	"math/bits"
	"sort"

	"logan/internal/seq"
)

// Default index parameters: k=15/w=10 is the minimap2 short-to-long sweet
// spot (≈2/(w+1) sampling density), and masking k-mers above 256
// occurrences drops centromeric/satellite noise without hurting unique
// placement.
const (
	DefaultK             = 15
	DefaultW             = 10
	DefaultMaxOccurrence = 256
)

// Ref is one reference sequence held by the index. Seq is normalized to
// the unambiguous alphabet (N→A, matching the engine's 2-bit packing) so
// a built index and a reloaded one extend against identical bases.
type Ref struct {
	Name string
	Seq  seq.Seq
}

// Options configures index construction.
type Options struct {
	// K and W are the minimizer k-mer length and window size.
	K, W int
	// MaxOccurrence masks k-mers occurring more often than this across
	// the whole reference set; 0 means DefaultMaxOccurrence, negative
	// disables masking.
	MaxOccurrence int
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = DefaultK
	}
	if o.W == 0 {
		o.W = DefaultW
	}
	if o.MaxOccurrence == 0 {
		o.MaxOccurrence = DefaultMaxOccurrence
	}
	return o
}

// Stats describes a built or loaded index: its sampling parameters and
// the shape of the minimizer table. It feeds the logan_map_index_*
// telemetry gauges and /statz, and is the public logan.IndexStats.
type Stats struct {
	K               int     `json:"k"`
	W               int     `json:"w"`
	MaxOccurrence   int     `json:"maxOccurrence"` // masking threshold (<0: masking disabled)
	Refs            int     `json:"refs"`
	Bases           int64   `json:"bases"`
	Minimizers      int64   `json:"minimizers"`      // extracted occurrences
	Distinct        int64   `json:"distinct"`        // distinct keys before masking
	Kept            int64   `json:"kept"`            // stored positions after masking
	MaskedKmers     int64   `json:"maskedKmers"`     // distinct keys masked as high-occurrence
	MaskedPositions int64   `json:"maskedPositions"` // occurrences dropped by masking
	TableSize       int     `json:"tableSize"`
	Occupancy       float64 `json:"occupancy"` // occupied slots / table size
}

// slot is one open-addressing table entry; cnt==0 marks an empty slot
// (stored runs are never empty, masking removes keys instead of zeroing
// their counts).
type slot struct {
	key uint64
	off uint32
	cnt uint32
}

// Index is a minimizer index over a set of reference sequences: a flat,
// hash-grouped positions array addressed by an open-addressing table.
// It is immutable after Build/Load and safe for concurrent lookups.
type Index struct {
	refs  []Ref
	pos   []uint64 // packed (ref,pos,rev), grouped by key
	slots []slot
	mask  uint64
	stats Stats
}

// K returns the k-mer length the index was built with.
func (x *Index) K() int { return x.stats.K }

// W returns the minimizer window size the index was built with.
func (x *Index) W() int { return x.stats.W }

// MaxOccurrence returns the masking threshold the index was built with
// (<0 when masking was disabled).
func (x *Index) MaxOccurrence() int { return x.stats.MaxOccurrence }

// Refs returns the reference sequences; callers must not mutate them.
func (x *Index) Refs() []Ref { return x.refs }

// Stats returns build statistics.
func (x *Index) Stats() Stats { return x.stats }

// PackPos packs a reference hit into the uint64 position encoding used
// by the index: reference ordinal, forward-strand k-mer start, and the
// canonical-strand bit.
func PackPos(ref, pos int32, rev bool) uint64 {
	v := uint64(uint32(ref))<<33 | uint64(uint32(pos))<<1
	if rev {
		v |= 1
	}
	return v
}

// UnpackPos reverses PackPos.
func UnpackPos(v uint64) (ref, pos int32, rev bool) {
	return int32(v >> 33), int32(uint32(v>>1) & 0x7fffffff), v&1 == 1
}

// Build constructs an index over refs. Reference sequences are
// normalized in place of the returned index (N→A via 2-bit packing)
// after minimizer extraction, so extraction still skips ambiguous
// windows but extension targets match a saved-then-loaded index exactly.
func Build(refs []Ref, opt Options) (*Index, error) {
	opt = opt.withDefaults()
	if err := ValidateKW(opt.K, opt.W); err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("minidx: no reference sequences")
	}
	if len(refs) >= 1<<31 {
		return nil, fmt.Errorf("minidx: %d references exceed the 31-bit ordinal space", len(refs))
	}
	x := &Index{stats: Stats{K: opt.K, W: opt.W, MaxOccurrence: opt.MaxOccurrence}}
	x.refs = make([]Ref, len(refs))
	type rec struct {
		hash uint64
		val  uint64
	}
	var recs []rec
	var scratch []Minimizer
	for i, r := range refs {
		if r.Name == "" {
			return nil, fmt.Errorf("minidx: reference %d has an empty name", i)
		}
		if len(r.Seq) >= 1<<31 {
			return nil, fmt.Errorf("minidx: reference %q length %d exceeds the 31-bit position space", r.Name, len(r.Seq))
		}
		scratch = Extract(scratch[:0], r.Seq, opt.K, opt.W)
		for _, m := range scratch {
			recs = append(recs, rec{hash: m.Hash, val: PackPos(int32(i), m.Pos, m.Rev)})
		}
		x.stats.Bases += int64(len(r.Seq))
		// Normalize the stored copy: PackLossy maps N→A, the same lossy
		// view the X-drop backends see, making built and reloaded
		// indexes extend against identical bases.
		x.refs[i] = Ref{Name: r.Name, Seq: seq.PackLossy(r.Seq).Unpack()}
	}
	x.stats.Refs = len(refs)
	x.stats.Minimizers = int64(len(recs))
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].hash != recs[b].hash {
			return recs[a].hash < recs[b].hash
		}
		return recs[a].val < recs[b].val
	})
	type run struct {
		key uint64
		off uint32
		cnt uint32
	}
	var runs []run
	for i := 0; i < len(recs); {
		j := i
		for j < len(recs) && recs[j].hash == recs[i].hash {
			j++
		}
		x.stats.Distinct++
		n := j - i
		if opt.MaxOccurrence >= 0 && n > opt.MaxOccurrence {
			x.stats.MaskedKmers++
			x.stats.MaskedPositions += int64(n)
			i = j
			continue
		}
		runs = append(runs, run{key: recs[i].hash, off: uint32(len(x.pos)), cnt: uint32(n)})
		for ; i < j; i++ {
			x.pos = append(x.pos, recs[i].val)
		}
	}
	x.stats.Kept = int64(len(x.pos))
	size := nextPow2(2 * len(runs))
	x.slots = make([]slot, size)
	x.mask = uint64(size - 1)
	for _, r := range runs {
		p := r.key & x.mask
		for x.slots[p].cnt != 0 {
			p = (p + 1) & x.mask
		}
		x.slots[p] = slot{key: r.key, off: r.off, cnt: r.cnt}
	}
	x.stats.TableSize = size
	x.stats.Occupancy = float64(len(runs)) / float64(size)
	return x, nil
}

func nextPow2(n int) int {
	if n < 1 {
		n = 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// Lookup returns the packed positions stored for a minimizer hash, or
// nil when the key is absent or was masked. The returned slice aliases
// index memory and must not be mutated.
func (x *Index) Lookup(hash uint64) []uint64 {
	p := hash & x.mask
	for {
		s := x.slots[p]
		if s.cnt == 0 {
			return nil
		}
		if s.key == hash {
			return x.pos[s.off : s.off+s.cnt : s.off+s.cnt]
		}
		p = (p + 1) & x.mask
	}
}
