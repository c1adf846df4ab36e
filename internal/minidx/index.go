package minidx

import (
	"fmt"
	"math/bits"

	"logan/internal/par"
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
// normalized in place of the returned index (N→A, the 2-bit packing's
// lossy view) after minimizer extraction, so extraction still skips
// ambiguous windows but extension targets match a saved-then-loaded index
// exactly.
//
// Extraction and normalization run on every core, over contiguous units
// of at most buildUnit bases in (reference, position) order. A unit
// [a,b) extracts over [a-(w-1), b+(w-1)+k-1), every window that can
// select a position in [a,b), and keeps the minimizers at positions in
// [a,b): the concatenation is exactly each reference's serial Extract.
// par.RadixSort then orders the (hash, packed position) records by hash
// alone. It is stable and the units arrive in ascending packed position,
// so equal hashes stay in position order. The masking pass and the table
// insert are serial, so the index, and its Save bytes, are the same for
// any worker count.
func Build(refs []Ref, opt Options) (*Index, error) {
	return build(refs, opt, par.Workers(0), buildUnit)
}

// buildUnit is the reference span one extraction unit covers: large
// enough that the 2(w-1)+k-1 bases a unit re-reads are noise, small
// enough that one long reference splits over many workers.
const buildUnit = 1 << 16

// build is Build on a given worker count and unit length, which the tests
// vary; neither changes the index.
func build(refs []Ref, opt Options, workers, unitLen int) (*Index, error) {
	opt = opt.withDefaults()
	if err := ValidateKW(opt.K, opt.W); err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("minidx: no reference sequences")
	}
	if int64(len(refs)) >= 1<<31 {
		return nil, fmt.Errorf("minidx: %d references exceed the 31-bit ordinal space", len(refs))
	}
	x := &Index{stats: Stats{K: opt.K, W: opt.W, MaxOccurrence: opt.MaxOccurrence, Refs: len(refs)}}
	x.refs = make([]Ref, len(refs))
	type unit struct{ ref, lo, hi int }
	var units []unit
	for i, r := range refs {
		if r.Name == "" {
			return nil, fmt.Errorf("minidx: reference %d has an empty name", i)
		}
		if int64(len(r.Seq)) >= 1<<31 {
			return nil, fmt.Errorf("minidx: reference %q length %d exceeds the 31-bit position space", r.Name, len(r.Seq))
		}
		x.stats.Bases += int64(len(r.Seq))
		x.refs[i] = Ref{Name: r.Name, Seq: make(seq.Seq, len(r.Seq))}
		for lo := 0; lo < len(r.Seq); lo += unitLen {
			units = append(units, unit{i, lo, min(lo+unitLen, len(r.Seq))})
		}
	}

	hashes := make([][]uint64, workers)
	vals := make([][]uint64, workers)
	par.Range(len(units), workers, func(w, lo, hi int) {
		n := 0
		for _, u := range units[lo:hi] {
			n += u.hi - u.lo
		}
		// A random sequence has about 2/(w+1) minimizers per base; a
		// sixteenth on top leaves room for ties before append must grow.
		est := n/(opt.W+1)*2 + n/(opt.W+1)/8 + 16
		hs, vs := make([]uint64, 0, est), make([]uint64, 0, est)
		var scratch []Minimizer
		for _, u := range units[lo:hi] {
			s := refs[u.ref].Seq
			from := max(0, u.lo-(opt.W-1))
			scratch = Extract(scratch[:0], s[from:min(len(s), u.hi+opt.W-1+opt.K-1)], opt.K, opt.W)
			for _, m := range scratch {
				p := from + int(m.Pos)
				if p >= u.hi {
					break
				}
				if p >= u.lo {
					hs = append(hs, m.Hash)
					vs = append(vs, PackPos(int32(u.ref), int32(p), m.Rev))
				}
			}
			dst := x.refs[u.ref].Seq[u.lo:u.hi]
			for j, c := range s[u.lo:u.hi] {
				dst[j] = lossy[c]
			}
		}
		hashes[w], vals[w] = hs, vs
	})
	keys, pos, _ := par.RadixSort(hashes, vals, 64, workers)
	x.stats.Minimizers = int64(len(keys))

	// Two serial passes over the runs of equal hashes: count the kept
	// ones to size the table, then insert them in hash order, compacting
	// their positions in place.
	masked := func(n int) bool { return opt.MaxOccurrence >= 0 && n > opt.MaxOccurrence }
	runEnd := func(i int) int {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		return j
	}
	runs := 0
	for i, j := 0, 0; i < len(keys); i = j {
		if j = runEnd(i); !masked(j - i) {
			runs++
		}
	}
	size := nextPow2(2 * runs)
	x.slots = make([]slot, size)
	x.mask = uint64(size - 1)
	kept := 0
	for i, j := 0, 0; i < len(keys); i = j {
		j = runEnd(i)
		x.stats.Distinct++
		if n := j - i; masked(n) {
			x.stats.MaskedKmers++
			x.stats.MaskedPositions += int64(n)
			continue
		}
		p := keys[i] & x.mask
		for x.slots[p].cnt != 0 {
			p = (p + 1) & x.mask
		}
		x.slots[p] = slot{key: keys[i], off: uint32(kept), cnt: uint32(j - i)}
		kept += copy(pos[kept:], pos[i:j])
	}
	x.pos = pos[:kept:kept]
	x.stats.Kept = int64(kept)
	x.stats.TableSize = size
	x.stats.Occupancy = float64(runs) / float64(size)
	return x, nil
}

// lossy maps every byte a Seq may hold to the base PackLossy stores for
// it: ACGT in either case to upper case, anything else (N) to A.
var lossy = func() (t [256]byte) {
	for b := range t {
		t[b] = seq.Alphabet[seq.Seq{byte(b)}.Code(0)]
	}
	return t
}()

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
