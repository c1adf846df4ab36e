package minidx

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"logan/internal/seq"
)

// buildOracle is the serial Build that the parallel one replaced, kept
// verbatim as the oracle: one Extract per reference, a sort.Slice of the
// (hash, packed position) records by both keys, PackLossy normalization.
// Build's Save bytes must equal its Save bytes for every input.
func buildOracle(refs []Ref, opt Options) (*Index, error) {
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
		if int64(len(r.Seq)) >= 1<<31 {
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

// saveBytes returns x's Save bytes.
func saveBytes(t testing.TB, x *Index) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := x.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkBuild fails unless build on (workers, unitLen) gives the oracle's
// Save bytes and stats, and leaves refs unchanged.
func checkBuild(t testing.TB, refs []Ref, opt Options, workers, unitLen int) {
	t.Helper()
	before := make([]string, len(refs))
	for i, r := range refs {
		before[i] = string(r.Seq)
	}
	want, wantErr := buildOracle(refs, opt)
	got, err := build(refs, opt, workers, unitLen)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("build error %v, oracle %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got.Stats(), want.Stats()) {
		t.Fatalf("workers=%d unit=%d %+v: stats %+v, oracle %+v", workers, unitLen, opt, got.Stats(), want.Stats())
	}
	if g, w := saveBytes(t, got), saveBytes(t, want); !bytes.Equal(g, w) {
		t.Fatalf("workers=%d unit=%d %+v: Save bytes differ from the oracle's (%d vs %d bytes)", workers, unitLen, opt, len(g), len(w))
	}
	for i, r := range refs {
		if string(r.Seq) != before[i] {
			t.Fatalf("build changed input reference %d", i)
		}
		if !bytes.Equal(got.Refs()[i].Seq, want.Refs()[i].Seq) {
			t.Fatalf("stored reference %d = %s, oracle %s", i, got.Refs()[i].Seq, want.Refs()[i].Seq)
		}
	}
}

// TestBuildWorkerInvariance: the index, down to its Save bytes, is the
// oracle's for 1, 2, 3 and 7 workers, with Build's own unit (which splits
// the long reference) and with units small enough to cut inside N runs
// and at run starts.
func TestBuildWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	long := randomSeq(rng, 2*buildUnit+777, 0.002)
	copy(long[buildUnit-3:], "NNNNNNN") // an N run across a unit boundary
	refs := []Ref{
		{Name: "long", Seq: long},
		{Name: "short", Seq: randomSeq(rng, 900, 0.01)},
		{Name: "empty", Seq: seq.Seq{}},
		{Name: "rep", Seq: bytes.Repeat([]byte("ACGTTGCA"), 300)},
	}
	for _, opt := range []Options{{}, {K: 5, W: 3, MaxOccurrence: 4}, {K: 21, W: 40, MaxOccurrence: -1}} {
		want := saveBytes(t, mustBuild(t, buildOracle, refs, opt))
		for _, workers := range []int{1, 2, 3, 7} {
			for _, unit := range []int{buildUnit, 997, 61} {
				x, err := build(refs, opt, workers, unit)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saveBytes(t, x), want) {
					t.Fatalf("%+v workers=%d unit=%d: Save bytes differ from the oracle's", opt, workers, unit)
				}
			}
		}
		if !bytes.Equal(saveBytes(t, mustBuild(t, Build, refs, opt)), want) {
			t.Fatalf("%+v: Build's Save bytes differ from the oracle's", opt)
		}
	}
}

func mustBuild(t *testing.T, fn func([]Ref, Options) (*Index, error), refs []Ref, opt Options) *Index {
	t.Helper()
	x, err := fn(refs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// FuzzBuildDifferential: arbitrary ACGTN bytes cut into 1–4 references,
// k 1..31 and w 1..64, masking on or off, 1–4 workers and extraction units
// of 1–64 bases, or one unit cut placed exactly at the first N run or the
// first base after it. The index's Save bytes must equal the serial
// oracle's. The seed corpus is testdata/fuzz/FuzzBuildDifferential.
func FuzzBuildDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, kb, wb, nrefs, workers, unit uint8, maxOcc int8) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		s := fuzzSeq(data)
		n := 1 + int(nrefs)%4
		refs := make([]Ref, n)
		for i := range refs {
			refs[i] = Ref{Name: fmt.Sprintf("r%d", i), Seq: s[i*len(s)/n : (i+1)*len(s)/n]}
		}
		unitLen := 1 + int(unit)%64
		if unit >= 192 {
			// Cut the first reference at its first N, or at the first
			// base after that N run.
			first := refs[0].Seq
			if i := bytes.IndexByte(first, 'N'); i >= 0 {
				j := i
				for j < len(first) && first[j] == 'N' {
					j++
				}
				if unit&1 == 1 {
					i = j
				}
				unitLen = max(i, 1)
			}
		}
		opt := Options{K: int(kb)%seq.MaxK + 1, W: int(wb)%64 + 1, MaxOccurrence: int(maxOcc) % 8}
		checkBuild(t, refs, opt, 1+int(workers)%4, unitLen)
	})
}
