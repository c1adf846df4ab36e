package minidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"logan/internal/seq"
)

// fuzzSeq maps arbitrary fuzz bytes onto the ACGTN alphabet so every
// input is a valid sequence and occasionally contains run-breaking Ns.
func fuzzSeq(data []byte) seq.Seq {
	s := make(seq.Seq, len(data))
	for i, b := range data {
		if b >= 250 {
			s[i] = 'N'
		} else {
			s[i] = seq.Alphabet[b&3]
		}
	}
	return s
}

// FuzzMinimizersDifferential cross-checks the running-minimum sweep
// against the quadratic reference on arbitrary inputs and
// parameters, then asserts the two extraction properties the mapper
// relies on: window invariance (no window of w eligible k-mers is left
// without a minimizer) and reverse-complement canonicality (the reverse
// complement selects the same hashes at mirrored positions).
func FuzzMinimizersDifferential(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGT"), uint8(5), uint8(4))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAA"), uint8(3), uint8(3))
	f.Add([]byte{0, 1, 2, 3, 250, 3, 2, 1, 0, 1, 2, 3, 0, 1, 2, 3}, uint8(4), uint8(2))
	f.Add([]byte("ATATATATATATATATAT"), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, kb, wb uint8) {
		k := int(kb)%seq.MaxK + 1 // 1..31
		w := int(wb)%64 + 1       // 1..64: both the fixed ring and the allocated one
		if len(data) > 2048 {
			data = data[:2048]
		}
		s := fuzzSeq(data)
		got := Extract(nil, s, k, w)
		want := ExtractNaive(s, k, w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d w=%d seq=%s:\nExtract      = %+v\nExtractNaive = %+v", k, w, s, got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Pos <= got[i-1].Pos {
				t.Fatalf("positions not strictly ascending: %+v", got)
			}
		}
		// Window invariance.
		sel := make(map[int32]bool, len(got))
		for _, m := range got {
			sel[m.Pos] = true
		}
		for _, run := range eligibleRuns(s, k) {
			for lo := 0; lo+w <= len(run); lo++ {
				ok := false
				for j := lo; j < lo+w; j++ {
					if sel[run[j]] {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("k=%d w=%d: window at eligible offset %d has no minimizer (seq=%s)", k, w, run[lo], s)
				}
			}
		}
		// Reverse-complement canonicality: same hash multiset at mirrored
		// positions.
		rc := Extract(nil, s.RevComp(), k, w)
		if len(rc) != len(got) {
			t.Fatalf("revcomp selected %d minimizers, forward %d", len(rc), len(got))
		}
		for i, m := range rc {
			fm := got[len(got)-1-i]
			if m.Hash != fm.Hash || m.Pos != int32(len(s)-k)-fm.Pos {
				t.Fatalf("revcomp minimizer %d = %+v, want mirror of %+v", i, m, fm)
			}
		}
	})
}

// withHeader frames payload as an index file whose header is valid for it:
// magic, version, length and the payload's CRC.
func withHeader(payload []byte) []byte {
	file := make([]byte, 20, 20+len(payload))
	copy(file, indexMagic)
	binary.LittleEndian.PutUint32(file[4:], formatVersion)
	binary.LittleEndian.PutUint64(file[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(file[16:], crc32.ChecksumIEEE(payload))
	return append(file, payload...)
}

// FuzzIndexLoad mutates the payload of valid index files and frames it
// with a recomputed CRC, so every input gets past the checksum: a CRC-valid
// file is not necessarily a structurally valid one. Load must return
// ErrCorrupt or an index whose Save∘Load∘Save is stable and whose Lookup
// stays in bounds and terminates, for the stored keys and absent ones. It must not
// panic, and it must not allocate in proportion to a length the file
// claims rather than holds. The seed corpus is testdata/fuzz/FuzzIndexLoad.
func FuzzIndexLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	refs := []Ref{{Name: "a", Seq: randomSeq(rng, 300, 0.01)}, {Name: "bb", Seq: randomSeq(rng, 50, 0)}}
	for _, opt := range []Options{{K: 5, W: 3}, {K: 11, W: 5, MaxOccurrence: 1}} {
		x, err := Build(refs, opt)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(saveBytes(f, x)[20:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		file := withHeader(payload)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		x, err := Load(bytes.NewReader(file))
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > 32*uint64(len(file))+1<<20 {
			t.Fatalf("Load of a %d-byte file allocated %d bytes", len(file), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load error %v is not ErrCorrupt", err)
			}
			return
		}
		saved := saveBytes(t, x)
		y, err := Load(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("reloading a loaded index: %v", err)
		}
		if again := saveBytes(t, y); !bytes.Equal(saved, again) {
			t.Fatalf("Save∘Load∘Save not stable: %d vs %d bytes", len(saved), len(again))
		}
		// A key stored off its probe chain is not found, but no lookup
		// may panic or probe forever.
		for _, s := range x.slots {
			x.Lookup(s.key)
		}
		for _, h := range []uint64{0, 1, 0xdeadbeefdeadbeef, ^uint64(0)} {
			x.Lookup(h)
		}
	})
}
