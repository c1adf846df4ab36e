//go:build linux

package xdrop

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"

	"logan/internal/seq"
)

// guarded maps n bytes flush against an inaccessible page — ending right
// before one (tail) or starting right after one — so a one-byte stray
// access faults the test instead of reading a neighbour's memory.
func guarded(t *testing.T, n int, tail bool) []byte {
	pg := syscall.Getpagesize()
	body := (n + pg - 1) / pg * pg
	mem, err := syscall.Mmap(-1, 0, pg+body+pg, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test teardown: nothing to do about a failure
	for _, fence := range [][]byte{mem[:pg], mem[pg+body:]} {
		if err := syscall.Mprotect(fence, syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
	}
	if tail {
		return mem[pg+body-n : pg+body : pg+body]
	}
	return mem[pg : pg+n : pg+n]
}

func guardedInt16(t *testing.T, n int, tail bool) []int16 {
	return unsafe.Slice((*int16)(unsafe.Pointer(&guarded(t, 2*n, tail)[0])), n)
}

// TestVectorRowGuardPages proves the rows' memory envelope instead of
// arguing it: every operand of every variant, at every width from 1
// through 48, lies flush against a PROT_NONE page — first at its end, then
// at its start — and the results still equal the oracle's.
func TestVectorRowGuardPages(t *testing.T) {
	const maxKn = 48
	rng := rand.New(rand.NewSource(14))
	w := NewWorkspace()
	for _, tail := range []bool{true, false} {
		d3, d2m1 := guardedInt16(t, maxKn, tail), guardedInt16(t, maxKn+1, tail)
		out := guardedInt16(t, maxKn, tail)
		qs, ts := guarded(t, maxKn, tail), guarded(t, maxKn, tail)
		for kn := 1; kn <= maxKn; kn++ {
			lo := 0 // operands of width kn, cut against their guard page
			if tail {
				lo = maxKn - kn
			}
			for shape := 0; shape < 6; shape++ {
				rc := randRowCase(rng, kn, shape)
				wantOut, wantNB, wantPos := rc.want()
				g := rc
				g.d3, g.d2m1 = d3[lo:][:kn:kn], d2m1[lo:][:kn+1:kn+1]
				g.qs, g.ts = qs[lo:][:kn:kn], ts[lo:][:kn:kn]
				copy(g.d3, rc.d3)
				copy(g.d2m1, rc.d2m1)
				copy(g.qs, rc.qs)
				copy(g.ts, rc.ts)
				o := out[lo:][:kn:kn]
				eachISA(func() {
					nb, pos := w.vectorKernelFor(g.sc).row(g.d3, g.d2m1, o, g.qs, g.ts, g.thr, g.best)
					if nb != wantNB || pos != wantPos {
						t.Fatalf("%s kn=%d tail=%v: (best, pos) = (%d, %d), want (%d, %d)", VectorISA(), kn, tail, nb, pos, wantNB, wantPos)
					}
					for i := range o {
						if o[i] != wantOut[i] {
							t.Fatalf("%s kn=%d tail=%v: out[%d] = %d, want %d", VectorISA(), kn, tail, i, o[i], wantOut[i])
						}
					}
				})
			}
		}
	}
}

// TestExtendVectorGuardPages runs whole extensions whose q and t end at a
// guard page: the driver hands row the caller's unpadded q, so a row that
// read one base past its span would fault here.
func TestExtendVectorGuardPages(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	w := NewWorkspace()
	for trial := 0; trial < 12; trial++ {
		q0 := seq.RandSeq(rng, 50+rng.Intn(400))
		t0 := seq.Mutate(rng, q0, seq.UniformProfile(0.15))
		q := seq.Seq(guarded(t, len(q0), true))
		tt := seq.Seq(guarded(t, len(t0), true))
		copy(q, q0)
		copy(tt, t0)
		x := []int32{5, 25, 100, 1000}[trial%4]
		want := ExtendReference(q0, t0, DefaultScoring(), x)
		eachISA(func() {
			if got := w.ExtendVector(q, tt, DefaultScoring(), x); got != want {
				t.Fatalf("%s trial %d x=%d: got %+v want %+v", VectorISA(), trial, x, got, want)
			}
		})
	}
}
