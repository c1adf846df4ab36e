//go:build linux

package xdrop

import (
	"math/rand"
	"slices"
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

// guardedSeq copies s into guarded memory.
func guardedSeq(t *testing.T, s seq.Seq, tail bool) seq.Seq {
	g := seq.Seq(guarded(t, len(s), tail))
	copy(g, s)
	return g
}

// guardedWorkspace returns a workspace whose every buffer an m x n vector
// extension touches — the three diagonals, the reversed target and the
// reversal staging of a seed extension — is exactly as long as that
// extension needs and flush against a guard page.
func guardedWorkspace(t *testing.T, m, n int, tail bool) *Workspace {
	w := NewWorkspace()
	for i := range w.v {
		w.v[i] = guardedInt16(t, bandLen(m, n), tail)
	}
	w.rt = guarded(t, n, tail)
	w.revQ, w.revT = guarded(t, m, tail)[:0], guarded(t, n, tail)[:0]
	return w
}

// TestExtendVectorGuardPages proves the memory envelope of the vector
// kernel on every ISA instead of arguing it: whole extensions — plain,
// traced, and seeded at either end of the pair, so that one direction
// reads the caller's suffixes and the other the workspace's reversed
// prefixes — run with every operand and every workspace buffer flush
// against a PROT_NONE page, first at its end, then at its start, and
// still equal the scalar kernel. The X values put rows of every block
// shape on every ISA: scalar (< 8 cells), one or two 8-lane blocks,
// 16-lane blocks, and widths that are no lane multiple.
func TestExtendVectorGuardPages(t *testing.T) {
	const seedLen = 17
	rng := rand.New(rand.NewSource(15))
	sc := DefaultScoring()
	ref := NewWorkspace()
	var shapes [5]int // widths < 8, 8-15, 16-31, >= 32, not a multiple of 8
	for _, tail := range []bool{true, false} {
		for _, x := range []int32{3, 12, 25, 100} {
			q0 := seq.RandSeq(rng, 200+rng.Intn(200))
			t0 := seq.Mutate(rng, q0, seq.UniformProfile(0.15))
			q, tt := guardedSeq(t, q0, tail), guardedSeq(t, t0, tail)
			want := ExtendReference(q0, t0, sc, x)
			var wantTrace []int32
			wave(&ref.d, &ref.rt, q0, t0, x, linearRow(sc), &wantTrace)
			seeds := [2][2]int{{0, 0}, {len(q0) - seedLen, len(t0) - seedLen}}
			var wantSeed [2]SeedResult
			for i, p := range seeds {
				wantSeed[i], _ = ref.ExtendSeedKernel(q0, t0, p[0], p[1], seedLen, sc, x, KernelScalar)
			}
			w := guardedWorkspace(t, len(q0), len(t0), tail)
			ws := guardedWorkspace(t, len(q0)-seedLen, len(t0)-seedLen, tail)
			eachISA(func() {
				if got := w.ExtendVector(q, tt, sc, x); got != want {
					t.Fatalf("%s tail=%v x=%d: got %+v want %+v", VectorISA(), tail, x, got, want)
				}
				got, trace := w.ExtendTrace(q, tt, sc, x, nil)
				if got != want || !slices.Equal(trace, wantTrace) {
					t.Fatalf("%s tail=%v x=%d: traced %+v (trace %v), want %+v (trace %v)", VectorISA(), tail, x, got, trace, want, wantTrace)
				}
				for i, p := range seeds {
					got, err := ws.ExtendSeedKernel(q, tt, p[0], p[1], seedLen, sc, x, KernelVector)
					if err != nil || got != wantSeed[i] {
						t.Fatalf("%s tail=%v x=%d seed at %v: got %+v, %v want %+v", VectorISA(), tail, x, p, got, err, wantSeed[i])
					}
				}
			})
			for _, wd := range wantTrace {
				switch {
				case wd < 8:
					shapes[0]++
				case wd < 16:
					shapes[1]++
				case wd < 32:
					shapes[2]++
				default:
					shapes[3]++
				}
				if wd%8 != 0 {
					shapes[4]++
				}
			}
		}
	}
	for i, n := range shapes {
		if n == 0 {
			t.Errorf("no anti-diagonal of shape %d (widths < 8, 8-15, 16-31, >= 32, not a multiple of 8): pick other X values", i)
		}
	}
}
