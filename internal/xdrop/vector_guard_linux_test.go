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
// padded copy of the query, and the reversal staging of a seed extension —
// is exactly as long as that extension needs and flush against a guard
// page: the padded copies by exactly the fusedPad bytes of slack the fused
// routines claim on each side.
func guardedWorkspace(t *testing.T, m, n int, tail bool) *Workspace {
	w := NewWorkspace()
	for i := range w.fused {
		s := &w.fused[i]
		for k := range s.v {
			s.v[k] = guardedInt16(t, bandLen(m, n), tail)
		}
		s.rt = guarded(t, n+2*fusedPad, tail)
		s.qp = guarded(t, m+2*fusedPad, tail)
		s.revQ, s.revT = guarded(t, m, tail)[:0], guarded(t, n, tail)[:0]
	}
	w.revQ, w.revT = guarded(t, m, tail)[:0], guarded(t, n, tail)[:0]
	return w
}

// TestExtendVectorGuardPages proves the memory envelope of the vector
// kernel on every ISA instead of arguing it: whole extensions — plain,
// traced, and seeded at either end of the pair, so that one direction
// reads the caller's suffixes and the other the workspace's reversed
// prefixes — run with every operand and every workspace buffer flush
// against a PROT_NONE page, first at its end, then at its start, and
// still equal the scalar kernel. The caller's q and t are read only
// inside [0, m) and [0, n); the padded copies (rt, and the AVX-512
// routine's copy of q) are read only inside their fusedPad slack. The X values put rows of every block
// shape on every ISA: scalar (< 8 cells), one or two 8-lane blocks,
// 16-lane blocks, and widths that are no lane multiple; on an AVX-512
// host they also put anti-diagonals in registers and in memory, and move
// the carried rows between the two both ways (x = 100 outgrows 64 cells).
// Each X also runs pairs with one sequence 100 bases longer, so that the
// band reaches the end of the shorter one far from the matrix corner.
func TestExtendVectorGuardPages(t *testing.T) {
	const seedLen = 17
	eachISA(func() { t.Logf("fused routine %s", VectorISA()) })
	rng := rand.New(rand.NewSource(15))
	sc := DefaultScoring()
	ref := NewWorkspace()
	var shapes [5]int  // widths < 8, 8-15, 16-31, >= 32, not a multiple of 8
	var modes regModes // the AVX-512 routine's, over all its extensions
	memRows := 0       // its anti-diagonals after the origin, less modes.rows
	paired := 0        // the paired routine's anti-diagonals
	for _, tail := range []bool{true, false} {
		for pair := 0; pair < 12; pair++ {
			x := []int32{3, 12, 25, 100}[pair/3]
			q0 := seq.RandSeq(rng, 200+rng.Intn(200))
			t0 := seq.Mutate(rng, q0, seq.UniformProfile(0.15))
			switch pair % 3 {
			case 1:
				t0 = append(t0, seq.RandSeq(rng, 100)...)
			case 2:
				q0 = append(q0, seq.RandSeq(rng, 100)...)
			}
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
				w.modes, ws.modes = regModes{}, regModes{}
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
				if vectorISA == isaAVX512 {
					// Its four extensions ran want's anti-diagonals.
					memRows += 2 * (want.AntiDiags - 1)
					for _, r := range wantSeed {
						memRows += max(r.Left.AntiDiags-1, 0) + max(r.Right.AntiDiags-1, 0)
					}
					for _, m := range []regModes{w.modes, ws.modes} {
						modes.rows += m.rows
						modes.toRegs += m.toRegs
						modes.toMem += m.toMem
						modes.toWide += m.toWide
						memRows -= m.rows
					}
					// The paired routine, on the long side of each seed: the
					// left extension of the one at the end beside the right
					// one of the one at the start, in ws's two guarded slots,
					// traced.
					ws.modes = regModes{}
					cs := [2]pairCase{
						{q[:seeds[1][0]], tt[:seeds[1][1]], true, sc, x},
						{q[seedLen:], tt[seedLen:], false, sc, x},
					}
					var traces [2][]int32
					got := pairDriver(ws, &cs, &traces)
					if got[0] != wantSeed[1].Left || got[1] != wantSeed[0].Right {
						t.Fatalf("tail=%v x=%d paired: got %+v, %+v want %+v, %+v",
							tail, x, got[0], got[1], wantSeed[1].Left, wantSeed[0].Right)
					}
					for i := range cs {
						if len(traces[i]) != max(got[i].AntiDiags-1, 0) {
							t.Fatalf("tail=%v x=%d paired side %d: %d trace widths for %d anti-diagonals", tail, x, i, len(traces[i]), got[i].AntiDiags)
						}
					}
					paired += ws.modes.paired
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
	if detectISA() != isaAVX512 {
		t.Log("no AVX-512 on this host: the register mode was not exercised")
		return
	}
	if paired == 0 {
		t.Error("the paired routine computed no anti-diagonal")
	}
	if modes.rows == 0 || modes.toRegs == modes.toWide || modes.toWide == 0 || modes.toMem == 0 || memRows <= 0 {
		t.Errorf("AVX-512 routine: %d register rows, %d memory rows, %d moves into registers (%d into a 128-lane frame), %d back to memory; want all > 0, and moves into both frames: pick other X values",
			modes.rows, memRows, modes.toRegs, modes.toWide, modes.toMem)
	}
	t.Logf("AVX-512 routine: %d register rows, %d memory rows, %d moves into registers (%d into a 128-lane frame), %d back to memory; paired routine: %d rows", modes.rows, memRows, modes.toRegs, modes.toWide, modes.toMem, paired)
}
