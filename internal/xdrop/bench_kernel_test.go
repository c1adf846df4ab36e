package xdrop

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"logan/internal/ksw2"
	"logan/internal/seq"
)

// kernelRegimes are the band-width regimes of the kernel comparison: X
// controls how wide the surviving band grows on a 15%-divergent pair, so
// the sweep moves the kernels from latency-bound narrow bands (where the
// 8-lane blocks barely fill) to throughput-bound wide ones.
var kernelRegimes = []struct {
	name string
	x    int32
}{
	{"narrow_x25", 25},
	{"small_x50", 50},
	{"medium_x100", 100},
	{"wide_x400", 400},
	{"xwide_x1600", 1600},
}

// BenchmarkKernel compares the interior kernels — the four kernels of the
// X-drop wavefront (scalar int32, int16 vector on every variant this host
// runs, named vector-<isa>, Gotoh affine, substitution matrix; the matrix
// row runs the DNA scoring as a table, so it explores the same cells as
// scalar) and the
// ksw2-striped affine kernel (the minimap2 corner of the design space) —
// on one 2000-base extension per band regime. The cells/ns metric is the
// comparable number; ns/op is not, because the kernels explore different
// cell counts (ksw2 under Z-drop especially). ns/antidiag is what one
// anti-diagonal of the wavefront costs, fixed work included: the number
// the narrow regimes are bound by. On an AVX-512 host, paired-avx512 runs
// the extension and the same pair reversed (an independent extension of
// the same shape) together through the paired routine; its ns/antidiag
// is per anti-diagonal of either, and paired the share of them the
// paired routine computed.
func BenchmarkKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	q, t := benchPair(rng, 2000)
	sc := DefaultScoring()
	aff := AffineScoring{Match: 1, Mismatch: -1, GapOpen: -1, GapExtend: -1}
	mat := dnaMatrix(b, sc)
	w := NewWorkspace()
	wavefront := func(ext func(x int32) Result, x int32) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			w.modes = regModes{}
			var cells int64
			var diags, computed int
			for i := 0; i < b.N; i++ {
				r := ext(x)
				cells += r.Cells
				diags += r.AntiDiags
				computed += max(r.AntiDiags-1, 0) // d = 0 is never computed
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(float64(cells)/ns, "cells/ns")
			b.ReportMetric(ns/float64(diags), "ns/antidiag")
			if strings.HasPrefix(b.Name(), "BenchmarkKernel/vector-") {
				// The share of anti-diagonals the AVX-512 routine computed
				// in registers; 0 on every other routine.
				b.ReportMetric(float64(w.modes.rows)/float64(max(computed, 1)), "regs")
			}
		}
	}
	for _, reg := range kernelRegimes {
		b.Run(fmt.Sprintf("affine/%s", reg.name), wavefront(func(x int32) Result {
			return w.extend(q, t, false, AffineScheme(aff), x, KernelScalar, nil)
		}, reg.x))
		b.Run(fmt.Sprintf("matrix/%s", reg.name), wavefront(func(x int32) Result {
			return w.extend(q, t, false, MatrixScheme(mat), x, KernelScalar, nil)
		}, reg.x))
		b.Run(fmt.Sprintf("scalar/%s", reg.name), wavefront(func(x int32) Result {
			return w.extend(q, t, false, LinearScheme(sc), x, KernelScalar, nil)
		}, reg.x))
		eachISA(func() {
			b.Run(fmt.Sprintf("vector-%s/%s", VectorISA(), reg.name), wavefront(func(x int32) Result {
				return w.extend(q, t, false, LinearScheme(sc), x, KernelVector, nil)
			}, reg.x))
		})
		if pairDriver != nil && detectISA() == isaAVX512 {
			b.Run(fmt.Sprintf("paired-avx512/%s", reg.name), func(b *testing.B) {
				cs := [2]pairCase{{q, t, false, sc, reg.x}, {q, t, true, sc, reg.x}}
				b.ReportAllocs()
				w.modes = regModes{}
				var cells int64
				var diags, computed int
				for i := 0; i < b.N; i++ {
					for _, r := range pairDriver(w, &cs, nil) {
						cells += r.Cells
						diags += r.AntiDiags
						computed += max(r.AntiDiags-1, 0)
					}
				}
				ns := float64(b.Elapsed().Nanoseconds())
				b.ReportMetric(float64(cells)/ns, "cells/ns")
				b.ReportMetric(ns/float64(diags), "ns/antidiag")
				b.ReportMetric(float64(w.modes.rows)/float64(max(computed, 1)), "regs")
				b.ReportMetric(float64(w.modes.paired)/float64(max(computed, 1)), "paired")
			})
		}
		b.Run(fmt.Sprintf("ksw2/%s", reg.name), func(b *testing.B) {
			p := ksw2.MinimapParams(reg.x)
			b.ReportAllocs()
			var cells int64
			for i := 0; i < b.N; i++ {
				cells += ksw2.ExtendZ(q, t, p).Cells
			}
			b.ReportMetric(float64(cells)/float64(b.Elapsed().Nanoseconds()), "cells/ns")
		})
	}
}

// BenchmarkPoolKernel10k is the batch-level acceptance comparison: the
// 10k-pair BELLA-style workload on a reused pool, once per kernel forced
// via ExtendBatchKernel. The vector/scalar cells/ns ratio is the
// vector kernel's speedup.
func BenchmarkPoolKernel10k(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{
		N: 10000, MinLen: 200, MaxLen: 600, ErrorRate: 0.15, SeedLen: 17,
	})
	results := make([]SeedResult, len(pairs))
	sch := LinearScheme(DefaultScoring())
	p := NewPool(0)
	defer p.Close()
	for _, k := range []Kernel{KernelScalar, KernelVector} {
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			var cells int64
			for i := 0; i < b.N; i++ {
				st, err := p.ExtendBatchKernel(context.Background(), pairs, results, sch, 100, k)
				if err != nil {
					b.Fatal(err)
				}
				cells += st.Cells
			}
			b.ReportMetric(float64(cells)/float64(b.Elapsed().Nanoseconds()), "cells/ns")
		})
	}
}
