package xdrop

import (
	"math/rand"
	"testing"

	"logan/internal/seq"
)

// benchPair builds one mutated pair of the given length with a centered
// seed, the shape of a BELLA overlap candidate.
func benchPair(rng *rand.Rand, n int) (q, t seq.Seq) {
	q = seq.RandSeq(rng, n)
	t = seq.Mutate(rng, q, seq.UniformProfile(0.15))
	return q, t
}

// BenchmarkExtend measures the serial X-drop kernel on one extension.
func BenchmarkExtend(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	q, t := benchPair(rng, 2000)
	sc := DefaultScoring()
	w := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		r := w.Extend(q, t, sc, 100)
		cells += r.Cells
	}
	b.ReportMetric(float64(cells)/float64(b.Elapsed().Nanoseconds()), "cells/ns")
}

// BenchmarkExtendSeedWorkspace measures the full seed-and-extend path on a
// reused workspace (the engine's per-pair hot path).
func BenchmarkExtendSeedWorkspace(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	q, t := benchPair(rng, 2000)
	sc := DefaultScoring()
	w := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.ExtendSeedKernel(q, t, 1000, 1000, 17, sc, 100, KernelScalar); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtendReference measures the pre-engine kernel on the same
// extension, quantifying the sentinel-padded rewrite.
func BenchmarkExtendReference(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	q, t := benchPair(rng, 2000)
	sc := DefaultScoring()
	b.ReportAllocs()
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		r := ExtendReference(q, t, sc, 100)
		cells += r.Cells
	}
	b.ReportMetric(float64(cells)/float64(b.Elapsed().Nanoseconds()), "cells/ns")
}
