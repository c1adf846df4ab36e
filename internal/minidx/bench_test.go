package minidx

import (
	"math/rand"
	"testing"
)

// BenchmarkExtract times minimizer extraction at the index defaults
// (k=15, w=10) over one 3 kb read, the middle of the 1.5–4.5 kb reads
// the mapping workload sends, and reports ns/base.
func BenchmarkExtract(b *testing.B) {
	s := randomSeq(rand.New(rand.NewSource(1)), 3000, 0)
	var dst []Minimizer
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Extract(dst[:0], s, 15, 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(s)), "ns/base")
}
