package minidx

import (
	"math/rand"
	"testing"

	"logan/internal/genome"
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

// BenchmarkBuild times Build over the map-reads workload's reference
// shape (one 2 Mbp synthetic genome, 2 % repeats) at the index defaults
// and reports Mbases/s and allocs/op.
func BenchmarkBuild(b *testing.B) {
	g := genome.Synthetic(rand.New(rand.NewSource(7)), "ref0", genome.SyntheticOptions{Length: 2_000_000, RepeatFrac: 0.02})
	refs := []Ref{{Name: g.Name, Seq: g.Seq}}
	b.SetBytes(int64(len(g.Seq)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(refs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.Seq))*float64(b.N)/1e6/b.Elapsed().Seconds(), "Mbases/s")
}
