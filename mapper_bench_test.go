package logan

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"logan/internal/genome"
)

// BenchmarkMap is the mapping throughput acceptance benchmark: a
// simulated long-read set placed against a 1 Mbp synthetic reference
// through the full minimize -> chain -> extend pipeline. The custom
// metrics are its headline numbers: reads/sec for
// throughput and anchors/read for seeding density (a collapse in
// anchors/read means the index or the minimizer extraction regressed,
// even if throughput looks fine).
func BenchmarkMap(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	g := genome.Synthetic(rng, "bench", genome.SyntheticOptions{Length: 1_000_000, RepeatFrac: 0.01})
	rs := genome.Simulate(rng, g, genome.SimOptions{
		Coverage: 0.5, MinLen: 1000, MaxLen: 5000, ErrorRate: 0.05,
	})
	reads := make([]Read, len(rs.Reads))
	for i, r := range rs.Reads {
		reads[i] = Read{Name: r.Name(), Seq: r.Seq}
	}
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	m, err := NewMapper(eng, MapperOptions{})
	if err != nil {
		b.Fatal(err)
	}
	refFasta := ">" + g.Name + "\n" + g.Seq.String() + "\n"
	if _, err := m.Build(context.Background(), strings.NewReader(refFasta), IndexOptions{}); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultMapConfig(100)
	var anchors, nreads int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Map(context.Background(), reads, cfg)
		if err != nil {
			b.Fatal(err)
		}
		anchors += int64(res.Stats.Anchors)
		nreads += int64(res.Stats.Reads)
	}
	b.StopTimer()
	if nreads == 0 {
		b.Fatal("benchmark mapped no reads")
	}
	b.ReportMetric(float64(nreads)/b.Elapsed().Seconds(), "reads/sec")
	b.ReportMetric(float64(anchors)/float64(nreads), "anchors/read")
}
