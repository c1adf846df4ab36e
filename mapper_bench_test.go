package logan

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"logan/internal/genome"
)

// BenchmarkMap is the mapping throughput acceptance benchmark: simulated
// long reads placed against a synthetic reference through the full
// minimize -> chain -> extend pipeline. The custom metrics are its
// headline numbers: reads/sec for throughput, seed-ms/read and
// extend-ms/read for the split between the two stages (MapStats.Times;
// seeding is the wall time of its parallel stage), and anchors/read for
// seeding density (a collapse in anchors/read means the index or the
// minimizer extraction regressed, even if throughput looks fine).
//
// "1Mbp-5pct" is low-error reads, where chaining dominates seeding;
// "map-reads" has the shape of one request of benchmark/'s map-reads
// workload (2 Mbp reference with 2 % repeats, 256 reads of 1.5–4.5 kb at
// 15 % error), where minimizer extraction does.
func BenchmarkMap(b *testing.B) {
	for _, bc := range []struct {
		name    string
		refLen  int
		repeats float64
		sim     genome.SimOptions
	}{
		{"1Mbp-5pct", 1_000_000, 0.01, genome.SimOptions{Coverage: 0.5, MinLen: 1000, MaxLen: 5000, ErrorRate: 0.05}},
		{"map-reads", 2_000_000, 0.02, genome.SimOptions{Coverage: 256 * 3000 / 2e6, MinLen: 1500, MaxLen: 4500, ErrorRate: 0.15}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(17))
			g := genome.Synthetic(rng, "bench", genome.SyntheticOptions{Length: bc.refLen, RepeatFrac: bc.repeats})
			benchMap(b, g, mapReadsOf(genome.Simulate(rng, g, bc.sim)))
		})
	}
}

func benchMap(b *testing.B, g genome.Genome, reads []Read) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	m, err := NewMapper(eng, MapperOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Build(context.Background(), strings.NewReader(genomeFasta(g)), IndexOptions{}); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultMapConfig(100)
	var st MapStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Map(context.Background(), reads, cfg)
		if err != nil {
			b.Fatal(err)
		}
		st.Anchors += res.Stats.Anchors
		st.Reads += res.Stats.Reads
		st.Times.Seed += res.Stats.Times.Seed
		st.Times.Extend += res.Stats.Times.Extend
	}
	b.StopTimer()
	if st.Reads == 0 {
		b.Fatal("benchmark mapped no reads")
	}
	n := float64(st.Reads)
	b.ReportMetric(n/b.Elapsed().Seconds(), "reads/sec")
	b.ReportMetric(float64(st.Anchors)/n, "anchors/read")
	b.ReportMetric(st.Times.Seed.Seconds()*1e3/n, "seed-ms/read")
	b.ReportMetric(st.Times.Extend.Seconds()*1e3/n, "extend-ms/read")
}
