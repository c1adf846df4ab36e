package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"logan"
	"logan/internal/seq"
)

// BenchmarkServeCoalesced measures aggregate serve-path throughput under
// the workload the coalescer exists for: 64 concurrent clients, each keeping one small
// 16-pair request in flight at all times (closed-loop per client, open
// queue overall). Requests are driven straight through the handler
// (ServeHTTP, no sockets) so the comparison isolates the serve path —
// request scan, batching policy, engine, JSON encode — from network
// jitter. The backend is the hybrid CPU+2×GPU scheduler, where every
// per-request 16-pair batch would pay its own partition/staging round;
// the flusher merges whatever accumulates while the previous engine batch
// runs, so the engine sees hundreds-of-pairs batches instead of 64
// independent 16-pair ones. pairs/s is the metric that matters.
func BenchmarkServeCoalesced(b *testing.B) {
	eng, err := logan.NewAligner(logan.EngineOptions{Backend: logan.Hybrid, GPUs: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	cfg := defaultServeConfig()
	cfg.defCfg = logan.DefaultConfig(50)
	cfg.coalescePairs = 512
	s, err := newServer(eng, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	const clients, pairsPer = 64, 16
	rng := rand.New(rand.NewSource(11))
	raw := seq.RandPairSet(rng, seq.PairSetOptions{
		N: pairsPer, MinLen: 40, MaxLen: 80, ErrorRate: 0.15, SeedLen: 17,
	})
	js := make([]string, len(raw))
	for i, p := range raw {
		js[i] = fmt.Sprintf(`{"query":%q,"target":%q,"seedQ":%d,"seedT":%d,"seedLen":%d}`,
			p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen)
	}
	body := `{"pairs":[` + strings.Join(js, ",") + `]}`

	// Warm the engine before timing: the hybrid scheduler's throughput
	// estimates converge over the first batches, and the staging pools
	// grow to steady-state size.
	warm := make([]logan.Pair, 0, 512)
	for len(warm) < 512 {
		for _, p := range raw {
			warm = append(warm, logan.Pair{Query: []byte(p.Query), Target: []byte(p.Target),
				SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen})
		}
	}
	warm = warm[:512]
	for i := 0; i < 8; i++ {
		if _, _, err := eng.Align(context.Background(), warm, logan.DefaultConfig(50)); err != nil {
			b.Fatal(err)
		}
	}

	// RunParallel(p) spins p*GOMAXPROCS goroutines: pin the in-flight
	// request count to `clients` regardless of the host's core count.
	b.SetParallelism((clients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("POST", "/align", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Errorf("status %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N*pairsPer)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkAlignDecode times one align-bulk-shaped /align body (128 pairs
// of 2.5–7.5 kb) through the request scanner and through the encoding/json
// decode it replaced (the test oracle), from body bytes to engine-ready
// pairs and configuration. MB/s and allocs/op of the two sub-benchmarks
// are the decode ratio.
func BenchmarkAlignDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	raw := seq.RandPairSet(rng, seq.PairSetOptions{
		N: 128, MinLen: 2500, MaxLen: 7500, ErrorRate: 0.15, SeedLen: 17,
	})
	js := make([]string, len(raw))
	for i, p := range raw {
		js[i] = fmt.Sprintf(`{"query":%q,"target":%q,"seedQ":%d,"seedT":%d,"seedLen":%d}`,
			p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen)
	}
	body := []byte(`{"pairs":[` + strings.Join(js, ",") + `],"x":100}`)
	s := &server{cfg: defaultServeConfig()}
	for _, c := range []struct {
		name   string
		decode func(*server, []byte) decoded
	}{{"scanner", scannerDecode}, {"encoding-json", oracleDecode}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if d := c.decode(s, body); d.status != http.StatusOK || len(d.pairs) != len(raw) {
					b.Fatalf("status %d, %d pairs", d.status, len(d.pairs))
				}
			}
		})
	}
}
