package logan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"logan/internal/backend"
	"logan/internal/xdrop"
)

// ctxb is the background context used throughout the engine tests.
var ctxb = context.Background()

func TestAlignerBackendsAgree(t *testing.T) {
	pairs := makePairs(32)
	cfg := DefaultConfig(60)
	cpuEng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cpuEng.Close()
	gpuEng, err := NewAligner(EngineOptions{Backend: GPU, GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer gpuEng.Close()

	cpu, cpuStats, err := cpuEng.Align(ctxb, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gpu, gpuStats, err := gpuEng.Align(ctxb, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if cpu[i] != gpu[i] {
			t.Fatalf("pair %d: cpu %+v != gpu %+v", i, cpu[i], gpu[i])
		}
	}
	if cpuStats.Cells != gpuStats.Cells {
		t.Fatalf("cells: cpu %d, gpu %d", cpuStats.Cells, gpuStats.Cells)
	}
	if gpuStats.DeviceTime <= 0 || gpuStats.GCUPS <= 0 {
		t.Fatalf("gpu stats %+v", gpuStats)
	}
}

// TestAlignerMatchesLegacyAlign: the engine must agree, pair for pair,
// with the one-shot per-pair kernel call (xdrop.ExtendSeed) that the
// retired package-level Align/AlignPair wrappers were built on.
func TestAlignerMatchesLegacyAlign(t *testing.T) {
	pairs := makePairs(16)
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	got, _, err := eng.Align(ctxb, pairs, DefaultConfig(40))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		r, err := xdrop.ExtendSeed(p.Query, p.Target, p.SeedQ, p.SeedT, p.SeedLen, xdrop.DefaultScoring(), 40)
		if err != nil {
			t.Fatal(err)
		}
		if want := toAlignment(r); want != got[i] {
			t.Fatalf("pair %d: per-pair kernel %+v != engine %+v", i, want, got[i])
		}
	}
}

func TestAlignerRepeatedGPUStatsStable(t *testing.T) {
	// DeviceTime must come from the reusable pool's modeled batch time, so
	// identical batches report identical DeviceTime (and hence stable
	// GCUPS) no matter how often the engine is reused.
	pairs := makePairs(12)
	cfg := DefaultConfig(50)
	eng, err := NewAligner(EngineOptions{Backend: GPU})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, first, err := eng.Align(ctxb, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		_, st, err := eng.Align(ctxb, pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.DeviceTime != first.DeviceTime {
			t.Fatalf("rep %d: DeviceTime %v != first %v", rep, st.DeviceTime, first.DeviceTime)
		}
	}
}

// TestAlignerPerRequestX is the request-scoping acceptance check for X:
// one engine must serve different X values per call, each bit-identical
// to a dedicated engine built for that X.
func TestAlignerPerRequestX(t *testing.T) {
	pairs := makePairs(16)
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, x := range []int32{10, 60, 200} {
		got, _, err := eng.Align(ctxb, pairs, DefaultConfig(x))
		if err != nil {
			t.Fatal(err)
		}
		dedicated, err := NewAligner(EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := dedicated.Align(ctxb, pairs, DefaultConfig(x))
		dedicated.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("X=%d pair %d: shared-engine %+v != dedicated %+v", x, i, got[i], want[i])
			}
		}
	}
}

func TestAlignerEmptyBatch(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	out, st, err := eng.Align(ctxb, nil, DefaultConfig(10))
	if err != nil || len(out) != 0 || st.Pairs != 0 {
		t.Fatalf("empty batch: %v %v %v", out, st, err)
	}
}

func TestAlignerEmptySequenceRejected(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, _, err = eng.Align(ctxb, []Pair{{Query: nil, Target: []byte("ACGT"), SeedLen: 2}}, DefaultConfig(10))
	if err == nil {
		t.Fatal("accepted a seed outside an empty query")
	}
}

func TestAlignerSeedAtBoundary(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := DefaultConfig(30)
	s := []byte("ACGTACGTACGTACGTACGT")
	// Seed flush with the sequence start: no left extension.
	out, _, err := eng.Align(ctxb, []Pair{{Query: s, Target: s, SeedQ: 0, SeedT: 0, SeedLen: 4}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Score != int32(len(s)) || out[0].QBegin != 0 {
		t.Fatalf("start seed: %+v", out[0])
	}
	// Seed flush with the sequence end: no right extension.
	off := len(s) - 4
	out, _, err = eng.Align(ctxb, []Pair{{Query: s, Target: s, SeedQ: off, SeedT: off, SeedLen: 4}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Score != int32(len(s)) || out[0].QEnd != len(s) {
		t.Fatalf("end seed: %+v", out[0])
	}
}

// TestAlignerSeedRejectedAtIngest: a seed outside its sequences, and one
// whose end overflows int, fail Aligner.Align at ingest with the
// request-relative error on every engine, before any batch reaches the
// backend.
func TestAlignerSeedRejectedAtIngest(t *testing.T) {
	for _, bk := range []struct {
		name string
		opt  EngineOptions
	}{
		{"CPU", EngineOptions{}},
		{"GPU", EngineOptions{Backend: GPU}},
		{"Hybrid", EngineOptions{Backend: Hybrid}},
	} {
		t.Run(bk.name, func(t *testing.T) {
			eng, err := NewAligner(bk.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for _, bad := range []Pair{
				{Query: []byte("ACGT"), Target: []byte("ACGT"), SeedQ: 3, SeedLen: 4},
				{Query: []byte("ACGT"), Target: []byte("ACGT"), SeedQ: math.MaxInt - 1, SeedLen: 4},
			} {
				pairs := append(makePairsSeed(2, 8), bad)
				_, _, err := eng.Align(ctxb, pairs, cfgT)
				if err == nil || !strings.HasPrefix(err.Error(), "logan: pair 2: seed") {
					t.Fatalf("seed (%d,%d,len %d): err %v, want logan: pair 2: seed ...", bad.SeedQ, bad.SeedT, bad.SeedLen, err)
				}
			}
			if n := eng.mBatches.Value(); n != 0 {
				t.Fatalf("%v batches reached the backend", n)
			}
		})
	}
}

func TestAlignerAlignIntoReusesDst(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := DefaultConfig(20)
	pairs := makePairs(8)
	dst, _, err := eng.AlignInto(ctxb, nil, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dst2, _, err := eng.AlignInto(ctxb, dst, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if &dst[0] != &dst2[0] {
		t.Fatal("AlignInto reallocated despite sufficient capacity")
	}
}

func TestAlignerClosed(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close() // idempotent
	if _, _, err := eng.Align(ctxb, makePairs(1), DefaultConfig(10)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Align after Close: %v", err)
	}
}

func TestAlignerInvalidBase(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, _, err = eng.Align(ctxb, []Pair{{Query: []byte("ACGX"), Target: []byte("ACGT"), SeedLen: 2}}, DefaultConfig(10))
	if err == nil {
		t.Fatal("accepted invalid base")
	}
}

// TestAlignerRejectsInvalidConfig pins the zero-value footgun fix: an
// unset or explicitly nonsensical scheme must be rejected, never silently
// replaced with defaults.
func TestAlignerRejectsInvalidConfig(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pairs := makePairs(1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero config", Config{}},
		{"unset scoring", Config{X: 10}},
		{"explicit zero linear", Config{X: 10, Scoring: LinearScoring(0, 0, 0)}},
		{"positive gap", Config{X: 10, Scoring: LinearScoring(1, -1, 1)}},
		{"negative X", Config{X: -1, Scoring: LinearScoring(1, -1, -1)}},
		{"zero affine", Config{X: 10, Scoring: AffineScoring(0, 0, 0, 0)}},
		{"nil matrix", Config{X: 10, Scoring: MatrixScoring(nil)}},
	} {
		if _, _, err := eng.Align(ctxb, pairs, tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestAlignerConcurrentAlign(t *testing.T) {
	for _, backend := range []Backend{CPU, GPU, Hybrid} {
		eng, err := NewAligner(EngineOptions{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(30)
		pairs := makePairs(10)
		want, _, err := eng.Align(ctxb, pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _, err := eng.Align(ctxb, pairs, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("concurrent result diverged at %d", i)
						return
					}
				}
			}()
		}
		wg.Wait()
		eng.Close()
	}
}

// TestHybridBitIdenticalToCPUAndGPU: the Hybrid scheduler must produce
// bit-identical alignments (and cell counts) to both single-backend
// engines on the same batch.
func TestHybridBitIdenticalToCPUAndGPU(t *testing.T) {
	pairs := makePairs(64)
	cfg := DefaultConfig(60)
	newEng := func(b Backend, gpus int) *Aligner {
		t.Helper()
		eng, err := NewAligner(EngineOptions{Backend: b, GPUs: gpus, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	cpu, cpuStats, err := newEng(CPU, 0).Align(ctxb, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gpu, gpuStats, err := newEng(GPU, 2).Align(ctxb, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hyb, hybStats, err := newEng(Hybrid, 2).Align(ctxb, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if cpu[i] != gpu[i] || cpu[i] != hyb[i] {
			t.Fatalf("pair %d: cpu %+v gpu %+v hybrid %+v", i, cpu[i], gpu[i], hyb[i])
		}
	}
	if cpuStats.Cells != gpuStats.Cells || cpuStats.Cells != hybStats.Cells {
		t.Fatalf("cells diverge: cpu %d gpu %d hybrid %d",
			cpuStats.Cells, gpuStats.Cells, hybStats.Cells)
	}
}

// TestPerBackendStats: every engine must report the per-worker breakdown,
// and it must cover the batch exactly.
func TestPerBackendStats(t *testing.T) {
	for _, tc := range []struct {
		backend Backend
		gpus    int
	}{{CPU, 0}, {GPU, 1}, {GPU, 2}, {Hybrid, 2}} {
		eng, err := NewAligner(EngineOptions{Backend: tc.backend, GPUs: tc.gpus})
		if err != nil {
			t.Fatal(err)
		}
		pairs := makePairs(12)
		_, st, err := eng.Align(ctxb, pairs, DefaultConfig(40))
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.PerBackend) == 0 {
			t.Fatalf("backend %v: no PerBackend breakdown", tc.backend)
		}
		var pairsSum int
		var cellsSum int64
		for _, b := range st.PerBackend {
			if b.Name == "" {
				t.Fatalf("backend %v: unnamed shard %+v", tc.backend, b)
			}
			pairsSum += b.Pairs
			cellsSum += b.Cells
		}
		if pairsSum != st.Pairs || cellsSum != st.Cells {
			t.Fatalf("backend %v: shards cover %d pairs/%d cells, batch has %d/%d",
				tc.backend, pairsSum, cellsSum, st.Pairs, st.Cells)
		}
	}
}

// TestConcurrentAlignNotSerializedAcrossDevices is the scheduler
// acceptance check (run under -race in CI): two concurrent Align calls on
// a two-device engine must both be inside device workers at the same
// time — impossible if the engine or the executor held a lock across a
// batch. The engine's executor is rebuilt over two gated V100 workers:
// every shard announces itself and waits, so all four shard entries (two
// batches on two devices) must arrive before anything is released.
func TestConcurrentAlignNotSerializedAcrossDevices(t *testing.T) {
	eng, err := NewAligner(EngineOptions{Backend: GPU, GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var gated [2]*gatedBackend
	for d := range gated {
		dev, err := backend.NewV100(fmt.Sprintf("gpu%d", d))
		if err != nil {
			t.Fatal(err)
		}
		gated[d] = &gatedBackend{Backend: dev, entered: entered, release: release}
		gated[d].held.Store(true)
	}
	eng.be.Close()
	if eng.be, err = backend.NewHybridOver(gated[0], gated[1]); err != nil {
		t.Fatal(err)
	}

	const callers = 2
	pairs := makePairs(8)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := eng.Align(ctxb, pairs, DefaultConfig(30)); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < callers*len(gated); i++ {
		select {
		case <-entered:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of %d shards in flight together: batches serialized on an engine-wide lock", i, callers*len(gated))
		}
	}
	for i := 0; i < callers*len(gated); i++ {
		release <- struct{}{}
	}
	wg.Wait()
}

// TestHybridConcurrentAlign exercises the hybrid scheduler under
// concurrent traffic (and -race): results must stay bit-identical.
func TestHybridConcurrentAlign(t *testing.T) {
	eng, err := NewAligner(EngineOptions{Backend: Hybrid, GPUs: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := DefaultConfig(30)
	pairs := makePairs(16)
	want, _, err := eng.Align(ctxb, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := eng.Align(ctxb, pairs, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("hybrid concurrent result diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStatsGCUPSSemantics pins the per-backend denominator contract
// documented on Stats.GCUPS, including the zero-duration edge: GCUPS must
// be 0 (never NaN or Inf) when the selected denominator is zero.
func TestStatsGCUPSSemantics(t *testing.T) {
	st := Stats{Cells: 1e9, WallTime: time.Second, DeviceTime: 100 * time.Millisecond}
	if got := st.gcups(CPU); got != 1 {
		t.Fatalf("CPU gcups over wall: %v, want 1", got)
	}
	if got := st.gcups(GPU); got != 10 {
		t.Fatalf("GPU gcups over device: %v, want 10", got)
	}
	if got := st.gcups(Hybrid); got != 1 {
		t.Fatalf("Hybrid gcups over wall: %v, want 1", got)
	}
	// Zero-duration edges: no denominator, no GCUPS — and no NaN/Inf.
	zero := Stats{Cells: 1e9}
	for _, b := range []Backend{CPU, GPU, Hybrid} {
		got := zero.gcups(b)
		if got != 0 {
			t.Fatalf("backend %v: zero-duration gcups = %v, want 0", b, got)
		}
	}
	// A GPU batch that launched nothing has DeviceTime 0 even with
	// nonzero wall time: still 0 by the contract.
	gpuZero := Stats{Cells: 5, WallTime: time.Second}
	if got := gpuZero.gcups(GPU); got != 0 {
		t.Fatalf("GPU with zero device time: gcups %v, want 0", got)
	}
}
