package cuda

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestSpecV100Figures(t *testing.T) {
	s := TeslaV100()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.TheoreticalWarpGIPS(); math.Abs(got-489.6) > 0.1 {
		t.Errorf("theoretical GIPS = %.1f, want 489.6 (paper §VII)", got)
	}
	if got := s.INT32WarpGIPS(); math.Abs(got-220.8) > 0.1 {
		t.Errorf("INT32 GIPS = %.1f, want 220.8 (paper §VII)", got)
	}
	if got := s.INT32Lanes(); got != 5120 {
		t.Errorf("INT32 lanes = %d, want 5120", got)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := TeslaV100()
	bad.SMs = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero SMs")
	}
	bad = TeslaV100()
	bad.HBMBandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero bandwidth")
	}
	if _, err := NewDevice(bad); err == nil {
		t.Error("NewDevice accepted invalid spec")
	}
}

func TestOccupancyLimits(t *testing.T) {
	s := TeslaV100()
	// 64KB shared per block: only one block fits per SM (96KB capacity),
	// the situation the paper says forces anti-diagonals into HBM.
	occ := s.OccupancyFor(128, 64<<10)
	if occ.BlocksPerSM != 1 || occ.LimitedBy != "shared" {
		t.Errorf("64KB shared: %+v, want 1 block limited by shared", occ)
	}
	// No shared memory, small blocks: the 32-block cap binds.
	occ = s.OccupancyFor(32, 0)
	if occ.BlocksPerSM != 32 || occ.LimitedBy != "blocks" {
		t.Errorf("small blocks: %+v, want 32 blocks", occ)
	}
	// 1024-thread blocks: thread capacity binds at 2 blocks.
	occ = s.OccupancyFor(1024, 0)
	if occ.BlocksPerSM != 2 || occ.LimitedBy != "threads" {
		t.Errorf("1024 threads: %+v, want 2 blocks limited by threads", occ)
	}
	if occ.ActiveThreads != 2048 {
		t.Errorf("active threads = %d, want 2048", occ.ActiveThreads)
	}
}

func TestAllocAccounting(t *testing.T) {
	d := MustV100()
	b1, err := d.Alloc(4000)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allocated() != 4000 {
		t.Fatalf("allocated = %d, want 4000", d.Allocated())
	}
	b2, err := d.Alloc(80)
	if err != nil {
		t.Fatal(err)
	}
	if d.Allocated() != 4080 {
		t.Fatalf("allocated = %d, want 4080", d.Allocated())
	}
	b1.Free()
	b1.Free() // double free must be a no-op
	if d.Allocated() != 80 {
		t.Fatalf("after free allocated = %d, want 80", d.Allocated())
	}
	b2.Free()
	if d.Allocated() != 0 {
		t.Fatalf("after freeing everything allocated = %d, want 0", d.Allocated())
	}
}

func TestAllocOOM(t *testing.T) {
	d := MustV100()
	d.Spec.HBMBytes = 1 << 10
	if _, err := d.Alloc(4096); err == nil {
		t.Fatal("allocation beyond capacity succeeded")
	} else if _, ok := err.(ErrOutOfMemory); !ok {
		t.Fatalf("error type %T, want ErrOutOfMemory", err)
	}
}

func TestLaunchValidation(t *testing.T) {
	d := MustV100()
	noop := func(b *BlockCtx) {}
	if _, err := d.Launch(LaunchConfig{Grid: 0, Block: 32}, noop); err == nil {
		t.Error("accepted zero grid")
	}
	if _, err := d.Launch(LaunchConfig{Grid: 1, Block: 2048}, noop); err == nil {
		t.Error("accepted oversized block")
	}
	if _, err := d.Launch(LaunchConfig{Grid: 1, Block: 32, Shared: 1 << 20}, noop); err == nil {
		t.Error("accepted oversized shared memory")
	}
}

func TestLaunchCountsDeterministic(t *testing.T) {
	kernel := func(b *BlockCtx) {
		// Simulate a little anti-diagonal loop: width grows 1..50.
		for w := 1; w <= 50; w++ {
			b.Step(w, 10)
			b.GlobalRead(TrafficReuse, int64(8*w), true)
			b.GlobalWrite(TrafficReuse, int64(4*w), true)
		}
		b.GlobalRead(TrafficStream, 1000, true)
		b.DeclareReuseFootprint(600)
	}
	run := func(workers int) KernelStats {
		d := MustV100()
		d.Workers = workers
		s, err := d.Launch(LaunchConfig{Name: "k", Grid: 37, Block: 64}, kernel)
		if err != nil {
			t.Fatal(err)
		}
		s.PerBlock = nil
		return s
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stats differ across pool widths:\n1: %+v\n8: %+v", a, b)
	}
	// Hand-checked warp instruction count for one block:
	// sum over w of ceil(w/32)*10 = 10*(32*1 + 18*2) = 680.
	if a.WarpInstrs != 37*680 {
		t.Errorf("warp instrs = %d, want %d", a.WarpInstrs, 37*680)
	}
	// Lane ops: 10 * sum(1..50) = 12750 per block.
	if a.LaneOps != 37*12750 {
		t.Errorf("lane ops = %d, want %d", a.LaneOps, 37*12750)
	}
	if a.Iterations != 37*50 {
		t.Errorf("iterations = %d, want %d", a.Iterations, 37*50)
	}
}

func TestStepWarpFill(t *testing.T) {
	d := MustV100()
	stats, err := d.Launch(LaunchConfig{Grid: 1, Block: 64}, func(b *BlockCtx) {
		b.Step(16, 4) // half a warp active: fill 0.5
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Iter.SumNopFill / stats.Iter.SumNop; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("warp fill = %v, want 0.5", got)
	}
	if stats.WarpInstrs != 4 {
		t.Errorf("warp instrs = %d, want 4", stats.WarpInstrs)
	}
	if got := stats.Iter.MeanActiveLanes(); math.Abs(got-16) > 1e-9 {
		t.Errorf("mean active lanes = %v, want 16", got)
	}
}

func TestReduceMax32(t *testing.T) {
	d := MustV100()
	stats, err := d.Launch(LaunchConfig{Grid: 1, Block: 128}, func(b *BlockCtx) {
		b.ReduceMax32(5)
	})
	if err != nil {
		t.Fatal(err)
	}
	// One warp: log2(32) = 5 shuffle steps and no cross-warp step.
	if stats.Reductions != 1 || stats.WarpInstrs != 5 || stats.LaneOps != 5*16 {
		t.Fatalf("5-value reduction accounted %+v", stats)
	}
	empty, err := d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(b *BlockCtx) { b.ReduceMax32(0) })
	if err != nil {
		t.Fatal(err)
	}
	if empty.Reductions != 0 || empty.WarpInstrs != 0 {
		t.Fatalf("empty reduction accounted %+v", empty)
	}
}

// TestReduceMaxProperty: a reduction costs one shuffle tree per started
// warp plus the cross-warp tree, so its cost never shrinks as the
// anti-diagonal widens.
func TestReduceMaxProperty(t *testing.T) {
	d := MustV100()
	cost := func(n int) int64 {
		s, err := d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(b *BlockCtx) { b.ReduceMax32(n) })
		if err != nil {
			t.Fatal(err)
		}
		return s.WarpInstrs
	}
	f := func(raw uint16) bool {
		n := int(raw) + 1
		warps := int64((n + 31) / 32)
		c := cost(n)
		return c >= 5*warps && c <= 5*warps+int64(bitsLen(int(warps))) && cost(n+1) >= c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUncoalescedPenalty(t *testing.T) {
	d := MustV100()
	stats, err := d.Launch(LaunchConfig{Grid: 1, Block: 32}, func(b *BlockCtx) {
		b.GlobalRead(TrafficStream, 100, false)
		b.GlobalWrite(TrafficStream, 10, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StreamReadBytes != 100*UncoalescedFactor {
		t.Errorf("uncoalesced read bytes = %d, want %d", stats.StreamReadBytes, 100*UncoalescedFactor)
	}
	if stats.StreamWriteBytes != 10 {
		t.Errorf("coalesced write bytes = %d, want 10", stats.StreamWriteBytes)
	}
}

func TestCacheModelResidency(t *testing.T) {
	// Small footprint: everything hits L2, DRAM sees only streaming bytes.
	d := MustV100()
	small, err := d.Launch(LaunchConfig{Grid: 80, Block: 64}, func(b *BlockCtx) {
		b.GlobalRead(TrafficReuse, 1<<20, true)
		b.GlobalRead(TrafficStream, 1<<10, true)
		b.DeclareReuseFootprint(256) // 80 blocks * 256B = 20KB << 6MB L2
	})
	if err != nil {
		t.Fatal(err)
	}
	if small.L2HitFraction != 1 {
		t.Errorf("small working set hit fraction = %v, want 1", small.L2HitFraction)
	}
	if small.DRAMReadBytes != 80<<10 {
		t.Errorf("DRAM reads = %d, want streaming only %d", small.DRAMReadBytes, 80<<10)
	}

	// Huge footprint: hit fraction collapses toward L2/workingSet.
	big, err := d.Launch(LaunchConfig{Grid: 2560, Block: 64}, func(b *BlockCtx) {
		b.GlobalRead(TrafficReuse, 1<<20, true)
		b.DeclareReuseFootprint(1 << 20) // 2560 resident x 1MB >> 6MB
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.L2HitFraction > 0.01 {
		t.Errorf("big working set hit fraction = %v, want <= 0.01", big.L2HitFraction)
	}
	// Misses are discounted by the streaming factor.
	raw := float64(int64(1<<20) * 2560)
	wantMin := int64(raw * 0.98 * L2StreamingFactor)
	if big.DRAMReadBytes <= wantMin {
		t.Errorf("big working set DRAM reads = %d, want > %d", big.DRAMReadBytes, wantMin)
	}
}

type fixedTimer struct{ kernel, copyT time.Duration }

func (f fixedTimer) KernelTime(DeviceSpec, KernelStats) time.Duration { return f.kernel }
func (f fixedTimer) CopyTime(DeviceSpec, int64) time.Duration         { return f.copyT }

func TestStreamTimeline(t *testing.T) {
	d := MustV100()
	d.Timer = fixedTimer{kernel: 10 * time.Millisecond, copyT: 2 * time.Millisecond}
	s1 := d.NewStream()
	s2 := d.NewStream()

	s1.Memcpy(32)
	noop := func(b *BlockCtx) { b.Step(32, 1) }
	if _, err := s1.LaunchAsync(LaunchConfig{Grid: 1, Block: 32}, noop); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LaunchAsync(LaunchConfig{Grid: 1, Block: 32}, noop); err != nil {
		t.Fatal(err)
	}
	// s1: copy (2ms) then kernel (10ms) => 12ms.
	if got := SyncAll(s1); got != 12*time.Millisecond {
		t.Errorf("s1 elapsed = %v, want 12ms", got)
	}
	// s2's kernel serializes behind s1's on the compute engine: 12+10.
	if got := SyncAll(s2); got != 22*time.Millisecond {
		t.Errorf("s2 elapsed = %v, want 22ms (compute engine serialization)", got)
	}
	if got := SyncAll(s1, s2); got != 22*time.Millisecond {
		t.Errorf("SyncAll = %v, want 22ms", got)
	}
	s2.Memcpy(32)
	if got := SyncAll(s2); got != 24*time.Millisecond {
		t.Errorf("s2 after its copy = %v, want 24ms", got)
	}
	// A reset timeline starts the next batch at zero.
	d.ResetTimeline()
	s3 := d.NewStream()
	s3.Memcpy(32)
	if got := SyncAll(s3); got != 2*time.Millisecond {
		t.Errorf("copy after reset ends at %v, want 2ms", got)
	}
}

// TestDeviceIsCollectable: a device's engine timelines live on the device,
// so a device that ran kernels and copies is garbage once its last user
// drops it (no package-level table pins it).
func TestDeviceIsCollectable(t *testing.T) {
	freed := make(chan struct{})
	func() {
		d := MustV100()
		d.Timer = fixedTimer{kernel: time.Millisecond, copyT: time.Millisecond}
		s := d.NewStream()
		s.Memcpy(8)
		if _, err := s.LaunchAsync(LaunchConfig{Grid: 2, Block: 32}, func(b *BlockCtx) { b.Step(32, 1) }); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(d, func(*Device) { close(freed) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("a device that ran work is still reachable after its last use")
}

func TestOperationalIntensity(t *testing.T) {
	k := KernelStats{WarpInstrs: 1000, DRAMReadBytes: 1500, DRAMWriteBytes: 500}
	if got := k.OperationalIntensity(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("OI = %v, want 0.5", got)
	}
	var empty KernelStats
	if empty.OperationalIntensity() != 0 {
		t.Error("OI of empty stats should be 0")
	}
}
