package bench

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"logan/internal/cuda"
)

func TestFitPowerAnchorsExact(t *testing.T) {
	f := FitPower(1e9, 2e10, 53.2, 1507.1)
	if got := f.Predict(1e9); math.Abs(got-53.2) > 1e-6 {
		t.Fatalf("lo anchor = %v", got)
	}
	if got := f.Predict(2e10); math.Abs(got-1507.1) > 1e-6 {
		t.Fatalf("hi anchor = %v", got)
	}
	// Monotone between anchors.
	prev := 0.0
	for c := 1e9; c <= 2e10; c *= 1.5 {
		v := f.Predict(c)
		if v < prev {
			t.Fatalf("power fit not monotone at %g", c)
		}
		prev = v
	}
	// Degenerate inputs fall back to a constant.
	d := FitPower(5, 5, 3, 2)
	if d.Predict(100) != 3 {
		t.Fatalf("degenerate fit = %v", d.Predict(100))
	}
}

func TestFitPowerProperty(t *testing.T) {
	f := func(c1Raw, c2Raw, t1Raw, t2Raw uint32) bool {
		// Anchor ratios at least 2x apart, as real tables have: extreme
		// exponents (near-equal cells, huge time gap) are numerically
		// meaningless fits.
		c1 := float64(c1Raw%1000) + 1
		c2 := c1 * (2 + float64(c2Raw%1000))
		t1 := float64(t1Raw%100) + 1
		t2 := t1 + float64(t2Raw%10000) + 1
		fit := FitPower(c1, c2, t1, t2)
		return math.Abs(fit.Predict(c1)-t1) < 1e-6*t1 &&
			math.Abs(fit.Predict(c2)-t2) < 1e-6*t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGPUPlatformLoganTimeMonotone(t *testing.T) {
	p := POWER9Node()
	s := cuda.KernelStats{
		Grid: 100000, Block: 128, WarpInstrs: 1e12,
		MaxBlockWarpInstrs: 1e7, MaxBlockIters: 1e4, Barriers: 1e9,
		Occupancy: cuda.TeslaV100().OccupancyFor(128, 0),
	}
	s.Iter.SumNop = 1e6
	s.Iter.SumNopAct = 1e8
	t1 := p.LoganTime(s, 1e9, 100000, 1, 1)
	t2 := p.LoganTime(s, 1e9, 100000, 2, 1)
	t6 := p.LoganTime(s, 1e9, 100000, 6, 1)
	if !(t1 > t2 && t2 > t6) {
		t.Fatalf("GPU scaling not monotone: %v, %v, %v", t1, t2, t6)
	}
	// Imbalance makes things slower.
	tImb := p.LoganTime(s, 1e9, 100000, 6, 1.5)
	if tImb <= t6 {
		t.Fatalf("imbalance 1.5 did not slow the batch: %v vs %v", tImb, t6)
	}
	// Sub-linear: 6 GPUs cannot be a full 6x faster end to end.
	if t1 >= 6*t6 {
		t.Fatalf("scaling super-linear: %v vs 6x %v", t1, t6)
	}
	_ = time.Second
}

func TestMeasureImbalanceProperties(t *testing.T) {
	scale := QuickScale()
	if imb := MeasureImbalance(scale, 1); imb != 1 {
		t.Fatalf("single GPU imbalance = %v", imb)
	}
	for _, g := range []int{2, 6, 8} {
		imb := MeasureImbalance(scale, g)
		if imb < 1 || imb > 1.05 {
			t.Fatalf("LPT imbalance at %d GPUs over 100K pairs = %v, want ~1", g, imb)
		}
	}
}
