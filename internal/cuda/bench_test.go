package cuda

import "testing"

// BenchmarkLaunch measures the simulator's host-side launch cost: the
// fixed overhead every simulated kernel pays (worker pool dispatch and
// stats merging), which bounds how fine-grained experiment sweeps can be.
func BenchmarkLaunch(b *testing.B) {
	d := MustV100()
	kernel := func(ctx *BlockCtx) { ctx.Step(32, 8) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(LaunchConfig{Name: "noop", Grid: 256, Block: 32}, kernel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockAccounting measures the per-step accounting cost inside a
// kernel — the simulator tax on every anti-diagonal.
func BenchmarkBlockAccounting(b *testing.B) {
	d := MustV100()
	d.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := d.Launch(LaunchConfig{Grid: 1, Block: 128}, func(ctx *BlockCtx) {
			for k := 0; k < 1000; k++ {
				ctx.Step(100, 22)
				ctx.GlobalRead(TrafficReuse, 800, true)
				ctx.GlobalWrite(TrafficReuse, 400, true)
				ctx.Sync()
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceMax measures the warp-reduction accounting for a
// band-sized anti-diagonal.
func BenchmarkReduceMax(b *testing.B) {
	d := MustV100()
	d.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := d.Launch(LaunchConfig{Grid: 1, Block: 1024}, func(ctx *BlockCtx) {
			ctx.ReduceMax32(1024)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
