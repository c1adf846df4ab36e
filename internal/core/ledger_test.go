package core

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"logan/internal/cuda"
	"logan/internal/perfmodel"
	"logan/internal/seq"
)

// TestDeviceLedger pins what a batch charges to the simulated device: the
// host<->device bytes (every extension side's bases down, one result
// record per extension back), the chunks and launches, the modeled device
// time and the merged kernel statistics. The stats are pinned field by
// field for the counts and by a digest of the whole struct; one launch
// worker keeps their floating-point sums in a fixed order.
func TestDeviceLedger(t *testing.T) {
	cases := []struct {
		name  string
		pairs []seq.Pair
		x     int32
		hbm   int64 // device memory; 0 keeps the V100's
		want  ledger
	}{
		{"extreme-shapes/x7", extremeShapePairs(), 7, 0, ledger{
			transfer: 6785, chunks: 1, launches: 2, deviceTime: 432981,
			warpInstrs: 11043, laneOps: 140784, iterations: 818, dramRead: 1860, dramWrite: 768,
			stats: "3dcdb5664f2c1f79",
		}},
		{"extreme-shapes/x100", extremeShapePairs(), 100, 0, ledger{
			transfer: 6785, chunks: 1, launches: 2, deviceTime: 293311,
			warpInstrs: 25774, laneOps: 485314, iterations: 1204, dramRead: 1860, dramWrite: 768,
			stats: "6f15b2a0b80b0261",
		}},
		{"chunked", testPairs(t, 24, 200, 400, 4), 50, 48 << 10, ledger{
			transfer: 15753, chunks: 3, launches: 6, deviceTime: 2618924,
			warpInstrs: 652682, laneOps: 13222986, iterations: 26732, dramRead: 12681, dramWrite: 3072,
			stats: "8af5f9458513080c",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := cuda.TeslaV100()
			if tc.hbm > 0 {
				spec.HBMBytes = tc.hbm
			}
			dev, err := cuda.NewDevice(spec)
			if err != nil {
				t.Fatal(err)
			}
			dev.Workers = 1
			dev.Timer = perfmodel.NewV100Timer()
			res, err := AlignBatch(dev, tc.pairs, DefaultConfig(tc.x))
			if err != nil {
				t.Fatal(err)
			}
			var sideBases int64
			for _, p := range tc.pairs {
				sideBases += int64(len(p.Query) + len(p.Target) - 2*p.SeedLen)
			}
			if want := sideBases + 2*int64(len(tc.pairs))*resultRecordBytes; res.TransferBytes != want {
				t.Errorf("TransferBytes %d, want %d (side bases %d + 2x%d records)", res.TransferBytes, want, sideBases, len(tc.pairs))
			}
			got := ledger{
				transfer: res.TransferBytes, chunks: res.Chunks, launches: res.Launches, deviceTime: res.DeviceTime,
				warpInstrs: res.Stats.WarpInstrs, laneOps: res.Stats.LaneOps, iterations: res.Stats.Iterations,
				dramRead: res.Stats.DRAMReadBytes, dramWrite: res.Stats.DRAMWriteBytes,
				stats: fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res.Stats))))[:16],
			}
			if got != tc.want {
				t.Errorf("ledger\n got %#v\nwant %#v", got, tc.want)
			}
			if dev.Allocated() != 0 {
				t.Errorf("leaked %d bytes of device memory", dev.Allocated())
			}
		})
	}
}

// ledger is what TestDeviceLedger pins of one batch.
type ledger struct {
	transfer                        int64
	chunks, launches                int
	deviceTime                      time.Duration
	warpInstrs, laneOps, iterations int64
	dramRead, dramWrite             int64
	stats                           string // SHA-256 prefix of the %+v of the merged KernelStats
}
