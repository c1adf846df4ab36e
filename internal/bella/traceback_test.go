package bella

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"logan/internal/genome"
	"logan/internal/xdrop"
)

// parseCIGAR expands an extended CIGAR into its columns.
func parseCIGAR(t *testing.T, cigar string) []xdrop.Op {
	t.Helper()
	var ops []xdrop.Op
	n := 0
	for _, c := range []byte(cigar) {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
			continue
		}
		if n == 0 {
			t.Fatalf("CIGAR %q: op %c without a length", cigar, c)
		}
		for ; n > 0; n-- {
			ops = append(ops, xdrop.Op(c))
		}
	}
	if n != 0 {
		t.Fatalf("CIGAR %q ends in a length", cigar)
	}
	return ops
}

// checkCIGARs asserts, for every overlap, that its CIGAR rescored under
// sc against the reads equals its score and consumes exactly its query
// and target intervals, and that Matches and Identity are the CIGAR's.
func checkCIGARs(t *testing.T, reads []genome.Read, ovs []Overlap, sc xdrop.Scoring) {
	t.Helper()
	for k, ov := range ovs {
		target := reads[ov.J].Seq
		if ov.Opposite {
			target = target.RevComp()
		}
		ops := parseCIGAR(t, ov.CIGAR)
		score, err := xdrop.Rescore(ops, reads[ov.I].Seq[ov.QBegin:ov.QEnd], target[ov.TBegin:ov.TEnd], sc)
		if err != nil || score != ov.Score {
			t.Fatalf("overlap %d (%d,%d): CIGAR rescores to %d, %v; AS %d over [%d,%d)x[%d,%d)",
				k, ov.I, ov.J, score, err, ov.Score, ov.QBegin, ov.QEnd, ov.TBegin, ov.TEnd)
		}
		matches := 0
		for _, op := range ops {
			if op == xdrop.OpMatch {
				matches++
			}
		}
		if ov.Matches != matches || ov.Identity != float64(matches)/float64(len(ops)) {
			t.Fatalf("overlap %d: Matches %d, Identity %v; the CIGAR has %d of %d columns matching",
				k, ov.Matches, ov.Identity, matches, len(ops))
		}
	}
}

// overlapJobReadSet has the benchmark's overlap-job read shape — a genome
// with 5 % repeats at 8x coverage, 1.5-4.5 kb reads at 15 % error — on a
// 30 kb genome (the benchmark's is 80 kb).
func overlapJobReadSet(seed int64) genome.ReadSet {
	rng := rand.New(rand.NewSource(seed))
	g := genome.Synthetic(rng, "job", genome.SyntheticOptions{Length: 30_000, RepeatFrac: 0.05})
	return genome.Simulate(rng, g, genome.SimOptions{
		Coverage: 8, MinLen: 1500, MaxLen: 4500, ErrorRate: 0.15,
	})
}

// TestPipelineTraceback verifies traceback end to end: the traced run
// accepts exactly the plain run's overlaps with the same scores and
// intervals, every CIGAR agrees with its score over exactly its
// intervals, and the CIGARs do not depend on the worker count. The
// second read set has the benchmark's overlap-job shape, where a CIGAR
// computed by a separate banded global alignment disagreed with the
// score on 7 of its 508 records.
func TestPipelineTraceback(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rs      genome.ReadSet
		cfg     Config
		workers []int // traced runs, which must agree
	}{
		{"10pct-x50", smallReadSet(t, 11, 50000, 5, 0.10), DefaultConfig(5, 0.10, 50), []int{0}},
		{"overlap-job-x25", overlapJobReadSet(2), DefaultConfig(8, 0.15, 25), []int{1, 4}},
	} {
		cfg := tc.cfg
		cfg.MinOverlap = 600
		plain, err := Run(context.Background(), tc.rs, cfg, cpuExtend(t))
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.Overlaps) == 0 {
			t.Fatalf("%s: no overlaps to trace", tc.name)
		}
		cfg.Traceback = true
		var traced []Overlap
		for _, workers := range tc.workers {
			cfg.Workers = workers
			res, err := Run(context.Background(), tc.rs, cfg, cpuExtend(t))
			if err != nil {
				t.Fatal(err)
			}
			if traced != nil && !reflect.DeepEqual(res.Overlaps, traced) {
				t.Fatalf("%s: traceback differs between %d and %d workers", tc.name, tc.workers[0], workers)
			}
			traced = res.Overlaps
		}
		if len(traced) != len(plain.Overlaps) {
			t.Fatalf("%s: traceback changed overlap count: %d vs %d", tc.name, len(traced), len(plain.Overlaps))
		}
		for i, ov := range traced {
			if ov.CIGAR == "" {
				t.Fatalf("%s: overlap %d missing CIGAR", tc.name, i)
			}
			ov.CIGAR, ov.Identity, ov.Matches = "", 0, 0
			if ov != plain.Overlaps[i] {
				t.Fatalf("%s: overlap %d differs from the plain run:\n%+v\n%+v", tc.name, i, ov, plain.Overlaps[i])
			}
		}
		checkCIGARs(t, tc.rs.Reads, traced, cfg.Scoring)
	}
}

// TestTracebackCancelled: a context cancelled once the alignment stage
// is done ends the run in traceback with the context's error.
func TestTracebackCancelled(t *testing.T) {
	rs := smallReadSet(t, 11, 20000, 5, 0.10)
	cfg := DefaultConfig(5, 0.10, 50)
	cfg.Traceback = true
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnProgress = func(p Progress) {
		if p.Stage == StageAlign && p.ExtensionsDone == p.ExtensionsTotal {
			cancel()
		}
	}
	if _, err := Run(ctx, rs, cfg, cpuExtend(t)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
}
