package main

import (
	"math"
	"testing"
)

func seq1toN(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq1toN(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.999, 100}, {0.01, 1}, {0, 1}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it; a smaller sample must fall back rather than report its worst
// one or two requests as "p99".
func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{
		{100_000, 0.9999}, // exactly 10 beyond
		{99_999, 0.999},
		{10_000, 0.999},
		{4160, 0.99}, // align-small at 8 s: 41 beyond p99, 4 beyond p99.9
		{1000, 0.99},
		{999, 0.95},
		{84, 0.75}, // align-bulk at 8 s: 8 beyond p90, 21 beyond p75
		{40, 0.75},
		{39, 0.5},
		{7, 0.5},
	} {
		s := seq1toN(c.n)
		q, v := tailQuantile(s)
		if q != c.wantQ {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, q, c.wantQ)
			continue
		}
		if beyond := c.n - int(v); q != 0.5 && beyond < 10 {
			t.Errorf("n=%d: p%v = %v leaves only %d samples beyond it", c.n, 100*q, v, beyond)
		}
		if want := quantile(s, q); v != want {
			t.Errorf("n=%d: tail value %v, want quantile %v", c.n, v, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if median(nil) != 0 {
		t.Error("an empty sample must read 0")
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4),
// which the acceptance spread is defined on. Expected values are that
// function's output for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{seq1toN(10), 2.75, 5.5, 8.25},
		{seq1toN(5), 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1.5, 9, 2.5, 4, 7, 3}, 2.25, 3.5, 7.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// Chunks must partition the completions in order, with sizes that differ
// by at most one.
func TestChunkOfCutsEqualCounts(t *testing.T) {
	for _, c := range []struct{ n, nchunks int }{{22, 8}, {168, 8}, {6660, 8}, {8, 8}, {3, 3}, {1, 1}, {9, 8}} {
		sizes := make([]int, c.nchunks)
		prev := 0
		for o := 1; o <= c.n; o++ {
			k := chunkOf(o, c.n, c.nchunks)
			if k < prev || k > prev+1 || k >= c.nchunks {
				t.Fatalf("n=%d: completion %d in chunk %d after chunk %d", c.n, o, k, prev)
			}
			prev = k
			sizes[k]++
		}
		lo, hi := c.n, 0
		for _, sz := range sizes {
			lo, hi = min(lo, sz), max(hi, sz)
		}
		if lo == 0 || hi-lo > 1 {
			t.Errorf("n=%d into %d chunks: sizes %v", c.n, c.nchunks, sizes)
		}
	}
}
