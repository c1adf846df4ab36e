package main

import (
	"math"
	"sort"
)

// sortedCopy returns vs ascending, leaving the caller's slice untouched.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of an ascending sample: the
// smallest value with at least q of the sample at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median of an unsorted sample (mean of the two middle values when the
// count is even); 0 for an empty one.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentiles are the tail candidates, highest first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75}

// tailQuantile picks the highest candidate percentile that still has at
// least ten samples beyond it (so the reported tail is a measured value,
// not the run's one or two worst requests) and returns it with its value.
// With fewer than 40 samples no candidate qualifies and q is 0.5.
func tailQuantile(sorted []float64) (q, value float64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= 10 {
			return p, quantile(sorted, p)
		}
	}
	return 0.5, quantile(sorted, 0.5)
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (exclusive
// method), which is what the acceptance spread is defined on.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
