// Package par is the parallel machinery the pipelines share: two
// fan-outs — Range, an index range split into contiguous chunks with one
// goroutine each, and Claim, indices claimed one at a time from a shared
// cursor — and on Range the one partitioned radix sort. The overlap front
// end (its one k-mer pass, binning), the mapper's seeding stage and the
// minimizer index build run on Range; the k-mer pass and the index build
// sort through RadixSort. Work items of uneven cost (the simulated
// device's thread blocks, the ksw2 baseline's pairs) run on Claim.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Range splits [0,n) into workers >= 1 contiguous chunks and runs
// fn(w, lo, hi) on chunk w concurrently, returning once all are done. The
// chunks depend on workers, so callers combine them in a way that does not.
func Range(n, workers int, fn func(w, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, w*n/workers, (w+1)*n/workers)
		}()
	}
	wg.Wait()
}

// Claim runs fn(w, i) for every i in [0,n) on workers >= 1 goroutines,
// each claiming the next unclaimed index from a shared atomic cursor, and
// returns once all are done. w in [0,workers) names the goroutine, for
// per-worker accumulators; which worker runs which index is not fixed, so
// callers combine per-worker results in a way that does not depend on it.
func Claim(n, workers int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// Workers resolves a Workers setting (<= 0 selects GOMAXPROCS).
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}
