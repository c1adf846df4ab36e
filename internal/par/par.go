// Package par is the parallel machinery the pipelines share: the
// fan-out, an index range split into contiguous chunks with one goroutine
// each, and on it the one partitioned radix sort. The overlap front end
// (its one k-mer pass, binning), the mapper's seeding stage and the
// minimizer index build run on the fan-out; the k-mer pass and the index
// build sort through RadixSort.
package par

import (
	"runtime"
	"sync"
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

// Workers resolves a Workers setting (<= 0 selects GOMAXPROCS).
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}
