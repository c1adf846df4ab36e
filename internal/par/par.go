// Package par is the fan-out the pipelines share: an index range split
// into contiguous chunks, one goroutine each. Both the overlap front end
// (k-mer counting, matrix build, binning) and the mapper's seeding stage
// run on it.
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
