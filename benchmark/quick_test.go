package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickRuns drives every workload end to end at 1/20 of its work —
// real logan-serve and logan-worker processes, real HTTP — once untraced
// and once traced, and checks the run's shape: outputs verified, every
// catalog metric present and finite, every end-to-end metric non-zero, the
// span file written, no child left behind. The numbers themselves are not
// comparable at this size. Skipped with -short (it builds the servers).
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real server processes")
	}
	env, err := newRunEnv(11, defaultSeconds/20.0)
	if err != nil {
		t.Fatal(err)
	}
	env.log = io.Discard
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/end-to-end"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(env, w, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Attempted, res.Failed, res.Problems)
				}
				for _, d := range catalogFor(traced) {
					v, ok := res.Metrics[d.Name]
					if traced {
						ok = true // a layer the workload does not exercise reads 0
					}
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v (present %v)", d.Name, v, ok)
					}
					if !traced && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive on every workload", d.Name, v)
					}
				}
				for name := range res.Metrics {
					if !inCatalog(name) {
						t.Errorf("metric %s is reported but not in the catalog", name)
					}
				}
				if traced {
					// A layer metric that reads 0 where its layer runs is a
					// broken probe, apart from the counts that are 0 when
					// all is well and a stage shorter than the header's
					// microsecond resolution.
					zeroIsFine := map[string]bool{"cache.hit_frac": true, "coalescer.direct_frac": true, "cluster.requeues": true,
						"client.fail_rate": true, "aligner.partition_ms": true, "aligner.scatter_ms": true}
					for _, d := range perLayer {
						v := res.Metrics[d.Name]
						if d.reportedOn(w.Name) && v == 0 && !zeroIsFine[d.Name] {
							t.Errorf("%s reads 0 on %s, which exercises its layer", d.Name, w.Name)
						}
						if !d.reportedOn(w.Name) && v != 0 {
							t.Errorf("%s = %v on %s, which the catalog says does not report it", d.Name, v, w.Name)
						}
					}
					if _, err := os.Stat(filepath.Join(env.outDir, w.Name+".trace.json")); err != nil {
						t.Errorf("span file: %v", err)
					}
					if res.Metrics["client.samples"] != float64(res.Attempted) {
						t.Errorf("client.samples %v, attempted %d", res.Metrics["client.samples"], res.Attempted)
					}
				}
				live.Lock()
				n := len(live.set)
				live.Unlock()
				if n != 0 {
					t.Errorf("%d server sets still open after the run", n)
				}
			})
		}
	}
}

func inCatalog(name string) bool {
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if d.Name == name {
			return true
		}
	}
	return false
}
