package main

import (
	"fmt"
	"strings"
	"time"
)

// The structs below mirror the JSON wire forms of cmd/logan-serve. That
// package is `package main` and cannot be imported, so the benchmark keeps
// its own copy of the fields it reads and writes; the replay half times
// encoding/json over these mirrors, not over the server's own types.

type alignRequest struct {
	Pairs []pairJSON `json:"pairs"`
	X     int32      `json:"x"`
}

type pairJSON struct {
	Query   string `json:"query"`
	Target  string `json:"target"`
	SeedQ   int    `json:"seedQ"`
	SeedT   int    `json:"seedT"`
	SeedLen int    `json:"seedLen"`
}

type alignResponse struct {
	Alignments []alignmentJSON `json:"alignments"`
	Stats      alignStatsJSON  `json:"stats"`
}

type alignmentJSON struct {
	Score  int32 `json:"score"`
	QBegin int   `json:"qBegin"`
	QEnd   int   `json:"qEnd"`
	TBegin int   `json:"tBegin"`
	TEnd   int   `json:"tEnd"`
	Cells  int64 `json:"cells"`
}

type alignStatsJSON struct {
	Pairs  int     `json:"pairs"`
	Cells  int64   `json:"cells"`
	WallNS int64   `json:"wallNs"`
	GCUPS  float64 `json:"gcups"`
}

// jobStatus is the subset of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Reads    int    `json:"reads"`
	Cells    int64  `json:"cells"`
	Requeues int    `json:"requeues"`
}

// statz is the subset of GET /statz the benchmark reads. Every field is a
// process-lifetime counter, so the work of a phase is after.sub(before).
type statz struct {
	Backends map[string]struct {
		Cells  int64 `json:"cells"`
		TimeNS int64 `json:"timeNs"`
	} `json:"backends"`
	Kernels map[string]struct {
		Cells int64 `json:"cells"`
	} `json:"kernels"`
	Coalescer struct {
		Enqueued        int64 `json:"enqueued"`
		Direct          int64 `json:"direct"`
		MergedBatches   int64 `json:"mergedBatches"`
		DeadlineFlushes int64 `json:"deadlineFlushes"`
		MergedRequests  int64 `json:"mergedRequests"`
	} `json:"coalescer"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

// statzDelta is the work a server did between two /statz reads, folded
// over backends and kernel variants.
type statzDelta struct {
	BackendCells, BackendBusyNS     int64
	VectorCells, KernelCells        int64
	Enqueued, Direct, MergedBatches int64
	DeadlineFlushes, MergedRequests int64
	CacheHits, CacheMisses          int64
}

// sub returns after − before. A counter that went backwards means the two
// reads came from different processes; it is reported, not clamped.
func (after statz) sub(before statz) (statzDelta, error) {
	var d statzDelta
	var bad []string
	diff := func(name string, a, b int64) int64 {
		if a < b {
			bad = append(bad, fmt.Sprintf("%s %d -> %d", name, b, a))
		}
		return a - b
	}
	for name, b := range after.Backends {
		d.BackendCells += diff("backends."+name+".cells", b.Cells, before.Backends[name].Cells)
		d.BackendBusyNS += diff("backends."+name+".timeNs", b.TimeNS, before.Backends[name].TimeNS)
	}
	for name, k := range after.Kernels {
		c := diff("kernels."+name+".cells", k.Cells, before.Kernels[name].Cells)
		d.KernelCells += c
		if name == "vector" {
			d.VectorCells += c
		}
	}
	ca, cb := after.Coalescer, before.Coalescer
	d.Enqueued = diff("coalescer.enqueued", ca.Enqueued, cb.Enqueued)
	d.Direct = diff("coalescer.direct", ca.Direct, cb.Direct)
	d.MergedBatches = diff("coalescer.mergedBatches", ca.MergedBatches, cb.MergedBatches)
	d.DeadlineFlushes = diff("coalescer.deadlineFlushes", ca.DeadlineFlushes, cb.DeadlineFlushes)
	d.MergedRequests = diff("coalescer.mergedRequests", ca.MergedRequests, cb.MergedRequests)
	d.CacheHits = diff("cache.hits", after.Cache.Hits, before.Cache.Hits)
	d.CacheMisses = diff("cache.misses", after.Cache.Misses, before.Cache.Misses)
	if len(bad) > 0 {
		return d, fmt.Errorf("statz counters went backwards: %s", strings.Join(bad, "; "))
	}
	return d, nil
}

// stageDurations is one request's X-Logan-Trace header, summed per stage
// (the admit stage appears twice: once from the HTTP layer, once from the
// engine's ingest).
type stageDurations struct {
	Admit, Wait, Partition, Kernel, Scatter time.Duration
}

func (s *stageDurations) add(o stageDurations) {
	s.Admit += o.Admit
	s.Wait += o.Wait
	s.Partition += o.Partition
	s.Kernel += o.Kernel
	s.Scatter += o.Scatter
}

func (s stageDurations) total() time.Duration {
	return s.Admit + s.Wait + s.Partition + s.Kernel + s.Scatter
}

// parseTraceHeader parses "stage=dur;stage=dur" as logan-serve's
// formatTrace writes it (durations in time.Duration syntax). An unknown
// stage or a malformed duration is an error: a silently dropped stage
// would shift its time into serve.wire_ms.
func parseTraceHeader(h string) (stageDurations, error) {
	var out stageDurations
	if h == "" {
		return out, fmt.Errorf("empty X-Logan-Trace header")
	}
	for _, part := range strings.Split(h, ";") {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return out, fmt.Errorf("trace span %q has no '='", part)
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return out, fmt.Errorf("trace span %q: %w", part, err)
		}
		switch name {
		case "admit":
			out.Admit += d
		case "coalesce_wait":
			out.Wait += d
		case "partition":
			out.Partition += d
		case "kernel":
			out.Kernel += d
		case "scatter":
			out.Scatter += d
		default:
			return out, fmt.Errorf("trace span %q: unknown stage", part)
		}
	}
	return out, nil
}
