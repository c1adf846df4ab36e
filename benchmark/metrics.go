package main

import (
	"path"
	"strings"
)

// metricDef describes one metric of the catalog. BENCHMARK.json carries
// name, unit and direction (and the bound of end-to-end metrics);
// TestCatalogMatchesBenchmarkJSON keeps the two in step. The remaining
// fields are the benchmark's own record of where a per-layer number comes
// from and which end-to-end metric it is expected to move — the
// predictions README.md spells out.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed relative worsening of the median
	// Per-layer only.
	Src   string // E: read from the running server; R: replayed in process; E-R: their difference
	Moves string // the end-to-end metric this layer metric should move
	On    string // workloads that report it (0 elsewhere): names or globs, comma-separated
}

// reportedOn says whether the metric's layer is exercised by the workload.
func (d metricDef) reportedOn(workload string) bool {
	for _, pat := range strings.Split(d.On, ", ") {
		if ok, _ := path.Match(strings.Replace(pat, "all", "*", 1), workload); ok {
			return true
		}
	}
	return false
}

// endToEnd is what a user of the served system sees, per workload. Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "gcups", Unit: "Gcells/s", Better: "higher", Bound: 0.20},
	{Name: "pairs_per_s", Unit: "pairs/s", Better: "higher", Bound: 0.20},
	{Name: "reads_per_s", Unit: "reads/s", Better: "higher", Bound: 0.20},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "server_cpu_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "accuracy", Unit: "fraction", Better: "higher", Bound: 0.02},
}

const (
	wAlignBulk      = "align-bulk"
	wAlignSmall     = "align-small"
	wMapReads       = "map-reads"
	wOverlapJob     = "overlap-job"
	wOverlapCluster = "overlap-cluster"
)

// perLayer is the outside-in view of single layers, named
// <module>.<metric> after this repository's modules. A metric reads 0 on a
// workload that does not exercise its layer.
var perLayer = []metricDef{
	// serve = cmd/logan-serve
	{Name: "serve.admit_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "p50_ms", On: "align-*"},
	{Name: "serve.wire_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "p50_ms", On: "align-*"},
	{Name: "serve.cpu_ms_per_req", Unit: "ms", Better: "lower", Src: "E", Moves: "server_cpu_s", On: "all"},
	{Name: "serve.peak_rss_mb", Unit: "MB", Better: "lower", Src: "E", Moves: "rss_mb", On: "all"},
	{Name: "serve.decode_mb_per_s", Unit: "MB/s", Better: "higher", Src: "R", Moves: "p50_ms", On: "align-*"},
	{Name: "serve.encode_mb_per_s", Unit: "MB/s", Better: "higher", Src: "R", Moves: "p50_ms", On: "align-*"},
	{Name: "serve.map_overhead_ms", Unit: "ms", Better: "lower", Src: "E-R", Moves: "p50_ms", On: wMapReads},
	{Name: "serve.job_overhead_s", Unit: "s", Better: "lower", Src: "E-R", Moves: "p50_ms", On: wOverlapJob},
	// coalescer, cache, aligner, mapper, overlap = root package
	{Name: "coalescer.wait_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "p50_ms", On: "align-*"},
	{Name: "coalescer.merge_ratio", Unit: "req/batch", Better: "higher", Src: "E", Moves: "pairs_per_s", On: "align-*"},
	{Name: "coalescer.deadline_flush_frac", Unit: "fraction", Better: "lower", Src: "E", Moves: "p50_ms", On: "align-*"},
	{Name: "coalescer.direct_frac", Unit: "fraction", Better: "higher", Src: "E", Moves: "p50_ms", On: "align-*"},
	{Name: "coalescer.self_ms", Unit: "ms", Better: "lower", Src: "R", Moves: "p50_ms", On: wAlignSmall},
	{Name: "cache.hit_frac", Unit: "fraction", Better: "higher", Src: "E", Moves: "none", On: "align-*"},
	{Name: "cache.miss_ns_per_pair", Unit: "ns/pair", Better: "lower", Src: "R", Moves: "server_cpu_s", On: wAlignSmall},
	{Name: "cache.hit_ns_per_pair", Unit: "ns/pair", Better: "lower", Src: "R", Moves: "none", On: wAlignSmall},
	{Name: "aligner.partition_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "p50_ms", On: "align-*"},
	{Name: "aligner.scatter_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "p50_ms", On: "align-*"},
	{Name: "aligner.align_ms_per_req", Unit: "ms", Better: "lower", Src: "R", Moves: "p50_ms", On: "align-*"},
	{Name: "aligner.overhead_frac", Unit: "fraction", Better: "lower", Src: "R", Moves: "p50_ms", On: "align-*"},
	// internal/backend
	{Name: "backend.cpu_busy_frac", Unit: "fraction", Better: "higher", Src: "E", Moves: "gcups", On: "align-*, map-reads, overlap-job"},
	// internal/xdrop
	{Name: "xdrop.kernel_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "gcups", On: "align-*"},
	{Name: "xdrop.vector_cell_frac", Unit: "fraction", Better: "higher", Src: "E", Moves: "gcups", On: "align-*, map-reads, overlap-job"},
	{Name: "xdrop.vector_cells_per_ns", Unit: "cells/ns", Better: "higher", Src: "R", Moves: "gcups", On: "align-*, overlap-*"},
	{Name: "xdrop.scalar_cells_per_ns", Unit: "cells/ns", Better: "higher", Src: "R", Moves: "gcups", On: "align-*, overlap-*"},
	{Name: "xdrop.affine_cells_per_ns", Unit: "cells/ns", Better: "higher", Src: "R", Moves: "none", On: "align-*, overlap-*"},
	{Name: "xdrop.reference_cells_per_ns", Unit: "cells/ns", Better: "higher", Src: "R", Moves: "none", On: "align-*, overlap-*"},
	{Name: "xdrop.cells_per_pair", Unit: "cells/pair", Better: "lower", Src: "R", Moves: "gcups", On: "align-*, overlap-*"},
	{Name: "xdrop.mean_band", Unit: "cells", Better: "lower", Src: "R", Moves: "gcups", On: "align-*, overlap-*"},
	{Name: "xdrop.computed_bytes_per_cell", Unit: "bytes/cell", Better: "lower", Src: "R", Moves: "gcups", On: "align-*, overlap-*"},
	// internal/seq
	{Name: "seq.frombytes_mb_per_s", Unit: "MB/s", Better: "higher", Src: "R", Moves: "p50_ms", On: "align-*"},
	{Name: "seq.fasta_mb_per_s", Unit: "MB/s", Better: "higher", Src: "R", Moves: "p50_ms", On: "map-reads, overlap-*"},
	// internal/minidx, internal/chain
	{Name: "minidx.build_mbases_per_s", Unit: "Mbases/s", Better: "higher", Src: "R", Moves: "setup_s", On: wMapReads},
	{Name: "minidx.load_mb_per_s", Unit: "MB/s", Better: "higher", Src: "R", Moves: "setup_s", On: wMapReads},
	{Name: "minidx.extract_mbases_per_s", Unit: "Mbases/s", Better: "higher", Src: "R", Moves: "reads_per_s", On: wMapReads},
	{Name: "minidx.lookup_ns_per_minimizer", Unit: "ns/minimizer", Better: "lower", Src: "R", Moves: "reads_per_s", On: wMapReads},
	{Name: "minidx.minimizers_per_kb", Unit: "1/kb", Better: "lower", Src: "R", Moves: "reads_per_s", On: wMapReads},
	{Name: "chain.find_ns_per_anchor", Unit: "ns/anchor", Better: "lower", Src: "R", Moves: "reads_per_s", On: wMapReads},
	{Name: "chain.chains_per_read", Unit: "chains/read", Better: "lower", Src: "R", Moves: "reads_per_s", On: wMapReads},
	{Name: "mapper.seed_ms_per_read", Unit: "ms/read", Better: "lower", Src: "R", Moves: "reads_per_s", On: wMapReads},
	{Name: "mapper.extend_ms_per_read", Unit: "ms/read", Better: "lower", Src: "R", Moves: "reads_per_s", On: wMapReads},
	{Name: "mapper.map_ms_per_read", Unit: "ms/read", Better: "lower", Src: "R", Moves: "reads_per_s", On: wMapReads},
	{Name: "mapper.anchors_per_read", Unit: "anchors/read", Better: "lower", Src: "R", Moves: "reads_per_s", On: wMapReads},
	{Name: "mapper.cells_per_read", Unit: "cells/read", Better: "lower", Src: "R", Moves: "reads_per_s", On: wMapReads},
	// internal/bella (stage medians per job) and the Overlapper around it
	{Name: "bella.count_s", Unit: "s", Better: "lower", Src: "R", Moves: "p50_ms", On: "overlap-*"},
	{Name: "bella.prune_s", Unit: "s", Better: "lower", Src: "R", Moves: "p50_ms", On: "overlap-*"},
	{Name: "bella.matrix_s", Unit: "s", Better: "lower", Src: "R", Moves: "p50_ms", On: "overlap-*"},
	{Name: "bella.spgemm_s", Unit: "s", Better: "lower", Src: "R", Moves: "p50_ms", On: "overlap-*"},
	{Name: "bella.binning_s", Unit: "s", Better: "lower", Src: "R", Moves: "p50_ms", On: "overlap-*"},
	{Name: "bella.align_s", Unit: "s", Better: "lower", Src: "R", Moves: "p50_ms", On: "overlap-*"},
	{Name: "bella.filter_s", Unit: "s", Better: "lower", Src: "R", Moves: "p50_ms", On: "overlap-*"},
	{Name: "overlap.run_s", Unit: "s", Better: "lower", Src: "R", Moves: "p50_ms", On: "overlap-*"},
	{Name: "bella.reliable_kmers", Unit: "count", Better: "lower", Src: "R", Moves: "reads_per_s", On: "overlap-*"},
	{Name: "bella.candidate_pairs", Unit: "count", Better: "lower", Src: "R", Moves: "reads_per_s", On: "overlap-*"},
	{Name: "bella.matrix_nnz", Unit: "count", Better: "lower", Src: "R", Moves: "reads_per_s", On: "overlap-*"},
	{Name: "bella.cells_per_job", Unit: "cells", Better: "lower", Src: "R", Moves: "reads_per_s", On: "overlap-*"},
	{Name: "bella.count_mbases_per_s", Unit: "Mbases/s", Better: "higher", Src: "R", Moves: "reads_per_s", On: "overlap-*"},
	{Name: "bella.spgemm_mnnz_per_s", Unit: "Mnnz/s", Better: "higher", Src: "R", Moves: "reads_per_s", On: "overlap-*"},
	// internal/cluster and its queue
	{Name: "cluster.job_overhead_s", Unit: "s", Better: "lower", Src: "E-R", Moves: "p50_ms", On: wOverlapCluster},
	{Name: "cluster.requeues", Unit: "count", Better: "lower", Src: "E", Moves: "p50_ms", On: wOverlapCluster},
	{Name: "cluster.spec_marshal_mb_per_s", Unit: "MB/s", Better: "higher", Src: "R", Moves: "p50_ms", On: wOverlapCluster},
	{Name: "queue.append_ms", Unit: "ms", Better: "lower", Src: "R", Moves: "p50_ms", On: wOverlapCluster},
	{Name: "queue.ack_ms", Unit: "ms", Better: "lower", Src: "R", Moves: "p50_ms", On: wOverlapCluster},
	// the client's own view: diagnostics, and the end-to-end candidates
	// that cannot be held to a bound on every workload
	{Name: "client.samples", Unit: "count", Better: "higher", Src: "E", Moves: "none", On: "all"},
	{Name: "client.fail_rate", Unit: "fraction", Better: "lower", Src: "E", Moves: "none", On: "all"},
	{Name: "client.job_s", Unit: "s", Better: "lower", Src: "E", Moves: "none", On: "overlap-*"},
	{Name: "client.p90_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "none", On: "all"},
	{Name: "client.p99_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "none", On: "all"},
	{Name: "client.p999_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "none", On: "all"},
	{Name: "client.max_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "none", On: "all"},
	{Name: "client.tail_percentile", Unit: "fraction", Better: "higher", Src: "E", Moves: "none", On: "all"},
	{Name: "client.tail_ms", Unit: "ms", Better: "lower", Src: "E", Moves: "none", On: "all"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower", Src: "E", Moves: "none", On: "all"},
}
