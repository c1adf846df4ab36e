package main

import (
	"errors"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// base is the smallest tree the whole table passes on: the sites the
// count rules want, the names the set rules want, the embedded CSV, and a
// documented package in every directory a fixture writes to.
var base = map[string]string{
	"go.mod":                         "module logan\n\ngo 1.24\n",
	"logan.go":                       "// Package logan is a fixture.\npackage logan\n",
	"overlap.go":                     "package logan\n\nfunc readFasta() { seq.NewFastaReader(nil) }\n",
	"coalescer.go":                   "package logan\n\n// Coalescer is a fixture.\ntype Coalescer struct{}\n\nfunc (c *Coalescer) execute() {}\n",
	"EXPERIMENTS.md":                 "# Experiments\n\n```csv\nx,gcups\n100,1.5\n```\n",
	"testdata/logan_bench_quick.csv": "x,gcups\n100,1.5\n",
	"internal/xdrop/wave.go": "// Package xdrop is a fixture.\npackage xdrop\n\nfunc wave[K rowKernel](m, n int) {\n\tfor d := 1; d <= m+n; d++ {\n\t}\n}\n\n" +
		"func ExtendReference(m, n int) {\n\tfor d := 1; d <= m+n; d++ {\n\t}\n}\n",
	"internal/xdrop/extend_vector_amd64.s": "#include \"textflag.h\"\n\nTEXT ·vectorExtendSSE2(SB), NOSPLIT, $0-8\n#include \"extend_vector_amd64.h\"\n\n" +
		"TEXT ·vectorExtendAVX2(SB), NOSPLIT, $0-8\n\nTEXT ·vectorExtendAVX512(SB), NOSPLIT, $0-8\n\n" +
		"TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1\n\tRET\n\nTEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1\n\tRET\n",
	"internal/xdrop/extend_vector_amd64.h": "// One anti-diagonal per pass.\nloop:\n\tJNE loop\n\tRET\n\nTEXT ·vectorExtendPairAVX512(SB), NOSPLIT, $0-16\n\tRET\n",
	"internal/backend/gpu.go":              "// Package backend is a fixture.\npackage backend\n\nfunc (g *GPU) run() { core.AlignBatchContext(nil, g.dev, nil) }\n",
	"cmd/logan-serve/jobs.go":              "// Command logan-serve is a fixture.\npackage main\n\nfunc setParams(ps params, name, v string) error { return ps.Set(name, v) }\n",
	"internal/minidx/minimizer.go": "// Package minidx is a fixture.\npackage minidx\n\nfunc Extract(dst []Minimizer, s seq.Seq) []Minimizer { return dst }\n\n" +
		"func ExtractNaive(s seq.Seq) []Minimizer { return nil }\n",
	"internal/bella/kmers.go": "// Package bella is a fixture.\npackage bella\n\nfunc roll(r seq.Seq) {\n\tif r.IsN(0) {\n\t}\n}\n",
}

// site is a real break of a row in Go, next to code that does not break
// it. The test lints the break as it stands (the row fails), inside a //
// comment (the row passes: a comment neither fails a rule nor counts
// toward it) and moved to a _test.go file (the row fails only if it scans
// tests).
type site struct {
	rule, path, keep, decl string
	tests                  bool
}

var sites = []site{
	{"jobs-series-owner", "internal/cluster/store.go", `func a(reg r) { reg.Counter("logan_jobs_queued", "") }`, `func b(reg r) { gauge("logan_jobs_queued", "") }`, false},
	{"one-wavefront-driver", "internal/xdrop/fork.go", "", "func fork(m, n int) {\n\tfor d := 0; d <= mlen+n; d++ {\n\t}\n}", false},
	{"no-int16-rows", "internal/xdrop/rows.go", "", "func vectorRowPortable() {}", true},
	{"no-int16-rows", "internal/xdrop/simd.go", "", `import "logan/internal/simd"`, true},
	{"no-int16-rows", "internal/xdrop/cells.go", "", "func wave[K rowKernel, C cell]() {}", true},
	{"one-staging-step", "internal/xdrop/stage.go", "", "type slot struct{ revT []byte }", false},
	{"one-staging-step", "internal/core/batch.go", "", "func f(s seq.Seq) { seq.AppendReverse(nil, s) }", false},
	{"one-staging-step", "internal/core/batch.go", "", "type hostScratch struct{}", false},
	{"no-band-outside-xdrop", "internal/core/kernel.go", "", "func f(m, n int) {\n\tfor d := 1; d <= m+n; d++ {\n\t}\n}", false},
	{"pure-partitioner", "internal/loadbal/split.go", "", `import "logan/internal/core"`, false},
	{"one-device-caller", "internal/engine/run.go", "", "func f() { core.AlignBatch(dev, pairs, cfg) }", false},
	{"root-scheme-only", "config.go", "", `import "logan/internal/core"`, false},
	{"one-param-parser", "cmd/logan-serve/jobs.go", "func setParams(ps params, name, v string) error { return ps.Set(name, v) }", "func g(ps params) { ps.Set(key, val) }", false},
	{"one-param-parser", "cmd/logan-serve/map.go", "", `func g(r *http.Request) { r.URL.Query().Get("x") }`, false},
	{"no-param-mirrors", "cmd/logan-serve/jobs.go", "func setParams(ps params, name, v string) error { return ps.Set(name, v) }", "type overlapConfigJSON struct{}", true},
	{"pure-policy", "policy.go", "", "func admit() { _ = time.Now() }", false},
	{"pure-policy", "policy.go", "", `import "sync"`, false},
	{"pure-policy", "tenant.go", "", "func (b *bucket) take() { _ = time.Since(b.t) }", false},
	{"one-admission-policy", "internal/cluster/store.go", "", "var maxPending = 64", true},
	{"one-extension-path", "internal/bella/align.go", "", "type CPUAligner struct{}", true},
	{"one-fasta-loop", "mapper.go", "", "func build() { seq.NewFastaReader(r) }", false},
	{"one-minimizer-sweep", "internal/minidx/sweep.go", "", "func sweep(s seq.Seq) []Minimizer { return nil }", false},
	{"one-minimizer-sweep", "internal/minidx/deque.go", "", "type winEntry struct{}", false},
	{"one-radix-sort", "internal/bella/sort.go", "", "func radixSort(h []int, k uint64) { h[k&0xff]++ }", false},
	{"one-radix-sort", "internal/minidx/index.go", "", `import "sort"`, false},
	{"one-radix-sort", "internal/minidx/index.go", "", "func f(x []int) { slices.Sort(x) }", false},
	{"one-kmer-pass", "internal/bella/matrix.go", "", "func count(r seq.Seq) { codec.Scan(r) }", false},
	{"one-kmer-pass", "internal/bella/matrix.go", "", "type colTable struct{}", false},
	{"xdrop-only-alignment", "internal/bella/filter.go", "", `import "logan/internal/sw"`, false},
	{"flusher-runs-batches", "coalescer.go", "func (c *Coalescer) execute() {}", "func preparePairs() {}", true},
	{"worker-name-only", "internal/cluster/worker.go", "", "func (w *Worker) heartbeatLoop() {}", true},
	{"root-exports-documented", "aligner.go", "", "func NewAligner() {}", false},
}

// fixture is base with files overlaid (an empty string deletes one) and
// the row it is for: that row must fail on it or pass, and every other
// row must pass.
type fixture struct {
	rule, name string
	fail       bool
	files      map[string]string
}

var fixtures = []fixture{
	{"jobs-series-owner", "one registration each", false, map[string]string{"internal/cluster/store.go": "// Package cluster is a fixture.\npackage cluster\n\nfunc a(reg r) {\n\treg.Counter(\"logan_jobs_submitted_total\", \"\")\n\treg.Gauge(\"logan_jobs_running\", \"\")\n}\n"}},
	{"one-wavefront-driver", "one loop left", true, map[string]string{"internal/xdrop/wave.go": "// Package xdrop is a fixture.\npackage xdrop\n\nfunc wave() {\n\tfor d := 1; d <= m+n; d++ {\n\t}\n}\n"}},
	{"one-wavefront-driver", "a loop in a test", false, map[string]string{"internal/xdrop/wave_test.go": "package xdrop\n\nfunc f() {\n\tfor d := 1; d <= m+n; d++ {\n\t}\n}\n"}},
	{"no-int16-rows", "int16 on wave", true, map[string]string{"internal/xdrop/cells.go": "package xdrop\n\nfunc wave[T int16]() {}\n"}},
	{"no-int16-rows", "wave's one kernel parameter", false, map[string]string{"internal/xdrop/other.go": "package xdrop\n\nfunc waveRows[K rowKernel](a, b int) {}\n"}},
	{"one-fused-loop", "a second loop label", true, map[string]string{"internal/xdrop/extend_vector_amd64.h": base["internal/xdrop/extend_vector_amd64.h"] + "loop:\n"}},
	{"one-fused-loop", "a stray TEXT symbol", true, map[string]string{"internal/xdrop/extend_vector_amd64.s": base["internal/xdrop/extend_vector_amd64.s"] + "\nTEXT ·vectorRowAVX2(SB), NOSPLIT, $0-8\n"}},
	{"one-fused-loop", "a TEXT symbol twice", true, map[string]string{"internal/xdrop/extend_vector_amd64.s": base["internal/xdrop/extend_vector_amd64.s"] + "\nTEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1\n"}},
	{"one-fused-loop", "a probe gone", true, map[string]string{"internal/xdrop/extend_vector_amd64.s": strings.Replace(base["internal/xdrop/extend_vector_amd64.s"], "TEXT ·cpuHasAVX512", "// ·cpuHasAVX512", 1)}},
	{"one-fused-loop", "a loop label and a TEXT in comments", false, map[string]string{"internal/xdrop/extend_vector_amd64.h": base["internal/xdrop/extend_vector_amd64.h"] + "// loop: again\n// TEXT ·vectorRowAVX2(SB)\n"}},
	{"one-fused-loop", "a loop label and a TEXT in a test", false, map[string]string{"internal/xdrop/asm_test.go": "package xdrop\n\nconst src = `\nloop:\nTEXT ·vectorRowAVX2(SB)\n`\n"}},
	{"go-register-handoff", "a reload label", true, map[string]string{"internal/xdrop/extend_vector_amd64.h": base["internal/xdrop/extend_vector_amd64.h"] + "reload:\n"}},
	{"go-register-handoff", "a spill label", true, map[string]string{"internal/xdrop/extend_vector_amd64.h": base["internal/xdrop/extend_vector_amd64.h"] + "spill:\n"}},
	{"go-register-handoff", "LANES", true, map[string]string{"internal/xdrop/extend_vector_amd64.h": base["internal/xdrop/extend_vector_amd64.h"] + "#define LANES 64\n"}},
	{"go-register-handoff", "LOADROW", true, map[string]string{"internal/xdrop/extend_vector_amd64.h": base["internal/xdrop/extend_vector_amd64.h"] + "#define LOADROW(r, z) VMOVDQU32 (r), z\n"}},
	{"go-register-handoff", "STOREROW", true, map[string]string{"internal/xdrop/extend_vector_amd64.h": base["internal/xdrop/extend_vector_amd64.h"] + "#define STOREROW(z, r) VMOVDQU32 z, (r)\n"}},
	{"go-register-handoff", "SWAPROWS", true, map[string]string{"internal/xdrop/extend_vector_amd64.h": base["internal/xdrop/extend_vector_amd64.h"] + "#define SWAPROWS\n"}},
	{"go-register-handoff", "the labels in comments and Go", false, map[string]string{
		"internal/xdrop/extend_vector_amd64.h": base["internal/xdrop/extend_vector_amd64.h"] + "// reload: and spill: live in Go\n#define LANESX 4\n",
		"internal/xdrop/frame.go":              "package xdrop\n\nfunc (s *fusedSlot) spill() {}\n"}},
	{"one-staging-step", "a fill reference in the body", true, map[string]string{"internal/xdrop/extend_vector_amd64.h": base["internal/xdrop/extend_vector_amd64.h"] + "\tLEAQ fusedState_fill(DI), SI\n"}},
	{"one-staging-step", "a fusedState_t load", true, map[string]string{"internal/xdrop/extend_vector_amd64.s": base["internal/xdrop/extend_vector_amd64.s"] + "\tMOVQ fusedState_t(DI), SI\n"}},
	{"one-staging-step", "an rtBuf parameter", true, map[string]string{"internal/xdrop/stage.go": "package xdrop\n\nfunc stage(q []byte, rtBuf []byte) {}\n"}},
	{"one-staging-step", "a startPaired method", true, map[string]string{"internal/xdrop/stage.go": "package xdrop\n\nfunc (p *pair) startPaired() {}\n"}},
	{"one-staging-step", "AppendReverse in the root package", true, map[string]string{"aligner.go": "package logan\n\nfunc f(s seq.Seq) { seq.AppendReverse(nil, s) }\n"}},
	{"one-staging-step", "AppendReverse in internal/xdrop and internal/seq", false, map[string]string{
		"internal/xdrop/stage.go": "package xdrop\n\nfunc (s *fusedSlot) stage(q seq.Seq) { seq.AppendReverse(s.q, q) }\n",
		"internal/seq/seq.go":     "// Package seq is a fixture.\npackage seq\n\nfunc f(s Seq) { seq.AppendReverse(nil, s) }\n"}},
	{"no-band-outside-xdrop", "internal/sw's full matrix", false, map[string]string{"internal/sw/gpu.go": "// Package sw is a fixture.\npackage sw\n\nfunc f(m, n int) {\n\tfor d := 2; d <= m+n; d++ {\n\t}\n}\n"}},
	{"experiments-csv", "a modeled number moved", true, map[string]string{"testdata/logan_bench_quick.csv": "x,gcups\n100,1.6\n"}},
	{"experiments-csv", "the CSV file gone", true, map[string]string{"testdata/logan_bench_quick.csv": ""}},
	{"experiments-csv", "a row outside the fence", true, map[string]string{"EXPERIMENTS.md": base["EXPERIMENTS.md"] + "\n```csv\n200,3.0\n```\n"}},
	{"experiments-csv", "CSV text outside a csv block", false, map[string]string{"EXPERIMENTS.md": "# Experiments\n\n```\n200,3.0\n```\n\n200,3.0\n\n```csv\nx,gcups\n100,1.5\n```\n"}},
	{"pure-partitioner", "internal/cuda", true, map[string]string{"internal/loadbal/split.go": "// Package loadbal is a fixture.\npackage loadbal\n\nimport (\n\t\"sort\"\n\n\t\"logan/internal/cuda\"\n)\n"}},
	{"one-device-caller", "no engine-side caller", true, map[string]string{"internal/backend/gpu.go": "// Package backend is a fixture.\npackage backend\n"}},
	{"one-device-caller", "the caller moved out of gpu.go", true, map[string]string{
		"internal/backend/gpu.go":    "// Package backend is a fixture.\npackage backend\n",
		"internal/backend/hybrid.go": "package backend\n\nfunc (g *GPU) run() { core.AlignBatchContext(nil, g.dev, nil) }\n"}},
	{"one-device-caller", "the harness and the examples", false, map[string]string{
		"internal/bench/table1.go":    "// Package bench is a fixture.\npackage bench\n\nfunc f() { core.AlignBatch(dev, ps, cfg) }\n",
		"examples/roofline/main.go":   "// Command roofline is a fixture.\npackage main\n\nfunc main() { core.AlignBatch(dev, ps, cfg) }\n",
		"benchmark/workload_align.go": "// Command benchmark is a fixture.\npackage main\n\nfunc f() { core.AlignBatch(dev, ps, cfg) }\n"}},
	{"one-param-parser", "strconv in auth.go", false, map[string]string{"cmd/logan-serve/auth.go": "package main\n\nfunc weight(s string) { strconv.Atoi(s) }\n"}},
	{"one-param-parser", "ParseFloat", true, map[string]string{"cmd/logan-serve/serve.go": "package main\n\nfunc f(s string) { strconv.ParseFloat(s, 64) }\n"}},
	{"no-param-mirrors", "a mirror in the benchmark", false, map[string]string{"benchmark/wire.go": "// Command benchmark is a fixture.\npackage main\n\ntype jobProgressJSON struct{}\n"}},
	{"pure-policy", "context", true, map[string]string{"policy.go": "package logan\n\nimport (\n\t\"context\"\n\t\"time\"\n)\n"}},
	{"pure-policy", "time as an argument, sync in tenant.go", false, map[string]string{
		"policy.go": "package logan\n\nimport \"time\"\n\nfunc admit(now time.Time, d time.Duration) bool { return d < time.Second }\n",
		"tenant.go": "package logan\n\nimport (\n\t\"context\"\n\t\"sync\"\n)\n"}},
	{"one-admission-policy", "the budget's flag in a doc", true, map[string]string{"docs/SERVING.md": "Start with `-max-pending 64`.\n"}},
	{"one-admission-policy", "the shed counter in CI", true, map[string]string{".github/workflows/ci.yml": "# ShedBudget\n"}},
	{"one-admission-policy", "the flag in the flag list", true, map[string]string{"cmd/testdata/flags.txt": "logan-serve -maxPending\n"}},
	{"one-admission-policy", "the notes", false, map[string]string{"CHANGES.md": "MaxPending was deleted.\n", "ROADMAP.md": "maxPending\n", "ISSUE.md": "shedBudget\n"}},
	{"one-admission-policy", "the shed counter in EXPERIMENTS.md", true, map[string]string{"EXPERIMENTS.md": base["EXPERIMENTS.md"] + "\nshedBudget\n"}},
	{"one-admission-policy", "the budget's flag in the README", true, map[string]string{"README.md": "Start with `-max-pending 64`.\n"}},
	{"one-extension-path", "MapStageTimes", false, map[string]string{"mapper.go": "package logan\n\n// MapStageTimes is a fixture.\ntype MapStageTimes struct{}\n", "docs/ARCHITECTURE.md": "`MapStageTimes` stays, and so do extendFuncs.\n"}},
	{"one-extension-path", "a deleted name in the notes", false, map[string]string{"CHANGES.md": "engineExtender, alignPrepared and MapProgress were deleted.\n"}},
	{"one-fasta-loop", "no call site", true, map[string]string{"overlap.go": "package logan\n\nfunc readFasta() {\n\t// seq.NewFastaReader(r)\n}\n"}},
	{"one-minimizer-sweep", "a second sweep", true, map[string]string{"internal/minidx/simd.go": "package minidx\n\nfunc ExtractSIMD(s seq.Seq) {}\n"}},
	{"one-minimizer-sweep", "the oracle gone", true, map[string]string{"internal/minidx/minimizer.go": "// Package minidx is a fixture.\npackage minidx\n\nfunc Extract(dst []Minimizer, s seq.Seq) []Minimizer { return dst }\n"}},
	{"one-minimizer-sweep", "other minidx functions", false, map[string]string{"internal/minidx/index.go": "package minidx\n\nfunc (x *Index) Lookup(h uint64) []Minimizer { return nil }\n\nfunc Build(s seq.Seq) (*Index, error) { return nil, nil }\n"}},
	{"one-radix-sort", "a counting pass in internal/par", false, map[string]string{"internal/par/sort.go": "// Package par is a fixture.\npackage par\n\nfunc radix(h []int, k uint64) { h[k>>8&255]++ }\n"}},
	{"one-radix-sort", "a sort import elsewhere", false, map[string]string{"internal/chain/chain.go": "// Package chain is a fixture.\npackage chain\n\nimport \"sort\"\n\nfunc f(x []int) { sort.Ints(x) }\n"}},
	{"one-kmer-pass", "a hand roll in a second function", true, map[string]string{"internal/bella/matrix.go": "package bella\n\nfunc col(fw, c uint64) uint64 { return fw<<2 | c }\n"}},
	{"one-kmer-pass", "a linear-probing step", true, map[string]string{"internal/bella/matrix.go": "package bella\n\nfunc probe(i, mask int) int { return (i + 1) & mask }\n"}},
	{"one-kmer-pass", "roll reading more bases", false, map[string]string{"internal/bella/kmers.go": base["internal/bella/kmers.go"] + "\nfunc (c *counter) roll2() {}\n"}},
	{"xdrop-only-alignment", "the harness and the comparators", false, map[string]string{
		"internal/bench/fig12.go": "// Package bench is a fixture.\npackage bench\n\nimport \"logan/internal/sw\"\n",
		"internal/sw/oracle.go":   "// Package sw is a fixture.\npackage sw\n\nimport \"logan/internal/sw/x\"\n"}},
	{"flusher-runs-batches", "execute naming Alignment", true, map[string]string{"coalescer.go": "package logan\n\n// Coalescer is a fixture.\ntype Coalescer struct{}\n\nfunc (c *Coalescer) execute() {\n\tvar _ []Alignment\n}\n"}},
	{"flusher-runs-batches", "execute reading the cache", true, map[string]string{"coalescer.go": "package logan\n\n// Coalescer is a fixture.\ntype Coalescer struct{}\n\nfunc (c *Coalescer) execute() {\n\t_ = c.opt.Cache\n}\n"}},
	{"flusher-runs-batches", "execute renamed", true, map[string]string{"coalescer.go": "package logan\n\n// Coalescer is a fixture.\ntype Coalescer struct{}\n\nfunc (c *Coalescer) run() {}\n"}},
	{"flusher-runs-batches", "execute missing from coalescer.go", true, map[string]string{
		"coalescer.go": "package logan\n\n// Coalescer is a fixture.\ntype Coalescer struct{}\n",
		"flusher.go":   "package logan\n\nfunc (c *Coalescer) execute() {}\n"}},
	{"flusher-runs-batches", "Alignment around execute, and in a comment in it", false, map[string]string{"coalescer.go": "package logan\n\n// Coalescer is a fixture.\ntype Coalescer struct{}\n\n" +
		"func (c *Coalescer) execute() {\n\t// no Alignment and no cache here\n}\n\nfunc (c *Coalescer) finish(a []Alignment) { _ = c.cache }\n"}},
	{"worker-name-only", "heartbeatLoop in a doc", true, map[string]string{"docs/CLUSTER.md": "The worker runs heartbeatLoop.\n"}},
	{"worker-name-only", "the heartbeat endpoint in a script", true, map[string]string{"scripts/cluster-smoke.sh": "curl -s :18090/cluster/heartbeat\n"}},
	{"worker-name-only", "the register handshake in Go", true, map[string]string{"internal/cluster/router.go": "// Package cluster is a fixture.\npackage cluster\n\nconst path = \"/cluster/register\"\n"}},
	{"worker-name-only", "the worker-ID header in a doc", true, map[string]string{"docs/SERVING.md": "`X-Logan-Worker-Id`\n"}},
	{"worker-name-only", "the throughput flag in a script", true, map[string]string{"scripts/cluster-smoke.sh": "logan-worker -cells-per-sec 1e9\n"}},
	{"worker-name-only", "the notes, and a file the rule does not read", false, map[string]string{"CHANGES.md": "heartbeatLoop was deleted.\n", "cmd/testdata/flags.txt": "heartbeatLoop\n"}},
	{"package-doc", "a package without a doc comment", true, map[string]string{"internal/par/par.go": "package par\n"}},
	{"package-doc", "a detached comment", true, map[string]string{"internal/par/par.go": "// Package par is a fixture.\n\npackage par\n"}},
	{"package-doc", "the doc in a test file", true, map[string]string{"internal/par/par.go": "package par\n", "internal/par/par_test.go": "// Package par is a fixture.\npackage par\n"}},
	{"package-doc", "the doc on a second file, testdata and hidden directories", false, map[string]string{
		"internal/par/par.go": "package par\n", "internal/par/doc.go": "// Package par is a fixture.\npackage par\n",
		"internal/par/testdata/gen.go": "package main\n", ".cache/gen.go": "package main\n"}},
	{"root-exports-documented", "an undocumented method", true, map[string]string{"aligner.go": "package logan\n\n// Aligner is a fixture.\ntype Aligner struct{}\n\nfunc (a *Aligner) Align() {}\n"}},
	{"root-exports-documented", "an undocumented type, constant and variable", true, map[string]string{"params.go": "package logan\n\ntype Params struct{}\n\nconst MaxX = 1\n\nvar ErrShed = 2\n"}},
	{"root-exports-documented", "a detached comment", true, map[string]string{"aligner.go": "package logan\n\n// NewAligner is a fixture.\n\nfunc NewAligner() {}\n"}},
	{"root-exports-documented", "documented, grouped, unexported, or outside the root", false, map[string]string{
		"aligner.go": "package logan\n\n// Aligner is a fixture.\ntype Aligner struct{}\n\n// Align is a fixture.\nfunc (a *Aligner) Align() {}\n\n" +
			"// Limits are fixtures.\nconst (\n\tMaxX = 1\n\tMaxK = 2\n)\n\ntype lane struct{}\n\nfunc (l *lane) Next() {}\n\nfunc helper() {}\n",
		"internal/par/par.go": "// Package par is a fixture.\npackage par\n\nfunc Range() {}\n"}},
}

// deleted lists every name the deleted-name rows forbid and the kinds of
// file each row reads: the test mentions each name in one file of each
// kind, a Go string literal included.
var deleted = []struct {
	rule  string
	exts  []string
	names []string
}{
	{"one-admission-policy", []string{".go", ".md", ".sh", ".txt", ".yml"}, []string{"MaxPending", "max-pending", "maxPending", "ShedBudget", "shedBudget"}},
	{"one-extension-path", []string{".go", ".md", ".sh", ".txt", ".yml"}, []string{"engineExtender", "coalescedExtender", "withPriority", "priorityFrom",
		"alignPrepared", "ErrTracebackUnavailable", "jobCoalesce", "job-coalesce", "CPUAligner", "AlignerStats", "AlignPairs", "extendFunc", "MapProgress", "MapStage", "MapStage("}},
	{"flusher-runs-batches", []string{".go", ".md", ".sh"}, []string{"preparePairs"}},
	{"worker-name-only", []string{".go", ".md", ".sh"}, []string{"/cluster/heartbeat", "heartbeatRequest", "heartbeatLoop", "HeartbeatMs",
		"/cluster/register", "registerRequest", "reregisterError", "X-Logan-Worker-Id", "cells-per-sec"}},
}

// mention is a file of each kind that mentions n.
var mention = map[string]func(n string) (string, string){
	".go": func(n string) (string, string) {
		return "internal/cluster/gone.go", header("internal/cluster/gone.go") + "const gone = \"" + n + "\"\n"
	},
	".md":  func(n string) (string, string) { return "docs/GONE.md", "Mentions " + n + " here.\n" },
	".sh":  func(n string) (string, string) { return "scripts/gone.sh", "echo " + n + "\n" },
	".txt": func(n string) (string, string) { return "cmd/testdata/gone.txt", n + "\n" },
	".yml": func(n string) (string, string) { return ".github/workflows/gone.yml", "# " + n + "\n" },
}

// header opens a Go file at p with its package clause, documented.
func header(p string) string {
	name := path.Base(path.Dir(p))
	switch {
	case path.Dir(p) == ".":
		name = "logan"
	case strings.HasPrefix(p, "cmd/"):
		name = "main"
	}
	return "// Package " + name + " is a fixture.\npackage " + name + "\n\n"
}

// all is every fixture: the sites' three each, the deleted names in
// each kind of file, and the fixtures table.
func all() []fixture {
	var out []fixture
	for _, s := range sites {
		keep := header(s.path) + s.keep + "\n"
		comment := "// " + strings.ReplaceAll(s.decl, "\n", "\n// ")
		test := strings.TrimSuffix(s.path, ".go") + "_test.go"
		out = append(out,
			fixture{s.rule, "site " + s.decl, true, map[string]string{s.path: keep + s.decl + "\n"}},
			fixture{s.rule, "comment " + s.decl, false, map[string]string{s.path: keep + comment + "\n"}},
			fixture{s.rule, "test " + s.decl, s.tests, map[string]string{s.path: keep, test: header(s.path) + s.decl + "\n"}})
	}
	for _, g := range deleted {
		for _, n := range g.names {
			for _, ext := range g.exts {
				p, src := mention[ext](n)
				out = append(out, fixture{g.rule, n + " in " + p, true, map[string]string{p: src}})
			}
		}
	}
	return append(out, fixtures...)
}

// overlay is base with files overlaid.
func overlay(over map[string]string) fstest.MapFS {
	fsys := fstest.MapFS{}
	for p, src := range base {
		fsys[p] = &fstest.MapFile{Data: []byte(src)}
	}
	for p, src := range over {
		if delete(fsys, p); src != "" {
			fsys[p] = &fstest.MapFile{Data: []byte(src)}
		}
	}
	return fsys
}

func TestFixtures(t *testing.T) {
	for _, f := range all() {
		failing, err := lint(overlay(f.files))
		if err != nil {
			t.Fatalf("%s/%s: %v", f.rule, f.name, err)
		}
		want := []string{}
		if f.fail {
			want = []string{f.rule}
		}
		if got := slices.Sorted(maps.Keys(failing)); !slices.Equal(got, want) {
			t.Errorf("%s/%s: failing rules %v, want %v: %v", f.rule, f.name, got, want, failing)
		}
	}
}

// TestEveryRowHasFixtures holds each row to at least one fixture that
// must fail and one that must pass.
func TestEveryRowHasFixtures(t *testing.T) {
	fails, passes := map[string]bool{}, map[string]bool{}
	for _, f := range all() {
		if f.fail {
			fails[f.rule] = true
		} else {
			passes[f.rule] = true
		}
	}
	for _, r := range rules {
		if !fails[r.name] || !passes[r.name] {
			t.Errorf("%s: a failing fixture %v, a passing one %v", r.name, fails[r.name], passes[r.name])
		}
		delete(fails, r.name)
		delete(passes, r.name)
	}
	if len(fails)+len(passes) > 0 {
		t.Errorf("fixtures for no row: %v %v", fails, passes)
	}
}

func TestBasePasses(t *testing.T) {
	if failing, err := lint(overlay(nil)); err != nil || len(failing) > 0 {
		t.Fatalf("base: %v %v", failing, err)
	}
}

// TestRepository runs the table over the repository itself.
func TestRepository(t *testing.T) {
	failing, err := lint(tracked(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if sites := failing[r.name]; sites != nil {
			t.Errorf("%s: %s\n\t%s", r.name, r.why, strings.Join(sites, "\n\t"))
		}
	}
}

// tracked is the files git tracks in the repository, as the working tree
// has them, so that an untracked scratch file does not fail the test
// (doc-lint.sh reads the working tree whole); where git does not track
// the module, as in an exported copy, it is the whole directory.
func tracked(t *testing.T) fs.FS {
	root := os.DirFS("../..")
	out, err := exec.Command("git", "-C", "../..", "ls-files", "-z").Output()
	if err != nil {
		return root
	}
	fsys := fstest.MapFS{}
	for _, p := range strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00") {
		if p != "go.mod" && !slices.Contains(loaded, path.Ext(p)) {
			continue
		}
		src, err := fs.ReadFile(root, p)
		if errors.Is(err, fs.ErrNotExist) {
			continue // deleted in the working tree
		} else if err != nil {
			t.Fatal(err)
		}
		fsys[p] = &fstest.MapFile{Data: src}
	}
	if fsys["go.mod"] == nil {
		return root
	}
	return fsys
}

// TestRefusesOtherRoots: every rule reads the tree recursively, so the
// tool runs only at the root of module logan.
func TestRefusesOtherRoots(t *testing.T) {
	for name, mod := range map[string]string{"no go.mod": "", "another module": "module example.com/other\n", "a submodule": "module logan/benchmark\n"} {
		if _, err := lint(overlay(map[string]string{"go.mod": mod})); err == nil {
			t.Errorf("%s: lint ran", name)
		}
	}
}

// TestLiterals: grep skips a file or a line holding none of a pattern's
// literals, so every match must hold one of them.
func TestLiterals(t *testing.T) {
	for expr, matches := range map[string][]string{
		`[sS]hedBudget`:    {"ShedBudget", "shedBudget"},
		`MapStage($|[^T])`: {"MapStage", "MapStage("},
		`d <= (m|mlen)\+n`: {"d <= m+n", "d <= mlen+n"},
		`(?:Counter|[Gg]auge(?:Func)?|Histogram)\("(logan_jobs_[a-z_]+)"`: {`Counter("logan_jobs_a"`, `gaugeFunc("logan_jobs_b"`},
		`\.(?:IsN|Code|Encode|Scan)\(|KmerCodec|<< ?2 ?\|`:                {"r.IsN(", "fw<<2 |", "KmerCodec"},
		`a|b*`: {"a", "", "bb"},
	} {
		re := compile(expr)
		for _, m := range matches {
			if !re.MatchString(m) || !re.maybe(m) {
				t.Errorf("%s on %q: match %v, literals %q", expr, m, re.MatchString(m), re.lits)
			}
		}
	}
	if lits := compile(`a|b*`).lits; lits != nil {
		t.Errorf("a|b* has literals %q, but matches the empty string", lits)
	}
}
