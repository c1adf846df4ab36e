package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// runEnv is what one run of one workload is given.
type runEnv struct {
	root   string // repository root
	bin    string // built logan-serve / logan-worker
	outDir string // benchmark/out
	runDir string // scratch for this run, removed when it ends
	seed   int64
	// seconds is the nominal length of the measured phase. Workloads are
	// fixed work — a seeded list of requests sent exactly once each — and
	// the list is sized as seconds × the workload's calibrated rate, so a
	// given -seconds always means the same requests.
	seconds float64
	nproc   int
	log     io.Writer
}

// units sizes a fixed-work list: perSecond is the workload's calibrated
// rate on the reference sandbox.
func (e *runEnv) units(perSecond float64) int {
	return max(1, int(math.Round(perSecond*e.seconds)))
}

// clientsFor is the load shape's connection count: min(nproc, 4).
func (e *runEnv) clientsFor() int { return min(e.nproc, 4) }

// instance is one workload, generated from a seed.
type instance interface {
	// launch starts the server processes (default flags) in h's
	// directory and waits until /readyz answers.
	launch(env *runEnv, h *harness) (*server, error)
	// warmOps and warmOp are the fixed warm-up, drawn from inputs
	// disjoint from the measured ones; its results are discarded.
	warmOps() int
	warmOp(s *server, i int) opResult
	// ops, clients and op are the measured fixed work.
	ops() int
	clients() int
	op(s *server, i int) opResult
	// check verifies outputs after the measured phase and reads off the
	// work the server reported for each operation.
	check(env *runEnv, ph *phase) checkResult
	// served records the spans of the traced served phase and derives the
	// per-layer metrics read from the running server (source E).
	served(env *runEnv, ph *phase, rec *recorder, m map[string]float64) []int
	// replay calls the layers' public functions on the workload's own
	// inputs and times them from outside (source R).
	replay(env *runEnv, ph *phase, roots []int, rec *recorder, m map[string]float64) error
	// close releases what check and replay built in process.
	close()
}

// workloadDef names a workload and says why it exists; prepare generates
// its inputs from the run's seed.
type workloadDef struct {
	Name    string
	Why     string
	prepare func(env *runEnv) (instance, error)
}

var workloads = []workloadDef{
	{wAlignBulk, "Table II batch served: 128 long pairs per /align request at x=100, one client; the vector kernel is most of each request",
		func(env *runEnv) (instance, error) { return prepareAlign(env, alignBulk), nil }},
	{wAlignSmall, "interactive /align: 16 short pairs per request from min(nproc,4) clients; coalescer wait and wire dominate, the kernel is ~1%",
		func(env *runEnv) (instance, error) { return prepareAlign(env, alignSmall), nil }},
	{wMapReads, "POST /map against a -map-ref index: minimizer seeding and chaining, then batched extension; index build lands in setup_s",
		prepareMap},
	{wOverlapJob, "BELLA overlap jobs via /jobs at x=25: k-mer counting and SpGEMM plus the narrow-band use of the kernel",
		func(env *runEnv) (instance, error) { return prepareOverlap(env, false), nil }},
	{wOverlapCluster, "the same jobs through the router: WAL append+fsync, lease, one logan-worker; same pipeline, other job substrate",
		func(env *runEnv) (instance, error) { return prepareOverlap(env, true), nil }},
}

// sample is the servers' side of one instant: /proc and /statz.
type sample struct {
	At    time.Time
	Usage procUsage
	Statz statz
}

func takeSample(s *server) (sample, error) {
	st, err := s.statz()
	if err != nil {
		return sample{}, err
	}
	u, err := s.h.usage()
	return sample{At: time.Now(), Usage: u, Statz: st}, err
}

// chunk is one slice of the measured phase: the operations that completed
// between two samples. The phase is cut into chunks of equal operation
// counts so that rates can be reported as the median over chunks — a
// burst of interference from the machine then costs one chunk, not the
// run's result.
type chunk struct {
	Ops        []int // operation indices, in no particular order
	Dur        time.Duration
	CPUSeconds float64
	RSSMB      float64 // Σ VmRSS of the server processes when the chunk ended
	Statz      statzDelta
}

// maxChunks is how many chunks a measured phase is cut into (fewer when
// it has fewer operations: an overlap job is a chunk of its own).
const maxChunks = 8

// phase is one measured phase as the client, /proc and /statz saw it.
type phase struct {
	Ops        []opResult
	Start      time.Time
	Wall       time.Duration
	Chunks     []chunk
	Statz      statzDelta
	CPUSeconds float64 // user+sys of all server processes over the phase
	PeakRSSMB  float64 // Σ VmHWM when the phase ended
}

// checkResult is the verdict on a phase's outputs, with the work each
// operation did as the server reported it.
type checkResult struct {
	OpCells, OpPairs, OpReads []int64
	Failed                    int // operations that failed or answered wrongly
	Accuracy                  float64
	Problems                  []string
}

func newCheckResult(n int) checkResult {
	return checkResult{OpCells: make([]int64, n), OpPairs: make([]int64, n), OpReads: make([]int64, n)}
}

func (c *checkResult) problem(format string, args ...any) {
	if len(c.Problems) < 8 {
		c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
	}
}

// bringUp starts a fresh server set in a fresh directory and warms it.
// The returned duration is setup_s: process start → /readyz (which, for
// map-reads, is after the index build) → warm-up done.
func bringUp(env *runEnv, inst instance) (*server, time.Duration, error) {
	h, err := newHarness(env.runDir)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	s, err := inst.launch(env, h)
	if err != nil {
		h.close()
		return nil, 0, err
	}
	warm, _, _ := closedLoop(inst.warmOps(), inst.clients(), func(i int) opResult { return inst.warmOp(s, i) }, nil)
	for i, r := range warm {
		if !r.ok() {
			h.close()
			return nil, 0, fmt.Errorf("warm-up operation %d: %s", i, r.failure())
		}
	}
	return s, time.Since(start), nil
}

// chunkOf is the chunk the ordinal-th completion (1..n) belongs to when n
// operations are cut into nchunks chunks of equal counts: chunk k ends with
// completion number ⌊(k+1)·n/nchunks⌋, so it is ⌈ordinal·nchunks/n⌉ − 1.
func chunkOf(ordinal, n, nchunks int) int { return (ordinal*nchunks+n-1)/n - 1 }

// measure runs the fixed work once against s. The servers are sampled
// before the first send and each time another chunk's worth of operations
// has completed; the caller that completes a chunk's last operation takes
// the sample before sending its next request.
func measure(inst instance, s *server) (*phase, error) {
	n := inst.ops()
	nchunks := min(maxChunks, n)
	samples := make([]sample, nchunks+1)
	var err error
	if samples[0], err = takeSample(s); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var sampleErr error
	ph := &phase{Chunks: make([]chunk, nchunks)}
	ph.Ops, ph.Start, ph.Wall = closedLoop(n, inst.clients(), func(i int) opResult { return inst.op(s, i) },
		func(i, ordinal int) {
			mu.Lock()
			k := chunkOf(ordinal, n, nchunks)
			ph.Chunks[k].Ops = append(ph.Chunks[k].Ops, i)
			mu.Unlock()
			if ordinal == n || chunkOf(ordinal+1, n, nchunks) != k {
				smp, err := takeSample(s)
				mu.Lock()
				samples[k+1] = smp
				if err != nil && sampleErr == nil {
					sampleErr = fmt.Errorf("sampling the servers after %d operations: %w", ordinal, err)
				}
				mu.Unlock()
			}
		})
	if sampleErr != nil {
		return nil, sampleErr
	}
	samples[0].At = ph.Start
	for k := range ph.Chunks {
		a, b := samples[k], samples[k+1]
		c := &ph.Chunks[k]
		c.Dur = b.At.Sub(a.At)
		c.CPUSeconds = b.Usage.CPUSeconds - a.Usage.CPUSeconds
		c.RSSMB = b.Usage.RSSMB
		if c.Statz, err = b.Statz.sub(a.Statz); err != nil {
			return nil, err
		}
	}
	first, last := samples[0], samples[nchunks]
	ph.CPUSeconds, ph.PeakRSSMB = last.Usage.CPUSeconds-first.Usage.CPUSeconds, last.Usage.PeakRSSMB
	ph.Statz, err = last.Statz.sub(first.Statz)
	return ph, err
}

// setupReps is how many times an untraced run sets the servers up; the
// median is reported as setup_s and the last set serves the measured phase.
const setupReps = 3

// runResult is one run's output.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
	// Info carries timings that are not metrics (input generation,
	// verification), for sizing the run against the driver's budget.
	Info map[string]float64 `json:"info"`
	// Chunks is the measured phase chunk by chunk (untraced runs): when a
	// run reads oddly, this shows whether one chunk was disturbed or all.
	Chunks []chunkReport `json:"chunks,omitempty"`
}

// chunkReport is one chunk of the measured phase in the JSON report.
type chunkReport struct {
	Seconds    float64 `json:"seconds"`
	CPUSeconds float64 `json:"cpu_s"`
	RSSMB      float64 `json:"rss_mb"`
	Cells      float64 `json:"cells"`
	Pairs      float64 `json:"pairs"`
	Reads      float64 `json:"reads"`
}

// latenciesMs returns the successful operations' latencies, ascending.
func latenciesMs(ops []opResult) []float64 {
	var out []float64
	for _, r := range ops {
		if r.ok() {
			out = append(out, float64(r.latency().Nanoseconds())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// runWorkload runs one workload once: untraced for the end-to-end
// metrics, or traced for the per-layer ones.
func runWorkload(env *runEnv, w workloadDef, traced bool) (*runResult, error) {
	dir, err := os.MkdirTemp(filepath.Join(env.root, buildDir, "run"), w.Name+"-")
	if err != nil {
		return nil, err
	}
	env.runDir = dir
	defer os.RemoveAll(dir)
	if traced {
		// A traced run serves the workload twice (plain, then traced), so
		// each pass gets half the work and the run takes as long as an
		// untraced one.
		half := *env
		half.seconds /= 2
		env = &half
	}

	res := &runResult{Workload: w.Name, Seed: env.seed, Seconds: env.seconds, Traced: traced,
		Metrics: map[string]float64{}, Info: map[string]float64{}}
	t0 := time.Now()
	inst, err := w.prepare(env)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	res.Info["generate_s"] = time.Since(t0).Seconds()
	res.Attempted = inst.ops()
	if traced {
		err = runTraced(env, w, inst, res)
	} else {
		err = runUntraced(env, inst, res)
	}
	if err != nil {
		return nil, err
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func runUntraced(env *runEnv, inst instance, res *runResult) error {
	var setups []float64
	var s *server
	for k := 0; k < setupReps; k++ {
		if s != nil {
			s.h.close()
		}
		var d time.Duration
		var err error
		if s, d, err = bringUp(env, inst); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	ph, err := measure(inst, s)
	s.h.close()
	if err != nil {
		return err
	}

	t0 := time.Now()
	chk := inst.check(env, ph)
	res.Info["verify_s"] = time.Since(t0).Seconds()
	res.Info["measured_s"] = ph.Wall.Seconds()
	res.Failed, res.Problems = chk.Failed, chk.Problems

	m := res.Metrics
	m["setup_s"] = median(setups)
	m["p50_ms"] = quantile(latenciesMs(ph.Ops), 0.5)
	m["accuracy"] = chk.Accuracy
	res.Chunks = endToEndRates(ph, chk, m)
	return nil
}

// endToEndRates derives the throughput, CPU and memory metrics as medians
// over the phase's chunks. CPU is normalized per read before the median
// (chunks of overlap jobs differ in size) and scaled back to the whole
// fixed work, so server_cpu_s still reads as CPU seconds for the run.
func endToEndRates(ph *phase, chk checkResult, m map[string]float64) []chunkReport {
	var gcups, pairs, reads, cpuPerRead, rss []float64
	var totalReads float64
	var report []chunkReport
	for _, c := range ph.Chunks {
		var cells, np, nr float64
		for _, i := range c.Ops {
			cells += float64(chk.OpCells[i])
			np += float64(chk.OpPairs[i])
			nr += float64(chk.OpReads[i])
		}
		totalReads += nr
		sec := c.Dur.Seconds()
		report = append(report, chunkReport{Seconds: sec, CPUSeconds: c.CPUSeconds, RSSMB: c.RSSMB, Cells: cells, Pairs: np, Reads: nr})
		gcups = append(gcups, cells/sec/1e9)
		pairs = append(pairs, np/sec)
		reads = append(reads, nr/sec)
		rss = append(rss, c.RSSMB)
		if nr > 0 {
			cpuPerRead = append(cpuPerRead, c.CPUSeconds/nr)
		}
	}
	m["gcups"] = median(gcups)
	m["pairs_per_s"] = median(pairs)
	m["reads_per_s"] = median(reads)
	m["server_cpu_s"] = median(cpuPerRead) * totalReads
	m["rss_mb"] = median(rss)
	return report
}

// runTraced is the traced run: the workload once untraced and once with
// the span recorder on (fresh servers each), then the replay half.
// trace.overhead_frac is the difference between the two served passes.
func runTraced(env *runEnv, w workloadDef, inst instance, res *runResult) error {
	m := res.Metrics
	s, _, err := bringUp(env, inst)
	if err != nil {
		return err
	}
	plain, err := measure(inst, s)
	s.h.close()
	if err != nil {
		return err
	}

	if s, _, err = bringUp(env, inst); err != nil {
		return err
	}
	ph, err := measure(inst, s)
	s.h.close()
	if err != nil {
		return err
	}
	m["trace.overhead_frac"] = (ph.Wall.Seconds() - plain.Wall.Seconds()) / plain.Wall.Seconds()

	t0 := time.Now()
	chk := inst.check(env, ph)
	res.Info["verify_s"] = time.Since(t0).Seconds()
	res.Info["measured_s"] = ph.Wall.Seconds()
	res.Failed, res.Problems = chk.Failed, chk.Problems

	rec := &recorder{epoch: ph.Start}
	roots := inst.served(env, ph, rec, m)
	clientMetrics(ph, chk, m)

	t0 = time.Now()
	if err := inst.replay(env, ph, roots, rec, m); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	res.Info["replay_s"] = time.Since(t0).Seconds()

	path := filepath.Join(env.outDir, w.Name+".trace.json")
	if err := writeTraceFile(path, traceFile{Workload: w.Name, Seed: env.seed, Seconds: env.seconds,
		ServedWallNs: ph.Wall.Nanoseconds(), Spans: rec.spans}); err != nil {
		return err
	}
	fmt.Fprintf(env.log, "\n%s: per-layer self time (%d spans, written to %s)\n", w.Name, len(rec.spans), path)
	printLayerTable(env.log, rec.spans, ph.Wall.Nanoseconds())
	return nil
}

// clientMetrics are the client's own per-layer rows: the latency
// distribution beyond the median, the tail percentile the sample supports
// (at least ten samples beyond it), the failure share, and the servers'
// CPU per operation and peak memory.
func clientMetrics(ph *phase, chk checkResult, m map[string]float64) {
	lat := latenciesMs(ph.Ops)
	n := float64(len(ph.Ops))
	m["client.samples"] = float64(len(lat))
	m["client.fail_rate"] = float64(chk.Failed) / n
	m["client.p90_ms"] = quantile(lat, 0.90)
	m["client.p99_ms"] = quantile(lat, 0.99)
	m["client.p999_ms"] = quantile(lat, 0.999)
	m["client.max_ms"] = quantile(lat, 1)
	m["client.tail_percentile"], m["client.tail_ms"] = tailQuantile(lat)
	m["serve.cpu_ms_per_req"] = 1e3 * ph.CPUSeconds / n
	m["serve.peak_rss_mb"] = ph.PeakRSSMB
}

// newRunEnv builds the servers and prepares the output directories.
func newRunEnv(seed int64, seconds float64) (*runEnv, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	bin, err := buildServers(root)
	if err != nil {
		return nil, err
	}
	env := &runEnv{root: root, bin: bin, seed: seed, seconds: seconds,
		outDir: filepath.Join(root, "benchmark", "out"), nproc: runtime.NumCPU(), log: os.Stderr}
	for _, d := range []string{env.outDir, filepath.Join(root, buildDir, "run")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return env, nil
}
