package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"logan"
	"logan/internal/bella"
	"logan/internal/cluster"
	"logan/internal/cluster/queue"
	"logan/internal/genome"
	"logan/internal/seq"
)

// overlap-* sizing. Jobs run at BELLA's own defaults for this read model
// (coverage 8, 15% error, x=25, overlaps of at least 500 bases). The
// read sets are smaller than the 400 kbp preset of internal/genome
// (CElegansSim) so that a run holds enough jobs for a median job time
// inside the driver's time cap.
const (
	overlapCoverage   = 8
	overlapX          = 25
	overlapMinOverlap = 500
	overlapJobsPerSec = 1.8
	overlapVerifyEach = 4 // byte-identity against in-process RunFasta on every 4th job
	overlapRefPairs   = 400
	overlapQuery      = "coverage=8&errorRate=0.15&x=25&minOverlap=500"
	clusterToken      = "benchmark-cluster-token"
)

var (
	overlapJobShape  = overlapShape{GenomeLen: 80_000, Coverage: overlapCoverage, RepeatFrac: 0.05}
	overlapWarmShape = overlapShape{GenomeLen: 40_000, Coverage: overlapCoverage, RepeatFrac: 0.05}
)

type overlapInstance struct {
	cluster bool
	sets    []genome.ReadSet
	bodies  [][]byte
	warm    []byte

	eng    *logan.Aligner
	inproc map[int]inprocRun // memoized in-process runs, by job
}

// inprocRun is one in-process Overlapper.RunFasta and when it ran.
type inprocRun struct {
	res        *logan.OverlapResult
	start, end time.Time
}

func prepareOverlap(env *runEnv, clusterMode bool) *overlapInstance {
	a := &overlapInstance{cluster: clusterMode, inproc: map[int]inprocRun{}}
	// overlap-job and overlap-cluster share one stream: the same seed
	// gives both the same read sets, so their PAF must be the same bytes.
	a.sets = parallelGen(env.units(overlapJobsPerSec), func(i int) genome.ReadSet {
		return overlapReads(env.seed, streamMeasured, i, overlapJobShape)
	})
	for _, rs := range a.sets {
		a.bodies = append(a.bodies, fastaBody(rs))
	}
	a.warm = fastaBody(overlapReads(env.seed, streamWarmup, 0, overlapWarmShape))
	return a
}

func (a *overlapInstance) launch(env *runEnv, h *harness) (*server, error) {
	if !a.cluster {
		return launchServe(env, h, 1)
	}
	// Router first (it is not ready until a worker registers), then one
	// worker pointed at it. /readyz gates on both.
	s, router, err := startServe(env, h, 1,
		"-cluster", "-cluster-queue", filepath.Join(h.dir, "q.wal"), "-cluster-token", clusterToken)
	if err != nil {
		return nil, err
	}
	if err := router.waitReady(s.client, s.base+"/healthz"); err != nil {
		return nil, err
	}
	if _, err := h.start("logan-worker", filepath.Join(env.bin, "logan-worker"),
		"-router", s.base, "-name", "w0", "-token", clusterToken); err != nil {
		return nil, err
	}
	return s, router.waitReady(s.client, s.base+"/readyz")
}

func (a *overlapInstance) warmOps() int { return 1 }
func (a *overlapInstance) ops() int     { return len(a.bodies) }
func (a *overlapInstance) clients() int { return 1 }
func (a *overlapInstance) warmOp(s *server, i int) opResult {
	return s.runJob(overlapQuery, a.warm)
}
func (a *overlapInstance) op(s *server, i int) opResult { return s.runJob(overlapQuery, a.bodies[i]) }

// overlapConfig is the configuration the server resolves overlapQuery to.
func overlapConfig() logan.OverlapConfig {
	cfg := logan.DefaultOverlapConfig(overlapCoverage, readErrRate, overlapX)
	cfg.MinOverlap = overlapMinOverlap
	return cfg
}

// runInProcess is Overlapper.RunFasta on job i's upload — the call both
// job stores end in — memoized so the check and the replay share it.
func (a *overlapInstance) runInProcess(i int) (inprocRun, error) {
	if run, ok := a.inproc[i]; ok {
		return run, nil
	}
	if a.eng == nil {
		eng, err := logan.NewAligner(logan.EngineOptions{})
		if err != nil {
			return inprocRun{}, err
		}
		a.eng = eng
	}
	ov, err := logan.NewOverlapper(a.eng, logan.OverlapperOptions{})
	if err != nil {
		return inprocRun{}, err
	}
	run := inprocRun{start: time.Now()}
	run.res, err = ov.RunFasta(context.Background(), bytes.NewReader(a.bodies[i]), overlapConfig())
	run.end = time.Now()
	if err == nil {
		a.inproc[i] = run
	}
	return run, err
}

func (a *overlapInstance) close() {
	if a.eng != nil {
		a.eng.Close()
		a.eng = nil
	}
}

// check requires every job to finish, compares every 4th job's PAF byte
// for byte with in-process RunFasta (so overlap-job and overlap-cluster,
// which run the same read sets, are both held to the same bytes), and
// scores every job's PAF against the simulator's true overlaps.
func (a *overlapInstance) check(env *runEnv, ph *phase) checkResult {
	c := newCheckResult(len(ph.Ops))
	found, truth := 0, 0
	for i, r := range ph.Ops {
		if !r.ok() || r.Job == nil {
			c.Failed++
			c.problem("job %d: %s", i, r.failure())
			continue
		}
		wrong := false
		if r.Job.Reads != len(a.sets[i].Reads) {
			wrong = true
			c.problem("job %d: server counted %d reads, sent %d", i, r.Job.Reads, len(a.sets[i].Reads))
		}
		c.OpReads[i] = int64(r.Job.Reads)
		c.OpCells[i] = r.Job.Cells
		c.OpPairs[i] = int64(bytes.Count(r.Body, []byte("\n")))
		paf, err := parsePAF(r.Body)
		if err == nil {
			var f, t int
			f, t, err = overlapRecall(a.sets[i], paf, overlapMinOverlap)
			found, truth = found+f, truth+t
		}
		if err != nil {
			wrong = true
			c.problem("job %d: %v", i, err)
		}
		if i%overlapVerifyEach == 0 {
			want, err := a.pafInProcess(i)
			if err != nil {
				wrong = true
				c.problem("job %d: in-process RunFasta: %v", i, err)
			} else if !bytes.Equal(r.Body, want) {
				wrong = true
				c.problem("job %d: served PAF differs from in-process Overlapper.RunFasta: %s", i, firstDiffLine(r.Body, want))
			}
		}
		if wrong {
			c.Failed++
		}
	}
	if truth > 0 {
		c.Accuracy = float64(found) / float64(truth)
	}
	return c
}

func (a *overlapInstance) pafInProcess(i int) ([]byte, error) {
	run, err := a.runInProcess(i)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err = logan.WritePAF(&out, run.res.Records)
	return out.Bytes(), err
}

func (a *overlapInstance) served(env *runEnv, ph *phase, rec *recorder, m map[string]float64) []int {
	roots := make([]int, len(ph.Ops))
	var jobSeconds []float64
	requeues := 0
	for i, r := range ph.Ops {
		op := fmt.Sprintf("job%d", i)
		roots[i] = rec.add(0, op, "client.job", r.Start, r.End, float64(len(a.sets[i].Reads)), "reads")
		if !r.ok() || r.Job == nil {
			continue
		}
		rec.add(roots[i], op, "serve.job_submit", r.Start, r.SubmitEnd, float64(len(a.bodies[i])), "bytes")
		rec.add(roots[i], op, "serve.job_paf", r.PAFFrom, r.End, float64(len(r.Body)), "bytes")
		jobSeconds = append(jobSeconds, r.latency().Seconds())
		requeues += r.Job.Requeues
	}
	m["client.job_s"] = median(jobSeconds)
	if a.cluster {
		m["cluster.requeues"] = float64(requeues)
	} else {
		servedStatz(ph, m) // in cluster mode the worker's engine does the work, not the router's
	}
	return roots
}

// replay runs the pipeline in process on the jobs the check sampled and
// reports BELLA's stage times and counts (median per job), then times
// k-mer counting and the SpGEMM directly and runs one job's candidate
// pairs — the narrow-band, x=25 use of the kernel — through each X-drop
// kernel. overlap-cluster adds the queue and the job codec.
func (a *overlapInstance) replay(env *runEnv, ph *phase, roots []int, rec *recorder, m map[string]float64) error {
	stage := map[string][]float64{}
	var overhead []float64
	for i := 0; i < len(a.bodies); i += overlapVerifyEach {
		run, err := a.runInProcess(i)
		if err != nil {
			return err
		}
		st := run.res.Stats
		rec.add(roots[i], fmt.Sprintf("job%d", i), "overlap.run", run.start, run.end, float64(st.Reads), "reads")
		for name, d := range map[string]time.Duration{
			"bella.count_s": st.Times.Count, "bella.prune_s": st.Times.Prune, "bella.matrix_s": st.Times.Matrix,
			"bella.spgemm_s": st.Times.SpGEMM, "bella.binning_s": st.Times.Binning, "bella.align_s": st.Times.Alignment,
			"bella.filter_s": st.Times.Filter, "overlap.run_s": st.WallTime,
		} {
			stage[name] = append(stage[name], d.Seconds())
		}
		for name, v := range map[string]float64{
			"bella.reliable_kmers": float64(st.ReliableKmers), "bella.candidate_pairs": float64(st.CandidatePairs),
			"bella.matrix_nnz": float64(st.MatrixNNZ), "bella.cells_per_job": float64(st.Cells),
		} {
			stage[name] = append(stage[name], v)
		}
		if ph.Ops[i].ok() {
			overhead = append(overhead, ph.Ops[i].latency().Seconds()-st.WallTime.Seconds())
		}
	}
	for name, vs := range stage {
		m[name] = median(vs)
	}
	if a.cluster {
		m["cluster.job_overhead_s"] = median(overhead)
	} else {
		m["serve.job_overhead_s"] = median(overhead)
	}

	// bella: the two stages with a direct entry point, on job 0's reads.
	reads, cfg := a.sets[0].Reads, overlapConfig()
	var idx bella.KmerIndex
	sp := rec.timed(0, "replay", "bella.count_kmers", "bases", func() (bases float64) {
		idx = bella.CountKmers(reads, cfg.K, 0)
		for _, r := range reads {
			bases += float64(len(r.Seq))
		}
		return bases
	})
	m["bella.count_mbases_per_s"] = sp.perSecond() / 1e6
	lo, hi := bella.ReliableBounds(cfg.Coverage, cfg.ErrorRate, cfg.K, 1e-3)
	mat := bella.BuildMatrix(reads, cfg.K, idx.Reliable(lo, hi))
	var cands []bella.Candidate
	sp = rec.timed(0, "replay", "bella.spgemm", "nnz", func() float64 {
		cands = mat.SpGEMM(bella.SpGEMMOptions{MaxSeedsPerPair: cfg.MaxSeeds, MinShared: cfg.MinShared})
		return float64(mat.NNZ)
	})
	m["bella.spgemm_mnnz_per_s"] = sp.perSecond() / 1e6

	// seq: parsing the upload.
	var err error
	sp = rec.timed(0, "replay", "seq.fasta", "bytes", func() float64 {
		_, err = seq.ReadFasta(bytes.NewReader(a.bodies[0]))
		return float64(len(a.bodies[0]))
	})
	if err != nil {
		return err
	}
	m["seq.fasta_mb_per_s"] = sp.perSecond() / 1e6

	// xdrop: job 0's candidate pairs at x=25, seeded the way the
	// pipeline's binning stage seeds them.
	seeds := make([]bella.ChosenSeed, len(cands))
	for i, c := range cands {
		seeds[i] = bella.ChooseSeed(c, len(reads[c.I].Seq), len(reads[c.J].Seq), cfg.K, cfg.BinWidth)
	}
	pairs := bella.BuildAlignmentPairs(reads, cands, seeds, cfg.K)
	if err := replayKernels(context.Background(), env, rec, pairs, pairs[:min(overlapRefPairs, len(pairs))], overlapX, m); err != nil {
		return err
	}
	if a.cluster {
		return a.replayCluster(env, rec, m)
	}
	return nil
}

// replayCluster times what the router adds around a job: framing the job
// spec, and a durable append and acknowledgement (fsync included) of a
// spec-sized payload in the write-ahead queue.
func (a *overlapInstance) replayCluster(env *runEnv, rec *recorder, m map[string]float64) error {
	specs := make([][]byte, len(a.bodies))
	var err error
	sp := rec.timed(0, "replay", "cluster.spec_marshal", "bytes", func() (n float64) {
		for i, body := range a.bodies {
			spec := cluster.Spec{ID: fmt.Sprintf("job%d", i), Config: cluster.ConfigFromOverlap(overlapConfig()), Fasta: body}
			if specs[i], err = spec.Marshal(); err != nil {
				break
			}
			n += float64(len(specs[i]))
		}
		return n
	})
	if err != nil {
		return err
	}
	m["cluster.spec_marshal_mb_per_s"] = sp.perSecond() / 1e6

	wal, _, err := queue.Open(filepath.Join(env.runDir, "replay.wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	var appendNs, ackNs float64
	for i, payload := range specs {
		jid := fmt.Sprintf("job%d", i)
		sp := rec.timed(0, jid, "queue.append", "bytes", func() float64 {
			err = wal.Append(jid, payload)
			return float64(len(payload))
		})
		if err != nil {
			return err
		}
		appendNs += sp.ns()
	}
	for i := range specs {
		jid := fmt.Sprintf("job%d", i)
		sp := rec.timed(0, jid, "queue.ack", "", func() float64 {
			err = wal.Ack(jid)
			return 0
		})
		if err != nil {
			return err
		}
		ackNs += sp.ns()
	}
	m["queue.append_ms"] = appendNs / 1e6 / float64(len(specs))
	m["queue.ack_ms"] = ackNs / 1e6 / float64(len(specs))
	return nil
}
