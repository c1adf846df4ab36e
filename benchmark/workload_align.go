package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"logan"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// alignKind is one of the two /align workloads. ReqPerSec sizes the fixed
// work: requests per nominal second, calibrated on the 2-core reference
// sandbox so that -seconds N measures for about N seconds there.
type alignKind struct {
	Name      string
	Shape     alignShape
	OneClient bool
	ReqPerSec float64
	WarmReqs  int
	// ReplayReqs bounds how many requests' pairs the replay half re-runs
	// through each layer; RefReqs how many go through the single-thread
	// reference kernel.
	ReplayReqs, RefReqs int
}

var (
	alignBulk = alignKind{Name: wAlignBulk, OneClient: true, ReqPerSec: 14, WarmReqs: 6, ReplayReqs: 3, RefReqs: 1,
		Shape: alignShape{PairsPerReq: 128, MinLen: 2500, MaxLen: 7500, X: 100}}
	alignSmall = alignKind{Name: wAlignSmall, ReqPerSec: 555, WarmReqs: 400, ReplayReqs: 400, RefReqs: 400,
		Shape: alignShape{PairsPerReq: 16, MinLen: 100, MaxLen: 400, X: 50}}
)

type alignInstance struct {
	kind     alignKind
	seed     int64
	nclients int
	bodies   [][]byte
	warm     [][]byte
}

func prepareAlign(env *runEnv, k alignKind) *alignInstance {
	a := &alignInstance{kind: k, seed: env.seed, nclients: env.clientsFor()}
	if k.OneClient {
		a.nclients = 1
	}
	a.bodies = alignBodies(env.seed, k.Name, streamMeasured, env.units(k.ReqPerSec), k.Shape)
	a.warm = alignBodies(env.seed, k.Name, streamWarmup, k.WarmReqs, k.Shape)
	return a
}

// startServe starts logan-serve with its default flags plus extra on a
// free loopback port, without waiting for it.
func startServe(env *runEnv, h *harness, conns int, extra ...string) (*server, *proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, err
	}
	p, err := h.start("logan-serve", filepath.Join(env.bin, "logan-serve"), append([]string{"-addr", addr}, extra...)...)
	if err != nil {
		return nil, nil, err
	}
	return &server{h: h, base: "http://" + addr, client: newHTTPClient(conns)}, p, nil
}

// launchServe is startServe, then waiting for /readyz.
func launchServe(env *runEnv, h *harness, conns int, extra ...string) (*server, error) {
	s, p, err := startServe(env, h, conns, extra...)
	if err != nil {
		return nil, err
	}
	return s, p.waitReady(s.client, s.base+"/readyz")
}

func (a *alignInstance) launch(env *runEnv, h *harness) (*server, error) {
	return launchServe(env, h, a.nclients)
}
func (a *alignInstance) close()       {}
func (a *alignInstance) warmOps() int { return len(a.warm) }
func (a *alignInstance) ops() int     { return len(a.bodies) }
func (a *alignInstance) clients() int { return a.nclients }
func (a *alignInstance) warmOp(s *server, i int) opResult {
	return s.do(http.MethodPost, "/align", "application/json", a.warm[i])
}
func (a *alignInstance) op(s *server, i int) opResult {
	return s.do(http.MethodPost, "/align", "application/json", a.bodies[i])
}

// oracleEvery: the oracle re-scores every 8th request.
const oracleEvery = 8

// pairsOf regenerates the pairs of measured request i from the seed.
func (a *alignInstance) pairsOf(i int) []seq.Pair {
	return alignPairs(a.seed, a.kind.Name, streamMeasured, i, a.kind.Shape)
}

// check parses every response, sums the work the server reported, and
// re-scores every 8th request with the reference-kernel oracle.
func (a *alignInstance) check(env *runEnv, ph *phase) checkResult {
	c := newCheckResult(len(ph.Ops))
	bad := make([]bool, len(ph.Ops))
	resps := make([]alignResponse, len(ph.Ops))
	for i, r := range ph.Ops {
		if !r.ok() {
			bad[i] = true
			c.problem("request %d: %s", i, r.failure())
			continue
		}
		if err := json.Unmarshal(r.Body, &resps[i]); err != nil {
			bad[i] = true
			c.problem("request %d: response is not JSON: %v", i, err)
			continue
		}
		if n := a.kind.Shape.PairsPerReq; len(resps[i].Alignments) != n || resps[i].Stats.Pairs != n {
			bad[i] = true
			c.problem("request %d: %d alignments, stats.pairs %d, sent %d pairs", i, len(resps[i].Alignments), resps[i].Stats.Pairs, n)
			continue
		}
		c.OpCells[i] = resps[i].Stats.Cells
		c.OpPairs[i] = int64(resps[i].Stats.Pairs)
		c.OpReads[i] = 2 * c.OpPairs[i] // two sequences per pair
	}

	// The oracle runs on all cores; it starts after the servers are gone.
	var mu sync.Mutex
	var sampled, matched int
	var wg sync.WaitGroup
	sem := make(chan struct{}, env.nproc)
	for i := 0; i < len(ph.Ops); i += oracleEvery {
		if bad[i] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			pairs := a.pairsOf(i)
			ok, diff := checkAlignments(pairs, resps[i].Alignments, a.kind.Shape.X)
			mu.Lock()
			defer mu.Unlock()
			sampled += len(pairs)
			matched += ok
			if diff != "" {
				bad[i] = true
				c.problem("request %d differs from the xdrop.ExtendReference oracle: %s", i, diff)
			}
		}()
	}
	wg.Wait()
	if sampled > 0 {
		c.Accuracy = float64(matched) / float64(sampled)
	}
	for _, b := range bad {
		if b {
			c.Failed++
		}
	}
	return c
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// served lays each request's X-Logan-Trace stages out as child spans of a
// client.request root (the header carries durations, not offsets: the
// stages run in pipeline order from the moment the handler starts, and
// what is left of the client's latency is serve.wire — response encoding,
// the socket, and the client's read), and reads the /statz deltas.
func (a *alignInstance) served(env *runEnv, ph *phase, rec *recorder, m map[string]float64) []int {
	roots := make([]int, len(ph.Ops))
	var sum stageDurations
	var latency time.Duration
	traced := 0
	for i, r := range ph.Ops {
		op := fmt.Sprintf("req%d", i)
		roots[i] = rec.add(0, op, "client.request", r.Start, r.End, float64(a.kind.Shape.PairsPerReq), "pairs")
		if !r.ok() {
			continue
		}
		st, err := parseTraceHeader(r.Header.Get("X-Logan-Trace"))
		if err != nil {
			continue
		}
		traced++
		latency += r.latency()
		sum.add(st)
		at := r.Start
		for _, c := range []struct {
			name string
			d    time.Duration
		}{{"serve.admit", st.Admit}, {"coalescer.wait", st.Wait}, {"aligner.partition", st.Partition},
			{"xdrop.kernel", st.Kernel}, {"aligner.scatter", st.Scatter}} {
			end := at.Add(c.d)
			if end.After(r.End) {
				end = r.End
			}
			rec.add(roots[i], op, c.name, at, end, 0, "")
			at = end
		}
		rec.add(roots[i], op, "serve.wire", at, r.End, float64(len(a.bodies[i])+len(r.Body)), "bytes")
	}
	if n := time.Duration(traced); n > 0 {
		m["serve.admit_ms"] = ms(sum.Admit / n)
		m["coalescer.wait_ms"] = ms(sum.Wait / n)
		m["aligner.partition_ms"] = ms(sum.Partition / n)
		m["xdrop.kernel_ms"] = ms(sum.Kernel / n)
		m["aligner.scatter_ms"] = ms(sum.Scatter / n)
		m["serve.wire_ms"] = ms((latency - sum.total()) / n)
	}
	d := ph.Statz
	if d.MergedBatches > 0 {
		m["coalescer.merge_ratio"] = float64(d.MergedRequests) / float64(d.MergedBatches)
		m["coalescer.deadline_flush_frac"] = float64(d.DeadlineFlushes) / float64(d.MergedBatches)
	}
	if n := d.Direct + d.Enqueued; n > 0 {
		m["coalescer.direct_frac"] = float64(d.Direct) / float64(n)
	}
	if n := d.CacheHits + d.CacheMisses; n > 0 {
		m["cache.hit_frac"] = float64(d.CacheHits) / float64(n)
	}
	servedStatz(ph, m)
	return roots
}

// servedStatz derives the backend and kernel shares every workload that
// extends on the front server's engine can report.
func servedStatz(ph *phase, m map[string]float64) {
	d := ph.Statz
	m["backend.cpu_busy_frac"] = float64(d.BackendBusyNS) / float64(ph.Wall.Nanoseconds())
	if d.KernelCells > 0 {
		m["xdrop.vector_cell_frac"] = float64(d.VectorCells) / float64(d.KernelCells)
	}
}

// replay times the layers under /align from outside, on this workload's
// own requests.
func (a *alignInstance) replay(env *runEnv, ph *phase, roots []int, rec *recorder, m map[string]float64) error {
	ctx := context.Background()
	n := min(a.kind.ReplayReqs, len(a.bodies))
	cfg := logan.DefaultConfig(a.kind.Shape.X)

	// serve: the JSON codec over the mirrored wire structs.
	reqs := make([]alignRequest, n)
	var err error
	sp := rec.timed(0, "replay", "serve.decode", "bytes", func() (bytes float64) {
		for i := 0; i < n && err == nil; i++ {
			err = json.Unmarshal(a.bodies[i], &reqs[i])
			bytes += float64(len(a.bodies[i]))
		}
		return bytes
	})
	if err != nil {
		return err
	}
	m["serve.decode_mb_per_s"] = sp.perSecond() / 1e6
	resps := make([]alignResponse, n)
	for i := 0; i < n; i++ {
		if err := json.Unmarshal(ph.Ops[i].Body, &resps[i]); err != nil {
			return fmt.Errorf("response %d: %w", i, err)
		}
	}
	sp = rec.timed(0, "replay", "serve.encode", "bytes", func() (bytes float64) {
		for i := 0; i < n; i++ {
			b, _ := json.Marshal(resps[i]) // ints and floats always encode
			bytes += float64(len(b))
		}
		return bytes
	})
	m["serve.encode_mb_per_s"] = sp.perSecond() / 1e6

	// seq: ingestion of the decoded sequences.
	perReq := make([][]logan.Pair, n)
	for i, rq := range reqs {
		perReq[i] = make([]logan.Pair, len(rq.Pairs))
		for j, p := range rq.Pairs {
			perReq[i][j] = logan.Pair{Query: []byte(p.Query), Target: []byte(p.Target), SeedQ: p.SeedQ, SeedT: p.SeedT, SeedLen: p.SeedLen}
		}
	}
	sp = rec.timed(0, "replay", "seq.frombytes", "bytes", func() (bytes float64) {
		for _, pairs := range perReq {
			for _, p := range pairs {
				if _, err = seq.FromBytes(p.Query); err == nil {
					_, err = seq.FromBytes(p.Target)
				}
				bytes += float64(len(p.Query) + len(p.Target))
			}
		}
		return bytes
	})
	if err != nil {
		return err
	}
	m["seq.frombytes_mb_per_s"] = sp.perSecond() / 1e6

	// aligner: Aligner.Align per request, same concurrency as the served run.
	eng, err := logan.NewAligner(logan.EngineOptions{})
	if err != nil {
		return err
	}
	defer eng.Close()
	var mu sync.Mutex
	var engineWall, backendTime time.Duration
	alignMean, err := a.replayLoop(rec, roots, "aligner.align", perReq, func(pairs []logan.Pair) error {
		_, st, err := eng.Align(ctx, pairs, cfg)
		mu.Lock()
		engineWall += st.WallTime
		for _, b := range st.PerBackend {
			backendTime += b.Time
		}
		mu.Unlock()
		return err
	})
	if err != nil {
		return err
	}
	m["aligner.align_ms_per_req"] = ms(alignMean)
	if engineWall > 0 {
		m["aligner.overhead_frac"] = 1 - float64(backendTime)/float64(engineWall)
	}

	if a.kind.Name == wAlignSmall {
		if err := a.replayCoalescer(ctx, eng, cfg, rec, roots, perReq, alignMean, m); err != nil {
			return err
		}
	}
	return replayKernels(ctx, env, rec, a.replayPairs(n), a.replayPairs(min(a.kind.RefReqs, n)), a.kind.Shape.X, m)
}

// replayPairs regenerates the first n measured requests' pairs as one batch.
func (a *alignInstance) replayPairs(n int) []seq.Pair {
	var out []seq.Pair
	for i := 0; i < n; i++ {
		out = append(out, a.pairsOf(i)...)
	}
	return out
}

// replayLoop calls f once per request at the workload's client count,
// records one span per call parented to that request's root, and returns
// the mean call time.
func (a *alignInstance) replayLoop(rec *recorder, roots []int, name string, perReq [][]logan.Pair, f func([]logan.Pair) error) (time.Duration, error) {
	type timing struct{ start, end time.Time }
	times := make([]timing, len(perReq))
	errs := make([]error, len(perReq))
	closedLoop(len(perReq), a.nclients, func(i int) opResult {
		times[i].start = time.Now()
		errs[i] = f(perReq[i])
		times[i].end = time.Now()
		return opResult{}
	}, nil)
	var total time.Duration
	for i, t := range times {
		if errs[i] != nil {
			return 0, fmt.Errorf("%s request %d: %w", name, i, errs[i])
		}
		rec.add(roots[i], fmt.Sprintf("req%d", i), name, t.start, t.end, float64(len(perReq[i])), "pairs")
		total += t.end.Sub(t.start)
	}
	return total / time.Duration(len(perReq)), nil
}

// replayCoalescer measures the coalescer's own cost (Coalescer.Align −
// Aligner.Align at default options and the same concurrency) and the
// result cache's miss and hit cost: the same requests twice through a
// cached coalescer, first pass all misses, second pass all hits.
func (a *alignInstance) replayCoalescer(ctx context.Context, eng *logan.Aligner, cfg logan.Config, rec *recorder, roots []int, perReq [][]logan.Pair, alignMean time.Duration, m map[string]float64) error {
	coal := eng.NewCoalescer(logan.CoalescerOptions{})
	mean, err := a.replayLoop(rec, roots, "coalescer.align", perReq, func(pairs []logan.Pair) error {
		_, _, err := coal.Align(ctx, pairs, cfg)
		return err
	})
	coal.Close()
	if err != nil {
		return err
	}
	m["coalescer.self_ms"] = ms(mean - alignMean)

	npairs := 0
	for _, p := range perReq {
		npairs += len(p)
	}
	cached := eng.NewCoalescer(logan.CoalescerOptions{Cache: logan.NewResultCache(2 * npairs)})
	defer cached.Close()
	for _, pass := range []struct{ span, metric string }{
		{"cache.miss_pass", "cache.miss_ns_per_pair"}, {"cache.hit_pass", "cache.hit_ns_per_pair"}} {
		start := time.Now()
		_, err := a.replayLoop(rec, roots, pass.span, perReq, func(pairs []logan.Pair) error {
			_, _, err := cached.Align(ctx, pairs, cfg)
			return err
		})
		if err != nil {
			return err
		}
		m[pass.metric] = float64(time.Since(start).Nanoseconds()) / float64(npairs)
	}
	if cm := cached.Metrics(); cm.CacheMisses != int64(npairs) || cm.CacheHits != int64(npairs) {
		return fmt.Errorf("cache replay: %d misses and %d hits for %d pairs sent twice", cm.CacheMisses, cm.CacheHits, npairs)
	}
	return nil
}

// Bytes the kernels touch per DP cell, computed from the width of a cell
// in each kernel's anti-diagonal rows (three reads — up, left, diagonal —
// and one write) plus the two sequence bytes compared. Computed, not
// measured: it ignores cache misses.
const (
	vectorBytesPerCell = 4*2 + 2 // int16 lanes
	scalarBytesPerCell = 4*4 + 2 // int32 cells
)

// replayKernels runs the workload's pairs through each X-drop kernel on a
// Pool of nproc workers, and a subset through the single-thread reference
// kernel, the plain baseline.
func replayKernels(ctx context.Context, env *runEnv, rec *recorder, pairs, refPairs []seq.Pair, x int32, m map[string]float64) error {
	pool := xdrop.NewPool(env.nproc)
	defer pool.Close()
	results := make([]xdrop.SeedResult, len(pairs))
	linear := xdrop.LinearScheme(paperScoring)
	affine := xdrop.AffineScheme(xdrop.AffineScoring{Match: 1, Mismatch: -1, GapOpen: -1, GapExtend: -1})
	var vec xdrop.BatchStats
	for _, k := range []struct {
		span, metric string
		run          func() (xdrop.BatchStats, error)
	}{
		{"xdrop.vector", "xdrop.vector_cells_per_ns", func() (xdrop.BatchStats, error) {
			return pool.ExtendBatchKernel(ctx, pairs, results, linear, x, xdrop.KernelVector)
		}},
		{"xdrop.scalar", "xdrop.scalar_cells_per_ns", func() (xdrop.BatchStats, error) {
			return pool.ExtendBatchKernel(ctx, pairs, results, linear, x, xdrop.KernelScalar)
		}},
		{"xdrop.affine", "xdrop.affine_cells_per_ns", func() (xdrop.BatchStats, error) {
			return pool.ExtendBatchScheme(ctx, pairs, results, affine, x)
		}},
	} {
		var st xdrop.BatchStats
		var err error
		sp := rec.timed(0, "replay", k.span, "cells", func() float64 {
			st, err = k.run()
			return float64(st.Cells)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", k.span, err)
		}
		m[k.metric] = sp.Work / sp.ns()
		if k.span == "xdrop.vector" {
			vec = st
		}
	}
	m["xdrop.cells_per_pair"] = float64(vec.Cells) / float64(len(pairs))
	m["xdrop.mean_band"] = vec.MeanBand()
	m["xdrop.computed_bytes_per_cell"] = scalarBytesPerCell
	if xdrop.SelectKernel(linear, x) == xdrop.KernelVector {
		m["xdrop.computed_bytes_per_cell"] = vectorBytesPerCell
	}

	sp := rec.timed(0, "replay", "xdrop.reference", "cells", func() (cells float64) {
		for _, p := range refPairs {
			cells += float64(oracleAlign(p, x).Cells)
		}
		return cells
	})
	m["xdrop.reference_cells_per_ns"] = sp.Work / sp.ns()
	return nil
}
