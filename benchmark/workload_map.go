package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"logan"
	"logan/internal/chain"
	"logan/internal/genome"
	"logan/internal/minidx"
	"logan/internal/seq"
)

// map-reads sizing. mapReqPerSec is calibrated like alignKind.ReqPerSec.
const (
	mapRefLen       = 2_000_000
	mapReadsPerReq  = 256
	mapX            = 100
	mapReqPerSec    = 8.5
	mapWarmReqs     = 2
	mapVerifyEvery  = 4 // byte-identity against in-process MapFasta on every 4th request
	mapReplayReqs   = 4
	mapRequestQuery = "/map?x=100"
)

type mapInstance struct {
	seed     int64
	refFasta []byte
	refPath  string
	bodies   [][]byte
	nreads   []int
	warm     [][]byte

	// In-process twin of the server's mapping tier, built on first use
	// (by the byte-identity check, and by the replay half).
	eng             *logan.Aligner
	mapper          *logan.Mapper
	index           *minidx.Index
	refBases        int
	buildNs, loadNs int64
	indexBytes      int
}

func prepareMap(env *runEnv) (instance, error) {
	a := &mapInstance{seed: env.seed}
	ref := mapReference(env.seed, mapRefLen)
	a.refFasta = fastaBytes([]seq.Record{{Name: ref.Name, Seq: ref.Seq}})
	a.refBases = len(ref.Seq)
	// The reference is an input: it is on disk before any server starts.
	a.refPath = filepath.Join(env.runDir, "ref.fa")
	if err := os.WriteFile(a.refPath, a.refFasta, 0o644); err != nil {
		return nil, err
	}
	n := env.units(mapReqPerSec)
	sets := parallelGen(n, func(i int) genome.ReadSet { return mapReads(env.seed, ref, streamMeasured, i, mapReadsPerReq) })
	for _, rs := range sets {
		a.bodies = append(a.bodies, fastaBody(rs))
		a.nreads = append(a.nreads, len(rs.Reads))
	}
	for i := 0; i < mapWarmReqs; i++ {
		a.warm = append(a.warm, fastaBody(mapReads(env.seed, ref, streamWarmup, i, mapReadsPerReq)))
	}
	return a, nil
}

func (a *mapInstance) launch(env *runEnv, h *harness) (*server, error) {
	return launchServe(env, h, 1, "-map-ref", a.refPath)
}
func (a *mapInstance) warmOps() int { return len(a.warm) }
func (a *mapInstance) ops() int     { return len(a.bodies) }
func (a *mapInstance) clients() int { return 1 }
func (a *mapInstance) warmOp(s *server, i int) opResult {
	return s.do(http.MethodPost, mapRequestQuery, "text/x-fasta", a.warm[i])
}
func (a *mapInstance) op(s *server, i int) opResult {
	return s.do(http.MethodPost, mapRequestQuery, "text/x-fasta", a.bodies[i])
}

// inproc builds the in-process mapper over the same reference bytes the
// server indexed, with the same (default) index options, timing the index
// build and a save/load round trip on the way.
func (a *mapInstance) inproc() error {
	if a.mapper != nil {
		return nil
	}
	recs, err := seq.ReadFasta(bytes.NewReader(a.refFasta))
	if err != nil {
		return err
	}
	refs := make([]minidx.Ref, len(recs))
	for i, r := range recs {
		refs[i] = minidx.Ref{Name: r.Name, Seq: r.Seq}
	}
	t0 := time.Now()
	if a.index, err = minidx.Build(refs, minidx.Options{}); err != nil {
		return err
	}
	a.buildNs = time.Since(t0).Nanoseconds()
	var saved bytes.Buffer
	if err := a.index.Save(&saved); err != nil {
		return err
	}
	a.indexBytes = saved.Len()
	if a.eng, err = logan.NewAligner(logan.EngineOptions{}); err != nil {
		return err
	}
	if a.mapper, err = logan.NewMapper(a.eng, logan.MapperOptions{}); err != nil {
		return err
	}
	t0 = time.Now()
	_, err = a.mapper.Load(&saved)
	a.loadNs = time.Since(t0).Nanoseconds()
	return err
}

func (a *mapInstance) close() {
	if a.eng != nil {
		a.eng.Close()
		a.eng, a.mapper = nil, nil
	}
}

// check compares every 4th response byte for byte with in-process
// MapFasta on the same body (the call the handler itself makes), and
// scores every response's primary placements against the simulated loci.
func (a *mapInstance) check(env *runEnv, ph *phase) checkResult {
	c := newCheckResult(len(ph.Ops))
	// /map responses carry no cell counts; the chunks' /statz deltas do,
	// so each chunk's cells are shared out over its requests.
	for _, ch := range ph.Chunks {
		for _, i := range ch.Ops {
			c.OpCells[i] = ch.Statz.BackendCells / int64(len(ch.Ops))
		}
	}
	placed, reads := 0, 0
	for i, r := range ph.Ops {
		if !r.ok() {
			c.Failed++
			c.problem("request %d: %s", i, r.failure())
			continue
		}
		c.OpReads[i] = int64(a.nreads[i])
		reads += a.nreads[i]
		wrong := false
		if got, _ := strconv.Atoi(r.Header.Get("X-Logan-Map-Reads")); got != a.nreads[i] {
			wrong = true
			c.problem("request %d: server counted %d reads, sent %d", i, got, a.nreads[i])
		}
		paf, err := parsePAF(r.Body)
		if err != nil {
			wrong = true
			c.problem("request %d: %v", i, err)
		}
		placed += mapAccuracy(paf)
		c.OpPairs[i] = int64(len(paf))
		if i%mapVerifyEvery == 0 {
			want, err := a.mapInProcess(a.bodies[i])
			if err != nil {
				wrong = true
				c.problem("request %d: in-process MapFasta: %v", i, err)
			} else if !bytes.Equal(r.Body, want) {
				wrong = true
				c.problem("request %d: served PAF differs from in-process Mapper.MapFasta: %s", i, firstDiffLine(r.Body, want))
			}
		}
		if wrong {
			c.Failed++
		}
	}
	if reads > 0 {
		c.Accuracy = float64(placed) / float64(reads)
	}
	return c
}

func (a *mapInstance) mapInProcess(body []byte) ([]byte, error) {
	if err := a.inproc(); err != nil {
		return nil, err
	}
	res, err := a.mapper.MapFasta(context.Background(), bytes.NewReader(body), logan.DefaultMapConfig(mapX))
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err = logan.WritePAF(&out, res.Records)
	return out.Bytes(), err
}

func (a *mapInstance) served(env *runEnv, ph *phase, rec *recorder, m map[string]float64) []int {
	roots := make([]int, len(ph.Ops))
	for i, r := range ph.Ops {
		roots[i] = rec.add(0, fmt.Sprintf("req%d", i), "client.request", r.Start, r.End, float64(a.nreads[i]), "reads")
	}
	servedStatz(ph, m)
	return roots
}

// replay times the mapping layers on the first few measured requests:
// FASTA parsing, index build and load, minimizer extraction, index lookup,
// chaining, and Mapper.Map as a whole.
func (a *mapInstance) replay(env *runEnv, ph *phase, roots []int, rec *recorder, m map[string]float64) error {
	if err := a.inproc(); err != nil {
		return err
	}
	m["minidx.build_mbases_per_s"] = float64(a.refBases) / 1e6 / (float64(a.buildNs) / 1e9)
	m["minidx.load_mb_per_s"] = float64(a.indexBytes) / 1e6 / (float64(a.loadNs) / 1e9)

	n := min(mapReplayReqs, len(a.bodies))
	reqs := make([][]seq.Record, n)
	var err error
	sp := rec.timed(0, "replay", "seq.fasta", "bytes", func() (n float64) {
		for i := range reqs {
			if reqs[i], err = seq.ReadFasta(bytes.NewReader(a.bodies[i])); err != nil {
				break
			}
			n += float64(len(a.bodies[i]))
		}
		return n
	})
	if err != nil {
		return err
	}
	m["seq.fasta_mb_per_s"] = sp.perSecond() / 1e6

	// minidx: extraction, then lookup of every minimizer.
	k, w := a.index.K(), a.index.W()
	var perRead [][]minidx.Minimizer
	var lens []int
	sp = rec.timed(0, "replay", "minidx.extract", "bases", func() (bases float64) {
		for _, recs := range reqs {
			for _, r := range recs {
				perRead = append(perRead, minidx.Extract(nil, r.Seq, k, w))
				lens = append(lens, len(r.Seq))
				bases += float64(len(r.Seq))
			}
		}
		return bases
	})
	nreads := float64(len(perRead))
	m["minidx.extract_mbases_per_s"] = sp.perSecond() / 1e6
	minimizers := 0.0
	for _, ms := range perRead {
		minimizers += float64(len(ms))
	}
	m["minidx.minimizers_per_kb"] = minimizers / (sp.Work / 1e3)

	groups := make([]map[uint64][]chain.Anchor, len(perRead))
	sp = rec.timed(0, "replay", "minidx.lookup", "minimizers", func() float64 {
		for i, ms := range perRead {
			groups[i] = anchorGroups(a.index, ms, lens[i])
		}
		return minimizers
	})
	m["minidx.lookup_ns_per_minimizer"] = sp.ns() / minimizers

	chains := 0
	sp = rec.timed(0, "replay", "chain.find", "anchors", func() (anchors float64) {
		for _, g := range groups {
			keys := make([]uint64, 0, len(g))
			for key := range g {
				keys = append(keys, key)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			for _, key := range keys {
				anchors += float64(len(g[key]))
				chains += len(chain.Find(g[key], chain.Options{}))
			}
		}
		return anchors
	})
	m["chain.find_ns_per_anchor"] = sp.ns() / sp.Work
	m["chain.chains_per_read"] = float64(chains) / nreads

	// mapper: Mapper.Map per request, one at a time like the one client.
	var st logan.MapStats
	var wall, servedLatency time.Duration
	for i, recs := range reqs {
		reads := make([]logan.Read, len(recs))
		for j, r := range recs {
			reads[j] = logan.Read{Name: r.Name, Seq: r.Seq}
		}
		var res *logan.MapResult
		sp := rec.timed(roots[i], fmt.Sprintf("req%d", i), "mapper.map", "reads", func() float64 {
			res, err = a.mapper.Map(context.Background(), reads, logan.DefaultMapConfig(mapX))
			return float64(len(reads))
		})
		if err != nil {
			return err
		}
		// MapStats.Times splits the call into its two stages, in order.
		start := rec.epoch.Add(time.Duration(sp.Start))
		seeded := start.Add(res.Stats.Times.Seed)
		rec.add(sp.ID, sp.Op, "mapper.seed", start, seeded, float64(res.Stats.Anchors), "anchors")
		rec.add(sp.ID, sp.Op, "mapper.extend", seeded, seeded.Add(res.Stats.Times.Extend), float64(res.Stats.Cells), "cells")
		wall += time.Duration(sp.End - sp.Start)
		servedLatency += ph.Ops[i].latency()
		st.Reads += res.Stats.Reads
		st.Anchors += res.Stats.Anchors
		st.Cells += res.Stats.Cells
		st.Times.Seed += res.Stats.Times.Seed
		st.Times.Extend += res.Stats.Times.Extend
	}
	r := float64(st.Reads)
	m["mapper.seed_ms_per_read"] = ms(st.Times.Seed) / r
	m["mapper.extend_ms_per_read"] = ms(st.Times.Extend) / r
	m["mapper.map_ms_per_read"] = ms(wall) / r
	m["mapper.anchors_per_read"] = float64(st.Anchors) / r
	m["mapper.cells_per_read"] = float64(st.Cells) / r
	m["serve.map_overhead_ms"] = ms(servedLatency-wall) / float64(n)
	return nil
}

// anchorGroups looks every minimizer of a read up in the index and groups
// the hits into anchors per (reference, relative strand) — the grouping
// Mapper.Map applies before chaining (mapSeeder.seedRead), repeated here
// because the mapper does not export it: reverse-strand anchors take
// coordinates on the reverse-complemented read so chains ascend in both
// coordinates.
func anchorGroups(idx *minidx.Index, mins []minidx.Minimizer, qlen int) map[uint64][]chain.Anchor {
	k := idx.K()
	groups := map[uint64][]chain.Anchor{}
	for _, mm := range mins {
		for _, hit := range idx.Lookup(mm.Hash) {
			ref, tpos, trev := minidx.UnpackPos(hit)
			rev := mm.Rev != trev
			qpos := mm.Pos
			key := uint64(uint32(ref)) << 1
			if rev {
				qpos = int32(qlen-k) - mm.Pos
				key |= 1
			}
			groups[key] = append(groups[key], chain.Anchor{QPos: qpos, TPos: tpos, Len: int32(k)})
		}
	}
	return groups
}
