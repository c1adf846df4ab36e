//go:build amd64

package xdrop

// pairedSeed is one claimed pair of a paired stream: its index in the
// batch, its seed, and its result as its two extensions end.
type pairedSeed struct {
	idx, qPos, tPos int
	seedScore       int32
	open            int // extensions not yet ended
	r               SeedResult
}

// pairedExt names one extension of a paired stream: the seed (an index
// into the stream's seeds) and the side.
type pairedExt struct {
	seed  int
	right bool
}

// pairedStream is one worker's stream over a batch: its workspace, the
// seeds in flight, and the extension each slot runs. A pair is claimed
// only when a slot is empty and no extension is queued, so every open
// seed then has an extension in the other slot: at most one is open, and
// the second entry is free.
type pairedStream struct {
	j      *poolJob
	w      *Workspace
	seeds  [2]pairedSeed
	slot   [2]pairedExt
	busy   [2]bool
	queued pairedExt // the right extension of the last seed claimed
	queue  bool
}

// runPaired runs j on w as a two-slot extension stream when the batch
// runs the int16 kernel on AVX-512 (SelectKernel's vector kernel inside
// its envelope), and reports whether it did. The left and right extensions
// of the pairs the worker claims go to whichever of the workspace's two
// slots is empty; while both hold one, the paired routine advances them
// together (stepPair); an extension left alone at the end of the batch
// runs on the solo routine. A pair's SeedResult is joined, as extendSeed
// joins it, once both its extensions have ended. Results are those of
// extendSeed, bit for bit.
func (j *poolJob) runPaired(w *Workspace) bool {
	if vectorISA != isaAVX512 || !vectorSeed(j.sch, j.x, j.kernel) {
		return false
	}
	ps := pairedStream{j: j, w: w}
	for {
		for i := range ps.busy {
			for !ps.busy[i] && ps.fill(i) {
			}
		}
		switch {
		case ps.busy[0] && ps.busy[1]:
			w.stepPair()
		case ps.busy[0]:
			w.fused[0].run(isaAVX512)
		case ps.busy[1]:
			w.fused[1].run(isaAVX512)
		default:
			return true
		}
		for i := range ps.busy {
			if s := &w.fused[i]; ps.busy[i] && s.st.done {
				ps.busy[i] = false
				ps.end(ps.slot[i], s.finish(&w.modes))
			}
		}
	}
}

// fill starts the next extension in slot i: the queued right extension,
// else the left one of a newly claimed pair. It reports false when the
// batch has no more work for this worker; an empty extension ends at
// once, and leaves the slot empty.
func (ps *pairedStream) fill(i int) bool {
	e := ps.queued
	if ps.queue {
		ps.queue = false
	} else {
		var ok bool
		if e, ok = ps.claim(); !ok {
			return false
		}
		ps.queued, ps.queue = pairedExt{seed: e.seed, right: true}, true
	}
	j, sd := ps.j, &ps.seeds[e.seed]
	p := &j.pairs[sd.idx]
	q, t := p.Query[:sd.qPos], p.Target[:sd.tPos]
	if e.right {
		q, t = p.Query[sd.qPos+p.SeedLen:], p.Target[sd.tPos+p.SeedLen:]
	}
	if !ps.w.fused[i].startPaired(q, t, !e.right, j.sch.Linear, int16(j.x), nil) {
		ps.end(e, Result{})
		return true
	}
	ps.slot[i], ps.busy[i] = e, true
	return true
}

// claim takes the next pair of the batch into a free seed entry and
// returns its left extension; false once the batch is exhausted or
// canceled. A pair whose seed lies outside its sequences fails the batch
// at its index and is skipped, as run skips it.
func (ps *pairedStream) claim() (pairedExt, bool) {
	j := ps.j
	for {
		if j.ctx != nil {
			if err := j.ctx.Err(); err != nil {
				j.fail(-1, err)
				return pairedExt{}, false
			}
		}
		idx := int(j.cursor.Add(1)) - 1
		if idx >= len(j.pairs) {
			return pairedExt{}, false
		}
		p := &j.pairs[idx]
		if err := checkSeed(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen); err != nil {
			j.fail(idx, err)
			continue
		}
		k := 0
		for ps.seeds[k].open != 0 {
			k++
		}
		qEnd, tEnd := p.SeedQPos+p.SeedLen, p.SeedTPos+p.SeedLen
		ps.seeds[k] = pairedSeed{
			idx: idx, qPos: p.SeedQPos, tPos: p.SeedTPos, open: 2,
			seedScore: j.sch.seedScore(p.Query[p.SeedQPos:qEnd], p.Target[p.SeedTPos:tEnd]),
			r:         SeedResult{SeedLen: p.SeedLen},
		}
		return pairedExt{seed: k}, true
	}
}

// end records the result of extension e, and the pair's once both of
// its extensions have ended.
func (ps *pairedStream) end(e pairedExt, r Result) {
	sd := &ps.seeds[e.seed]
	if e.right {
		sd.r.Right = r
	} else {
		sd.r.Left = r
	}
	if sd.open--; sd.open == 0 {
		joinSeed(&sd.r, sd.qPos, sd.tPos, sd.seedScore)
		ps.j.results[sd.idx] = sd.r
	}
}
