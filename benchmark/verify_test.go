package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"logan/internal/genome"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

func jsonUnmarshalStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// production scores pairs with the production kernels (the ones the
// server runs), in the wire form of a response.
func production(t *testing.T, pairs []seq.Pair, x int32) []alignmentJSON {
	t.Helper()
	out := make([]alignmentJSON, len(pairs))
	for i, p := range pairs {
		r, err := xdrop.ExtendSeed(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen, paperScoring, x)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = alignmentJSON{Score: r.Score, QBegin: r.QBegin, QEnd: r.QEnd, TBegin: r.TBegin, TEnd: r.TEnd, Cells: r.Cells()}
	}
	return out
}

func TestOracleAgreesWithProductionKernel(t *testing.T) {
	pairs := alignPairs(5, wAlignSmall, streamMeasured, 0, smallShape)
	if matched, diff := checkAlignments(pairs, production(t, pairs, 50), 50); matched != len(pairs) || diff != "" {
		t.Fatalf("matched %d of %d: %s", matched, len(pairs), diff)
	}
}

// A single wrong score, interval or cell count must fail the check.
func TestOracleCatchesOneCorruptedField(t *testing.T) {
	pairs := alignPairs(5, wAlignSmall, streamMeasured, 0, smallShape)
	for name, corrupt := range map[string]func(*alignmentJSON){
		"score": func(a *alignmentJSON) { a.Score++ },
		"qEnd":  func(a *alignmentJSON) { a.QEnd-- },
		"tBeg":  func(a *alignmentJSON) { a.TBegin++ },
		"cells": func(a *alignmentJSON) { a.Cells += 8 },
	} {
		got := production(t, pairs, 50)
		corrupt(&got[3])
		matched, diff := checkAlignments(pairs, got, 50)
		if matched != len(pairs)-1 || !strings.HasPrefix(diff, "pair 3:") {
			t.Errorf("%s corrupted: matched %d of %d, diff %q", name, matched, len(pairs), diff)
		}
	}
	if matched, diff := checkAlignments(pairs, production(t, pairs, 50)[1:], 50); matched != 0 || diff == "" {
		t.Error("a response with a missing alignment passed")
	}
}

// The same through the workload's own check: a phase of correct responses
// passes with accuracy 1; one corrupted score in a sampled request counts
// as a failed operation and lowers accuracy.
func TestAlignCheckFailsOnCorruptedScore(t *testing.T) {
	env := &runEnv{seed: 5, seconds: 1, nproc: 2}
	a := &alignInstance{kind: alignKind{Name: wAlignSmall, Shape: smallShape}, seed: 5, nclients: 1}
	const n = 17 // requests 0, 8 and 16 are sampled
	phaseWith := func(corruptReq int) *phase {
		ph := &phase{}
		for i := 0; i < n; i++ {
			pairs := a.pairsOf(i)
			resp := alignResponse{Alignments: production(t, pairs, smallShape.X)}
			resp.Stats.Pairs = len(pairs)
			for _, al := range resp.Alignments {
				resp.Stats.Cells += al.Cells
			}
			if i == corruptReq {
				resp.Alignments[2].Score += 5
			}
			body, _ := json.Marshal(resp)
			now := time.Now()
			ph.Ops = append(ph.Ops, opResult{Start: now, End: now.Add(time.Millisecond), Status: 200, Body: body})
		}
		return ph
	}
	good := a.check(env, phaseWith(-1))
	if good.Failed != 0 || good.Accuracy != 1 || len(good.Problems) != 0 {
		t.Fatalf("clean phase: failed %d, accuracy %v, problems %v", good.Failed, good.Accuracy, good.Problems)
	}
	if good.OpPairs[4] != int64(smallShape.PairsPerReq) || good.OpReads[4] != 2*good.OpPairs[4] || good.OpCells[4] == 0 {
		t.Errorf("work of request 4: pairs %d reads %d cells %d", good.OpPairs[4], good.OpReads[4], good.OpCells[4])
	}
	bad := a.check(env, phaseWith(8))
	if bad.Failed != 1 || bad.Accuracy >= 1 || len(bad.Problems) != 1 || !strings.Contains(bad.Problems[0], "request 8") {
		t.Errorf("corrupted phase: failed %d, accuracy %v, problems %v", bad.Failed, bad.Accuracy, bad.Problems)
	}
	// A failed transport and a short response are failures too.
	ph := phaseWith(-1)
	ph.Ops[1].Status = 503
	ph.Ops[2].Body = []byte(`{"alignments":[],"stats":{"pairs":0}}`)
	if got := a.check(env, ph); got.Failed != 2 {
		t.Errorf("503 and empty response: failed %d, want 2", got.Failed)
	}
}

func TestProvenanceAndLocus(t *testing.T) {
	id, start, end, rc, err := provenance("read12_1000_4000-")
	if err != nil || id != 12 || start != 1000 || end != 4000 || !rc {
		t.Fatalf("provenance = %d %d %d %v %v", id, start, end, rc, err)
	}
	for _, bad := range []string{"", "chr1", "read1_2", "read1_2_3", "readx_1_2+"} {
		if _, _, _, _, err := provenance(bad); err == nil {
			t.Errorf("provenance(%q) accepted", bad)
		}
	}
	hit := pafLine{QName: "read12_1000_4000-", Strand: '-', TStart: 1100, TEnd: 3900}
	if !placedAtLocus(hit) {
		t.Error("a placement covering the true window on the true strand was rejected")
	}
	wrongStrand, elsewhere, sliver := hit, hit, hit
	wrongStrand.Strand = '+'
	elsewhere.TStart, elsewhere.TEnd = 50_000, 53_000
	sliver.TStart, sliver.TEnd = 3500, 6000 // shares 500 of 3000 bases
	if placedAtLocus(wrongStrand) || placedAtLocus(elsewhere) || placedAtLocus(sliver) {
		t.Error("a wrong placement was accepted")
	}
}

func TestMapAccuracyCountsPrimariesOnly(t *testing.T) {
	doc := strings.Join([]string{
		"read0_100_3100+\t3000\t0\t3000\t+\tref0\t90000\t100\t3100\t2500\t3000\t60\tAS:i:2000",
		"read0_100_3100+\t3000\t0\t900\t+\tref0\t90000\t70000\t70900\t700\t900\t0\tAS:i:500",     // secondary
		"read1_5000_8000-\t3000\t0\t3000\t+\tref0\t90000\t5000\t8000\t2500\t3000\t60\tAS:i:2000", // wrong strand
	}, "\n") + "\n"
	paf, err := parsePAF([]byte(doc))
	if err != nil || len(paf) != 3 {
		t.Fatalf("parsePAF: %d records, %v", len(paf), err)
	}
	if got := mapAccuracy(paf); got != 1 {
		t.Errorf("placed = %d, want 1", got)
	}
	if _, err := parsePAF([]byte("a\tb\tc\n")); err == nil {
		t.Error("a 3-column PAF line was accepted")
	}
}

func TestOverlapRecallAgainstSimulatorTruth(t *testing.T) {
	rs := genome.ReadSet{Reads: []genome.Read{
		{ID: 0, Start: 0, End: 3000}, {ID: 1, Start: 2000, End: 5000}, {ID: 2, Start: 2400, End: 6000}, {ID: 3, Start: 9000, End: 12000},
	}}
	// True overlaps of at least 500 bases: (0,1) 1000, (0,2) 600, (1,2) 2600.
	line := func(q, t string) string {
		return q + "\t3000\t0\t1000\t+\t" + t + "\t3000\t0\t1000\t900\t1000\t255\tAS:i:800\n"
	}
	doc := line("read1_2000_5000+", "read0_0_3000+") + line("read1_2000_5000+", "read2_2400_6000+") + line("read0_0_3000+", "read3_9000_12000+")
	paf, err := parsePAF([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	found, truth, err := overlapRecall(rs, paf, 500)
	if err != nil || found != 2 || truth != 3 {
		t.Errorf("found %d of %d (%v), want 2 of 3", found, truth, err)
	}
}

func TestFirstDiffLine(t *testing.T) {
	if got := firstDiffLine([]byte("a\nb\nc\n"), []byte("a\nB\nc\n")); !strings.HasPrefix(got, "line 2:") {
		t.Errorf("got %q", got)
	}
	if got := firstDiffLine([]byte("a\nb"), []byte("a\nb\nc")); got != "served 2 lines, in-process 3 lines" {
		t.Errorf("got %q", got)
	}
}
