package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"logan/internal/genome"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// paperScoring is the +1/−1/−1 linear scheme every workload aligns with
// (the server's default and the only one the pipelines accept).
var paperScoring = xdrop.DefaultScoring()

// oracleAlign scores one seeded pair with the frozen reference kernel,
// composed the way xdrop.ExtendSeed composes the production kernels: the
// left extension runs over the reversed prefixes, the right one over the
// suffixes after the seed, and the seed itself scores SeedLen matches.
func oracleAlign(p seq.Pair, x int32) alignmentJSON {
	left := xdrop.ExtendReference(p.Query[:p.SeedQPos].Reverse(), p.Target[:p.SeedTPos].Reverse(), paperScoring, x)
	right := xdrop.ExtendReference(p.Query[p.SeedQPos+p.SeedLen:], p.Target[p.SeedTPos+p.SeedLen:], paperScoring, x)
	return alignmentJSON{
		Score:  left.Score + right.Score + int32(p.SeedLen)*paperScoring.Match,
		QBegin: p.SeedQPos - left.QueryEnd, QEnd: p.SeedQPos + p.SeedLen + right.QueryEnd,
		TBegin: p.SeedTPos - left.TargetEnd, TEnd: p.SeedTPos + p.SeedLen + right.TargetEnd,
		Cells: left.Cells + right.Cells,
	}
}

// checkAlignments compares a served response with the oracle, pair by
// pair: score, both intervals and the cell count must all be equal. It
// returns how many alignments matched and a description of the first one
// that did not.
func checkAlignments(pairs []seq.Pair, got []alignmentJSON, x int32) (matched int, firstDiff string) {
	if len(got) != len(pairs) {
		return 0, fmt.Sprintf("%d alignments for %d pairs", len(got), len(pairs))
	}
	for i, p := range pairs {
		if want := oracleAlign(p, x); got[i] != want {
			if firstDiff == "" {
				firstDiff = fmt.Sprintf("pair %d: served %+v, oracle %+v", i, got[i], want)
			}
			continue
		}
		matched++
	}
	return matched, firstDiff
}

// firstDiffLine describes where two PAF documents first differ.
func firstDiffLine(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(g), len(w)); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: served %q, in-process %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("served %d lines, in-process %d lines", len(g), len(w))
}

// pafLine is the columns of a PAF record the accuracy checks read.
type pafLine struct {
	QName, TName   string
	Strand         byte
	TStart, TEnd   int
	QStart, QEnd   int
	MapQ, BlockLen int
}

func parsePAF(doc []byte) ([]pafLine, error) {
	var out []pafLine
	for n, line := range strings.Split(strings.TrimRight(string(doc), "\n"), "\n") {
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) < 12 {
			return nil, fmt.Errorf("PAF line %d has %d columns", n+1, len(f))
		}
		rec := pafLine{QName: f[0], TName: f[5], Strand: f[4][0]}
		var err error
		for _, col := range []struct {
			dst *int
			i   int
		}{{&rec.QStart, 2}, {&rec.QEnd, 3}, {&rec.TStart, 7}, {&rec.TEnd, 8}, {&rec.BlockLen, 10}, {&rec.MapQ, 11}} {
			if *col.dst, err = strconv.Atoi(f[col.i]); err != nil {
				return nil, fmt.Errorf("PAF line %d column %d: %w", n+1, col.i+1, err)
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// provenance decodes a simulated read's name, read<id>_<start>_<end><strand>
// (genome.Read.Name), back into where it was sampled from.
func provenance(name string) (id, start, end int, rc bool, err error) {
	rest, ok := strings.CutPrefix(name, "read")
	f := strings.Split(rest, "_")
	if !ok || len(f) != 3 || len(f[2]) < 2 {
		return 0, 0, 0, false, fmt.Errorf("read name %q is not read<id>_<start>_<end><strand>", name)
	}
	rc = f[2][len(f[2])-1] == '-'
	if id, err = strconv.Atoi(f[0]); err == nil {
		if start, err = strconv.Atoi(f[1]); err == nil {
			end, err = strconv.Atoi(f[2][:len(f[2])-1])
		}
	}
	return id, start, end, rc, err
}

// placedAtLocus reports whether a read's primary placement (its first PAF
// record) lies on the strand it was simulated from and covers at least
// half of its true window.
func placedAtLocus(rec pafLine) bool {
	_, start, end, rc, err := provenance(rec.QName)
	if err != nil || (rec.Strand == '-') != rc {
		return false
	}
	shared := min(end, rec.TEnd) - max(start, rec.TStart)
	return 2*shared >= end-start
}

// mapAccuracy counts the reads of one /map response whose primary
// placement is at the simulated locus.
func mapAccuracy(paf []pafLine) (placed int) {
	seen := map[string]bool{}
	for _, rec := range paf {
		if seen[rec.QName] {
			continue // secondaries follow their read's primary
		}
		seen[rec.QName] = true
		if placedAtLocus(rec) {
			placed++
		}
	}
	return placed
}

// overlapRecall is the share of the read set's true overlaps (≥ minOverlap
// genomic bases, from the simulator's ground truth) that the PAF reports.
func overlapRecall(rs genome.ReadSet, paf []pafLine, minOverlap int) (found, truth int, err error) {
	reported := map[[2]int]bool{}
	for _, rec := range paf {
		i, _, _, _, err := provenance(rec.QName)
		if err != nil {
			return 0, 0, err
		}
		j, _, _, _, err := provenance(rec.TName)
		if err != nil {
			return 0, 0, err
		}
		reported[[2]int{min(i, j), max(i, j)}] = true
	}
	all := rs.TrueOverlaps(minOverlap)
	for _, t := range all {
		if reported[[2]int{t.I, t.J}] {
			found++
		}
	}
	return found, len(all), nil
}
