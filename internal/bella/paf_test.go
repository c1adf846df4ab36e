package bella

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

func TestWritePAF(t *testing.T) {
	rs := smallReadSet(t, 17, 50000, 5, 0.10)
	cfg := DefaultConfig(5, 0.10, 50)
	cfg.MinOverlap = 600
	cfg.Traceback = true
	res, err := Run(context.Background(), rs, cfg, cpuExtend(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Overlaps) == 0 {
		t.Fatal("no overlaps")
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, PAFRecords(rs.Reads, res.Overlaps)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Overlaps) {
		t.Fatalf("%d PAF lines for %d overlaps", len(lines), len(res.Overlaps))
	}
	for ln, line := range lines {
		f := strings.Split(line, "\t")
		if len(f) < 13 {
			t.Fatalf("line %d: %d fields", ln, len(f))
		}
		qlen, _ := strconv.Atoi(f[1])
		qs, _ := strconv.Atoi(f[2])
		qe, _ := strconv.Atoi(f[3])
		if qs < 0 || qe > qlen || qs >= qe {
			t.Fatalf("line %d: query interval [%d,%d) outside [0,%d)", ln, qs, qe, qlen)
		}
		if f[4] != "+" && f[4] != "-" {
			t.Fatalf("line %d: strand %q", ln, f[4])
		}
		tlen, _ := strconv.Atoi(f[6])
		ts, _ := strconv.Atoi(f[7])
		te, _ := strconv.Atoi(f[8])
		if ts < 0 || te > tlen || ts >= te {
			t.Fatalf("line %d: target interval [%d,%d) outside [0,%d)", ln, ts, te, tlen)
		}
		matches, _ := strconv.Atoi(f[9])
		block, _ := strconv.Atoi(f[10])
		if matches < 0 || matches > block {
			t.Fatalf("line %d: matches %d vs block %d", ln, matches, block)
		}
		if !strings.HasPrefix(f[12], "AS:i:") {
			t.Fatalf("line %d: missing score tag", ln)
		}
		_, cigar, ok := strings.Cut(line, "\tcg:Z:")
		if !ok {
			t.Fatalf("line %d: missing CIGAR tag under Traceback", ln)
		}
		// Column 10 is exact under traceback: the CIGAR's = columns.
		if n := strings.Count(string(parseCIGAR(t, cigar)), "="); matches != n {
			t.Fatalf("line %d: matches %d, CIGAR has %d", ln, matches, n)
		}
	}
	// Without traceback, no CIGAR tags but valid PAF.
	cfg.Traceback = false
	res2, err := Run(context.Background(), rs, cfg, cpuExtend(t))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteRecords(&buf, PAFRecords(rs.Reads, res2.Overlaps)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "cg:Z:") {
		t.Fatal("CIGAR tag present without traceback")
	}
}
