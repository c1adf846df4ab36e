package seq

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Pair files are the interchange format of the standalone aligner (the
// original LOGAN demo reads an equivalent format): one alignment work item
// per line, tab-separated:
//
//	query-sequence  target-sequence  seedQ  seedT  seedLen
//
// Lines starting with '#' and blank lines are ignored.

// WritePairs emits the pair set in the interchange format.
func WritePairs(w io.Writer, pairs []Pair) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# query\ttarget\tseedQ\tseedT\tseedLen")
	for _, p := range pairs {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%d\t%d\t%d\n",
			p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SeedInside reports whether a seed of seedLen bases at qPos and tPos lies
// inside a query of qLen and a target of tLen bases. It compares qPos with
// qLen-seedLen rather than qPos+seedLen with qLen: the sum can overflow for
// adversarial positions (MaxInt from a JSON payload or a parsed line) and
// pass the check, while the difference cannot once seedLen > 0. Every seed
// check (pair ingest, the pair format, the extension entry points) is this.
func SeedInside(qLen, tLen, qPos, tPos, seedLen int) bool {
	return qPos >= 0 && tPos >= 0 && seedLen > 0 && qPos <= qLen-seedLen && tPos <= tLen-seedLen
}

// ReadPairs parses the interchange format, validating sequences against
// the DNA alphabet and checking seed geometry.
func ReadPairs(r io.Reader) ([]Pair, error) {
	return readPairs(r, true)
}

// ReadPairsAnyAlphabet is ReadPairs without the DNA-alphabet check, for
// workloads scored under a substitution matrix (protein residues are not
// ACGTN): sequences are taken verbatim and validated downstream against
// the matrix alphabet. Seed geometry is still checked.
func ReadPairsAnyAlphabet(r io.Reader) ([]Pair, error) {
	return readPairs(r, false)
}

func readPairs(r io.Reader, dna bool) ([]Pair, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var pairs []Pair
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 5 {
			return nil, fmt.Errorf("seq: line %d: %d fields, want 5", line, len(fields))
		}
		var q, t Seq
		if dna {
			var err error
			q, err = New(fields[0])
			if err != nil {
				return nil, fmt.Errorf("seq: line %d query: %w", line, err)
			}
			t, err = New(fields[1])
			if err != nil {
				return nil, fmt.Errorf("seq: line %d target: %w", line, err)
			}
		} else {
			q, t = Seq(fields[0]), Seq(fields[1])
		}
		nums := make([]int, 3)
		for i, f := range fields[2:] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("seq: line %d field %d: %w", line, i+3, err)
			}
			nums[i] = v
		}
		p := Pair{Query: q, Target: t, SeedQPos: nums[0], SeedTPos: nums[1], SeedLen: nums[2], ID: len(pairs)}
		if !SeedInside(len(q), len(t), p.SeedQPos, p.SeedTPos, p.SeedLen) {
			return nil, fmt.Errorf("seq: line %d: seed (%d,%d,%d) outside sequences (%d,%d)",
				line, p.SeedQPos, p.SeedTPos, p.SeedLen, len(q), len(t))
		}
		pairs = append(pairs, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pairs, nil
}
