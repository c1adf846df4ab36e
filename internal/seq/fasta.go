package seq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Record is a named sequence, as parsed from FASTA input.
type Record struct {
	Name string
	Seq  Seq
}

// FastaReader streams FASTA records from an io.Reader one at a time, so a
// data set never needs to be fully resident in the parser: each Next call
// returns one complete record and releases the internal line buffer back
// to the next record. Unlike a bufio.Scanner-based parser it has no
// maximum line length — sequence lines of any length are handled — and it
// accepts CRLF line endings. Obtain one with NewFastaReader.
type FastaReader struct {
	br *bufio.Reader
	// nextName holds the header of the record after the one being
	// assembled ("" plus nextHeader=false before the first header).
	nextName   string
	nextHeader bool
	line       int
	done       bool
}

// NewFastaReader returns a streaming FASTA parser over r.
func NewFastaReader(r io.Reader) *FastaReader {
	return &FastaReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Line returns the 1-based input line number the reader has consumed up
// to, for error reporting by callers that impose their own record limits.
func (fr *FastaReader) Line() int { return fr.line }

// readLine returns the next input line with the trailing newline (and any
// surrounding space) trimmed. io.EOF reports end of input; a final line
// without a newline is returned first. A transport error always surfaces,
// even when it arrived alongside partial data — bufio clears its stored
// error once returned, so deferring it to the next call could silently
// truncate the input instead.
func (fr *FastaReader) readLine() ([]byte, error) {
	b, err := fr.br.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return nil, err
	}
	if len(b) == 0 {
		return nil, io.EOF
	}
	fr.line++
	return bytes.TrimSpace(b), nil
}

// Next returns the next record. It returns io.EOF after the last record;
// any other error reports malformed input with its line number. The
// returned record's buffers are freshly allocated and remain valid across
// subsequent Next calls.
func (fr *FastaReader) Next() (Record, error) {
	if fr.done {
		return Record{}, io.EOF
	}
	// Seek the record's header: either carried over from the previous
	// Next, or the first '>' line of the stream.
	for !fr.nextHeader {
		b, err := fr.readLine()
		if err != nil {
			fr.done = true
			return Record{}, err
		}
		if len(b) == 0 {
			continue
		}
		if b[0] != '>' {
			fr.done = true
			return Record{}, fmt.Errorf("seq: line %d: sequence data before first FASTA header", fr.line)
		}
		fr.setHeader(b)
	}
	rec := Record{Name: fr.nextName}
	fr.nextHeader = false
	for {
		b, err := fr.readLine()
		if err == io.EOF {
			fr.done = true
			return rec, nil // final record; EOF surfaces on the next call
		}
		if err != nil {
			fr.done = true
			return Record{}, err
		}
		if len(b) == 0 {
			continue
		}
		if b[0] == '>' {
			fr.setHeader(b)
			return rec, nil
		}
		n := len(rec.Seq)
		rec.Seq = append(rec.Seq, b...)
		if err := normalizeFasta(rec.Seq[n:]); err != nil {
			fr.done = true
			return Record{}, fmt.Errorf("seq: line %d: %w", fr.line, err)
		}
	}
}

// setHeader records the upcoming record's name: the first
// whitespace-delimited token after '>'.
func (fr *FastaReader) setHeader(b []byte) {
	fr.nextHeader = true
	fr.nextName = ""
	if name := strings.Fields(string(b[1:])); len(name) > 0 {
		fr.nextName = name[0]
	}
}

// fastaBase maps an input FASTA base to its normalized form: upper-case
// ACGT pass through (lower-case is upcased), U becomes T, N and every
// IUPAC ambiguity code collapse to N, and 0 marks an invalid character.
// Every ingestion path shares the table, so the overlap and mapping
// pipelines accept the same inputs.
var fastaBase [256]byte

func init() {
	set := func(in, out byte) {
		fastaBase[in] = out
		fastaBase[in|0x20] = out // lower case
	}
	set('A', 'A')
	set('C', 'C')
	set('G', 'G')
	set('T', 'T')
	set('U', 'T') // RNA input: uracil reads as thymine
	set('N', 'N')
	// IUPAC ambiguity codes: any multi-base possibility degrades to N,
	// which the k-mer and seeding layers already treat as a wildcard gap.
	for _, c := range []byte("RYSWKMBDHV") {
		set(c, 'N')
	}
}

// normalizeFasta rewrites b in place to the canonical upper-case ACGTN
// alphabet, accepting lower-case bases, U, and IUPAC ambiguity codes.
// It reports ErrBadBase for anything else.
func normalizeFasta(b []byte) error {
	for i, c := range b {
		out := fastaBase[c]
		if out == 0 {
			return fmt.Errorf("%w: %q at offset %d", ErrBadBase, c, i)
		}
		b[i] = out
	}
	return nil
}

// ReadFasta parses FASTA records from r. Header lines start with '>'; the
// name is the first whitespace-delimited token. Sequence lines are
// concatenated and normalized to the upper-case ACGTN alphabet:
// lower-case bases are upcased, U reads as T, and IUPAC ambiguity codes
// collapse to N (anything else is ErrBadBase). It is a
// collecting wrapper over FastaReader; callers that should not hold the
// whole data set in flight stream records with FastaReader.Next instead.
func ReadFasta(r io.Reader) ([]Record, error) {
	fr := NewFastaReader(r)
	var recs []Record
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// WriteFasta emits the records to w, wrapping sequence lines at 80 columns.
func WriteFasta(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		if _, err := fmt.Fprintf(bw, ">%s\n", rec.Name); err != nil {
			return err
		}
		if _, err := bw.WriteString(Format(rec.Seq, 80)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
