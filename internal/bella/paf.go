package bella

import (
	"bufio"
	"fmt"
	"io"

	"logan/internal/genome"
)

// PAFRecord is one accepted overlap in PAF (Pairwise mApping Format)
// coordinates, the minimap2-ecosystem interchange representation: target
// coordinates are on the forward strand regardless of orientation, and
// Matches/BlockLen follow the minimap2 column-10/11 convention. It is the
// single source of truth for PAF serialization — the public overlap API
// (package logan) re-exposes these records, so offline and served outputs
// are byte-identical by construction.
type PAFRecord struct {
	QName        string
	QLen         int
	QStart, QEnd int
	Strand       byte // '+' or '-'
	TName        string
	TLen         int
	TStart, TEnd int
	// Matches is PAF column 10, the number of residue matches: exact —
	// the CIGAR's = columns — when a CIGAR is present, otherwise estimated
	// from the score as if it were +1/-1/-1, (BlockLen+Score)/2 clamped
	// to [0, BlockLen].
	Matches int
	// BlockLen is PAF column 11: the alignment block length.
	BlockLen int
	// MapQ is PAF column 12; the pipeline does not compute mapping
	// quality, so it is always 255 (missing).
	MapQ int
	// Score is the X-drop alignment score, emitted as the AS:i tag.
	Score int32
	// Divergence and CIGAR fill the de:f and cg:Z tags when traceback
	// ran; CIGAR == "" omits both.
	Divergence float64
	CIGAR      string
	// QIndex/TIndex are the input-order read indices behind QName/TName.
	// They are not serialized; evaluation against simulator ground truth
	// keys on them.
	QIndex, TIndex int
}

// PAFRecords converts accepted overlaps into PAF records against the read
// set that produced them.
func PAFRecords(reads []genome.Read, overlaps []Overlap) []PAFRecord {
	recs := make([]PAFRecord, len(overlaps))
	for i, ov := range overlaps {
		q, t := reads[ov.I], reads[ov.J]
		rec := PAFRecord{
			QName: q.Name(), QLen: len(q.Seq), QStart: ov.QBegin, QEnd: ov.QEnd,
			Strand: '+',
			TName:  t.Name(), TLen: len(t.Seq), TStart: ov.TBegin, TEnd: ov.TEnd,
			MapQ: 255, Score: ov.Score,
			QIndex: int(ov.I), TIndex: int(ov.J),
		}
		if ov.Opposite {
			rec.Strand = '-'
			// PAF reports target coordinates on the forward strand.
			rec.TStart = len(t.Seq) - ov.TEnd
			rec.TEnd = len(t.Seq) - ov.TBegin
		}
		rec.BlockLen = max(ov.QEnd-ov.QBegin, ov.TEnd-ov.TBegin)
		if ov.CIGAR != "" {
			rec.Matches = ov.Matches
			rec.Divergence = 1 - ov.Identity
			rec.CIGAR = ov.CIGAR
		} else {
			// Without traceback, estimate matches from the +1/-1/-1 score:
			// score = matches - errors, block ~ matches + errors.
			rec.Matches = min(max((rec.BlockLen+int(ov.Score))/2, 0), rec.BlockLen)
		}
		recs[i] = rec
	}
	return recs
}

// AppendText serializes the record as one PAF line (including the trailing
// newline) appended to buf: the 12 mandatory columns, the AS:i score tag,
// and the de:f/cg:Z tags when a CIGAR is present.
func (r PAFRecord) AppendText(buf []byte) []byte {
	buf = fmt.Appendf(buf, "%s\t%d\t%d\t%d\t%c\t%s\t%d\t%d\t%d\t%d\t%d\t%d\tAS:i:%d",
		r.QName, r.QLen, r.QStart, r.QEnd,
		r.Strand,
		r.TName, r.TLen, r.TStart, r.TEnd,
		r.Matches, r.BlockLen, r.MapQ, r.Score)
	if r.CIGAR != "" {
		buf = fmt.Appendf(buf, "\tde:f:%.4f\tcg:Z:%s", r.Divergence, r.CIGAR)
	}
	return append(buf, '\n')
}

// WriteRecords emits PAF records to w, one line each.
func WriteRecords(w io.Writer, recs []PAFRecord) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, rec := range recs {
		line = rec.AppendText(line[:0])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
