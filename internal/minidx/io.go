package minidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"logan/internal/seq"
)

// On-disk format (little-endian throughout):
//
//	magic   [4]byte  "LGMI"
//	version uint32   formatVersion
//	paylen  uint64   payload length in bytes
//	crc     uint32   CRC-32 (IEEE) of the payload
//	payload:
//	  k, w uint32; maxOcc int32
//	  nRefs uint32, then per ref: nameLen uint32, name, seqLen uint64,
//	    2-bit packed bases (ceil(len/4) bytes)
//	  stats: minimizers, distinct, maskedKmers, maskedPositions uint64
//	  nPos uint64, packed positions
//	  nSlots uint64, then per slot: key uint64, off uint32, cnt uint32
//
// The whole probe table is serialized (empty slots included) so Load
// performs no rehash and Save∘Load∘Save is bit-identical by
// construction — the property the round-trip tests pin.
const (
	indexMagic    = "LGMI"
	formatVersion = 1
	// maxPayload bounds the allocation a corrupt or adversarial header
	// can demand before the CRC is ever checked.
	maxPayload = 1 << 34
)

// Serialization errors. ErrCorrupt wraps CRC mismatches and truncated or
// inconsistent payloads; ErrBadMagic and ErrBadVersion identify files
// that are not minimizer indexes or were written by a newer format.
var (
	ErrBadMagic   = errors.New("minidx: not a minimizer index file")
	ErrBadVersion = errors.New("minidx: unsupported index format version")
	ErrCorrupt    = errors.New("minidx: corrupt index file")
)

// Save writes the index to w in the versioned binary format.
func (x *Index) Save(w io.Writer) error {
	var payload bytes.Buffer
	le := binary.LittleEndian
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) {
		le.PutUint32(u32[:], v)
		payload.Write(u32[:])
	}
	put64 := func(v uint64) {
		le.PutUint64(u64[:], v)
		payload.Write(u64[:])
	}
	put32(uint32(x.stats.K))
	put32(uint32(x.stats.W))
	put32(uint32(int32(x.stats.MaxOccurrence)))
	put32(uint32(len(x.refs)))
	for _, r := range x.refs {
		put32(uint32(len(r.Name)))
		payload.WriteString(r.Name)
		put64(uint64(len(r.Seq)))
		payload.Write(seq.PackLossy(r.Seq).Bytes())
	}
	put64(uint64(x.stats.Minimizers))
	put64(uint64(x.stats.Distinct))
	put64(uint64(x.stats.MaskedKmers))
	put64(uint64(x.stats.MaskedPositions))
	put64(uint64(len(x.pos)))
	for _, p := range x.pos {
		put64(p)
	}
	put64(uint64(len(x.slots)))
	for _, s := range x.slots {
		put64(s.key)
		put32(s.off)
		put32(s.cnt)
	}

	var hdr [20]byte
	copy(hdr[:4], indexMagic)
	le.PutUint32(hdr[4:8], formatVersion)
	le.PutUint64(hdr[8:16], uint64(payload.Len()))
	le.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// Load reads an index previously written by Save, verifying the CRC
// before parsing.
func Load(r io.Reader) (*Index, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
		}
		return nil, err
	}
	if string(hdr[:4]) != indexMagic {
		return nil, ErrBadMagic
	}
	le := binary.LittleEndian
	if v := le.Uint32(hdr[4:8]); v != formatVersion {
		return nil, fmt.Errorf("%w: got version %d, support version %d", ErrBadVersion, v, formatVersion)
	}
	paylen := le.Uint64(hdr[8:16])
	if paylen > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, paylen)
	}
	payload := make([]byte, paylen)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
		}
		return nil, err
	}
	if got := crc32.ChecksumIEEE(payload); got != le.Uint32(hdr[16:20]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return parsePayload(payload)
}

// cursor is a bounds-checked little-endian reader over the payload. The
// CRC already vouches for integrity; the cursor turns any residual
// inconsistency (a buggy writer, a hand-crafted file with a valid CRC)
// into ErrCorrupt instead of a panic.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) || c.off+n < c.off {
		c.err = fmt.Errorf("%w: truncated field at offset %d", ErrCorrupt, c.off)
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func parsePayload(payload []byte) (*Index, error) {
	c := &cursor{b: payload}
	x := &Index{}
	x.stats.K = int(c.u32())
	x.stats.W = int(c.u32())
	x.stats.MaxOccurrence = int(int32(c.u32()))
	if c.err == nil {
		if err := ValidateKW(x.stats.K, x.stats.W); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	nRefs := int(c.u32())
	if c.err == nil && (nRefs < 1 || nRefs > math.MaxInt32) {
		return nil, fmt.Errorf("%w: implausible reference count %d", ErrCorrupt, nRefs)
	}
	for i := 0; i < nRefs && c.err == nil; i++ {
		nameLen := int(c.u32())
		name := string(c.take(nameLen))
		seqLen := c.u64()
		if c.err == nil && seqLen > 1<<31 {
			return nil, fmt.Errorf("%w: reference length %d overflows position space", ErrCorrupt, seqLen)
		}
		words := c.take(int((seqLen + 3) / 4))
		if c.err != nil {
			break
		}
		s := make(seq.Seq, seqLen)
		for j := range s {
			s[j] = seq.Alphabet[(words[j/4]>>uint(2*(j%4)))&3]
		}
		x.refs = append(x.refs, Ref{Name: name, Seq: s})
		x.stats.Bases += int64(seqLen)
	}
	x.stats.Refs = len(x.refs)
	x.stats.Minimizers = int64(c.u64())
	x.stats.Distinct = int64(c.u64())
	x.stats.MaskedKmers = int64(c.u64())
	x.stats.MaskedPositions = int64(c.u64())
	nPos := c.u64()
	if c.err == nil && nPos > uint64(len(payload))/8 {
		return nil, fmt.Errorf("%w: position count %d exceeds payload", ErrCorrupt, nPos)
	}
	x.pos = make([]uint64, 0, int(nPos))
	for i := uint64(0); i < nPos && c.err == nil; i++ {
		x.pos = append(x.pos, c.u64())
	}
	x.stats.Kept = int64(len(x.pos))
	nSlots := c.u64()
	if c.err == nil {
		if nSlots == 0 || nSlots > uint64(len(payload))/16 || nSlots&(nSlots-1) != 0 {
			return nil, fmt.Errorf("%w: bad table size %d", ErrCorrupt, nSlots)
		}
	}
	occupied := 0
	x.slots = make([]slot, 0, int(nSlots))
	for i := uint64(0); i < nSlots && c.err == nil; i++ {
		s := slot{key: c.u64(), off: c.u32(), cnt: c.u32()}
		if s.cnt != 0 {
			occupied++
			if uint64(s.off)+uint64(s.cnt) > uint64(len(x.pos)) {
				return nil, fmt.Errorf("%w: slot %d range [%d,+%d) outside positions", ErrCorrupt, i, s.off, s.cnt)
			}
		}
		x.slots = append(x.slots, s)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(payload)-c.off)
	}
	if occupied == len(x.slots) {
		// Build keeps at least half the table empty; without an empty
		// slot, a lookup of an absent key would probe forever.
		return nil, fmt.Errorf("%w: table of %d slots has no empty slot", ErrCorrupt, occupied)
	}
	x.mask = nSlots - 1
	x.stats.TableSize = int(nSlots)
	if nSlots > 0 {
		x.stats.Occupancy = float64(occupied) / float64(nSlots)
	}
	return x, nil
}
