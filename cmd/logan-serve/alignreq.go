package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"logan"
)

// alignRequest is a decoded POST /align body: a batch of seeded pairs plus
// optional request-scoped alignment parameters. Omitted fields fall back
// to the server's defaults (the -x flag and linear +1/-1/-1), so v1
// clients keep working unchanged.
//
// The wire schema is fixed:
//
//	{"pairs":[{"query":s,"target":s,"seedQ":n,"seedT":n,"seedLen":n},...],
//	 "x":n,
//	 "scoring":{"mode":s,"match":n,"mismatch":n,"gap":n,"gapOpen":n,"gapExtend":n}}
//
// decodeAlignRequest reads it in one pass with encoding/json's semantics
// (FuzzAlignRequest holds it to them), but a sequence without escapes or
// non-ASCII bytes is not copied: Pair.Query and Pair.Target are views into
// the body, which the engine only reads and never retains past Align.
type alignRequest struct {
	// pairs holds the first min(n, maxPairs+1) elements of the "pairs"
	// array; elements past that are validated but not kept.
	pairs []logan.Pair
	n     int
	// x overrides the server's default X-drop threshold for this request.
	x *int32
	// scoring overrides the server's default scheme for this request.
	scoring *scoringJSON
}

// scoringJSON selects a scoring scheme per request. Mode is "linear"
// (default; match/mismatch/gap required), "affine" (match/mismatch/
// gapOpen/gapExtend) or "blosum62" (gap). Invalid schemes are rejected
// with 400 before any pair is queued; affine and blosum62 requests on a
// pure-GPU server fail with 422 (the kernel is linear-DNA only).
type scoringJSON struct {
	Mode      string
	Match     int32
	Mismatch  int32
	Gap       int32
	GapOpen   int32
	GapExtend int32
}

// trustedLength is how much of a declared Content-Length readBody
// allocates before the bytes arrive. Bodies up to it (128 pairs of 5 kb
// reads make 1.3 MB) are read into one allocation; a client that declares
// a body near the wire limit and sends nothing costs no more than this.
const trustedLength = 16 << 20

// readBody reads a request body whole into one buffer sized from its
// Content-Length. The read goes through http.MaxBytesReader, so a body
// over limit fails with *http.MaxBytesError however it is framed, and a
// declared length over limit fails before anything is allocated.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	var buf bytes.Buffer
	// MinRead of headroom lets the read that sees EOF land without a
	// regrow and its copy of the whole body.
	buf.Grow(int(min(max(r.ContentLength, 0), trustedLength)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// maxNestingDepth is encoding/json's limit on nested objects and arrays.
const maxNestingDepth = 10000

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// decodeAlignRequest decodes one /align body. Any syntax or type error is
// an error (400). The "pairs" array is validated to its end but at most
// maxPairs+1 of its elements are kept, so what a body can make the server
// allocate is bounded by -max-pairs however many elements it lists;
// req.n > maxPairs tells the caller to answer 413.
//
// The semantics are those of encoding/json decoding the schema into
// tagged Go structs (the oracle in alignreq_test.go): keys match
// case-insensitively, unknown keys are skipped, a repeated key decodes
// into what the earlier one left (so a repeated "pairs" merges
// element-wise and a repeated "scoring" field-wise), null leaves a scalar
// unchanged and resets "pairs", "x" and "scoring", integers parse as
// base-10 ParseInt does, and only whitespace may follow the document.
func decodeAlignRequest(body []byte, maxPairs int) (alignRequest, error) {
	d := reqDecoder{buf: body, keep: maxPairs + 1}
	var req alignRequest
	d.space()
	if d.pos == len(d.buf) {
		return req, errUnexpectedEnd
	}
	if d.buf[d.pos] == 'n' {
		if err := d.literal("null"); err != nil {
			return req, err
		}
	} else if err := d.top(&req); err != nil {
		return req, err
	}
	d.space()
	if d.pos != len(d.buf) {
		return req, errors.New("trailing data after JSON document")
	}
	return req, nil
}

// reqDecoder is a cursor over one request body.
type reqDecoder struct {
	buf   []byte
	pos   int
	depth int
	keep  int // elements of "pairs" to keep
}

func (d *reqDecoder) top(req *alignRequest) error {
	if err := d.open('{', "the request"); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.key(first)
		if err != nil || !ok {
			return err
		}
		switch {
		case bytes.EqualFold(key, []byte("pairs")):
			err = d.pairs(req)
		case bytes.EqualFold(key, []byte("x")):
			d.space()
			if d.peek() == 'n' {
				req.x = nil
				err = d.literal("null")
				break
			}
			var v int64
			if v, err = d.int("x", 32); err == nil {
				if req.x == nil {
					req.x = new(int32)
				}
				*req.x = int32(v)
			}
		case bytes.EqualFold(key, []byte("scoring")):
			err = d.scoring(req)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// pairs decodes the "pairs" array into req.pairs, element i into what
// element i already holds (encoding/json reuses a slice's backing array).
func (d *reqDecoder) pairs(req *alignRequest) error {
	d.space()
	if d.peek() == 'n' {
		req.pairs, req.n = nil, 0
		return d.literal("null")
	}
	if err := d.open('[', "pairs"); err != nil {
		return err
	}
	i := 0
	for first := true; ; first = false {
		more, err := d.next(first, ']')
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if i < d.keep && i == len(req.pairs) {
			req.pairs = append(req.pairs, logan.Pair{})
		}
		d.space()
		switch d.peek() {
		case 'n':
			// A null element leaves element i as it was.
			err = d.literal("null")
		case '{':
			if i < d.keep {
				err = d.pair(&req.pairs[i])
			} else {
				var discard logan.Pair
				err = d.pair(&discard)
			}
		default:
			err = d.typeErr("pairs element", "an object")
		}
		if err != nil {
			return err
		}
		i++
	}
	if i == 0 {
		req.pairs = nil
	}
	req.n = i
	return nil
}

func (d *reqDecoder) pair(p *logan.Pair) error {
	if err := d.open('{', "pair"); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.key(first)
		if err != nil || !ok {
			return err
		}
		switch {
		case bytes.EqualFold(key, []byte("query")):
			err = d.seq("query", &p.Query)
		case bytes.EqualFold(key, []byte("target")):
			err = d.seq("target", &p.Target)
		case bytes.EqualFold(key, []byte("seedQ")):
			err = d.intField("seedQ", &p.SeedQ)
		case bytes.EqualFold(key, []byte("seedT")):
			err = d.intField("seedT", &p.SeedT)
		case bytes.EqualFold(key, []byte("seedLen")):
			err = d.intField("seedLen", &p.SeedLen)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (d *reqDecoder) scoring(req *alignRequest) error {
	d.space()
	if d.peek() == 'n' {
		req.scoring = nil
		return d.literal("null")
	}
	if err := d.open('{', "scoring"); err != nil {
		return err
	}
	if req.scoring == nil {
		req.scoring = new(scoringJSON)
	}
	sc := req.scoring
	for first := true; ; first = false {
		key, ok, err := d.key(first)
		if err != nil || !ok {
			return err
		}
		var f *int32
		switch {
		case bytes.EqualFold(key, []byte("mode")):
			var s []byte
			if s, err = d.str("mode"); err == nil && s != nil {
				sc.Mode = string(s)
			}
		case bytes.EqualFold(key, []byte("match")):
			f = &sc.Match
		case bytes.EqualFold(key, []byte("mismatch")):
			f = &sc.Mismatch
		case bytes.EqualFold(key, []byte("gap")):
			f = &sc.Gap
		case bytes.EqualFold(key, []byte("gapOpen")):
			f = &sc.GapOpen
		case bytes.EqualFold(key, []byte("gapExtend")):
			f = &sc.GapExtend
		default:
			err = d.skip()
		}
		if f != nil {
			d.space()
			if d.peek() == 'n' {
				err = d.literal("null")
			} else {
				var v int64
				if v, err = d.int(string(key), 32); err == nil {
					*f = int32(v)
				}
			}
		}
		if err != nil {
			return err
		}
	}
}

// seq decodes a sequence field: a view into the body when the string is
// plain, a decoded copy otherwise; null leaves *dst unchanged.
func (d *reqDecoder) seq(name string, dst *[]byte) error {
	s, err := d.str(name)
	if err == nil && s != nil {
		*dst = s
	}
	return err
}

// intField decodes an int field; null leaves *dst unchanged.
func (d *reqDecoder) intField(name string, dst *int) error {
	d.space()
	if d.peek() == 'n' {
		return d.literal("null")
	}
	v, err := d.int(name, bits.UintSize)
	if err == nil {
		*dst = int(v)
	}
	return err
}

// str decodes a string value, or null as a nil slice. A decoded string is
// never nil, so nil means null.
func (d *reqDecoder) str(name string) ([]byte, error) {
	d.space()
	switch d.peek() {
	case '"':
		return d.string()
	case 'n':
		return nil, d.literal("null")
	}
	return nil, d.typeErr(name, "a string")
}

// int parses an integer value the way encoding/json stores a number in an
// int of the given width (base-10 ParseInt over the number's text): a
// fraction, an exponent or a value outside the width is an error.
func (d *reqDecoder) int(name string, width uint) (int64, error) {
	d.space()
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, d.typeErr(name, "an integer")
	}
	start := d.pos
	if err := d.number(); err != nil {
		return 0, err
	}
	num := d.buf[start:d.pos]
	digits, limit := num, uint64(1)<<(width-1)-1
	if num[0] == '-' {
		digits, limit = num[1:], limit+1
	}
	var v uint64
	for _, c := range digits {
		if c < '0' || c > '9' || v > (limit-uint64(c-'0'))/10 {
			return 0, fmt.Errorf("%s: %s is not an int%d", name, num, width)
		}
		v = v*10 + uint64(c-'0')
	}
	if num[0] == '-' {
		return -int64(v), nil
	}
	return int64(v), nil
}

// open consumes the opening delimiter of an object or array.
func (d *reqDecoder) open(delim byte, name string) error {
	d.space()
	if d.peek() != delim {
		want := "an object"
		if delim == '[' {
			want = "an array"
		}
		return d.typeErr(name, want)
	}
	d.pos++
	if d.depth++; d.depth > maxNestingDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

// key reads the next member of an object whose '{' has been consumed and
// the colon after its key; ok is false once the closing brace is read.
func (d *reqDecoder) key(first bool) (key []byte, ok bool, err error) {
	more, err := d.next(first, '}')
	if err != nil || !more {
		return nil, false, err
	}
	if d.peek() != '"' {
		return nil, false, d.syntaxErr("looking for beginning of object key string")
	}
	if key, err = d.string(); err != nil {
		return nil, false, err
	}
	d.space()
	if d.peek() != ':' {
		return nil, false, d.syntaxErr("after object key")
	}
	d.pos++
	return key, true, nil
}

// next consumes the separator before an object member or array element:
// nothing before the first, ',' before the others. It reports false, and
// consumes the closing delimiter, at the end of the container.
func (d *reqDecoder) next(first bool, end byte) (bool, error) {
	d.space()
	switch c := d.peek(); {
	case c == end:
		d.pos++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.pos++
		d.space()
		return true, nil
	case end == '}':
		return false, d.syntaxErr("after object key:value pair")
	}
	return false, d.syntaxErr("after array element")
}

// skip validates and discards one value.
func (d *reqDecoder) skip() error {
	d.space()
	switch c := d.peek(); {
	case c == '{':
		if err := d.open('{', ""); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, ok, err := d.key(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open('[', ""); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.next(first, ']')
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.string()
		return err
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntaxErr("looking for beginning of value")
}

// number consumes one JSON number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *reqDecoder) number() error {
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.syntaxErr("in numeric literal")
	}
	if d.peek() == '.' {
		d.pos++
		if c := d.peek(); c < '0' || c > '9' {
			return d.syntaxErr("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if c := d.peek(); c < '0' || c > '9' {
			return d.syntaxErr("in exponent of numeric literal")
		}
		d.digits()
	}
	return nil
}

func (d *reqDecoder) digits() {
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
}

// literal consumes true, false or null.
func (d *reqDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.syntaxErr("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

// string consumes a string whose opening quote is at d.pos. A plain string
// — no escape, control or non-ASCII byte, checked a word at a time — comes
// back as a view into the body, capacity-clipped so an append by a reader
// cannot write into the bytes after it. Anything else is decoded by
// encoding/json's rules: escapes resolved, unpaired surrogates and invalid
// UTF-8 replaced by U+FFFD.
func (d *reqDecoder) string() ([]byte, error) {
	start := d.pos + 1
	q := bytes.IndexByte(d.buf[start:], '"')
	if q < 0 {
		d.pos = len(d.buf)
		return nil, errUnexpectedEnd
	}
	end := start + q
	if plain(d.buf[start:end]) {
		d.pos = end + 1
		return d.buf[start:end:end], nil
	}
	return d.unquote(start)
}

// plain reports whether b holds no '\\', no byte below 0x20 and no byte at
// or above 0x80, four words at a time.
func plain(b []byte) bool {
	i := 0
	for ; i+32 <= len(b); i += 32 {
		w := b[i : i+32 : i+32]
		if (special(binary.LittleEndian.Uint64(w))|special(binary.LittleEndian.Uint64(w[8:]))|
			special(binary.LittleEndian.Uint64(w[16:]))|special(binary.LittleEndian.Uint64(w[24:])))&highBits != 0 {
			return false
		}
	}
	for _, c := range b[i:] {
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

const lowBits, highBits = 0x0101010101010101, 0x8080808080808080

// special sets the high bit of some byte of its result, under highBits,
// exactly when a byte of w is below 0x20, equal to '\\' or at or above
// 0x80 (the has-less-than, has-zero and sign-bit word idioms).
func special(w uint64) uint64 {
	bs := w ^ (lowBits * '\\')
	return (w-lowBits*0x20)&^w | (bs-lowBits)&^bs | w
}

// unquote is the slow path of string, from the first byte after the
// opening quote: it validates as encoding/json's scanner does and decodes
// as its unquote does.
func (d *reqDecoder) unquote(i int) ([]byte, error) {
	b := d.buf
	out := make([]byte, 0, 16)
	for {
		if i >= len(b) {
			d.pos = i
			return nil, errUnexpectedEnd
		}
		c := b[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c == '\\':
			if i+1 >= len(b) {
				d.pos = i + 1
				return nil, errUnexpectedEnd
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[i+2:])
				if r < 0 {
					d.pos = i + 2
					return nil, d.syntaxErr("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if r2 := u4(b[i:]); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
							out = utf8.AppendRune(out, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i + 1
				return nil, d.syntaxErr("in string escape code")
			}
			i += 2
		case c < 0x20:
			d.pos = i
			return nil, d.syntaxErr("in string literal")
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
}

// u4 decodes a complete \uXXXX escape at the start of s, or returns -1.
func u4(s []byte) rune {
	if len(s) < 2 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return hex4(s[2:])
}

// hex4 decodes four hex digits at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

func (d *reqDecoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of the body (0 is
// never valid JSON at any position, so every caller reports an error).
func (d *reqDecoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

func (d *reqDecoder) syntaxErr(context string) error {
	if d.pos >= len(d.buf) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.buf[d.pos], context, d.pos)
}

// typeErr reports a well-formed value of the wrong kind, or the syntax
// error at the cursor when there is no value there.
func (d *reqDecoder) typeErr(name, want string) error {
	switch c := d.peek(); {
	case c == '{', c == '[', c == '"', c == 't', c == 'f', c == 'n', c == '-', '0' <= c && c <= '9':
		return fmt.Errorf("%s must be %s (offset %d)", name, want, d.pos)
	}
	return d.syntaxErr("looking for beginning of value")
}
