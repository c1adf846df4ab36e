package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"logan"
)

// The oracle is the /align decode that encoding/json did before the
// scanner, kept verbatim: the tagged wire structs, Decoder.Decode, the
// trailing-data check, -max-pairs, requestConfig and the string → []byte
// conversion of every sequence.

type oracleRequest struct {
	Pairs []oraclePair `json:"pairs"`
	// X overrides the server's default X-drop threshold for this request.
	X *int32 `json:"x"`
	// Scoring overrides the server's default scheme for this request.
	Scoring *oracleScoring `json:"scoring"`
}

type oracleScoring struct {
	Mode      string `json:"mode"`
	Match     int32  `json:"match"`
	Mismatch  int32  `json:"mismatch"`
	Gap       int32  `json:"gap"`
	GapOpen   int32  `json:"gapOpen"`
	GapExtend int32  `json:"gapExtend"`
}

type oraclePair struct {
	Query   string `json:"query"`
	Target  string `json:"target"`
	SeedQ   int    `json:"seedQ"`
	SeedT   int    `json:"seedT"`
	SeedLen int    `json:"seedLen"`
}

// decoded is one decode's outcome: the HTTP status it leads to before the
// engine runs, and on 200 what reaches the engine.
type decoded struct {
	status int
	pairs  []logan.Pair
	x      *int32
	cfg    logan.Config
}

func oracleDecode(s *server, body []byte) decoded {
	var req oracleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return decoded{status: http.StatusBadRequest}
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return decoded{status: http.StatusBadRequest}
	}
	if len(req.Pairs) > s.cfg.maxPairs {
		return decoded{status: http.StatusRequestEntityTooLarge}
	}
	cfg, err := s.requestConfig(req.X, (*scoringJSON)(req.Scoring))
	if err != nil {
		return decoded{status: http.StatusBadRequest}
	}
	pairs := make([]logan.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = logan.Pair{
			Query:  []byte(p.Query),
			Target: []byte(p.Target),
			SeedQ:  p.SeedQ, SeedT: p.SeedT, SeedLen: p.SeedLen,
		}
	}
	return decoded{status: http.StatusOK, pairs: pairs, x: req.X, cfg: cfg}
}

// scannerDecode is handleAlign's decode path after the body is read.
func scannerDecode(s *server, body []byte) decoded {
	req, err := decodeAlignRequest(body, s.cfg.maxPairs)
	if err != nil {
		return decoded{status: http.StatusBadRequest}
	}
	if req.n > s.cfg.maxPairs {
		return decoded{status: http.StatusRequestEntityTooLarge}
	}
	cfg, err := s.requestConfig(req.x, req.scoring)
	if err != nil {
		return decoded{status: http.StatusBadRequest}
	}
	return decoded{status: http.StatusOK, pairs: req.pairs[:req.n], x: req.x, cfg: cfg}
}

// decodeServer is a server with only what requestConfig reads: the
// default -x 100 and -max-x, and a small -max-pairs so 413 is reachable.
func decodeServer() *server {
	cfg := defaultServeConfig()
	cfg.maxPairs = 4
	return &server{cfg: cfg}
}

func checkSameDecode(t *testing.T, s *server, body []byte) {
	t.Helper()
	want, got := oracleDecode(s, body), scannerDecode(s, body)
	if got.status != want.status {
		_, err := decodeAlignRequest(body, s.cfg.maxPairs)
		t.Fatalf("%q: status %d, encoding/json %d (scanner error: %v)", body, got.status, want.status, err)
	}
	if want.status != http.StatusOK {
		return
	}
	if len(got.pairs) != len(want.pairs) {
		t.Fatalf("%q: %d pairs, encoding/json %d", body, len(got.pairs), len(want.pairs))
	}
	for i, w := range want.pairs {
		g := got.pairs[i]
		if !bytes.Equal(g.Query, w.Query) || !bytes.Equal(g.Target, w.Target) ||
			g.SeedQ != w.SeedQ || g.SeedT != w.SeedT || g.SeedLen != w.SeedLen {
			t.Fatalf("%q: pair %d = %+v, encoding/json %+v", body, i, g, w)
		}
	}
	if (got.x == nil) != (want.x == nil) || got.x != nil && *got.x != *want.x {
		t.Fatalf("%q: x %v, encoding/json %v", body, got.x, want.x)
	}
	if got.cfg != want.cfg {
		t.Fatalf("%q: config %+v, encoding/json %+v", body, got.cfg, want.cfg)
	}
}

// alignDecodeCorpus is FuzzAlignRequest's seed corpus, which plain
// go test runs too: each entry probes one rule encoding/json and the
// scanner must agree on.
var alignDecodeCorpus = []string{
	``,
	`   `,
	`null`,
	` null `,
	`nul`,
	`{}`,
	`[]`,
	`"pairs"`,
	`12`,
	`true`,
	`{"pairs":null}`,
	`{"pairs":[]}`,
	`{"pairs":{}}`,
	`{"pairs":[null]}`,
	`{"pairs":[1]}`,
	`{"pairs":[{"query":"ACGT","target":"ACGT","seedQ":0,"seedT":0,"seedLen":4}],"x":50}`,
	`{"PAIRS":[{"QUERY":"ACGT","Target":"ACGA","SeedLen":2}],"X":7}`,
	"{\"pairs\":[{\"ſeedLen\":3,\"K\":1}]}",
	`{"pairs":[{"query":"ACGT","target":"AC\/GT","seedLen":1}]}`,
	`{"pairs":[{"query":"𝄞\ud834","target":"\udd1eé","seedLen":1}]}`,
	"{\"pairs\":[{\"query\":\"AC\xffGT\xc3\",\"target\":\"\xed\xa0\x80\",\"seedLen\":1}]}",
	"{\"pairs\":[{\"query\":\"AC\x01GT\"}]}",
	`{"pairs":[{"query":"AC\qGT"}]}`,
	`{"pairs":[{"query":"AC\u00zzGT"}]}`,
	`{"pairs":[{"query":"ACGT","query":"GG","seedQ":1,"seedQ":null}],"pairs":[{"target":"TT"}]}`,
	`{"pairs":[{"query":"A"},{"query":"C"},{"query":"G"}],"pairs":[{}],"pairs":[null,null,{"seedLen":2}]}`,
	`{"pairs":[{"query":"A"},{"query":"C"}],"pairs":[],"pairs":[null,null]}`,
	`{"pairs":[{"query":"A"}],"pairs":null,"pairs":[null]}`,
	`{"pairs":[{"query":null,"target":null,"seedQ":null}]}`,
	`{"pairs":[{"query":5}]}`,
	`{"pairs":[{"seedQ":"5"}]}`,
	`{"pairs":[{"seedQ":true}]}`,
	`{"pairs":[{"query":"A","extra":{"deep":[1,{"x":[]},"s",true,false,null,-1.5e+3]}}]}`,
	`{"unknown":{"a":[1,2,{"b":null}]},"pairs":[]}`,
	`{"unknown":[1,2,}`,
	`{"unknown":01}`,
	`{"unknown":1.}`,
	`{"unknown":-}`,
	`{"unknown":.5}`,
	`{"unknown":1e}`,
	`{"unknown":"\'"}`,
	" \t\r\n{ \"pairs\" : [ { \"query\" : \"ACGT\" , \"seedLen\" : 2 } ] , \"x\" : 9 } \n\t",
	`{"pairs":[{"seedQ":-0,"seedT":0,"seedLen":1}]}`,
	`{"pairs":[{"seedQ":9223372036854775807}]}`,
	`{"pairs":[{"seedQ":9223372036854775808}]}`,
	`{"pairs":[{"seedQ":-9223372036854775809}]}`,
	`{"pairs":[{"query":"ACGT","target":"ACGT","seedQ":-9223372036854775808,"seedT":0,"seedLen":1}]}`,
	`{"pairs":[{"seedT":18446744073709551616}]}`,
	`{"pairs":[{"seedLen":99999999999999999999}]}`,
	`{"pairs":[{"seedLen":-}]}`,
	`{"pairs":[{"seedQ":1.0}]}`,
	`{"pairs":[{"seedQ":1e2}]}`,
	`{"x":2147483647}`,
	`{"x":2147483648}`,
	`{"x":-2147483649}`,
	`{"x":-2147483648}`,
	`{"x":0}`,
	`{"scoring":{"match":-2147483648,"mismatch":-1,"gap":-1}}`,
	`{"x":20000}`,
	`{"x":5,"x":null}`,
	`{"x":"5"}`,
	`{"scoring":{"mode":"affine","match":2,"mismatch":-3,"gapOpen":-4,"gapExtend":-1}}`,
	`{"scoring":{"mode":"affine"},"scoring":{"match":2,"mismatch":-3,"gapOpen":-4,"gapExtend":-1}}`,
	`{"scoring":{"mode":"affine"},"scoring":null,"scoring":{"match":1,"mismatch":-1,"gap":-1}}`,
	`{"scoring":{"mode":"blosum62","gap":-4,"mode":null}}`,
	`{"scoring":{"match":2147483648}}`,
	`{"scoring":{"match":1048577}}`,
	`{"scoring":{"mode":"quadratic"}}`,
	`{"scoring":[]}`,
	`{"scoring":{"mode":7}}`,
	`{"pairs":[]} GARBAGE`,
	`{"pairs":[]} {"pairs":[]}`,
	`{"pairs":[]}null`,
	`{"pairs":[]`,
	`{"pairs":[{}],}`,
	`{"pairs" "x"}`,
	`{,}`,
	`{"pairs":[{},{},{},{},{}]}`,
	`{"pairs":[{},{},{},{},{}],"pairs":[{}]}`,
	`{"pairs":[{},{},{},{},{}]} x`,
	`{"pairs":[{},{},{},{},{},{"seedQ":1.5}]}`,
	`{"pairs":[{},{},{},{},{}],"scoring":{"mode":"nope"}}`,
	strings.Repeat(`[`, 10001) + strings.Repeat(`]`, 10001),
	`{"u":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `}`,
	`{"u":` + strings.Repeat(`[`, 10000) + strings.Repeat(`]`, 10000) + `}`,
}

// FuzzAlignRequest holds the scanner to encoding/json on arbitrary bodies:
// the same outcome (accept, 400 or 413) and, on accept, the same pairs
// byte for byte, the same x and the same resolved configuration.
func FuzzAlignRequest(f *testing.F) {
	for _, body := range alignDecodeCorpus {
		f.Add([]byte(body))
	}
	s := decodeServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSameDecode(t, s, body)
	})
}

// TestAlignDecodeViews: a plain sequence reaches the engine as a view into
// the request body, capacity-clipped to its own bytes; an escaped one is
// a decoded copy.
func TestAlignDecodeViews(t *testing.T) {
	body := []byte(`{"pairs":[{"query":"ACGTACGT","target":"\u0041CGT","seedLen":2}]}`)
	req, err := decodeAlignRequest(body, 10)
	if err != nil || req.n != 1 {
		t.Fatalf("decode: %+v, %v", req, err)
	}
	inBody := func(b []byte) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(unsafe.SliceData(body)))
		return p >= lo && p < lo+uintptr(len(body))
	}
	p := req.pairs[0]
	if !inBody(p.Query) || cap(p.Query) != len(p.Query) || string(p.Query) != "ACGTACGT" {
		t.Errorf("plain query is not a clipped view into the body: %q cap %d", p.Query, cap(p.Query))
	}
	if inBody(p.Target) || string(p.Target) != "ACGT" {
		t.Errorf("escaped target %q should be a decoded copy", p.Target)
	}
}

// TestAlignDecodeAllocationBound: a 3 MB body of a million empty pairs is
// refused with 413 for the pair count, and the refusal allocates in
// proportion to the body and -max-pairs, not to the million elements
// (encoding/json allocated ≈ 306 MB for it).
func TestAlignDecodeAllocationBound(t *testing.T) {
	srv, s, _ := testServerCfg(t, func() serveConfig {
		cfg := defaultServeConfig()
		cfg.maxPairs = 1000
		return cfg
	}())
	waitReady(t, srv.URL)
	body := `{"pairs":[` + strings.Repeat(`{},`, 1_000_000-1) + `{}]}`

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/align", strings.NewReader(body)))
	runtime.ReadMemStats(&after)

	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "1000-pair limit") {
		t.Fatalf("status %d (want 413 naming the pair limit): %s", rec.Code, rec.Body.String())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Errorf("refusing %d-byte body allocated %d bytes, want < 16 MB", len(body), alloc)
	}
}

// TestReadBody: a body without Content-Length is read whole, one over the
// limit is a *http.MaxBytesError however it is framed, and a declared
// length is allocated up front only up to trustedLength.
func TestReadBody(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 4096, 100_000} {
		want := strings.Repeat("a", n)
		r := httptest.NewRequest("POST", "/align", io.NopCloser(strings.NewReader(want)))
		r.ContentLength = -1
		got, err := readBody(httptest.NewRecorder(), r, 1<<20)
		if err != nil || string(got) != want {
			t.Errorf("n=%d: read %d bytes, %v", n, len(got), err)
		}
	}
	for _, cl := range []int64{-1, 200} {
		r := httptest.NewRequest("POST", "/align", io.NopCloser(strings.NewReader(strings.Repeat("a", 200))))
		r.ContentLength = cl
		var tooBig *http.MaxBytesError
		if _, err := readBody(httptest.NewRecorder(), r, 128); !errors.As(err, &tooBig) || tooBig.Limit != 128 {
			t.Errorf("content-length %d: %v, want a 128-byte MaxBytesError", cl, err)
		}
	}
	r := httptest.NewRequest("POST", "/align", strings.NewReader(`{}`))
	r.ContentLength = 200 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := readBody(httptest.NewRecorder(), r, 256<<20)
	runtime.ReadMemStats(&after)
	if err != nil || string(got) != `{}` {
		t.Fatalf("short body under a 200 MB declared length: %q, %v", got, err)
	}
	// Up to 2*trustedLength: without optimisation (as under -race)
	// bytes.Buffer's growth allocates its new buffer twice.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*trustedLength {
		t.Errorf("a 200 MB declared length allocated %d bytes before its bytes arrived", alloc)
	}
}
