package logan

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// paramTables binds each of the three tables to a zero configuration.
func paramTables() map[string]Params {
	return map[string]Params{
		"overlap": new(OverlapConfig).Params(),
		"map":     new(MapConfig).Params(),
		"index":   new(IndexOptions).Params(),
	}
}

// TestParamTablesSelfCheck: wire names unique per table, every default
// inside its own bounds, every row documented and bound to a field.
func TestParamTablesSelfCheck(t *testing.T) {
	for table, ps := range paramTables() {
		seen := map[string]bool{}
		for _, p := range ps {
			if p.name == "" || seen[p.name] {
				t.Errorf("%s: wire name %q empty or repeated", table, p.name)
			}
			seen[p.name] = true
			if p.doc == "" || strings.Contains(p.doc, "\n") {
				t.Errorf("%s.%s: doc must be one non-empty line, got %q", table, p.name, p.doc)
			}
			if p.ptr == nil {
				t.Errorf("%s.%s: not bound to a field", table, p.name)
			}
			if !(p.min <= p.max) {
				t.Errorf("%s.%s: empty range %s", table, p.name, p.interval())
			}
			// The default is what an absent parameter resolves to: it must
			// be a value the row itself accepts (and, where 0 stands for
			// it, not that 0).
			strict := p
			strict.zero = zeroValue
			if err := strict.check(p.def); err != nil {
				t.Errorf("%s.%s: default outside its own bounds: %v", table, p.name, err)
			}
			if p.zero != zeroValue && p.def == 0 {
				t.Errorf("%s.%s: 0 stands for a default of 0", table, p.name)
			}
			if p.max > 1<<53 || p.min < -(1<<53) {
				t.Errorf("%s.%s: bounds %s leave float64's exact integers", table, p.name, p.interval())
			}
			if got := strings.Contains(ps.Markdown(), "| `"+p.name+"` |"); got == p.server {
				t.Errorf("%s.%s: server=%v but documented as a request parameter=%v", table, p.name, p.server, got)
			}
		}
	}
}

// TestDefaultConfigsAreTheTable: the Default* constructors hold exactly
// the rows' defaults and validate; the data-set arguments are taken as
// written, an error-free 0 included.
func TestDefaultConfigsAreTheTable(t *testing.T) {
	oc := DefaultOverlapConfig(DefaultCoverage, DefaultErrorRate, 25)
	if oc.K != 17 || oc.Coverage != 6 || oc.ErrorRate != 0.15 || oc.X != 25 || oc.Scoring != LinearScoring(1, -1, -1) ||
		oc.BinWidth != 500 || oc.MinShared != 1 || oc.MaxSeeds != 16 || oc.Delta != 0.25 || oc.MinOverlap != 0 ||
		oc.BatchPairs != 2048 || oc.Workers != 0 || oc.Traceback || oc.OnProgress != nil {
		t.Errorf("DefaultOverlapConfig(DefaultCoverage, DefaultErrorRate, 25) = %+v", oc)
	}
	if oc := DefaultOverlapConfig(30, 0, 5); oc.Coverage != 30 || oc.ErrorRate != 0 || oc.X != 5 {
		t.Errorf("DefaultOverlapConfig(30, 0, 5) = %+v", oc)
	}
	if err := oc.Validate(); err != nil {
		t.Errorf("default overlap config rejected: %v", err)
	}
	mc := DefaultMapConfig(100)
	if mc.X != 100 || mc.MaxGap != 5000 || mc.MinChainScore != 30 || mc.MinChainAnchors != 3 ||
		mc.MaxSecondary != -1 || mc.BatchReads != 512 || mc.Scoring != LinearScoring(1, -1, -1) {
		t.Errorf("DefaultMapConfig(100) = %+v", mc)
	}
	var io IndexOptions
	io.Params().resolve()
	if io != (IndexOptions{K: 15, W: 10, MaxOccurrence: 256}) {
		t.Errorf("resolved zero IndexOptions = %+v", io)
	}
}

// TestZeroRules pins what an explicit 0 means, row by row: not a value
// anywhere (binWidth, minShared, maxSeeds, batchPairs — a struct built by
// hand resolves to the default), taken as written in a struct and on a
// flag but absent on the wire (k, coverage, errorRate, delta — the
// library always took them literally, k=0 failing Validate; the query and
// JSON forms never did), or a plain value (x, minOverlap, workers).
func TestZeroRules(t *testing.T) {
	var c OverlapConfig
	ps := c.Params()
	ps.resolve()
	if c.BinWidth != 500 || c.MinShared != 1 || c.MaxSeeds != 16 || c.BatchPairs != 2048 {
		t.Errorf("resolve left a 0 that is not a value: %+v", c)
	}
	if c.K != 0 || c.Coverage != 0 || c.ErrorRate != 0 || c.Delta != 0 || c.X != 0 || c.MinOverlap != 0 || c.Workers != 0 {
		t.Errorf("resolve replaced a 0 that is a value: %+v", c)
	}
	c.Scoring = LinearScoring(1, -1, -1)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "k=0") {
		t.Errorf("k=0 in a struct: Validate = %v, want it refused by name", err)
	}
	c.K = 17
	if err := c.Validate(); err != nil {
		t.Errorf("error-free, cushion-free configuration rejected: %v", err)
	}
	for _, p := range ps {
		c = DefaultOverlapConfig(DefaultCoverage, DefaultErrorRate, 25)
		if err := p.Set("0"); (err == nil) != (p.name != "k") { // the flag spelling
			t.Errorf("flag %s=0: %v", p.name, err)
		} else if err == nil && p.load() != 0 {
			t.Errorf("flag %s=0 stored %v", p.name, p.load())
		}
		if p.server {
			continue
		}
		if err := ps.Set(p.name, "0"); err != nil { // the wire spelling
			t.Errorf("wire %s=0: %v", p.name, err)
		}
		if want := map[zeroRule]float64{zeroValue: 0, zeroAbsentOnWire: p.def, zeroAbsent: p.def}[p.zero]; p.load() != want {
			t.Errorf("wire %s=0 stored %v, want %v", p.name, p.load(), want)
		}
	}
}

// TestParamSet covers the one text setter: width, bounds, non-numbers,
// unknown names and the server rows no request may name.
func TestParamSet(t *testing.T) {
	cfg := DefaultOverlapConfig(DefaultCoverage, DefaultErrorRate, 25)
	ps := cfg.Params()
	for _, c := range []struct {
		name, in string
		ok       bool
	}{
		{"k", "21", true}, {"k", "0", true}, {"k", "32", false}, {"k", "-1", false}, {"k", "21.0", false},
		{"coverage", "1000", true}, {"coverage", "1000.0001", false}, {"coverage", "NaN", false}, {"coverage", "Inf", false},
		{"errorRate", "0.999", true}, {"errorRate", "1", false}, {"errorRate", "nan", false},
		{"x", "2147483647", true}, {"x", "2147483648", false}, {"x", "-1", false},
		{"delta", "-0.5", true}, {"delta", "NaN", false}, {"delta", "-Inf", false}, {"delta", "1e300", false},
		{"maxSeeds", "-1", false}, {"maxSeeds", "1025", false}, {"binWidth", "-1", false}, {"minShared", "-1", false},
		{"minOverlap", "-1", false}, {"batchPairs", "64", false}, {"workers", "2", false},
		{"minoverlap", "500", false}, {"", "1", false},
	} {
		if err := ps.Set(c.name, c.in); (err == nil) != c.ok {
			t.Errorf("Set(%q, %q): err = %v, want ok=%v", c.name, c.in, err, c.ok)
		}
	}
	if cfg.K != 17 || cfg.X != math.MaxInt32 || cfg.Delta != -0.5 || cfg.Coverage != 1000 || cfg.BatchPairs != 2048 || cfg.Workers != 0 {
		t.Errorf("after the accepted sets: %+v", cfg)
	}
	err := ps.Set("minoverlap", "500")
	if err == nil || !strings.Contains(err.Error(), `"minoverlap"`) || !strings.Contains(err.Error(), "minOverlap") {
		t.Errorf("unknown name error must name the parameter and list the valid ones, got %v", err)
	}
	if err := ps.Set("workers", "2"); err == nil || strings.Contains(err.Error(), "batchPairs") {
		t.Errorf("a server row must read as unknown and stay off the valid list, got %v", err)
	}

	mc := DefaultMapConfig(100)
	mps := mc.Params()
	for _, in := range []string{"-4294967295", "4294967297", "-1"} {
		if err := mps.Set("maxGap", in); err == nil {
			t.Errorf("maxGap=%s accepted as %d", in, mc.MaxGap)
		}
	}
	if err := mps.Set("minChainScore", "4294967297"); err == nil {
		t.Errorf("minChainScore=4294967297 accepted as %d", mc.MinChainScore)
	}
	if err := mps.Set("maxSecondary", "-7"); err != nil || mc.MaxSecondary != -7 {
		t.Errorf("maxSecondary=-7: %v, %d", err, mc.MaxSecondary)
	}
	if err := mps.Set("batchReads", "64"); err == nil {
		t.Error("batchReads accepted as a request parameter")
	}
}

// TestValidateRangeHalf: a struct built by hand meets the same bounds as
// a request — in Validate, so in Run and Map too.
func TestValidateRangeHalf(t *testing.T) {
	for name, mut := range map[string]func(*OverlapConfig){
		"coverage 1e6":  func(c *OverlapConfig) { c.Coverage = 1e6 },
		"coverage NaN":  func(c *OverlapConfig) { c.Coverage = math.NaN() },
		"errorRate NaN": func(c *OverlapConfig) { c.ErrorRate = math.NaN() },
		"errorRate 1":   func(c *OverlapConfig) { c.ErrorRate = 1 },
		"delta Inf":     func(c *OverlapConfig) { c.Delta = math.Inf(1) },
		"maxSeeds -1":   func(c *OverlapConfig) { c.MaxSeeds = -1 },
		"binWidth -1":   func(c *OverlapConfig) { c.BinWidth = -1 },
		"workers -1":    func(c *OverlapConfig) { c.Workers = -1 },
		"k 32":          func(c *OverlapConfig) { c.K = 32 },
	} {
		cfg := overlapTestConfig(10)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s validated", name)
		}
	}
	m, _ := newTestMapper(t, CPU)
	if _, err := m.Build(context.Background(), strings.NewReader(">r\nACGTACGTACGTACGTACGT\n"), IndexOptions{K: 99}); err == nil {
		t.Error("Build accepted k=99")
	}
	if _, err := m.Build(context.Background(), strings.NewReader(">r\nACGTACGTACGTACGTACGT\n"), IndexOptions{W: -2}); err == nil {
		t.Error("Build accepted w=-2")
	}
}

// TestParamsJSON: the Spec-header form round-trips every row (the server
// rows too), applies the zero rule and the bounds on the way in, and
// skips a field no row knows.
func TestParamsJSON(t *testing.T) {
	in := overlapTestConfig(20)
	in.Workers = 3
	b, err := json.Marshal(in.Params())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"k":17,"coverage":5,"errorRate":0.12,"x":20,"binWidth":500,"minShared":1,"maxSeeds":16,"delta":0.25,"minOverlap":400,"batchPairs":2048,"workers":3}`
	if string(b) != want {
		t.Errorf("header form:\n got %s\nwant %s", b, want)
	}
	out := DefaultOverlapConfig(DefaultCoverage, DefaultErrorRate, 0)
	ps := out.Params()
	if err := json.Unmarshal(b, &ps); err != nil {
		t.Fatal(err)
	}
	if out.K != in.K || out.Coverage != in.Coverage || out.ErrorRate != in.ErrorRate || out.X != in.X ||
		out.MinOverlap != in.MinOverlap || out.Workers != in.Workers || out.BatchPairs != in.BatchPairs {
		t.Errorf("round trip: %+v, want %+v", out, in)
	}
	for doc, wantErr := range map[string]string{
		`{"coverage":1000000}`:      "coverage",
		`{"workers":-1}`:            "workers",
		`{"k":"17"}`:                "k",
		`{"x":4294967297}`:          "x",
		`{"batchPairs":0,"k":null}`: "",
		`{"errorRate":0,"delta":0}`: "",
		`{"rowOfALaterTable":500}`:  "",
		`null`:                      "",
	} {
		fresh := DefaultOverlapConfig(DefaultCoverage, DefaultErrorRate, 0)
		ps := fresh.Params()
		err := json.Unmarshal([]byte(doc), &ps)
		switch {
		case wantErr == "" && err != nil:
			t.Errorf("%s: %v", doc, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s: err = %v, want one naming %s", doc, err, wantErr)
		}
		if wantErr == "" && (fresh.BatchPairs != 2048 || fresh.K != 17 || fresh.ErrorRate != 0.15 || fresh.Delta != 0.25) {
			t.Errorf("%s: zero/null fields must keep the defaults, got %+v", doc, fresh)
		}
	}
}

// TestOverlapperResolvesZeroFields: "0 selects the default" is applied
// once, at the top of a run — a hand-built configuration leaving the rows
// 0 is not a value of at 0 produces the PAF of the spelled-out defaults
// (the stages below no longer substitute anything), while its Delta is
// taken as written.
func TestOverlapperResolvesZeroFields(t *testing.T) {
	rs := overlapTestSet(t, 11, 30_000)
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ov, _ := NewOverlapper(eng, OverlapperOptions{})
	paf := func(cfg OverlapConfig) []byte {
		res, err := ov.Run(context.Background(), readsOf(rs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePAF(&buf, res.Records); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	full := overlapTestConfig(15)
	sparse := OverlapConfig{K: full.K, Coverage: full.Coverage, ErrorRate: full.ErrorRate, X: full.X, Scoring: full.Scoring, MinOverlap: full.MinOverlap, Delta: full.Delta}
	want := paf(full)
	if len(want) == 0 {
		t.Fatal("no overlaps; test set too small")
	}
	if got := paf(sparse); !bytes.Equal(got, want) {
		t.Errorf("zero-field configuration: %d PAF bytes, spelled-out defaults %d", len(got), len(want))
	}
	sparse.Delta = 0
	if got := paf(sparse); bytes.Equal(got, want) {
		t.Error("Delta 0 produced the PAF of Delta 0.25: an explicit 0 cushion was replaced")
	}
}

// TestBackendText: the flag spelling round-trips and rejects the rest.
func TestBackendText(t *testing.T) {
	for _, b := range []Backend{CPU, GPU, Hybrid} {
		text, _ := b.MarshalText()
		var got Backend
		if err := got.UnmarshalText(text); err != nil || got != b {
			t.Errorf("%v: round trip through %q gave %v, %v", b, text, got, err)
		}
	}
	var b Backend
	if err := b.UnmarshalText([]byte("tpu")); err == nil {
		t.Error(`backend "tpu" accepted`)
	}
}
