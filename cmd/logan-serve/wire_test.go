package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"logan"
	"logan/internal/cluster"
)

// wireRow is one spelling of one request parameter and what it must
// resolve to. The table was written against the commit before the
// parameter table (PR 19) and passed there on every row whose fix field
// is empty; a non-empty fix names the one deliberate change that moved
// the row (see docs/SERVING.md, "Request parameters").
type wireRow struct {
	table string  // "jobs", "map" or "index"
	param string  // wire name
	in    string  // the value as text; "" = parameter absent
	want  float64 // effective value of param when accepted
	bad   bool    // rejected: 400
	// queryOnly skips the JSON config spelling (jobs rows run as both):
	// the text is not a JSON number, so the document itself is malformed.
	queryOnly bool
	fix       string
}

const (
	fixBounds  = "bounds enforced at submission"
	fixUnknown = "unknown parameter names rejected"
)

// decodeJobJSON resolves a JSON submission the way handleJobSubmit does.
func decodeJobJSON(s *server, body string) (logan.OverlapConfig, error) {
	var req jobRequestJSON
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		return logan.OverlapConfig{}, err
	}
	return s.jobConfig(req.params())
}

// wireRows: every parameter absent, explicit 0, explicit value, out of
// range, non-numeric. The test server runs -x 100 -max-x 10000.
var wireRows = []wireRow{
	{table: "jobs", param: "k", in: "", want: 17},
	{table: "jobs", param: "k", in: "0", want: 17},
	{table: "jobs", param: "k", in: "21", want: 21},
	{table: "jobs", param: "k", in: "31", want: 31},
	{table: "jobs", param: "k", in: "32", bad: true},
	{table: "jobs", param: "k", in: "-3", bad: true},
	{table: "jobs", param: "k", in: "abc", bad: true, queryOnly: true},
	{table: "jobs", param: "k", in: `"21"`, bad: true},
	{table: "jobs", param: "k", in: "21.0", bad: true},
	{table: "jobs", param: "coverage", in: "", want: 6},
	{table: "jobs", param: "coverage", in: "0", want: 6},
	{table: "jobs", param: "coverage", in: "5", want: 5},
	{table: "jobs", param: "coverage", in: "30.5", want: 30.5},
	{table: "jobs", param: "coverage", in: "1000", want: 1000},
	{table: "jobs", param: "coverage", in: "-1", bad: true},
	{table: "jobs", param: "coverage", in: "1000.5", bad: true, fix: fixBounds},  // was accepted
	{table: "jobs", param: "coverage", in: "1000000", bad: true, fix: fixBounds}, // was accepted: hours inside ReliableBounds
	{table: "jobs", param: "coverage", in: "NaN", bad: true, queryOnly: true, fix: fixBounds},
	{table: "jobs", param: "coverage", in: "+Inf", bad: true, queryOnly: true, fix: fixBounds},
	{table: "jobs", param: "coverage", in: "abc", bad: true, queryOnly: true},
	{table: "jobs", param: "errorRate", in: "", want: 0.15},
	{table: "jobs", param: "errorRate", in: "0", want: 0.15},
	{table: "jobs", param: "errorRate", in: "0.12", want: 0.12},
	{table: "jobs", param: "errorRate", in: "0.999", want: 0.999},
	{table: "jobs", param: "errorRate", in: "1", bad: true},
	{table: "jobs", param: "errorRate", in: "-0.1", bad: true},
	{table: "jobs", param: "errorRate", in: "NaN", bad: true, queryOnly: true, fix: fixBounds}, // passed er < 0 || er >= 1
	{table: "jobs", param: "errorRate", in: "Inf", bad: true, queryOnly: true},
	{table: "jobs", param: "errorRate", in: "abc", bad: true, queryOnly: true},
	{table: "jobs", param: "x", in: "", want: 100},
	{table: "jobs", param: "x", in: "0", want: 0},
	{table: "jobs", param: "x", in: "25", want: 25},
	{table: "jobs", param: "x", in: "10000", want: 10000},
	{table: "jobs", param: "x", in: "10001", bad: true},
	{table: "jobs", param: "x", in: "-1", bad: true},
	{table: "jobs", param: "x", in: "4294967297", bad: true},
	{table: "jobs", param: "x", in: "abc", bad: true, queryOnly: true},
	{table: "jobs", param: "minOverlap", in: "", want: 0},
	{table: "jobs", param: "minOverlap", in: "0", want: 0},
	{table: "jobs", param: "minOverlap", in: "500", want: 500},
	{table: "jobs", param: "minOverlap", in: "-1", bad: true, fix: fixBounds}, // was accepted as -1
	{table: "jobs", param: "minOverlap", in: "abc", bad: true, queryOnly: true},
	{table: "jobs", param: "minShared", in: "", want: 1},
	{table: "jobs", param: "minShared", in: "0", want: 1},
	{table: "jobs", param: "minShared", in: "2", want: 2},
	{table: "jobs", param: "minShared", in: "-1", bad: true, fix: fixBounds}, // was accepted, SpGEMM read it as 1
	{table: "jobs", param: "minShared", in: "abc", bad: true, queryOnly: true},
	{table: "jobs", param: "maxSeeds", in: "", want: 16},
	{table: "jobs", param: "maxSeeds", in: "0", want: 16},
	{table: "jobs", param: "maxSeeds", in: "4", want: 4},
	{table: "jobs", param: "maxSeeds", in: "-1", bad: true, fix: fixBounds},        // was accepted, SpGEMM read it as 16
	{table: "jobs", param: "maxSeeds", in: "100000000", bad: true, fix: fixBounds}, // was accepted
	{table: "jobs", param: "maxSeeds", in: "abc", bad: true, queryOnly: true},
	{table: "jobs", param: "binWidth", in: "", want: 500},
	{table: "jobs", param: "binWidth", in: "0", want: 500},
	{table: "jobs", param: "binWidth", in: "250", want: 250},
	{table: "jobs", param: "binWidth", in: "-1", bad: true, fix: fixBounds}, // was accepted, ChooseSeed read it as 500
	{table: "jobs", param: "binWidth", in: "abc", bad: true, queryOnly: true},
	{table: "jobs", param: "delta", in: "", want: 0.25},
	{table: "jobs", param: "delta", in: "0", want: 0.25},
	{table: "jobs", param: "delta", in: "0.1", want: 0.1},
	{table: "jobs", param: "delta", in: "-0.5", want: -0.5},
	{table: "jobs", param: "delta", in: "NaN", bad: true, queryOnly: true, fix: fixBounds}, // was accepted
	{table: "jobs", param: "delta", in: "abc", bad: true, queryOnly: true},
	// Misspelled names ran the job with the default instead of the value.
	{table: "jobs", param: "minoverlap", in: "500", bad: true, fix: fixUnknown},
	{table: "jobs", param: "minOverlp", in: "500", bad: true, fix: fixUnknown},
	// The Spec header's server rows are resource controls: never a request
	// parameter (ignored before, refused by name now).
	{table: "jobs", param: "workers", in: "8", bad: true, fix: fixUnknown},
	{table: "jobs", param: "batchPairs", in: "64", bad: true, fix: fixUnknown},

	{table: "map", param: "x", in: "", want: 100},
	{table: "map", param: "x", in: "0", want: 0},
	{table: "map", param: "x", in: "50", want: 50},
	{table: "map", param: "x", in: "10001", bad: true},
	{table: "map", param: "x", in: "-1", bad: true},
	{table: "map", param: "x", in: "4294967297", bad: true},
	{table: "map", param: "x", in: "abc", bad: true},
	{table: "map", param: "maxGap", in: "", want: 5000},
	{table: "map", param: "maxGap", in: "0", want: 5000},
	{table: "map", param: "maxGap", in: "2000", want: 2000},
	{table: "map", param: "maxGap", in: "-1", bad: true},
	{table: "map", param: "maxGap", in: "-4294967295", bad: true, fix: fixBounds}, // was truncated to int32(1)
	{table: "map", param: "maxGap", in: "abc", bad: true},
	{table: "map", param: "minChainScore", in: "", want: 30},
	{table: "map", param: "minChainScore", in: "0", want: 30},
	{table: "map", param: "minChainScore", in: "50", want: 50},
	{table: "map", param: "minChainScore", in: "-1", want: -1},
	{table: "map", param: "minChainScore", in: "4294967297", bad: true, fix: fixBounds}, // was truncated to int32(1)
	{table: "map", param: "minChainScore", in: "abc", bad: true},
	{table: "map", param: "minChainAnchors", in: "", want: 3},
	{table: "map", param: "minChainAnchors", in: "0", want: 3},
	{table: "map", param: "minChainAnchors", in: "5", want: 5},
	{table: "map", param: "minChainAnchors", in: "-1", want: -1},
	{table: "map", param: "minChainAnchors", in: "abc", bad: true},
	{table: "map", param: "maxSecondary", in: "", want: 5},
	{table: "map", param: "maxSecondary", in: "0", want: 0},
	{table: "map", param: "maxSecondary", in: "2", want: 2},
	{table: "map", param: "maxSecondary", in: "-3", want: 5},
	{table: "map", param: "maxSecondary", in: "abc", bad: true},
	{table: "map", param: "maxgap", in: "2000", bad: true, fix: fixUnknown},
	{table: "map", param: "batchReads", in: "64", bad: true, fix: fixUnknown},

	{table: "index", param: "k", in: "", want: 15},
	{table: "index", param: "k", in: "0", want: 15},
	{table: "index", param: "k", in: "19", want: 19},
	{table: "index", param: "k", in: "99", bad: true, fix: fixBounds}, // was a 202 whose build then failed
	{table: "index", param: "k", in: "abc", bad: true},
	{table: "index", param: "w", in: "", want: 10},
	{table: "index", param: "w", in: "0", want: 10},
	{table: "index", param: "w", in: "5", want: 5},
	{table: "index", param: "w", in: "-2", bad: true, fix: fixBounds}, // was a 202 whose build then failed
	{table: "index", param: "w", in: "abc", bad: true},
	{table: "index", param: "maxOcc", in: "", want: 256},
	{table: "index", param: "maxOcc", in: "0", want: 256},
	{table: "index", param: "maxOcc", in: "64", want: 64},
	{table: "index", param: "maxOcc", in: "-1", want: -1},
	{table: "index", param: "maxOcc", in: "abc", bad: true},
	{table: "index", param: "maxocc", in: "64", bad: true, fix: fixUnknown},
}

// effective reads one parameter back out of a decoded configuration,
// applying the documented "0 selects the default" (maxSecondary:
// negative) rule where the struct may still carry the sentinel.
func effective(cfg any, param string) float64 {
	or := func(v, def float64) float64 {
		if v == 0 {
			return def
		}
		return v
	}
	switch c := cfg.(type) {
	case logan.OverlapConfig:
		switch param {
		case "k":
			return float64(c.K)
		case "coverage":
			return c.Coverage
		case "errorRate":
			return c.ErrorRate
		case "x":
			return float64(c.X)
		case "minOverlap":
			return float64(c.MinOverlap)
		case "minShared":
			return float64(c.MinShared)
		case "maxSeeds":
			return float64(c.MaxSeeds)
		case "binWidth":
			return float64(c.BinWidth)
		case "delta":
			return c.Delta
		}
	case logan.MapConfig:
		switch param {
		case "x":
			return float64(c.X)
		case "maxGap":
			return or(float64(c.MaxGap), 5000)
		case "minChainScore":
			return or(float64(c.MinChainScore), 30)
		case "minChainAnchors":
			return or(float64(c.MinChainAnchors), 3)
		case "maxSecondary":
			if c.MaxSecondary < 0 {
				return 5
			}
			return float64(c.MaxSecondary)
		}
	case logan.IndexOptions:
		switch param {
		case "k":
			return or(float64(c.K), 15)
		case "w":
			return or(float64(c.W), 10)
		case "maxOcc":
			return or(float64(c.MaxOccurrence), 256)
		}
	}
	return math.NaN()
}

// TestWireCompatibility decodes every row through the same functions the
// handlers call — as a query string and, for /jobs, as the JSON config
// object — and checks the resolved value or the rejection.
func TestWireCompatibility(t *testing.T) {
	cfg := defaultServeConfig()
	cfg.defCfg = logan.DefaultConfig(100)
	_, s, _ := testServerCfg(t, cfg)

	check := func(row wireRow, form string, got any, err error) {
		t.Helper()
		name := fmt.Sprintf("%s %s %s=%q", row.table, form, row.param, row.in)
		if row.fix != "" {
			name += " (" + row.fix + ")"
		}
		switch {
		case row.bad && err == nil:
			t.Errorf("%s: accepted as %v, want 400", name, effective(got, row.param))
		case !row.bad && err != nil:
			t.Errorf("%s: rejected (%v), want %v", name, err, row.want)
		case !row.bad:
			if v := effective(got, row.param); v != row.want {
				t.Errorf("%s: resolved to %v, want %v", name, v, row.want)
			}
		}
	}
	for _, row := range wireRows {
		q := url.Values{}
		if row.in != "" {
			q.Set(row.param, row.in)
		}
		switch row.table {
		case "jobs":
			if len(row.in) == 0 || row.in[0] != '"' {
				got, err := s.jobConfig(q)
				check(row, "query", got, err)
			}
			if !row.queryOnly {
				doc := "{}"
				if row.in != "" {
					doc = fmt.Sprintf(`{%q:%s}`, row.param, row.in)
				}
				got, err := decodeJobJSON(s, `{"fastaPath":"reads.fa","config":`+doc+`}`)
				check(row, "json", got, err)
			}
		case "map":
			got, err := s.mapConfig(q)
			check(row, "query", got, err)
		case "index":
			var got logan.IndexOptions
			err := s.setParams(got.Params(), q, nil)
			check(row, "query", got, err)
		}
	}
	// A JSON null leaves the field at its default, like an absent one.
	if got, err := decodeJobJSON(s, `{"fastaPath":"reads.fa","config":{"k":null,"x":null}}`); err != nil || got.K != 17 || got.X != 100 {
		t.Errorf("null config fields: %+v, %v", got, err)
	}
	if got, err := decodeJobJSON(s, `{"fastaPath":"reads.fa"}`); err != nil || got.K != 17 || got.X != 100 {
		t.Errorf("absent config object: %+v, %v", got, err)
	}
}

// TestBadParametersAnswer400AtOnce: the requests that used to pin a job
// worker (coverage=1000000 spent hours inside the reliable-k-mer bounds,
// where no context is checked and DELETE cannot cancel) or run with a
// value the caller never sent (NaN, a wrapped int32, a misspelled name)
// are refused at submission, naming the parameter, and without a job ever
// being created — logan_jobs_submitted_total staying 0 is the proof that
// no request reached a job worker.
func TestBadParametersAnswer400AtOnce(t *testing.T) {
	fasta := jobsTestFasta(t, 24, 20_000)
	srv, s := jobsTestServer(t, logan.EngineOptions{}, func(c *serveConfig) { c.jobDataDir = t.TempDir() })
	refFasta, readsFasta, _ := mapTestData(t)
	if _, err := s.maps.mapper.Build(context.Background(), strings.NewReader(refFasta), logan.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path, contentType, body string
		names                   []string // the 400 body must contain each
	}{
		{"/jobs?coverage=1000000", "application/x-fasta", string(fasta), []string{"coverage", "[0, 1000]"}},
		{"/jobs?errorRate=NaN", "application/x-fasta", string(fasta), []string{"errorRate"}},
		{"/jobs?maxSeeds=-1", "application/x-fasta", string(fasta), []string{"maxSeeds"}},
		{"/jobs?minoverlap=500", "application/x-fasta", string(fasta), []string{`"minoverlap"`, "minOverlap"}},
		{"/jobs?workers=8", "application/x-fasta", string(fasta), []string{`"workers"`}},
		{"/jobs?batchPairs=64", "application/x-fasta", string(fasta), []string{`"batchPairs"`}},
		{"/jobs", "application/json", `{"fastaPath":"reads.fa","config":{"minOverlp":500}}`, []string{`"minOverlp"`, "minOverlap"}},
		{"/jobs", "application/json", `{"fastaPath":"reads.fa","config":{"coverage":1000000}}`, []string{"coverage"}},
		{"/map?maxGap=-4294967295", "text/plain", readsFasta, []string{"maxGap"}},
		{"/map?maxgap=2000", "text/plain", readsFasta, []string{`"maxgap"`, "maxGap"}},
		{"/map?batchReads=64", "text/plain", readsFasta, []string{`"batchReads"`}},
		{"/map/index?maxocc=64", "text/plain", refFasta, []string{`"maxocc"`, "maxOcc"}},
	} {
		resp, err := http.Post(srv.URL+c.path, c.contentType, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400 (%s)", c.path, resp.StatusCode, body)
		}
		for _, name := range c.names {
			if !strings.Contains(string(body), name) {
				t.Errorf("POST %s: 400 body %s does not mention %s", c.path, body, name)
			}
		}
	}
	if n := jobsSeries(s, "logan_jobs_submitted_total"); n != 0 {
		t.Errorf("%d jobs were created by rejected submissions", n)
	}
	// The names the benchmark and both smoke scripts send stay accepted.
	id := postJob(t, srv.URL, fasta, "?x=25&minOverlap=500&coverage=5&errorRate=0.15")
	if st := waitJob(t, srv.URL, id, 60*time.Second); st.State != cluster.StateDone {
		t.Errorf("well-formed submission finished %s: %s", st.State, st.Error)
	}
	if resp, err := http.Post(srv.URL+"/map?x=100", "text/plain", strings.NewReader(readsFasta)); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("POST /map?x=100: %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
}
