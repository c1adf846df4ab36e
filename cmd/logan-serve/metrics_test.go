package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"logan/internal/telemetry"
)

var (
	promComment = regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	promSample  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)
	promLabel   = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// promSeries is one parsed sample line.
type promSeries struct {
	labels map[string]string
	value  float64
}

// lintPromText validates the Prometheus text exposition format (0.0.4):
// HELP/TYPE comments precede their family's samples, TYPE appears once
// per family, sample lines parse, histogram families have cumulative
// buckets with a +Inf count equal to _count. It returns every sample
// keyed by metric name for content assertions.
func lintPromText(t *testing.T, text string) map[string][]promSeries {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition does not end with a newline")
	}
	typed := map[string]string{} // family -> kind
	samples := map[string][]promSeries{}
	for ln, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" {
			t.Errorf("line %d: empty line", ln+1)
			continue
		}
		if m := promComment.FindStringSubmatch(line); m != nil {
			if m[1] == "TYPE" {
				if _, dup := typed[m[2]]; dup {
					t.Errorf("line %d: duplicate TYPE for %s", ln+1, m[2])
				}
				switch m[3] {
				case "counter", "gauge", "histogram", "untyped":
				default:
					t.Errorf("line %d: bad TYPE %q", ln+1, m[3])
				}
				typed[m[2]] = m[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("line %d: malformed comment %q", ln+1, line)
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: malformed sample %q", ln+1, line)
			continue
		}
		name, rawLabels, rawVal := m[1], m[2], m[3]
		// A histogram's _bucket/_sum/_count samples belong to the base
		// family's TYPE declaration.
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := typed[family]; !ok {
			t.Errorf("line %d: sample %s before its TYPE", ln+1, name)
		}
		val, err := strconv.ParseFloat(rawVal, 64)
		if err != nil {
			t.Errorf("line %d: value %q: %v", ln+1, rawVal, err)
			continue
		}
		labels := map[string]string{}
		if rawLabels != "" {
			for _, lv := range strings.Split(strings.Trim(rawLabels, "{}"), ",") {
				pm := promLabel.FindStringSubmatch(lv)
				if pm == nil {
					t.Errorf("line %d: malformed label %q", ln+1, lv)
					continue
				}
				labels[pm[1]] = pm[2]
			}
		}
		samples[name] = append(samples[name], promSeries{labels: labels, value: val})
	}

	// Histogram invariants: per series, buckets cumulative and the +Inf
	// bucket count equals _count.
	for fam, kind := range typed {
		if kind != "histogram" {
			continue
		}
		counts := map[string]float64{}
		for _, s := range samples[fam+"_count"] {
			counts[seriesKey(s.labels, "")] = s.value
		}
		buckets := map[string][]promSeries{}
		for _, s := range samples[fam+"_bucket"] {
			k := seriesKey(s.labels, "le")
			buckets[k] = append(buckets[k], s)
		}
		for k, bs := range buckets {
			prev, sawInf := -1.0, false
			for _, b := range bs {
				if b.value < prev {
					t.Errorf("%s_bucket %s: non-cumulative buckets", fam, k)
				}
				prev = b.value
				if b.labels["le"] == "+Inf" {
					sawInf = true
					if c, ok := counts[k]; !ok || c != b.value {
						t.Errorf("%s %s: +Inf bucket %g != count %g", fam, k, b.value, c)
					}
				}
			}
			if !sawInf {
				t.Errorf("%s_bucket %s: missing +Inf bucket", fam, k)
			}
		}
	}
	return samples
}

// seriesKey renders a label set minus one key, for grouping bucket lines.
func seriesKey(labels map[string]string, drop string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		if k != drop {
			parts = append(parts, k+"="+v)
		}
	}
	// Insertion-order independence matters more than prettiness here.
	for i := 0; i < len(parts); i++ {
		for j := i + 1; j < len(parts); j++ {
			if parts[j] < parts[i] {
				parts[i], parts[j] = parts[j], parts[i]
			}
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsEndpoint drives traffic through the coalesced serve path and
// lints GET /metrics: valid exposition format, all five stage histograms
// populated, per-backend series present, HTTP counters consistent.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	for i := 0; i < 3; i++ {
		resp, data := postAlign(t, srv.URL,
			`{"pairs":[{"query":"ACGTACGTACGTACGT","target":"ACGTACGTACGTACGT","seedQ":4,"seedT":4,"seedLen":4}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("align %d: status %d: %s", i, resp.StatusCode, data)
		}
		if tr := resp.Header.Get("X-Logan-Trace"); !strings.Contains(tr, "admit=") {
			t.Fatalf("align %d: X-Logan-Trace %q missing admit span", i, tr)
		}
	}

	samples := lintPromText(t, scrape(t, srv.URL))

	stageCounts := map[string]float64{}
	for _, s := range samples["logan_stage_duration_seconds_count"] {
		stageCounts[s.labels["stage"]] = s.value
	}
	for _, stage := range telemetry.StageNames() {
		if stageCounts[stage] == 0 {
			t.Errorf("stage histogram %q has no observations: %v", stage, stageCounts)
		}
	}

	wantNonZero := []string{
		"logan_http_requests_total",
		"logan_http_pairs_total",
		"logan_engine_batches_total",
		"logan_engine_pairs_total",
		"logan_engine_cells_total",
		"logan_coalescer_enqueued_total",
		"logan_coalescer_merged_pairs_total",
		"logan_coalescer_cells_per_pair",
	}
	for _, name := range wantNonZero {
		ss := samples[name]
		if len(ss) == 0 || ss[0].value == 0 {
			t.Errorf("%s: missing or zero (%v)", name, ss)
		}
	}
	backends := map[string]bool{}
	for _, s := range samples["logan_backend_pairs_total"] {
		backends[s.labels["backend"]] = true
	}
	if !backends["cpu"] {
		t.Errorf("logan_backend_pairs_total missing backend=\"cpu\": %v", backends)
	}
	for _, name := range []string{"logan_backend_gcups", "logan_backend_occupancy"} {
		if len(samples[name]) == 0 {
			t.Errorf("%s: no per-backend series", name)
		}
	}
	// Shed counters exist (zero here) so dashboards can rate() them from
	// the first scrape.
	if len(samples["logan_coalescer_shed_total"]) != 3 {
		t.Errorf("logan_coalescer_shed_total: want 3 reason series (delay, deadline, quota), got %v",
			samples["logan_coalescer_shed_total"])
	}
	// The three identical requests hit the result cache after the first:
	// the cache series must show exactly one miss set and two hit sets.
	if ss := samples["logan_cache_hits_total"]; len(ss) == 0 || ss[0].value != 2 {
		t.Errorf("logan_cache_hits_total: want 2, got %v", ss)
	}
	if ss := samples["logan_cache_misses_total"]; len(ss) == 0 || ss[0].value != 1 {
		t.Errorf("logan_cache_misses_total: want 1, got %v", ss)
	}
	// Anonymous traffic is still attributed: the per-tenant series exist
	// with tenant="anonymous".
	found := false
	for _, s := range samples["logan_tenant_pairs_total"] {
		if s.labels["tenant"] == "anonymous" && s.value == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("logan_tenant_pairs_total missing tenant=\"anonymous\" with 3 pairs: %v",
			samples["logan_tenant_pairs_total"])
	}
}

// TestMetricsStatzAgree: /metrics and /statz are views over the same
// registry, so totals taken with the server quiesced must agree.
func TestMetricsStatzAgree(t *testing.T) {
	srv, _ := testServer(t)
	// Wait out the startup warm-up alignment: until /readyz flips, the
	// engine's backend counters may still gain the warm-up pair.
	waitReady(t, srv.URL)
	for i := 0; i < 2; i++ {
		resp, data := postAlign(t, srv.URL,
			`{"pairs":[{"query":"ACGTACGTACGTACGT","target":"ACGTACGTACGTACGT","seedQ":4,"seedT":4,"seedLen":4}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("align: status %d: %s", resp.StatusCode, data)
		}
	}
	resp, err := http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var stz statzJSON
	err = json.NewDecoder(resp.Body).Decode(&stz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := lintPromText(t, scrape(t, srv.URL))
	// The scrape itself increments the request counter after /statz ran;
	// allow for requests made between the two reads.
	if got := samples["logan_http_pairs_total"][0].value; int64(got) != stz.Pairs {
		t.Errorf("pairs: metrics %g vs statz %d", got, stz.Pairs)
	}
	if got := samples["logan_http_cells_total"][0].value; int64(got) != stz.Cells {
		t.Errorf("cells: metrics %g vs statz %d", got, stz.Cells)
	}
	// The backend only sees cache misses; hits complete without engine
	// work, so backend pairs plus cache hits cover the HTTP total — plus
	// the one warm-up self-alignment the server ran at startup, which
	// exercises the engine without passing through the HTTP layer.
	const warmupPairs = 1
	cpu, ok := stz.Backends["cpu"]
	if !ok || stz.Cache == nil || cpu.Pairs+stz.Cache.Hits != stz.Pairs+warmupPairs {
		t.Errorf("statz backends: %+v cache %+v, want cpu+hits = %d pairs", stz.Backends, stz.Cache, stz.Pairs+warmupPairs)
	}
	// The repeated request is a cache hit: merged (engine) pairs plus
	// cache hits must cover every pair the HTTP layer served.
	if stz.Coalescer == nil || stz.Cache == nil ||
		stz.Coalescer.MergedPairs+stz.Cache.Hits != stz.Pairs {
		t.Errorf("statz coalescer %+v cache %+v vs %d pairs", stz.Coalescer, stz.Cache, stz.Pairs)
	}
	ten, ok := stz.Tenants["anonymous"]
	if !ok || ten.Pairs != stz.Pairs {
		t.Errorf("statz tenants: %+v, want anonymous with %d pairs", stz.Tenants, stz.Pairs)
	}
}

// TestMetricsConcurrentScrape hammers /align and /jobs while scraping
// /metrics and /statz — under -race this is the data-race acceptance test
// for the whole telemetry spine.
func TestMetricsConcurrentScrape(t *testing.T) {
	cfg := defaultServeConfig()
	srv, _, _ := testServerCfg(t, cfg)

	const (
		aligners = 4
		scrapers = 2
		rounds   = 20
	)
	var wg sync.WaitGroup
	for i := 0; i < aligners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"pairs":[{"query":"ACGTACGTACGTACGT","target":"ACGTACGTACGTACGT","seedQ":4,"seedT":4,"seedLen":4}],"x":%d}`, 50+i)
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(srv.URL+"/align", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("align: status %d", resp.StatusCode)
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		fasta := ">r1\nACGTACGTACGTACGTACGTACGTACGTACGT\n>r2\nACGTACGTACGTACGTACGTACGTACGTACGT\n"
		for r := 0; r < 4; r++ {
			resp, err := http.Post(srv.URL+"/jobs?x=50", "application/x-fasta", strings.NewReader(fasta))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	errCh := make(chan string, scrapers*rounds)
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				errCh <- string(body)
				sresp, err := http.Get(srv.URL + "/statz")
				if err != nil {
					t.Error(err)
					return
				}
				var stz statzJSON
				if err := json.NewDecoder(sresp.Body).Decode(&stz); err != nil {
					t.Errorf("statz decode: %v", err)
				}
				sresp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errCh)
	// Every mid-load scrape must already be well-formed, not just the
	// final quiesced one.
	for body := range errCh {
		lintPromText(t, body)
	}
}
