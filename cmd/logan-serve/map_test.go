package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"logan"
	"logan/internal/genome"
)

// mapTestData simulates a reference and reads for the serve-tier mapping
// tests.
func mapTestData(t *testing.T) (refFasta string, readsFasta string, reads []logan.Read) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	g := genome.Synthetic(rng, "chr1", genome.SyntheticOptions{Length: 50_000})
	rs := genome.Simulate(rng, g, genome.SimOptions{
		Coverage: 1, MinLen: 500, MaxLen: 1200, ErrorRate: 0.03,
	})
	var fa strings.Builder
	for _, r := range rs.Reads {
		fmt.Fprintf(&fa, ">%s\n%s\n", r.Name(), r.Seq)
		reads = append(reads, logan.Read{Name: r.Name(), Seq: r.Seq})
	}
	return ">" + g.Name + "\n" + g.Seq.String() + "\n", fa.String(), reads
}

// waitIndexReady polls GET /map/index until the async build lands.
func waitIndexReady(t *testing.T, url string) mapStatusJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/map/index")
		if err != nil {
			t.Fatal(err)
		}
		var st mapStatusJSON
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch st.State {
		case "ready":
			return st
		case "failed":
			t.Fatalf("index build failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("index not ready within 30s (state %q)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMapEndpointMatchesOffline is the serve-tier identity gate: the PAF
// bytes POST /map returns must equal what logan.Mapper.Map + WritePAF
// produce offline for the same reads and index parameters.
func TestMapEndpointMatchesOffline(t *testing.T) {
	refFasta, readsFasta, reads := mapTestData(t)
	srv, s, eng := testServerCfg(t, defaultServeConfig())
	waitReady(t, srv.URL)

	// No index yet: /map must 409, and the status endpoint reports none.
	resp, err := http.Post(srv.URL+"/map", "text/plain", strings.NewReader(readsFasta))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /map without index: status %d, want 409", resp.StatusCode)
	}
	st := func() mapStatusJSON {
		resp, err := http.Get(srv.URL + "/map/index")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st mapStatusJSON
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}()
	if st.State != "none" {
		t.Fatalf("fresh index state %q, want none", st.State)
	}

	// Async build, then poll to ready.
	resp, err = http.Post(srv.URL+"/map/index?k=15&w=10", "text/plain", strings.NewReader(refFasta))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /map/index: status %d, want 202", resp.StatusCode)
	}
	ready := waitIndexReady(t, srv.URL)
	if ready.Stats == nil || ready.Stats.Refs != 1 || ready.Stats.K != 15 {
		t.Fatalf("ready stats %+v", ready.Stats)
	}

	resp, err = http.Post(srv.URL+"/map?x=80", "text/plain", strings.NewReader(readsFasta))
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /map: status %d: %s", resp.StatusCode, served)
	}
	if len(served) == 0 {
		t.Fatal("POST /map returned no PAF records")
	}
	if got := resp.Header.Get("X-Logan-Map-Mapped"); got == "" || got == "0" {
		t.Fatalf("X-Logan-Map-Mapped = %q", got)
	}

	// Offline reference: same engine family, a coalescer-routed mapper
	// (as the server's is) over an index built
	// from the same FASTA with the same parameters.
	offline, err := logan.NewMapper(eng, logan.MapperOptions{Coalescer: s.coal})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := offline.Build(context.Background(), strings.NewReader(refFasta), logan.IndexOptions{K: 15, W: 10}); err != nil {
		t.Fatal(err)
	}
	res, err := offline.Map(context.Background(), reads, logan.DefaultMapConfig(80))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := logan.WritePAF(&want, res.Records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want.Bytes()) {
		t.Fatalf("served PAF differs from offline Mapper.Map output (%d vs %d bytes)",
			len(served), want.Len())
	}

	// The /statz map block reflects the run.
	resp, err = http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var statz statzJSON
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if statz.Map == nil || statz.Map.Reads == 0 || statz.Map.Records == 0 || statz.Map.Index.State != "ready" {
		t.Fatalf("statz map block %+v", statz.Map)
	}

	// And the Prometheus view carries the logan_map_* series.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"logan_map_reads_total", "logan_map_anchors_total", "logan_map_index_occupancy"} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Fatalf("/metrics missing %s", series)
		}
	}
}

func TestMapEndpointErrors(t *testing.T) {
	refFasta, _, _ := mapTestData(t)
	cfg := defaultServeConfig()
	srv, s, _ := testServerCfg(t, cfg)
	waitReady(t, srv.URL)

	if _, err := s.maps.mapper.Build(context.Background(), strings.NewReader(refFasta), logan.IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := post("/map?x=abc", ">r\nACGT\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad x: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/map?x=1000000", ">r\nACGT\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("x over -max-x: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/map", ">r\nAC!T\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad FASTA: status %d, want 400", resp.StatusCode)
	}
	// k is checked at submission like /jobs' (the index table's bounds):
	// 99 exceeds the packer's limit and never becomes a build.
	if resp := post("/map/index?k=99", refFasta); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/map/index", ">ref\nAC!T\n"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bad reference FASTA: status %d, want 202 (async failure)", resp.StatusCode)
	}
	// Parsing the reference is part of the build: it must land in
	// "failed" while the previously installed index keeps serving.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := func() mapStatusJSON {
			resp, err := http.Get(srv.URL + "/map/index")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var st mapStatusJSON
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			return st
		}()
		if st.State == "failed" {
			if st.Error == "" {
				t.Fatal("failed state with no error")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("build of a malformed reference never failed (state %q)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !s.maps.mapper.Ready() {
		t.Fatal("failed rebuild evicted the previously installed index")
	}
	if resp := post("/map", ">r\nACGTACGTACGTACGTACGT\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/map after failed rebuild: status %d, want 200", resp.StatusCode)
	}
}

func TestMapDisabled(t *testing.T) {
	cfg := defaultServeConfig()
	cfg.maps = false
	// defaultServeConfig enables maps; zeroing the flag must remove the
	// routes entirely.
	srv, _, _ := testServerCfg(t, cfg)
	waitReady(t, srv.URL)
	resp, err := http.Post(srv.URL+"/map", "text/plain", strings.NewReader(">r\nACGT\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /map: status %d, want 404", resp.StatusCode)
	}
}
