package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logan"
)

// writeKeys writes an API key file for tests.
func writeKeys(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.conf")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadAPIKeys(t *testing.T) {
	path := writeKeys(t, `
# comment line
secret-alpha alpha 1000 50 3
secret-beta  beta  0
secret-gamma gamma
`)
	keys, err := loadAPIKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 {
		t.Fatalf("parsed %d keys, want 3", len(keys))
	}
	if ten := keys["secret-alpha"]; ten == nil || ten.Name() != "alpha" || ten.Weight() != 3 {
		t.Fatalf("alpha: %+v", ten)
	}
	if ten := keys["secret-gamma"]; ten == nil || ten.Name() != "gamma" || ten.Weight() != 1 {
		t.Fatalf("gamma: %+v", ten)
	}

	for name, content := range map[string]string{
		"missing name":     "keyonly\n",
		"too many fields":  "k n 1 2 3 4\n",
		"bad rate":         "k n notanumber\n",
		"negative rate":    "k n -5\n",
		"bad burst":        "k n 10 x\n",
		"bad weight":       "k n 10 20 x\n",
		"unsafe name":      "k bad name!{}\n",
		"reserved name":    "k anonymous\n",
		"duplicate key":    "k a\nk b\n",
		"duplicate tenant": "k1 a\nk2 a\n",
	} {
		if _, err := loadAPIKeys(writeKeys(t, content)); err == nil {
			t.Errorf("%s: accepted %q", name, content)
		}
	}
	if _, err := loadAPIKeys(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing file accepted")
	}
}

// alignBody builds a /align payload of n distinct pairs (distinct so the
// result cache cannot absorb them; quota tests need every pair metered).
func alignBody(n, salt int) string {
	var b strings.Builder
	b.WriteString(`{"pairs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		// Vary the seed position so each pair digests differently.
		fmt.Fprintf(&b, `{"query":"ACGTACGTACGTACGTACGTACGTACGTACGT","target":"ACGTACGTACGTACGTACGTACGTACGTACGT","seedQ":%d,"seedT":%d,"seedLen":4}`,
			(salt+i)%28, (salt+i)%28)
	}
	b.WriteString(`]}`)
	return b.String()
}

// postAs posts a /align body with the given API key header ("" = none).
func postAs(t *testing.T, url, key, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/align", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServeMultiTenant drives an API-keyed server end to end: auth
// resolution (header forms, 401, anonymous default), per-tenant quota
// sheds with trace attribution, and the per-tenant metric series.
func TestServeMultiTenant(t *testing.T) {
	keys, err := loadAPIKeys(writeKeys(t, `
alpha-key alpha
beta-key  beta 0.001 4
`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultServeConfig()
	cfg.defCfg = logan.DefaultConfig(50)
	cfg.apiKeys = keys
	srv, _, _ := testServerCfg(t, cfg)

	// Unknown key: refused, never downgraded to anonymous.
	resp, _ := postAs(t, srv.URL, "wrong-key", alignBody(1, 0))
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: status %d, want 401", resp.StatusCode)
	}
	// No credentials on a keyed server: the shared anonymous tenant.
	resp, data := postAs(t, srv.URL, "", alignBody(1, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous: status %d: %s", resp.StatusCode, data)
	}
	// X-API-Key and Authorization: Bearer resolve the same tenant.
	resp, data = postAs(t, srv.URL, "alpha-key", alignBody(2, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha: status %d: %s", resp.StatusCode, data)
	}
	req, err := http.NewRequest("POST", srv.URL+"/align", strings.NewReader(alignBody(1, 9)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer alpha-key")
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("bearer alpha: status %d", bresp.StatusCode)
	}

	// beta's bucket holds 4 pairs and refills at 1/1000s: the first 4
	// pass, the next distinct pair sheds on quota with full attribution —
	// 429, Retry-After, and a trace ending in a shed span.
	resp, data = postAs(t, srv.URL, "beta-key", alignBody(4, 20))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("beta within burst: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postAs(t, srv.URL, "beta-key", alignBody(1, 40))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("beta past burst: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if trh := resp.Header.Get("X-Logan-Trace"); !strings.Contains(trh, "shed=") {
		t.Errorf("shed response X-Logan-Trace %q missing shed span", trh)
	}

	// /statz attributes the traffic per tenant and counts the quota shed.
	sresp, err := http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var stz statzJSON
	err = json.NewDecoder(sresp.Body).Decode(&stz)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stz.Coalescer == nil || stz.Coalescer.ShedQuota != 1 {
		t.Errorf("statz coalescer %+v: want one quota shed", stz.Coalescer)
	}
	alpha := stz.Tenants["alpha"]
	if alpha.Pairs != 3 || alpha.Requests != 2 || alpha.Shed != 0 {
		t.Errorf("alpha tenant block %+v", alpha)
	}
	beta := stz.Tenants["beta"]
	if beta.Pairs != 4 || beta.Shed != 1 {
		t.Errorf("beta tenant block %+v", beta)
	}
	if anon := stz.Tenants["anonymous"]; anon.Pairs != 1 {
		t.Errorf("anonymous tenant block %+v", anon)
	}

	// /metrics carries the same attribution as labeled series.
	text := scrape(t, srv.URL)
	for _, want := range []string{
		`logan_tenant_pairs_total{tenant="alpha"} 3`,
		`logan_tenant_shed_total{tenant="beta"} 1`,
		`logan_coalescer_shed_total{reason="quota"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The job API shares the key space: an unknown key is refused there
	// too.
	jreq, err := http.NewRequest("POST", srv.URL+"/jobs?x=50", strings.NewReader(">r1\nACGT\n"))
	if err != nil {
		t.Fatal(err)
	}
	jreq.Header.Set("X-API-Key", "wrong-key")
	jresp, err := http.DefaultClient.Do(jreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, jresp.Body)
	jresp.Body.Close()
	if jresp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("jobs unknown key: status %d, want 401", jresp.StatusCode)
	}
}
