package main

import (
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"

	"logan"
)

// tenantNameRE constrains tenant names to label-safe characters: the
// name becomes the tenant="..." label value on per-tenant metric series,
// so it must never need escaping in the exposition format.
var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// loadAPIKeys parses the -api-keys file into a key -> tenant map. Each
// non-blank, non-comment line is
//
//	<key> <name> [pairsPerSec [burst [weight]]]
//
// whitespace-separated: the secret the client presents, the tenant name
// it resolves to (label-safe: [A-Za-z0-9_.-]), and the optional quota
// triple — pairs/sec refill rate (0 = unlimited), token-bucket burst
// (0 = 2x rate) and fair-share weight (0 = 1). Lines starting with #
// are comments. Duplicate keys and duplicate tenant names are rejected:
// a duplicate key would silently shadow a quota, and a duplicate name
// would merge two principals into one metric series and one bucket.
func loadAPIKeys(path string) (map[string]*logan.Tenant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	keys := make(map[string]*logan.Tenant)
	names := make(map[string]bool)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 || len(f) > 5 {
			return nil, fmt.Errorf("%s:%d: want \"key name [pairsPerSec [burst [weight]]]\", got %d fields", path, ln+1, len(f))
		}
		key, name := f[0], f[1]
		if !tenantNameRE.MatchString(name) {
			return nil, fmt.Errorf("%s:%d: tenant name %q is not label-safe (want %s)", path, ln+1, name, tenantNameRE)
		}
		if name == "anonymous" {
			return nil, fmt.Errorf("%s:%d: tenant name %q is reserved for unauthenticated traffic", path, ln+1, name)
		}
		if keys[key] != nil {
			return nil, fmt.Errorf("%s:%d: duplicate API key", path, ln+1)
		}
		if names[name] {
			return nil, fmt.Errorf("%s:%d: duplicate tenant name %q", path, ln+1, name)
		}
		opt := logan.TenantOptions{Name: name}
		if len(f) > 2 {
			if opt.PairsPerSec, err = strconv.ParseFloat(f[2], 64); err != nil || opt.PairsPerSec < 0 {
				return nil, fmt.Errorf("%s:%d: pairsPerSec %q: want a non-negative number", path, ln+1, f[2])
			}
		}
		if len(f) > 3 {
			if opt.Burst, err = strconv.Atoi(f[3]); err != nil || opt.Burst < 0 {
				return nil, fmt.Errorf("%s:%d: burst %q: want a non-negative integer", path, ln+1, f[3])
			}
		}
		if len(f) > 4 {
			if opt.Weight, err = strconv.Atoi(f[4]); err != nil || opt.Weight < 0 {
				return nil, fmt.Errorf("%s:%d: weight %q: want a non-negative integer", path, ln+1, f[4])
			}
		}
		keys[key] = logan.NewTenant(opt)
		names[name] = true
	}
	return keys, nil
}

// tenantFor resolves the request's tenant from its credentials:
// X-API-Key, or Authorization: Bearer. On a server with no configured
// keys every request is anonymous (nil tenant — the open single-tenant
// deployment, unmetered). With keys configured, credentialless requests
// map to the shared anonymous tenant and a wrong key is refused — false
// means the caller must answer 401, never silently downgrade a typo'd
// key to the anonymous quota.
func (s *server) tenantFor(r *http.Request) (*logan.Tenant, bool) {
	if len(s.cfg.apiKeys) == 0 {
		return nil, true
	}
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimSpace(strings.TrimPrefix(auth, "Bearer "))
		}
	}
	if key == "" {
		return logan.AnonymousTenant(), true
	}
	ten, ok := s.cfg.apiKeys[key]
	return ten, ok
}
