package logan

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ErrQuotaExceeded reports a request rejected because its tenant's
// pairs/sec token bucket is exhausted (TenantOptions.PairsPerSec). It
// wraps ErrOverloaded, so HTTP front ends that already map
// ErrOverloaded to 429 + Retry-After handle it with no change; unlike
// the queue-level sheds it is attributable to the requesting tenant
// alone, never to load other tenants created.
var ErrQuotaExceeded = fmt.Errorf("%w: tenant pairs/sec quota exhausted", ErrOverloaded)

// TenantOptions configures a Tenant. The zero value is a valid
// unlimited anonymous-style tenant.
type TenantOptions struct {
	// Name identifies the tenant in metrics ("tenant" label) and /statz.
	// Empty selects "tenant". Keep it label-safe: letters, digits, and
	// [._-] (the serve layer's -api-keys parser enforces this).
	Name string

	// PairsPerSec is the tenant's sustained compute quota in alignment
	// pairs per second, enforced as a token bucket at admission. Cache
	// hits are free — the quota meters pairs that reach the engine.
	// Zero or negative means unlimited.
	PairsPerSec float64

	// Burst is the bucket capacity in pairs: how far above the
	// sustained rate a short burst may go. Zero selects two seconds of
	// PairsPerSec. Ignored when PairsPerSec is unlimited.
	Burst int

	// Weight is the tenant's fair-share weight: when tenants contend,
	// admission projects each one's queue against
	// weight/total-active-weight of the measured drain rate. Zero or
	// negative selects 1.
	Weight int
}

// Tenant is one accounted traffic source of the serve path: the unit of
// quota enforcement (pairs/sec token bucket), fair-share scheduling
// (per-tenant coalescer lanes and pending shares) and attribution
// (per-tenant served/shed/cache metrics). Construct with NewTenant,
// attach to a request with WithTenant; requests without a tenant are
// accounted to a shared anonymous tenant. A Tenant is safe for
// concurrent use and is compared by identity — reuse one value per API
// key, not one per request.
type Tenant struct {
	name   string
	weight int

	// Token bucket state; rate <= 0 disables the quota. The bucket starts
	// full, so the first refill — from the zero last to the first
	// caller's clock — is capped to a no-op and no clock is read here.
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewTenant builds a tenant from opt (zero fields select the defaults
// documented on TenantOptions).
func NewTenant(opt TenantOptions) *Tenant {
	if opt.Name == "" {
		opt.Name = "tenant"
	}
	if opt.Weight <= 0 {
		opt.Weight = 1
	}
	t := &Tenant{name: opt.Name, weight: opt.Weight}
	if opt.PairsPerSec > 0 {
		t.rate = opt.PairsPerSec
		t.burst = float64(opt.Burst)
		if opt.Burst <= 0 {
			t.burst = 2 * opt.PairsPerSec
		}
		t.tokens = t.burst
	}
	return t
}

// Name returns the tenant's metrics identity.
func (t *Tenant) Name() string { return t.name }

// Weight returns the tenant's fair-share weight (at least 1).
func (t *Tenant) Weight() int { return t.weight }

// anonymousTenant absorbs requests whose context carries no tenant:
// unlimited quota, weight 1. A package-level singleton so every
// unattributed request lands in the same lanes and series.
var anonymousTenant = NewTenant(TenantOptions{Name: "anonymous"})

// AnonymousTenant returns the shared tenant that absorbs requests
// whose context carries no tenant (unlimited quota, weight 1).
func AnonymousTenant() *Tenant { return anonymousTenant }

// takePairs consumes n pairs from the tenant's token bucket as of now
// (the caller's clock, read outside t.mu: concurrent callers may arrive
// slightly out of order, and an earlier time refills nothing) and reports
// whether the quota admitted them.
func (t *Tenant) takePairs(n int, now time.Time) bool {
	if t == nil || t.rate <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if dt := now.Sub(t.last).Seconds(); dt > 0 {
		t.tokens = min(t.burst, t.tokens+t.rate*dt)
		t.last = now
	}
	if t.tokens < float64(n) {
		return false
	}
	t.tokens -= float64(n)
	return true
}

// tenantKeyT is the context key type for WithTenant.
type tenantKeyT struct{}

// WithTenant attaches a tenant to the context. The serve layer calls it
// after API-key authentication; every layer downstream (coalescer
// admission, lanes, quota, engine) reads the same identity back with
// TenantFrom.
func WithTenant(ctx context.Context, t *Tenant) context.Context {
	return context.WithValue(ctx, tenantKeyT{}, t)
}

// TenantFrom extracts the context's tenant, or nil when none is
// attached (callers treat nil as the anonymous tenant).
func TenantFrom(ctx context.Context) *Tenant {
	t, _ := ctx.Value(tenantKeyT{}).(*Tenant)
	return t
}

// priorityClass separates the coalescer's two service classes:
// interactive requests (Coalescer.Align, the /align path) are picked
// ahead of bulk work (the extension chunks of the overlap and mapping
// pipelines, /jobs and /map), which still gets a batch after being
// passed over maxBulkPassOver times.
type priorityClass uint8

const (
	classInteractive priorityClass = iota
	classBulk
	numClasses
)

// String names the class for metrics labels.
func (p priorityClass) String() string {
	if p == classBulk {
		return "bulk"
	}
	return "interactive"
}
