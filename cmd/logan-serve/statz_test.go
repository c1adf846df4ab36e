package main

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"logan/internal/telemetry"
	"logan/internal/xdrop"
)

// TestStatzBytes pins the bytes /statz serves for a fixed registry: empty
// (backends an empty object, kernels and tenants absent), and with two
// backends, two kernel variants and two tenants, where each breakdown
// folds its labelled series into one entry per label value.
func TestStatzBytes(t *testing.T) {
	const coalescer = `"coalescer":{"enqueued":0,"shed":0,"shedDelay":0,"shedDeadline":0,"shedQuota":0,"direct":0,"mergedBatches":0,"mergedPairs":0,"mergedRequests":0,"maxMergedPairs":0,"waitNs":0,"drainPairsPerSec":0,"projectedDelaySec":0,"queuedRequests":0,"queuedPairs":0,"queuedConfigs":0}`
	for _, tc := range []struct {
		name string
		fill func(reg *telemetry.Registry)
		want string
	}{
		{"empty", func(*telemetry.Registry) {},
			`{"requests":0,"pairs":0,"cells":0,"errors":0,"shed":0,"writeErrors":0,"backends":{},"simd":%q,` + coalescer + "}\n"},
		{"breakdowns", func(reg *telemetry.Registry) {
			for i, b := range []string{"cpu", "gpu0"} {
				l := telemetry.L("backend", b)
				reg.Counter("logan_backend_pairs_total", "", l).Add(float64(10 + i))
				reg.Counter("logan_backend_cells_total", "", l).Add(float64(1000 + i))
				reg.Counter("logan_backend_busy_seconds_total", "", l).Add(0.5 + float64(i))
			}
			for i, v := range []string{"scalar", "vector"} {
				l := telemetry.L("variant", v)
				reg.Counter("logan_kernel_pairs_total", "", l).Add(float64(3 + i))
				reg.Counter("logan_kernel_cells_total", "", l).Add(float64(300 + i))
			}
			for i, ten := range []string{"alice", "bob"} {
				l := telemetry.L("tenant", ten)
				reg.Counter("logan_tenant_requests_total", "", l).Add(float64(1 + i))
				reg.Counter("logan_tenant_pairs_total", "", l).Add(float64(20 + i))
				reg.Counter("logan_tenant_shed_total", "", l).Add(float64(i))
				reg.Counter("logan_tenant_cache_hits_total", "", l).Add(float64(5 + i))
				reg.Gauge("logan_tenant_queued_pairs", "", l).Set(float64(7 + i))
				reg.Gauge("logan_tenant_running_jobs", "", l).Set(float64(i))
			}
		},
			`{"requests":0,"pairs":0,"cells":0,"errors":0,"shed":0,"writeErrors":0,` +
				`"backends":{"cpu":{"pairs":10,"cells":1000,"timeNs":500000000},"gpu0":{"pairs":11,"cells":1001,"timeNs":1500000000}},` +
				`"kernels":{"scalar":{"pairs":3,"cells":300},"vector":{"pairs":4,"cells":301}},"simd":%q,` + coalescer + `,` +
				`"tenants":{"alice":{"requests":1,"pairs":20,"shed":0,"cacheHits":5,"queuedPairs":7},"bob":{"requests":2,"pairs":21,"shed":1,"cacheHits":6,"queuedPairs":8,"runningJobs":1}}}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			s := &server{tele: reg, m: newServerTelemetry(reg)}
			tc.fill(reg)
			rec := httptest.NewRecorder()
			s.handleStatz(rec, httptest.NewRequest("GET", "/statz", nil))
			if got, want := rec.Body.String(), fmt.Sprintf(tc.want, xdrop.VectorISA()); got != want {
				t.Errorf("/statz\n got %s\nwant %s", got, want)
			}
		})
	}
}
