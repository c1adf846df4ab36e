package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestParseTraceHeader(t *testing.T) {
	// As logan-serve's formatTrace writes it: time.Duration strings, the
	// admit stage once from the HTTP layer and once from the engine.
	got, err := parseTraceHeader("admit=312µs;admit=18µs;coalesce_wait=2.104ms;partition=4µs;kernel=1.2ms;scatter=9µs")
	if err != nil {
		t.Fatal(err)
	}
	want := stageDurations{
		Admit: 330 * time.Microsecond, Wait: 2104 * time.Microsecond, Partition: 4 * time.Microsecond,
		Kernel: 1200 * time.Microsecond, Scatter: 9 * time.Microsecond,
	}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if got.total() != 3647*time.Microsecond {
		t.Errorf("total %v", got.total())
	}
	// Seconds and zero durations parse too.
	if got, err := parseTraceHeader("admit=0s;kernel=1.5s"); err != nil || got.Kernel != 1500*time.Millisecond {
		t.Errorf("got %+v, %v", got, err)
	}
}

func TestParseTraceHeaderRejectsWhatItCannotAttribute(t *testing.T) {
	for _, h := range []string{"", "admit", "admit=fast", "admit=1ms;warp=2ms", "admit=1ms;", "kernel=12"} {
		if _, err := parseTraceHeader(h); err == nil {
			t.Errorf("parseTraceHeader(%q) accepted", h)
		}
	}
}

func statzFrom(t *testing.T, doc string) statz {
	t.Helper()
	var s statz
	if err := json.Unmarshal([]byte(doc), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStatzDelta(t *testing.T) {
	before := statzFrom(t, `{"requests":10,"pairs":160,"cells":1000,"errors":1,"shed":0,
		"backends":{"cpu":{"pairs":160,"cells":1000,"timeNs":5000}},
		"kernels":{"vector":{"pairs":150,"cells":900},"scalar":{"pairs":10,"cells":100}},
		"coalescer":{"enqueued":10,"direct":0,"mergedBatches":6,"deadlineFlushes":6,"mergedRequests":10,"waitNs":20000},
		"cache":{"hits":0,"misses":160},
		"map":{"reads":0,"anchors":0,"chains":0,"extensions":0}}`)
	after := statzFrom(t, `{"requests":110,"pairs":1760,"cells":11000,"errors":1,"shed":0,
		"backends":{"cpu":{"pairs":1760,"cells":12000,"timeNs":65000},"gpu0":{"pairs":5,"cells":50,"timeNs":7}},
		"kernels":{"vector":{"pairs":1700,"cells":10900},"scalar":{"pairs":60,"cells":1100}},
		"coalescer":{"enqueued":100,"direct":10,"mergedBatches":56,"deadlineFlushes":55,"mergedRequests":100,"waitNs":220000},
		"cache":{"hits":40,"misses":1720},
		"map":{"reads":256,"anchors":9000,"chains":300,"extensions":280},
		"cluster":{"requeues":2}}`)
	d, err := after.sub(before)
	if err != nil {
		t.Fatal(err)
	}
	want := statzDelta{
		BackendCells: 11050, BackendBusyNS: 60007, // a backend first seen after the phase began counts from zero
		VectorCells: 10000, KernelCells: 11000,
		Enqueued: 90, Direct: 10, MergedBatches: 50, DeadlineFlushes: 49, MergedRequests: 90,
		CacheHits: 40, CacheMisses: 1560,
	}
	if d != want {
		t.Errorf("delta\n got %+v\nwant %+v", d, want)
	}
}

// Two reads that straddle a server restart must not produce a plausible
// negative or wrapped delta.
func TestStatzDeltaRejectsCountersGoingBackwards(t *testing.T) {
	before := statzFrom(t, `{"cache":{"misses":500},"backends":{"cpu":{"cells":9000}}}`)
	after := statzFrom(t, `{"cache":{"misses":20},"backends":{"cpu":{"cells":100}}}`)
	_, err := after.sub(before)
	if err == nil || !strings.Contains(err.Error(), "cache.misses 500 -> 20") || !strings.Contains(err.Error(), "backends.cpu.cells") {
		t.Errorf("err = %v, want both counters named", err)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command field may itself contain spaces and parentheses.
	stat := "4242 (logan serve) (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 66 0 0 20 0 5 0 100 200 300"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1234.0 + 66.0) / clockTick; got != want {
		t.Errorf("cpu seconds %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 a b c"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted", bad)
		}
	}
}

func TestParseStatusMB(t *testing.T) {
	status := "Name:\tlogan-serve\nVmPeak:\t 1234567 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\nThreads:\t5\n"
	if got, err := parseStatusMB(status, "VmHWM"); err != nil || got != 20 {
		t.Errorf("VmHWM = %v, %v; want 20 MB", got, err)
	}
	if got, err := parseStatusMB(status, "VmRSS"); err != nil || got != 10 {
		t.Errorf("VmRSS = %v, %v; want 10 MB", got, err)
	}
	if _, err := parseStatusMB("Name:\tx\n", "VmHWM"); err == nil {
		t.Error("missing VmHWM accepted")
	}
}
