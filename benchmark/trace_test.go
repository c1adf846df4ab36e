package main

import (
	"testing"
	"time"
)

// mk builds a span over [start, end) milliseconds.
func mk(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Name: name, Start: start * 1e6, End: end * 1e6}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		mk(1, 0, "client.request", 0, 100),
		mk(2, 1, "serve.admit", 0, 10),
		mk(3, 1, "xdrop.kernel", 10, 70),
		mk(4, 3, "xdrop.row", 20, 50), // grandchild: counts against the kernel, not the request
	}
	self := selfTimes(spans)
	for id, wantMs := range map[int]int64{1: 30, 2: 10, 3: 30, 4: 30} {
		if got := self[id] / 1e6; got != wantMs {
			t.Errorf("span %d self = %d ms, want %d", id, got, wantMs)
		}
	}
}

// Children that overlap each other are counted once; a child that leaks
// outside its parent only counts for the part inside.
func TestSelfTimeOverlappingAndLeakingChildren(t *testing.T) {
	spans := []span{
		mk(1, 0, "client.job", 100, 200),
		mk(2, 1, "a", 110, 150),
		mk(3, 1, "b", 130, 170), // overlaps a by 20 ms
		mk(4, 1, "c", 140, 145), // inside both
		mk(5, 1, "d", 190, 250), // leaks 50 ms past the parent
		mk(6, 1, "e", 0, 50),    // entirely outside: a replay span parented for reference only
	}
	// covered: [110,170) = 60, [190,200) = 10 → self = 100 − 70.
	if got := selfTimes(spans)[1] / 1e6; got != 30 {
		t.Errorf("parent self = %d ms, want 30", got)
	}
}

func TestSelfTimeIdenticalChildren(t *testing.T) {
	spans := []span{mk(1, 0, "p", 0, 10), mk(2, 1, "x", 2, 8), mk(3, 1, "x", 2, 8)}
	if got := selfTimes(spans)[1] / 1e6; got != 4 {
		t.Errorf("parent self = %d ms, want 4", got)
	}
}

func TestLayerTableSumsSelfTimeAndWork(t *testing.T) {
	spans := []span{
		mk(1, 0, "client.request", 0, 10),
		mk(2, 1, "xdrop.kernel", 1, 7),
		mk(3, 0, "client.request", 10, 30),
		mk(4, 3, "xdrop.kernel", 12, 26),
	}
	spans[1].Work, spans[1].Unit = 600, "cells"
	spans[3].Work, spans[3].Unit = 1400, "cells"
	rows := layerTable(spans, func(span) bool { return true })
	if len(rows) != 2 || rows[0].Name != "xdrop.kernel" || rows[1].Name != "client.request" {
		t.Fatalf("rows = %+v, want xdrop.kernel then client.request", rows)
	}
	if rows[0].SelfNs != 20e6 || rows[0].Spans != 2 || rows[0].Work != 2000 {
		t.Errorf("kernel row = %+v, want 20 ms self over 2 spans and 2000 cells", rows[0])
	}
	if rows[1].SelfNs != 10e6 {
		t.Errorf("request row self = %d, want 10 ms", rows[1].SelfNs)
	}
}

func TestRecorderParentsAndEpoch(t *testing.T) {
	epoch := time.Unix(1000, 0)
	rec := &recorder{epoch: epoch}
	root := rec.add(0, "req7", "client.request", epoch.Add(time.Millisecond), epoch.Add(5*time.Millisecond), 16, "pairs")
	child := rec.timed(root, "req7", "aligner.align", "pairs", func() float64 { return 16 })
	if root != 1 || child.ID != 2 || child.Work != 16 || child.Unit != "pairs" {
		t.Fatalf("root %d, child %+v", root, child)
	}
	if s := rec.spans[0]; s.Start != 1e6 || s.End != 5e6 || s.Op != "req7" {
		t.Errorf("root span %+v", s)
	}
	if s := rec.spans[1]; s.Parent != root || s.End < s.Start {
		t.Errorf("child span %+v", s)
	}
}
