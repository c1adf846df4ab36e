package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch. Parent is the ID of the span
// that caused this one (0 for a root); Op is the request or job the span
// belongs to, so all spans of one operation share it. Work and Unit carry
// the count made at the same boundary (pairs, cells, bytes, reads).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Start  int64   `json:"startNs"`
	End    int64   `json:"endNs"`
	Work   float64 `json:"work,omitempty"`
	Unit   string  `json:"unit,omitempty"`
}

// recorder keeps spans in memory until the run ends. It is filled after
// the measured phase from timestamps taken during it, so recording costs
// the measured phase nothing but the timestamps themselves.
type recorder struct {
	epoch time.Time
	spans []span
}

// add records a span over [start, end) and returns its ID.
func (r *recorder) add(parent int, op, name string, start, end time.Time, work float64, unit string) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
		Work: work, Unit: unit,
	})
	return id
}

// timed runs f inside a span; f returns the work it did, in unit.
func (r *recorder) timed(parent int, op, name, unit string, f func() float64) span {
	start := time.Now()
	work := f()
	return r.spans[r.add(parent, op, name, start, time.Now(), work, unit)-1]
}

// ns is the span's duration in nanoseconds.
func (s span) ns() float64 { return float64(s.End - s.Start) }

// perSecond is the span's work per second of its duration.
func (s span) perSecond() float64 { return s.Work / (s.ns() / 1e9) }

// coveredNs is the length of the union of the child intervals, clipped to
// [lo, hi): overlapping children are counted once and a child that leaks
// outside its parent only counts for the part inside.
func coveredNs(lo, hi int64, children [][2]int64) int64 {
	sort.Slice(children, func(a, b int) bool { return children[a][0] < children[b][0] })
	var covered int64
	cursor := lo
	for _, c := range children {
		s, e := max(c[0], cursor), min(c[1], hi)
		if e > s {
			covered += e - s
			cursor = e
		}
	}
	return covered
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its direct children cover.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - coveredNs(s.Start, s.End, kids[s.ID])
	}
	return out
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Name   string
	Spans  int
	SelfNs int64
	Work   float64
	Unit   string
}

// layerTable sums self time and work per span name over the spans keep
// selects, largest first. Self time is computed over all spans, so a kept
// span's children count against it whether or not they are kept.
func layerTable(spans []span, keep func(span) bool) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	for _, s := range spans {
		if !keep(s) {
			continue
		}
		row := byName[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name, Unit: s.Unit}
			byName[s.Name] = row
		}
		row.Spans++
		row.SelfNs += self[s.ID]
		row.Work += s.Work
	}
	rows := make([]layerRow, 0, len(byName))
	for _, row := range byName {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].SelfNs != rows[b].SelfNs {
			return rows[a].SelfNs > rows[b].SelfNs
		}
		return rows[a].Name < rows[b].Name
	})
	return rows
}

// printLayerTable prints the per-layer self-time table in two parts. The
// served part is the spans of the traced served phase (they start before
// servedWallNs, the phase's length; the recorder's epoch is its start),
// with each layer's share of the total time operations were in flight —
// the sum of the root spans, which is the wall clock times the number of
// busy clients. The replay part is timed on its own afterwards, so it has
// a rate but no share.
func printLayerTable(w io.Writer, spans []span, servedWallNs int64) {
	served := func(s span) bool { return s.Start < servedWallNs }
	var inFlight int64
	for _, s := range spans {
		if served(s) && s.Parent == 0 {
			inFlight += s.End - s.Start
		}
	}
	for _, part := range []struct {
		title string
		keep  func(span) bool
	}{
		{"served phase", served},
		{"replay", func(s span) bool { return !served(s) }},
	} {
		fmt.Fprintf(w, "%-28s %8s %12s %8s %18s %16s\n", part.title+" (self time)", "spans", "total ms", "share %", "work", "rate")
		for _, row := range layerTable(spans, part.keep) {
			share, work, rate := "", "", ""
			if part.title == "served phase" && inFlight > 0 {
				share = fmt.Sprintf("%.1f", 100*float64(row.SelfNs)/float64(inFlight))
			}
			if row.Work > 0 {
				work = fmt.Sprintf("%.0f %s", row.Work, row.Unit)
				if row.SelfNs > 0 {
					rate = fmt.Sprintf("%.4g %s/ms", row.Work/(float64(row.SelfNs)/1e6), row.Unit)
				}
			}
			fmt.Fprintf(w, "%-28s %8d %12.2f %8s %18s %16s\n", row.Name, row.Spans, float64(row.SelfNs)/1e6, share, work, rate)
		}
	}
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	ServedWallNs int64   `json:"servedWallNs"`
	Spans        []span  `json:"spans"`
}

func writeTraceFile(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
