package stats

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"X", "time"}}
	tb.AddRow(10, 1.5)
	tb.AddRow(5000, 176.6)
	tb.Notes = append(tb.Notes, "hello")
	out := tb.Render()
	if !strings.Contains(out, "5000") || !strings.Contains(out, "176.6") {
		t.Fatalf("render missing data:\n%s", out)
	}
	if !strings.Contains(out, "note: hello") {
		t.Fatal("missing note")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Headers: []string{"a", "b,c"}}
	tb.AddRow("x\"y", 1)
	csv := tb.CSV()
	if !strings.Contains(csv, `"b,c"`) {
		t.Fatalf("comma not escaped: %s", csv)
	}
	if !strings.Contains(csv, `"x""y"`) {
		t.Fatalf("quote not escaped: %s", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 2 {
		t.Fatal("csv line count")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{0: "0", 0.1234: "0.123", 1.234: "1.23", 123.456: "123.5"}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestChartRender(t *testing.T) {
	ch := Chart{
		Title: "speedup", XLabel: "X", YLabel: "x faster",
		LogX: true, LogY: true,
		Series: []Series{
			{Name: "1 GPU", Marker: 'o', X: []float64{10, 100, 1000}, Y: []float64{2, 5, 7}},
			{Name: "6 GPU", Marker: '*', X: []float64{10, 100, 1000}, Y: []float64{3, 12, 30}},
		},
	}
	out := ch.Render(60, 15)
	if !strings.Contains(out, "o = 1 GPU") || !strings.Contains(out, "* = 6 GPU") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatal("markers missing")
	}
	empty := Chart{Title: "none"}
	if got := empty.Render(40, 10); !strings.Contains(got, "no data") {
		t.Fatalf("empty chart: %q", got)
	}
}
