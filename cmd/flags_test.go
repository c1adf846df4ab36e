// Package cmd_test drives the built command-line binaries: the flag
// surface of every binary (names and defaults, pinned to a file written
// by the commit before the parameter table) and the flag spellings of the
// pipeline parameters, end to end.
package cmd_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"logan"
)

// binDir holds the binaries TestMain builds once for every test here.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "logan-cmd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"logan/cmd/bella", "logan/cmd/logan-align", "logan/cmd/logan-map", "logan/cmd/logan-serve", "logan/cmd/logan-worker")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes one binary and returns its stdout, stderr and exit code.
func run(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return o.String(), e.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return o.String(), e.String(), 0
}

var (
	flagLine    = regexp.MustCompile(`^  -(\S+)`)
	defaultNote = regexp.MustCompile(`\(default (.*)\)$`)
)

// flagTable renders a binary's -h output as "-name<TAB>default" lines in
// the order flag prints them (sorted by name); string defaults lose
// their quotes so that a flag.TextVar reads like the flag.String it
// replaced.
func flagTable(help string) []string {
	var rows []string
	sc := bufio.NewScanner(strings.NewReader(help))
	for sc.Scan() {
		line := sc.Text()
		if m := flagLine.FindStringSubmatch(line); m != nil {
			rows = append(rows, "-"+m[1]+"\t")
			continue
		}
		if m := defaultNote.FindStringSubmatch(line); m != nil && len(rows) > 0 {
			rows[len(rows)-1] += strings.Trim(m[1], `"`)
		}
	}
	return rows
}

// TestFlagSurface pins every binary's flag names and defaults to
// testdata/flags.txt, written by the commit before the parameter table:
// deriving flags from the table must add, drop and rename nothing.
func TestFlagSurface(t *testing.T) {
	var got strings.Builder
	for _, c := range []struct {
		bin  string
		args []string
		want int
	}{
		{"logan-serve", []string{"-h"}, 31},
		{"logan-worker", []string{"-h"}, 7},
		{"bella", []string{"-h"}, 15},
		{"logan-align", []string{"-h"}, 17},
		{"logan-map", []string{"build-index", "-h"}, 5},
		{"logan-map", []string{"map", "-h"}, 12},
	} {
		_, help, _ := run(t, c.bin, c.args...)
		rows := flagTable(help)
		if len(rows) != c.want {
			t.Errorf("%s %s lists %d flags, want %d", c.bin, strings.Join(c.args, " "), len(rows), c.want)
		}
		seen := map[string]bool{}
		for _, r := range rows {
			if seen[r] {
				t.Errorf("%s lists %q twice", c.bin, r)
			}
			seen[r] = true
			fmt.Fprintf(&got, "%s\t%s\n", strings.TrimSuffix(c.bin+" "+c.args[0], " -h"), r)
		}
	}
	const path = "testdata/flags.txt"
	if os.Getenv("LOGAN_UPDATE_FIXTURES") != "" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag names or defaults moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestTableFlagsInHelp: every parameter-table row a binary registers
// shows up in its -h exactly once, under the binary's flag name and with
// the usage the table itself gives the row — the binaries name rows, they
// do not describe them.
func TestTableFlagsInHelp(t *testing.T) {
	index := map[string]string{"k": "k", "w": "w", "maxOcc": "max-occ"}
	overlap := logan.DefaultOverlapConfig(logan.DefaultCoverage, logan.DefaultErrorRate, 25)
	mapping := logan.DefaultMapConfig(100)
	for _, c := range []struct {
		bin   string
		args  []string
		table logan.Params
		names map[string]string // wire name → flag name
	}{
		{"bella", []string{"-h"}, overlap.Params(),
			map[string]string{"coverage": "cov", "errorRate": "errrate", "x": "x", "k": "k", "minOverlap": "minov"}},
		{"logan-map", []string{"build-index", "-h"}, new(logan.IndexOptions).Params(), index},
		{"logan-map", []string{"map", "-h"}, new(logan.IndexOptions).Params(), index},
		{"logan-map", []string{"map", "-h"}, mapping.Params(), map[string]string{"x": "x", "maxSecondary": "max-secondary"}},
		{"logan-serve", []string{"-h"}, new(logan.IndexOptions).Params(),
			map[string]string{"k": "map-k", "w": "map-w", "maxOcc": "map-max-occ"}},
	} {
		_, help, _ := run(t, c.bin, c.args...)
		fs := flag.NewFlagSet(c.bin, flag.ContinueOnError)
		c.table.Flags(fs, c.names)
		found := 0
		fs.VisitAll(func(f *flag.Flag) {
			found++
			if n := strings.Count(help, "  -"+f.Name+" value\n    \t"+f.Usage); n != 1 || f.Usage == "" {
				t.Errorf("%s %s: flag -%s with usage %q appears %d times in -h, want once:\n%s",
					c.bin, strings.Join(c.args, " "), f.Name, f.Usage, n, help)
			}
		})
		if found != len(c.names) {
			t.Errorf("%s: %d of the %d names in %v are table rows", c.bin, found, len(c.names), c.names)
		}
	}
}

// simulate writes bella's tiny simulated read set and its genome.
func simulate(t *testing.T) (reads, genome string) {
	t.Helper()
	dir := t.TempDir()
	reads, genome = filepath.Join(dir, "reads.fa"), filepath.Join(dir, "genome.fa")
	if _, stderr, code := run(t, "bella", "-preset", "tiny", "-dump-reads", reads, "-dump-genome", genome); code != 0 {
		t.Fatalf("bella -dump-reads: exit %d: %s", code, stderr)
	}
	return reads, genome
}

// TestBellaFlagSpellings runs cmd/bella over one FASTA under each
// spelling of its pipeline flags: absent and explicit-default agree,
// explicit values are honoured, out-of-range and non-numeric values exit
// non-zero before any output.
func TestBellaFlagSpellings(t *testing.T) {
	reads, _ := simulate(t)
	paf := func(flags ...string) (string, int) {
		out := filepath.Join(t.TempDir(), "out.paf")
		_, _, code := run(t, "bella", append([]string{"-fasta", reads, "-paf", out}, flags...)...)
		b, _ := os.ReadFile(out)
		return string(b), code
	}
	base, code := paf()
	if code != 0 || base == "" {
		t.Fatalf("baseline run: exit %d, %d PAF bytes", code, len(base))
	}
	if got, code := paf("-k", "17", "-cov", "6", "-errrate", "0.15", "-x", "25", "-minov", "500"); code != 0 || got != base {
		t.Errorf("explicit defaults: exit %d, PAF differs from the flagless run", code)
	}
	// -cov 0 is a value on a flag, as it always was (only the wire forms
	// read 0 as absent).
	for _, flags := range [][]string{{"-k", "15"}, {"-x", "5"}, {"-minov", "1500"}, {"-cov", "2"}, {"-cov", "0"}, {"-errrate", "0.3"}} {
		if got, code := paf(flags...); code != 0 || got == base || got == "" {
			t.Errorf("%v: exit %d, %d PAF bytes (flagless run: %d): value not honoured", flags, code, len(got), len(base))
		}
	}
	for _, flags := range [][]string{
		{"-k", "32"}, {"-k", "-1"}, {"-k", "0"}, {"-k", "abc"}, {"-x", "-1"}, {"-x", "abc"},
		{"-cov", "abc"}, {"-errrate", "abc"}, {"-minov", "abc"},
		// Bounds enforced at the flag: before the table x wrapped to
		// int32(1), errrate 1 was taken literally and coverage 1000000 ran
		// for hours inside ReliableBounds.
		{"-x", "4294967297"}, {"-errrate", "1"}, {"-cov", "1000000"},
	} {
		if got, code := paf(flags...); code == 0 || got != "" {
			t.Errorf("%v: exit %d with %d PAF bytes, want a non-zero exit and no output", flags, code, len(got))
		}
	}
}

// TestLoganMapFlagSpellings does the same for cmd/logan-map.
func TestLoganMapFlagSpellings(t *testing.T) {
	reads, genome := simulate(t)
	paf := func(flags ...string) (string, int) {
		stdout, _, code := run(t, "logan-map", append(append([]string{"map", "-ref", genome}, flags...), reads)...)
		return stdout, code
	}
	base, code := paf()
	if code != 0 || base == "" {
		t.Fatalf("baseline run: exit %d, %d PAF bytes", code, len(base))
	}
	for _, flags := range [][]string{
		{"-x", "100", "-max-secondary", "-1", "-k", "15", "-w", "10", "-max-occ", "256"},
		{"-k", "0", "-w", "0", "-max-occ", "0"},
		{"-max-secondary", "-7"},
	} {
		if got, code := paf(flags...); code != 0 || got != base {
			t.Errorf("%v: exit %d, PAF differs from the flagless run", flags, code)
		}
	}
	for _, flags := range [][]string{{"-k", "19"}, {"-w", "3"}, {"-x", "3"}} {
		if got, code := paf(flags...); code != 0 || got == base || got == "" {
			t.Errorf("%v: exit %d, %d PAF bytes (flagless run: %d): value not honoured", flags, code, len(got), len(base))
		}
	}
	for _, flags := range [][]string{{"-k", "99"}, {"-k", "abc"}, {"-w", "abc"}, {"-max-occ", "abc"}, {"-x", "-1"}, {"-x", "abc"}, {"-max-secondary", "abc"}} {
		if got, code := paf(flags...); code == 0 || got != "" {
			t.Errorf("%v: exit %d with %d PAF bytes, want a non-zero exit and no output", flags, code, len(got))
		}
	}
	// build-index takes the same three index flags.
	idx := filepath.Join(t.TempDir(), "ref.lgi")
	if _, stderr, code := run(t, "logan-map", "build-index", "-ref", genome, "-o", idx, "-k", "19", "-w", "5", "-max-occ", "64"); code != 0 {
		t.Fatalf("build-index: exit %d: %s", code, stderr)
	}
	if got, _, code := run(t, "logan-map", "map", "-index", idx, reads); code != 0 || got == "" || got == base {
		t.Errorf("map over a k=19 w=5 index: exit %d, %d PAF bytes (k=15 w=10 run: %d)", code, len(got), len(base))
	}
	if _, _, code := run(t, "logan-map", "build-index", "-ref", genome, "-o", idx, "-k", "99"); code == 0 {
		t.Error("build-index -k 99 succeeded")
	}
}

// TestLoganServeIndexFlags boots logan-serve with -map-ref under each
// spelling of -map-k/-map-w/-map-max-occ and reads the index it reports.
func TestLoganServeIndexFlags(t *testing.T) {
	_, genome := simulate(t)
	ready := func(flags ...string) (string, bool) {
		cmd := exec.Command(filepath.Join(binDir, "logan-serve"),
			append([]string{"-addr", "127.0.0.1:0", "-jobs=false", "-map-ref", genome}, flags...)...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
		lines := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			if sc.Scan() {
				lines <- sc.Text()
			}
			close(lines)
		}()
		select {
		case line, ok := <-lines:
			return line, ok
		case <-time.After(30 * time.Second):
			t.Fatalf("logan-serve %v printed nothing within 30s", flags)
			return "", false
		}
	}
	for _, c := range []struct {
		flags []string
		want  string // suffix of the "index ready" line; "" = must not start
	}{
		{nil, "k=15 w=10)"},
		{[]string{"-map-k", "0", "-map-w", "0", "-map-max-occ", "0"}, "k=15 w=10)"},
		{[]string{"-map-k", "19", "-map-w", "5", "-map-max-occ", "-1"}, "k=19 w=5)"},
		{[]string{"-map-k", "99"}, ""},
		{[]string{"-map-k", "abc"}, ""},
		{[]string{"-map-w", "abc"}, ""},
		{[]string{"-map-max-occ", "abc"}, ""},
	} {
		line, ok := ready(c.flags...)
		switch {
		case c.want == "" && ok:
			t.Errorf("%v: server came up (%q), want a startup failure", c.flags, line)
		case c.want != "" && !strings.HasSuffix(line, c.want):
			t.Errorf("%v: first line %q, want suffix %q", c.flags, line, c.want)
		}
	}
}
