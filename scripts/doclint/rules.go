package main

import (
	"fmt"
	"path"
	"regexp"
	"regexp/syntax"
	"slices"
	"strconv"
	"strings"
)

// rule is one row of the table: the invariant it guards, in one sentence,
// and the checks that hold it, each over its own files.
type rule struct {
	name, why string
	checks    []check
}

// check returns the sites that break it.
type check func(*tree) []string

// rules is the table. Every row has fixtures in rules_test.go.
var rules = []rule{
	{"jobs-series-owner", "the logan_jobs_* family belongs to cluster.Store alone: each series is registered at one call site",
		[]check{once(code("./..."), `(?:Counter|[Gg]auge(?:Func)?|Histogram)\("(logan_jobs_[a-z_]+)"`)}},
	{"one-wavefront-driver", "internal/xdrop holds the anti-diagonal loop twice: in wave, under every row kernel, and in the frozen ExtendReference",
		[]check{count(code("internal/xdrop/..."), `d <= (m|mlen)\+n`, 2)}},
	{"no-int16-rows", "the fused routine is the only int16 kernel: wave has one cell type, and the portable int16 rows and internal/simd stay gone",
		[]check{noImport(code("./...").withTests(), "logan/internal/simd"),
			absent(code("./...").withTests(), `vectorRowPortable|func wave\[[^]]*(,|cell|int16)`)}},
	{"one-fused-loop", "internal/xdrop's assembly is a CPU probe per ISA past SSE2 and one fused routine per ISA, expanded from one body with one loop label, plus the paired AVX-512 routine",
		[]check{set(asm, `^TEXT ([^(]+)`, "·cpuHasAVX2", "·cpuHasAVX512", "·vectorExtendAVX2", "·vectorExtendAVX512", "·vectorExtendPairAVX512", "·vectorExtendSSE2"),
			count(asm, `^loop:`, 1)}},
	{"go-register-handoff", "the carried rows move into and out of an AVX-512 register frame in Go alone (fusedSlot.frame, spill): the assembly has no reload or spill label and no row-moving macro",
		[]check{absent(asm, `^(reload|spill):|^#define (LANES|LOADROW|STOREROW|SWAPROWS)([ (]|$)`)}},
	{"one-staging-step", "every extension is staged once, by fusedSlot.stage, whose copies of q and the reversed target are all the routines read; the simulated device hands its blocks raw prefixes and suffixes",
		[]check{absent(asm, `fusedState_(t|fill)\b`),
			absent(code("internal/xdrop"), `\b(revT|rtBuf|startPaired)\b`),
			absent(code("./...").but("internal/xdrop/...", "internal/seq/..."), `\bseq\.AppendReverse\(`),
			absent(code("internal/core"), `\bhostScratch\b`)}},
	{"no-band-outside-xdrop", "nothing outside internal/xdrop runs an X-drop band (the simulated device replays its band trace); internal/sw's full-matrix comparator is exempt",
		[]check{absent(code("./...").but("internal/xdrop/...", "internal/sw/..."), `d <= (m|mlen)\+n`)}},
	{"experiments-csv", "the CSV embedded in EXPERIMENTS.md is testdata/logan_bench_quick.csv byte for byte",
		[]check{embeds("EXPERIMENTS.md", "csv", "testdata/logan_bench_quick.csv")}},
	{"pure-partitioner", "internal/loadbal is index arithmetic: it imports neither internal/core nor internal/cuda",
		[]check{noImport(code("internal/loadbal/..."), "logan/internal/core", "logan/internal/cuda")}},
	{"one-device-caller", "core.AlignBatch has one engine-side caller, backend.GPU in internal/backend/gpu.go; the paper harness, the examples and the benchmark call it by design",
		[]check{count(code("./...").but("internal/bench/...", "examples/...", "benchmark/..."), `core\.AlignBatch`, 1),
			count(code("internal/backend/gpu.go"), `core\.AlignBatch`, 1)}},
	{"root-scheme-only", "the root package lowers scoring to xdrop.Scheme once (Config.scheme) and never imports internal/core",
		[]check{noImport(code("."), "logan/internal/core")}},
	{"one-param-parser", "cmd/logan-serve turns request text into parameter values at one call site, setParams handing a query key to the bound table's setter",
		[]check{count(code("cmd/logan-serve/..."), `\.Set\([a-z]+, [a-z]+\)`, 1),
			absent(code("cmd/logan-serve/...").but("cmd/logan-serve/auth.go"), `Query\(\)\.Get\(|strconv\.(Atoi|ParseInt|ParseFloat)`)}},
	{"no-param-mirrors", "the hand-kept mirrors of the parameter table and of the progress record stay gone",
		[]check{absent(code("./...").but("benchmark/...").withTests(), `\b(overlapConfigJSON|queryOverlapConfig|jobProgressJSON|FromOverlap)\b`)}},
	{"pure-policy", "the coalescer's policy is pure: policy.go holds no lock, context or clock and tenant.go reads no clock; time comes from the Coalescer's one injected clock",
		[]check{absent(code("policy.go", "tenant.go"), `time\.(Now|Since|Until|After|Sleep)`),
			noImport(code("policy.go"), "sync", "context")}},
	{"one-admission-policy", "there is one admission policy, admit in policy.go: the fixed pending-pair budget, its flag and its shed counter stay deleted",
		[]check{absent(gone(".go", ".md", ".sh", ".txt", ".yml"), `MaxPending|max-pending|maxPending|[sS]hedBudget`)}},
	{"one-extension-path", "pipeline work extends through one function, the engine's dispatch or the Coalescer's bulk entry: the adapters, BELLA's aligner layer and the mapping progress API stay deleted (MapStageTimes stays)",
		[]check{absent(gone(".go", ".md", ".sh", ".txt", ".yml"), `engineExtender|coalescedExtender|withPriority|priorityFrom|alignPrepared|ErrTracebackUnavailable|jobCoalesce|job-coalesce|`+
			`CPUAligner|AlignerStats|AlignPairs|\bextendFunc\b|MapProgress|MapStage($|[^T])`)}},
	{"one-fasta-loop", "the root package reads FASTA in one loop, readFasta, shared by RunFasta, MapFasta and Mapper.Build",
		[]check{count(code("."), `seq\.NewFastaReader\(`, 1)}},
	{"one-minimizer-sweep", "minimizer extraction is one sweep, Extract, and its oracle, ExtractNaive; the deque entry type the sweep replaced stays gone",
		[]check{set(code("internal/minidx"), `^func ([A-Za-z0-9_]*[Ee]xtract[A-Za-z0-9_]*)|^func ([A-Za-z0-9_]+)\([^)]*\) \[\]Minimizer`, "Extract", "ExtractNaive"),
			absent(code("internal/minidx"), `\bwinEntry\b`)}},
	{"one-radix-sort", "both pipelines sort through par.RadixSort: no byte-wise counting pass outside internal/par, and no comparison sort in internal/minidx",
		[]check{absent(code("./...").but("internal/par/..."), `\[[^]]*&[[:space:]]*(255|0[xX][fF][fF])\][[:space:]]*\+\+`),
			noImport(code("internal/minidx"), "sort"),
			absent(code("internal/minidx"), `\bslices\.Sort`)}},
	{"one-kmer-pass", "BELLA's front end is one k-mer pass: internal/bella reads bases for k-mers in one function, roll, and keeps no open-addressing k-mer table",
		[]check{set(code("internal/bella"), `\.(?:IsN|Code|Encode|Scan)\(|KmerCodec|<< ?2 ?\|`, "roll"),
			absent(code("internal/bella"), `^type [A-Za-z_]*([Ss]lot|[Tt]able)\b|\+ *1\) *& *\(?(len\(|mask)`)}},
	{"xdrop-only-alignment", "the pipelines align with X-drop alone: only internal/bench, the paper harness, imports internal/sw's comparators",
		[]check{noImport(code("./...").but("internal/bench/...", "internal/sw/..."), "logan/internal/sw")}},
	{"flusher-runs-batches", "the coalescer's flusher runs batches, not requests: Coalescer.execute names no Alignment or result cache, and the flusher-era second ingest loop stays gone",
		[]check{set(code("coalescer.go"), `^func \(c \*Coalescer\) (execute)\(`, "execute"),
			absent(scope{in: []string{"coalescer.go"}, ext: []string{".go"}, fn: "Coalescer.execute"}, `Alignment|[Cc]ache`),
			absent(gone(".go", ".md", ".sh"), `preparePairs`)}},
	{"worker-name-only", "a cluster worker talks to the router only about work (polls and lease extensions), and its name is its one identity: the heartbeat and the register handshake stay deleted",
		[]check{absent(gone(".go", ".md", ".sh"), `/cluster/heartbeat|heartbeatRequest|heartbeatLoop|HeartbeatMs|`+
			`/cluster/register|registerRequest|reregisterError|X-Logan-Worker-Id|cells-per-sec`)}},
	{"package-doc", "every package carries a package doc comment", []check{packageDocs}},
	{"root-exports-documented", "every export of the root package, the public API, is documented", []check{rootExports}},
}

// scope selects files. A pattern is "dir" for the files in dir, "dir/..."
// for the tree under it, or a file; "." is the root.
type scope struct {
	in, out []string
	ext     []string
	tests   bool   // _test.go files are in
	fn      string // only the lines of this function, Name or Recv.Name
}

// asm is internal/xdrop's assembly.
var asm = scope{in: []string{"internal/xdrop"}, ext: []string{".s", ".h"}}

// code is the non-test Go files under the patterns.
func code(in ...string) scope { return scope{in: in, ext: []string{".go"}} }

// gone is every file with one of the extensions, tests included, but the
// notes that record what was deleted.
func gone(ext ...string) scope {
	return scope{in: []string{"./..."}, ext: ext, tests: true}.but("CHANGES.md", "ROADMAP.md", "ISSUE.md")
}

func (s scope) but(out ...string) scope { s.out = out; return s }
func (s scope) withTests() scope        { s.tests = true; return s }

func (s scope) has(p string) bool {
	return !strings.HasPrefix(p, self) && slices.Contains(s.ext, path.Ext(p)) &&
		(s.tests || !strings.HasSuffix(p, "_test.go")) && matches(s.in, p) && !matches(s.out, p)
}

func matches(pats []string, p string) bool {
	for _, pat := range pats {
		if dir, tree := strings.CutSuffix(pat, "/..."); tree && (dir == "." || strings.HasPrefix(p, dir+"/")) || p == pat || path.Dir(p) == pat {
			return true
		}
	}
	return false
}

// hit is one match: where, the line, and its name — the first submatch
// the pattern captured, or else the function around the match.
type hit struct{ at, line, name string }

// grep returns every match of re on a line of the files in s.
func (t *tree) grep(s scope, re pattern) (hits []hit) {
	for _, p := range t.paths {
		f := t.files[p]
		if !s.has(p) || !re.maybe(f.text) {
			continue
		}
		for i, line := range f.lines {
			fn := ""
			if f.fn != nil {
				fn = f.fn[i]
			}
			if !re.maybe(line) || s.fn != "" && fn != s.fn {
				continue
			}
			for _, m := range re.FindAllStringSubmatch(line, -1) {
				name := fn
				if g := slices.IndexFunc(m[1:], func(g string) bool { return g != "" }); g >= 0 {
					name = m[1+g]
				}
				hits = append(hits, hit{fmt.Sprintf("%s:%d", p, i+1), strings.TrimSpace(line), name})
			}
		}
	}
	return hits
}

// pattern is a compiled rule pattern with its literals.
type pattern struct {
	*regexp.Regexp
	lits []string
}

func compile(expr string) pattern {
	re := regexp.MustCompile(expr)
	syn, _ := syntax.Parse(expr, syntax.Perl)
	return pattern{re, literals(syn)}
}

// maybe reports whether text holds one of the pattern's literals.
func (re pattern) maybe(text string) bool {
	return re.lits == nil || slices.ContainsFunc(re.lits, func(l string) bool { return strings.Contains(text, l) })
}

// literals returns strings one of which every match of re holds, or nil:
// grep skips the files and lines that hold none of them.
func literals(re *syntax.Regexp) (best []string) {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture:
		return literals(re.Sub[0])
	case syntax.OpConcat:
		for _, sub := range re.Sub {
			if l := literals(sub); l != nil && (best == nil || len(slices.MinFunc(l, byLen)) > len(slices.MinFunc(best, byLen))) {
				best = l
			}
		}
	case syntax.OpAlternate:
		for _, sub := range re.Sub {
			l := literals(sub)
			if l == nil {
				return nil
			}
			best = append(best, l...)
		}
	}
	return best
}

func byLen(a, b string) int { return len(a) - len(b) }

// absent: no line of the files matches.
func absent(s scope, expr string) check { return count(s, expr, 0) }

// count: the files hold exactly n matches.
func count(s scope, expr string, n int) check {
	re := compile(expr)
	return func(t *tree) (out []string) {
		if hits := t.grep(s, re); len(hits) != n {
			if n > 0 {
				out = append(out, fmt.Sprintf("want %d sites of %s, found %d", n, expr, len(hits)))
			}
			for _, h := range hits {
				out = append(out, h.at+": "+h.line)
			}
		}
		return out
	}
}

// once: no name the pattern captures is matched twice.
func once(s scope, expr string) check {
	re := compile(expr)
	return func(t *tree) (out []string) {
		first := map[string]string{}
		for _, h := range t.grep(s, re) {
			if at, dup := first[h.name]; dup {
				out = append(out, fmt.Sprintf("%s: %s, also at %s", h.at, h.name, at))
			}
			first[h.name] = h.at
		}
		return out
	}
}

// set: the names the pattern captures, every declaration counted, or else
// the functions holding its matches, are exactly want.
func set(s scope, expr string, want ...string) check {
	re := compile(expr)
	slices.Sort(want)
	return func(t *tree) []string {
		var got []string
		for _, h := range t.grep(s, re) {
			if re.NumSubexp() > 0 || !slices.Contains(got, h.name) {
				got = append(got, h.name)
			}
		}
		if slices.Sort(got); slices.Equal(got, want) {
			return nil
		}
		return []string{fmt.Sprintf("%s: want {%s}, found {%s}", strings.Join(s.in, " "), strings.Join(want, " "), strings.Join(got, " "))}
	}
}

// noImport: no file imports one of the packages.
func noImport(s scope, pkgs ...string) check {
	return func(t *tree) (out []string) {
		for _, p := range t.paths {
			if !s.has(p) {
				continue
			}
			for _, im := range t.files[p].ast.Imports {
				if v, _ := strconv.Unquote(im.Path.Value); slices.Contains(pkgs, v) {
					out = append(out, fmt.Sprintf("%s: imports %s", t.fset.Position(im.Pos()), v))
				}
			}
		}
		return out
	}
}

// embeds: the lines of doc's ```lang blocks are file, byte for byte.
func embeds(doc, lang, file string) check {
	re := regexp.MustCompile("(?ms)^```" + lang + "\n(.*?)^```$")
	return func(t *tree) []string {
		var blocks []string
		if d := t.files[doc]; d != nil {
			for _, m := range re.FindAllStringSubmatch(d.text, -1) {
				blocks = append(blocks, m[1])
			}
		}
		if f := t.files[file]; f == nil || f.text != strings.Join(blocks, "") {
			return []string{fmt.Sprintf("%s: its ```%s blocks differ from %s", doc, lang, file)}
		}
		return nil
	}
}
