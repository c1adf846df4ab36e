#!/usr/bin/env bash
# Documentation gate: every package must carry a package-level doc
# comment, and every exported symbol of the public root package must be
# documented — and every documented logan_jobs_* series must have one
# owner, the X-drop band loop one driver (the simulated device replays
# its trace) and in assembly one fused loop, the register-frame handoff
# one copy (in Go), every extension one staging step (in Go, the
# simulated device's included: no seq.AppendReverse outside
# internal/xdrop and internal/seq, no hostScratch in internal/core),
# EXPERIMENTS.md the committed reproduction CSV, the device
# batch one executor, the root package no view of the kernel
# configuration, the generated tables of docs/SERVING.md their
# generators' output, request parameters one parser, the coalescer
# one admission policy in pure, clock-free code, pipeline work one
# extension path, the root package one FASTA ingest loop, minimizer
# extraction one sweep, the pipelines one
# radix sort and one alignment algorithm, BELLA's front end one k-mer
# pass, the coalescer's flusher batches and no per-request work, and a
# cluster worker no message but its work and no identity but its name.
# It runs on the repository it sits in, from any directory; CI runs it
# alongside the unit tests. The doc checker itself is scripts/doclint.
set -euo pipefail
cd "$(dirname "$0")/.."
# Every check below searches the working directory recursively: refuse
# to start anywhere but the root of this module.
if ! grep -qx 'module logan' go.mod 2>/dev/null; then
	echo "doc-lint: $(pwd) is not the root of module logan (no go.mod declaring it); run the script from its place in the repository" >&2
	exit 1
fi

# The logan_jobs_* family belongs to cluster.Store alone: a series name
# registered at a second call site means the job store has forked again.
dup=$(grep -rhoE --include='*.go' --exclude='*_test.go' \
	'(Counter|[Gg]auge(Func)?|Histogram)\("logan_jobs_[a-z_]+"' . |
	grep -oE 'logan_jobs_[a-z_]+' | sort | uniq -d)
if [ -n "$dup" ]; then
	echo "doc-lint: logan_jobs_ series registered at more than one call site:" >&2
	echo "$dup" >&2
	exit 1
fi

# internal/xdrop has one wavefront driver (wave) under every row kernel,
# next to the frozen ExtendReference oracle: a third anti-diagonal loop
# header in non-test sources means the band machinery has forked again.
loops=$(grep -rnE --include='*.go' --exclude='*_test.go' 'd <= (m|mlen)\+n' internal/xdrop || true)
if [ "$(printf '%s' "$loops" | grep -c .)" -gt 2 ]; then
	echo "doc-lint: internal/xdrop holds the anti-diagonal loop more than twice (want: wave, ExtendReference):" >&2
	echo "$loops" >&2
	exit 1
fi

# The int16 kernel is the fused routine alone: wave runs int32 cells, and
# the portable int16 rows and the SWAR helpers of internal/simd they were
# written in are gone (off amd64 the vector kernel is the scalar one).
int16rows=$(grep -rnE --include='*.go' '"logan/internal/simd"|vectorRowPortable|func wave\[[^]]*(,|cell|int16)' . || true)
if [ -n "$int16rows" ]; then
	echo "doc-lint: a portable int16 row or a second cell width on wave is back (the fused routine is the only int16 kernel):" >&2
	echo "$int16rows" >&2
	exit 1
fi

# The assembly of internal/xdrop is one detection probe per ISA past the
# SSE2 baseline and the fused extension: one routine per ISA, all
# expanded from one body that holds the one anti-diagonal loop (the
# AVX-512 register mode included), plus the paired AVX-512 routine, which
# expands the register mode's row macros for two extensions and has no
# memory rows of its own. Another TEXT symbol (a per-row routine coming
# back) or a second loop label means the wavefront has forked in
# assembly.
asm=$(grep -hoE '^TEXT [^(]+' internal/xdrop/*.s internal/xdrop/*.h | sed 's/^TEXT ·//' | sort | tr '\n' ' ')
asmloops=$(cat internal/xdrop/*.s internal/xdrop/*.h | grep -cE '^loop:' || true)
want="cpuHasAVX2 cpuHasAVX512 vectorExtendAVX2 vectorExtendAVX512 vectorExtendPairAVX512 vectorExtendSSE2 "
if [ "$asm" != "$want" ] || [ "$asmloops" != 1 ]; then
	echo "doc-lint: internal/xdrop assembly defines [$asm] with $asmloops loop label(s) (want: ${want}and one loop)" >&2
	exit 1
fi

# The carried rows move into and out of an AVX-512 register frame in Go
# alone (fusedSlot.frame and spill): the routines load the frame from
# fusedState on entry and store it there on return. A reload or spill
# label, or a handoff macro (LANES, LOADROW, STOREROW, SWAPROWS), in the
# assembly means the handoff has forked into a second copy again.
handoff=$(grep -nE '^(reload|spill):|^#define (LANES|LOADROW|STOREROW|SWAPROWS)([ (]|$)' internal/xdrop/*.s internal/xdrop/*.h || true)
if [ -n "$handoff" ]; then
	echo "doc-lint: the register-frame handoff is back in internal/xdrop assembly (Go's fusedSlot.frame and spill are its one copy):" >&2
	echo "$handoff" >&2
	exit 1
fi

# Every extension is staged once, in Go: fusedSlot.stage lays out q and
# the reversed target for every kernel, and the routines read only those
# copies; the simulated device hands its blocks the raw prefixes and
# suffixes (Workspace.ExtendTrace with rev). fusedState's t or fill in
# the assembly (a routine filling rt again), revT, rtBuf or startPaired
# declared in non-test internal/xdrop Go (a second reversal buffer,
# wave's own rt, the paired routine's own staging), a seq.AppendReverse
# call in non-test Go outside internal/xdrop and internal/seq (a host
# reversing sequences for the kernel), or hostScratch in non-test
# internal/core Go (the device's staging arena) means the staging has
# forked again.
staging=$( {
	grep -nE 'fusedState_(t|fill)\b' internal/xdrop/*.s internal/xdrop/*.h
	grep -nE '\b(revT|rtBuf|startPaired)\b' $(ls internal/xdrop/*.go | grep -v '_test\.go$') | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'
	grep -rnE --include='*.go' --exclude='*_test.go' '\bseq\.AppendReverse\(' . | grep -vE '^\./internal/(xdrop|seq)/' | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'
	grep -nE '\bhostScratch\b' $(ls internal/core/*.go | grep -v '_test\.go$') | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'
} || true)
if [ -n "$staging" ]; then
	echo "doc-lint: an extension is staged outside fusedSlot.stage again (the routines read only its copies of q and the reversed target):" >&2
	echo "$staging" >&2
	exit 1
fi

# Nothing outside internal/xdrop runs an X-drop band of its own: the
# simulated device replays the wavefront's band trace (ExtendTrace) as its
# accounting. internal/sw is exempt — its CUDASW++ comparator walks the
# full Smith-Waterman matrix, not an X-drop band.
forks=$(grep -rnE --include='*.go' --exclude='*_test.go' 'd <= (m|mlen)\+n' . |
	grep -vE '^\./internal/(xdrop|sw)/' || true)
if [ -n "$forks" ]; then
	echo "doc-lint: an X-drop anti-diagonal loop outside internal/xdrop (the simulated device replays xdrop's band trace):" >&2
	echo "$forks" >&2
	exit 1
fi

# EXPERIMENTS.md carries the committed reproduction tables; the CSV it
# embeds must be testdata/logan_bench_quick.csv byte for byte (CI diffs
# that file against a fresh `logan-bench -quick -csv`).
if ! awk '/^```csv$/{f=1; next} /^```$/{f=0} f' EXPERIMENTS.md | diff testdata/logan_bench_quick.csv -; then
	echo "doc-lint: the CSV embedded in EXPERIMENTS.md differs from testdata/logan_bench_quick.csv (< file, > EXPERIMENTS.md)" >&2
	exit 1
fi

# internal/backend is the only place a batch is split, run and gathered:
# internal/loadbal is index arithmetic (no devices, no kernel), and the
# device batch entry point has one engine-side caller, backend.GPU (the
# paper harness in internal/bench and the examples call it directly by
# design). A caller anywhere else means the executor has forked again.
owns=$(grep -lE --include='*.go' --exclude='*_test.go' \
	'"logan/internal/(core|cuda)"' -r internal/loadbal || true)
if [ -n "$owns" ]; then
	echo "doc-lint: internal/loadbal must stay a pure partitioner (imports internal/core or internal/cuda):" >&2
	echo "$owns" >&2
	exit 1
fi
calls=$(grep -rnE --include='*.go' --exclude='*_test.go' 'core\.AlignBatch' . |
	grep -vE '^\./(internal/bench|examples|benchmark)/' || true)
if [ "$(printf '%s' "$calls" | grep -c .)" -ne 1 ] || ! printf '%s' "$calls" | grep -q '^\./internal/backend/gpu\.go:'; then
	echo "doc-lint: core.AlignBatch must have exactly one engine-side caller, internal/backend/gpu.go:" >&2
	echo "$calls" >&2
	exit 1
fi

# xdrop.Scheme is the only scoring carrier below logan.Config: the root
# package lowers once (Config.scheme) and never sees core.Config.
leaks=$(grep -lE '"logan/internal/core"' $(ls ./*.go | grep -v '_test\.go$') || true)
if [ -n "$leaks" ]; then
	echo "doc-lint: root-package sources import logan/internal/core (lower to xdrop.Scheme instead):" >&2
	echo "$leaks" >&2
	exit 1
fi

# The /jobs, /map and /map/index parameter tables and the logan-serve
# flag table in docs/SERVING.md are generated: from the rows of logan's
# parameter tables and from `logan-serve -h`. A stale block means a row
# or a flag changed without the operator guide: paste the lines diff
# marks ">" over the block they name.
if ! sed -n '/^<!-- generated:/,/^<!-- \/generated -->/p' docs/SERVING.md |
	diff - <(go run ./cmd/logan-serve -h 2>&1 | go run ./scripts/doclint serving); then
	echo "doc-lint: the generated blocks of docs/SERVING.md are stale (< file, > generated)" >&2
	exit 1
fi

# cmd/logan-serve turns request text into parameter values at exactly one
# call site — setParams handing a query key to the bound table's setter —
# and the hand-kept mirrors the parameter table replaced stay gone.
sets=$(grep -rnE --include='*.go' --exclude='*_test.go' '\.Set\([a-z]+, [a-z]+\)' cmd/logan-serve || true)
parses=$(grep -rnE --include='*.go' --exclude='*_test.go' 'Query\(\)\.Get\(|strconv\.(Atoi|ParseInt|ParseFloat)' cmd/logan-serve |
	grep -v '^cmd/logan-serve/auth\.go:' || true)
if [ "$(printf '%s' "$sets" | grep -c .)" -ne 1 ] || [ -n "$parses" ]; then
	echo "doc-lint: cmd/logan-serve must parse request parameters at one call site (setParams -> logan.Params.Set):" >&2
	printf '%s\n%s\n' "$sets" "$parses" >&2
	exit 1
fi
mirrors=$(grep -rnE --include='*.go' '\b(overlapConfigJSON|queryOverlapConfig|jobProgressJSON|FromOverlap)\b' . | grep -v '^./benchmark/' || true)
if [ -n "$mirrors" ]; then
	echo "doc-lint: a hand-kept mirror of the parameter table or the progress record is back:" >&2
	echo "$mirrors" >&2
	exit 1
fi

# The coalescer's policy is pure: policy.go (admit and the lane scheduler)
# knows no lock, no context and no clock, and tenant.go reads no clock
# either (it keeps sync for the bucket mutex and context for WithTenant);
# time comes in as an argument from the Coalescer's one injected clock.
impure=$(grep -nE 'time\.(Now|Since|Until|After|Sleep)|^\s*"(sync|context)"$' policy.go || true)
clock=$(grep -nE 'time\.(Now|Since|Until|After|Sleep)' tenant.go || true)
if [ -n "$impure$clock" ]; then
	echo "doc-lint: the coalescer's policy files must stay lock-, context- and clock-free:" >&2
	printf 'policy.go: %s\ntenant.go: %s\n' "$impure" "$clock" >&2
	exit 1
fi

# There is one admission policy: the fixed pending-pair budget, its flag
# and its shed counter (deleted in ISSUE 24) stay gone. The names are
# split here so that this file does not match itself.
gone='Max''Pending|max-''pending|max''Pending|[sS]hed''Budget'
back=$(grep -rnE --include='*.go' --include='*.md' --include='*.sh' --include='*.txt' --include='*.yml' "$gone" . |
	grep -vE '^\./(CHANGES|ROADMAP|ISSUE)\.md:' || true)
if [ -n "$back" ]; then
	echo "doc-lint: the fixed admission budget is back (one admission policy: admit in policy.go):" >&2
	echo "$back" >&2
	exit 1
fi

# Pipeline work has one extension path: an Overlapper or Mapper holds one
# extend function, the engine's dispatch or the Coalescer's bulk entry,
# and the flusher runs every batch through that same dispatch. The two
# extender adapters, the context-carried service class, the flusher's
# second engine entry, the traceback refusal and the job flag they served
# stay gone. So do the layers that sat between bella.Run and that one
# signature (backend.ExtendFunc): BELLA's aligner interface, its CPU
# aligner and stats, the root package's private copy of the signature,
# and the mapping progress API no program read (MapStageTimes stays).
# The names are split so that this file does not match itself.
gone='engine''Extender|coalesced''Extender|with''Priority|priority''From|align''Prepared|ErrTraceback''Unavailable|job''Coalesce|job-''coalesce'
gone="$gone"'|CPU''Aligner|Aligner''Stats|Align''Pairs|\bextend''Func\b|Map''Progress|Map''Stage($|[^T])'
back=$(grep -rnE --include='*.go' --include='*.md' --include='*.sh' --include='*.txt' --include='*.yml' "$gone" . |
	grep -vE '^\./(CHANGES|ROADMAP|ISSUE)\.md:' || true)
if [ -n "$back" ]; then
	echo "doc-lint: a second extension path is back (pipelines extend through one extend function):" >&2
	echo "$back" >&2
	exit 1
fi

# The root package reads FASTA in one loop, readFasta, shared by
# RunFasta, MapFasta and Mapper.Build: a second non-test call site of
# seq.NewFastaReader means an ingest loop has been pasted again.
fasta=$(grep -nE 'seq\.NewFastaReader\(' $(ls *.go | grep -v '_test\.go$') || true)
if [ "$(printf '%s' "$fasta" | grep -c .)" -ne 1 ]; then
	echo "doc-lint: non-test root-package code must call seq.NewFastaReader at exactly one site (readFasta):" >&2
	echo "$fasta" >&2
	exit 1
fi

# Minimizer extraction is one sweep (Extract, the running minimum) and
# its oracle (ExtractNaive): another function in internal/minidx that is
# named for extraction or returns []Minimizer, or the deque entry type
# the sweep replaced, means the extractor has forked again.
src=$(ls internal/minidx/*.go | grep -v '_test\.go$')
fns=$(grep -hoE '^func [A-Za-z0-9_]+\([^)]*\) \[\]Minimizer|^func [A-Za-z0-9_]*[Ee]xtract[A-Za-z0-9_]*' $src |
	sed -E 's/^func ([A-Za-z0-9_]+).*/\1/' | sort -u | tr '\n' ' ')
deque=$(grep -nE '\bwinEntry\b' $src || true)
if [ "$fns" != "Extract ExtractNaive " ] || [ -n "$deque" ]; then
	echo "doc-lint: internal/minidx defines extraction functions [$fns] (want: Extract ExtractNaive) and no deque entry type:" >&2
	printf '%s\n' "$deque" >&2
	exit 1
fi

# Both pipelines sort through one radix sort, par.RadixSort (BELLA's
# k-mer count and the minimizer index build): a byte-wise counting pass
# (a histogram indexed by a masked key byte) in non-test code outside
# internal/par means a second radix sort is back, and non-test
# internal/minidx sorts nothing by comparison.
passes=$(grep -rnE --include='*.go' --exclude='*_test.go' '\[[^]]*&[[:space:]]*(255|0[xX][fF][fF])\][[:space:]]*\+\+' . |
	grep -vE '^\./internal/par/' || true)
cmpsort=$(grep -nE '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"sort"$|\bslices\.Sort' $src || true)
if [ -n "$passes$cmpsort" ]; then
	echo "doc-lint: a second radix sort outside internal/par, or a comparison sort in internal/minidx (sort through par.RadixSort):" >&2
	printf '%s\n%s\n' "$passes" "$cmpsort" >&2
	exit 1
fi

# BELLA's front end is one k-mer pass (count, prune and matrix from one
# scan and one sort): non-test internal/bella reads bases for k-mers in
# one function, roll, and keeps no open-addressing k-mer table (a slot or
# table type, or a linear-probing step). A second function that rolls or
# encodes k-mers, or a hashed column lookup, means the second read scan
# is back.
bsrc=$(ls internal/bella/*.go | grep -v '_test\.go$')
readers=$(awk '/^func /{fn=$0} /\.(IsN|Code|Encode|Scan)\(|KmerCodec|<< ?2 ?\|/{print FILENAME": "fn}' $bsrc | sort -u)
tables=$(grep -nE '^type [A-Za-z_]*([Ss]lot|[Tt]able)\b|\+ *1\) *& *\(?(len\(|mask)' $bsrc || true)
if [ "$(printf '%s' "$readers" | grep -c .)" -ne 1 ] || [ -n "$tables" ]; then
	echo "doc-lint: internal/bella must read bases for k-mers in one function and keep no open-addressing k-mer table:" >&2
	printf '%s\n%s\n' "$readers" "$tables" >&2
	exit 1
fi

# The pipelines align with one algorithm, X-drop: a CIGAR comes from the
# wavefront that scored it (xdrop.Workspace.ExtendSeedOps), so it agrees
# with its score by construction. internal/sw holds only the paper's
# comparators and their oracles; non-test code importing it outside the
# reproduction harness (internal/bench) means a second alignment is back
# in a pipeline.
sw=$(grep -rlE --include='*.go' --exclude='*_test.go' '"logan/internal/sw"' . |
	grep -vE '^\./internal/(bench|sw)/' || true)
if [ -n "$sw" ]; then
	echo "doc-lint: non-test code outside internal/bench imports logan/internal/sw (pipelines align with X-drop alone):" >&2
	echo "$sw" >&2
	exit 1
fi

# The coalescer's flusher runs batches, not requests: every rider is
# {in, out}, and each caller finishes its own request (Alignment
# conversion, cache probe and fill, partial-hit merge, Stats) through the
# ingest and finish helpers it shares with Aligner.Align. Coalescer.execute
# naming Alignment or the result cache, or the flusher-era second ingest
# loop coming back, means per-request work is on the flusher again. The
# name is split so that this file does not match itself.
exec_body=$(awk '/^func \(c \*Coalescer\) execute\(/{f=1} f{print FILENAME":"FNR": "$0} f&&/^}/{exit}' coalescer.go)
exec_req=$(printf '%s\n' "$exec_body" | grep -E 'Alignment|[Cc]ache' || true)
gone='prepare''Pairs'
back=$(grep -rnE --include='*.go' --include='*.md' --include='*.sh' "$gone" . |
	grep -vE '^\./(CHANGES|ROADMAP|ISSUE)\.md:' || true)
if [ -z "$exec_body" ] || [ -n "$exec_req$back" ]; then
	echo "doc-lint: the coalescer's flusher must run batches, not requests (Coalescer.execute in coalescer.go names no Alignment or result cache, and the second ingest loop stays gone):" >&2
	printf '%s\n%s\n' "$exec_req" "$back" >&2
	exit 1
fi

# A cluster worker talks to the router only about work: its polls (idle)
# and lease extensions (busy) are its liveness and carry its telemetry
# snapshot, and the lease TTL travels with each lease. The heartbeat
# endpoint, its request type, the worker's loop and the register-time
# cadence stay gone. So does the handshake: a worker's name is its one
# identity, its first poll introduces it and a lease token names its
# holder, so the register endpoint, its request type, the worker's
# re-register error, the worker-ID header and the advertised-throughput
# flag stay gone too. The names are split so that this file does not
# match itself.
gone='/cluster/''heartbeat|heartbeat''Request|heartbeat''Loop|Heartbeat''Ms'
gone="$gone"'|/cluster/''register|register''Request|reregister''Error|X-Logan-Worker''-Id|cells-per''-sec'
back=$(grep -rnE --include='*.go' --include='*.md' --include='*.sh' "$gone" . |
	grep -vE '^\./(CHANGES|ROADMAP|ISSUE)\.md:' || true)
if [ -n "$back" ]; then
	echo "doc-lint: a worker message besides poll and extend, or a worker identity besides its name, is back (the heartbeat and the register handshake stay deleted):" >&2
	echo "$back" >&2
	exit 1
fi

exec go run ./scripts/doclint .
