package main

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"logan/internal/seq"
)

// smallShape keeps the seed tests fast; the properties do not depend on size.
var smallShape = alignShape{PairsPerReq: 8, MinLen: 100, MaxLen: 300, X: 50}

func digests(bodies [][]byte) map[[32]byte]bool {
	out := map[[32]byte]bool{}
	for _, b := range bodies {
		out[sha256.Sum256(b)] = true
	}
	return out
}

// sequencesOf collects every query and target of a stream's requests.
func sequencesOf(seed int64, stream string, n int) map[string]bool {
	out := map[string]bool{}
	for i := 0; i < n; i++ {
		for _, p := range alignPairs(seed, wAlignSmall, stream, i, smallShape) {
			out[string(p.Query)] = true
			out[string(p.Target)] = true
		}
	}
	return out
}

func TestSameSeedGivesByteIdenticalRequestBodies(t *testing.T) {
	a := alignBodies(7, wAlignSmall, streamMeasured, 12, smallShape)
	b := alignBodies(7, wAlignSmall, streamMeasured, 12, smallShape)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("align request %d differs between two generations from seed 7", i)
		}
	}
	ref := mapReference(7, 60_000)
	if !bytes.Equal(fastaBody(mapReads(7, ref, streamMeasured, 3, 20)), fastaBody(mapReads(7, mapReference(7, 60_000), streamMeasured, 3, 20))) {
		t.Error("map request body differs between two generations from seed 7")
	}
	sh := overlapShape{GenomeLen: 30_000, Coverage: 4, RepeatFrac: 0.05}
	if !bytes.Equal(fastaBody(overlapReads(7, streamMeasured, 2, sh)), fastaBody(overlapReads(7, streamMeasured, 2, sh))) {
		t.Error("overlap job body differs between two generations from seed 7")
	}
}

// Every measured pair must be unique (the server's result cache would
// turn a repeat into a hit), a different seed must give different pairs,
// and warm-up inputs must never reappear in the measured phase.
func TestSeedsAndStreamsAreDisjoint(t *testing.T) {
	const n = 40
	measured := sequencesOf(7, streamMeasured, n)
	if want := n * smallShape.PairsPerReq * 2; len(measured) != want {
		t.Errorf("%d distinct sequences among %d generated: a pair repeats within the measured stream", len(measured), want)
	}
	for name, other := range map[string]map[string]bool{
		"seed 8":                sequencesOf(8, streamMeasured, n),
		"the warm-up of seed 7": sequencesOf(7, streamWarmup, n),
	} {
		for s := range other {
			if measured[s] {
				t.Fatalf("a sequence of seed 7's measured stream also appears in %s", name)
			}
		}
	}
	// Whole bodies, for the FASTA workloads.
	ref := mapReference(7, 60_000)
	var meas, warm [][]byte
	for i := 0; i < 6; i++ {
		meas = append(meas, fastaBody(mapReads(7, ref, streamMeasured, i, 20)))
		warm = append(warm, fastaBody(mapReads(7, ref, streamWarmup, i, 20)))
	}
	md := digests(meas)
	if len(md) != len(meas) {
		t.Error("two measured map requests are identical")
	}
	for d := range digests(warm) {
		if md[d] {
			t.Error("a warm-up map request is identical to a measured one")
		}
	}
	sh := overlapShape{GenomeLen: 30_000, Coverage: 4, RepeatFrac: 0.05}
	if bytes.Equal(fastaBody(overlapReads(7, streamMeasured, 0, sh)), fastaBody(overlapReads(7, streamWarmup, 0, sh))) {
		t.Error("the warm-up overlap job equals measured job 0")
	}
	if bytes.Equal(fastaBody(overlapReads(7, streamMeasured, 0, sh)), fastaBody(overlapReads(8, streamMeasured, 0, sh))) {
		t.Error("seeds 7 and 8 give the same overlap job")
	}
}

// The body the server receives decodes back to exactly the generated pairs.
func TestAlignBodyRoundTrip(t *testing.T) {
	pairs := alignPairs(3, wAlignSmall, streamMeasured, 0, smallShape)
	body := alignBody(pairs, smallShape.X)
	var req alignRequest
	if err := jsonUnmarshalStrict(body, &req); err != nil {
		t.Fatal(err)
	}
	if req.X != smallShape.X || len(req.Pairs) != len(pairs) {
		t.Fatalf("decoded x=%d with %d pairs", req.X, len(req.Pairs))
	}
	for i, p := range pairs {
		got := seq.Pair{Query: seq.Seq(req.Pairs[i].Query), Target: seq.Seq(req.Pairs[i].Target),
			SeedQPos: req.Pairs[i].SeedQ, SeedTPos: req.Pairs[i].SeedT, SeedLen: req.Pairs[i].SeedLen}
		if string(got.Query) != string(p.Query) || string(got.Target) != string(p.Target) ||
			got.SeedQPos != p.SeedQPos || got.SeedTPos != p.SeedTPos || got.SeedLen != p.SeedLen {
			t.Fatalf("pair %d does not round-trip", i)
		}
	}
}
