package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"

	"logan/internal/genome"
	"logan/internal/seq"
)

// Every input derives from the -seed argument through subSeed: one
// independent random stream per (stream name, index). A request's inputs
// therefore depend on nothing but (seed, stream, index), which is what
// lets the checks regenerate the pairs of a sampled request instead of
// keeping every sequence in memory, and what keeps the warm-up stream
// disjoint from the measured one.
func subSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64() & (1<<63 - 1))
}

func subRand(seed int64, stream string, i int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream, i)))
}

// Stream names. Measured and warm-up inputs never share a stream.
const (
	streamMeasured = "measured"
	streamWarmup   = "warmup"
)

// alignShape is the shape of one /align workload's requests.
type alignShape struct {
	PairsPerReq    int
	MinLen, MaxLen int
	X              int32
}

// alignPairs generates the pairs of request i of a stream: related pairs
// at 15% error with an exact 17-mer seed mid-read, the paper's §VI-A
// generator (seq.RandPairSet).
func alignPairs(seed int64, workload, stream string, i int, sh alignShape) []seq.Pair {
	return seq.RandPairSet(subRand(seed, workload+"/"+stream, i), seq.PairSetOptions{
		N: sh.PairsPerReq, MinLen: sh.MinLen, MaxLen: sh.MaxLen, ErrorRate: 0.15, SeedLen: 17,
	})
}

// alignBody is the POST /align body for the pairs.
func alignBody(pairs []seq.Pair, x int32) []byte {
	req := alignRequest{Pairs: make([]pairJSON, len(pairs)), X: x}
	for i, p := range pairs {
		req.Pairs[i] = pairJSON{
			Query: string(p.Query), Target: string(p.Target),
			SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen,
		}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // strings and ints always encode
	}
	return b
}

// parallelGen fills out[i] = f(i) on all cores; each index has its own
// random stream, so the result does not depend on the schedule.
func parallelGen[T any](n int, f func(i int) T) []T {
	out := make([]T, n)
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// alignBodies generates n request bodies of a stream.
func alignBodies(seed int64, workload, stream string, n int, sh alignShape) [][]byte {
	return parallelGen(n, func(i int) []byte {
		return alignBody(alignPairs(seed, workload, stream, i, sh), sh.X)
	})
}

// Read-shape constants shared by map-reads and overlap-*: the paper's
// BELLA read model (PacBio-like, 15% error).
const (
	readMinLen  = 1500
	readMaxLen  = 4500
	readErrRate = 0.15
)

// mapReference generates the reference genome of a map-reads run.
func mapReference(seed int64, length int) genome.Genome {
	return genome.Synthetic(subRand(seed, "map-reads/reference", 0), "ref0",
		genome.SyntheticOptions{Length: length, RepeatFrac: 0.02})
}

// mapReads simulates the reads of request i of a stream from the
// reference: about readsPerReq reads (the simulator stops on a coverage
// target, so the exact count is a property of the seed).
func mapReads(seed int64, ref genome.Genome, stream string, i, readsPerReq int) genome.ReadSet {
	meanLen := float64(readMinLen+readMaxLen) / 2
	return genome.Simulate(subRand(seed, "map-reads/"+stream, i), ref, genome.SimOptions{
		Coverage: float64(readsPerReq) * meanLen / float64(len(ref.Seq)),
		MinLen:   readMinLen, MaxLen: readMaxLen, ErrorRate: readErrRate,
	})
}

// overlapShape is one overlap job's read set.
type overlapShape struct {
	GenomeLen  int
	Coverage   float64
	RepeatFrac float64
}

// overlapReads simulates the read set of job i of a stream: its own
// genome, then reads at the shape's coverage.
func overlapReads(seed int64, stream string, i int, sh overlapShape) genome.ReadSet {
	rng := subRand(seed, "overlap/"+stream, i)
	g := genome.Synthetic(rng, fmt.Sprintf("g%d", i), genome.SyntheticOptions{Length: sh.GenomeLen, RepeatFrac: sh.RepeatFrac})
	return genome.Simulate(rng, g, genome.SimOptions{
		Coverage: sh.Coverage, MinLen: readMinLen, MaxLen: readMaxLen, ErrorRate: readErrRate,
	})
}

// fastaBody serializes a read set the way a client would upload it; read
// names carry the simulated provenance (read<id>_<start>_<end><strand>).
func fastaBody(rs genome.ReadSet) []byte { return fastaBytes(rs.Records()) }

func fastaBytes(recs []seq.Record) []byte {
	var buf bytes.Buffer
	if err := seq.WriteFasta(&buf, recs); err != nil {
		panic(err) // bytes.Buffer does not fail
	}
	return buf.Bytes()
}
