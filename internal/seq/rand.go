package seq

import "math/rand"

// RandSeq returns a uniformly random ACGT sequence of length n drawn
// from rng. The generator is deterministic for a seeded rng, which the
// experiment harness relies on for reproducibility.
func RandSeq(rng *rand.Rand, n int) Seq {
	out := make(Seq, n)
	for i := range out {
		out[i] = Alphabet[rng.Intn(4)]
	}
	return out
}

// ErrorProfile describes a sequencing-error channel. Rates are per-base
// probabilities; they partition the total error rate into substitutions,
// insertions and deletions. Long-read (PacBio CLR) error profiles are
// indel-heavy; the paper's synthetic 100K-pair set uses a ~15% total rate.
type ErrorProfile struct {
	Sub float64 // substitution probability per base
	Ins float64 // insertion probability per base
	Del float64 // deletion probability per base
}

// Total returns the combined per-base error rate.
func (p ErrorProfile) Total() float64 { return p.Sub + p.Ins + p.Del }

// PacBioProfile returns an indel-heavy profile with the given total error
// rate split 1:4:4 among substitutions, insertions and deletions, the
// commonly cited CLR decomposition BELLA's model assumes.
func PacBioProfile(total float64) ErrorProfile {
	return ErrorProfile{Sub: total * 1.0 / 9.0, Ins: total * 4.0 / 9.0, Del: total * 4.0 / 9.0}
}

// UniformProfile splits the total error rate evenly across the three kinds.
func UniformProfile(total float64) ErrorProfile {
	return ErrorProfile{Sub: total / 3, Ins: total / 3, Del: total / 3}
}

// Mutate passes s through the error channel and returns the corrupted copy.
// Each position independently suffers a substitution (to a different base),
// an insertion of a random base before it, or a deletion.
func Mutate(rng *rand.Rand, s Seq, p ErrorProfile) Seq {
	out := make(Seq, 0, len(s)+len(s)/8)
	for i := 0; i < len(s); i++ {
		r := rng.Float64()
		switch {
		case r < p.Del:
			continue // base dropped
		case r < p.Del+p.Ins:
			out = append(out, Alphabet[rng.Intn(4)])
			out = append(out, s[i])
		case r < p.Del+p.Ins+p.Sub:
			c := s[i]
			nc := Alphabet[rng.Intn(4)]
			for nc == c {
				nc = Alphabet[rng.Intn(4)]
			}
			out = append(out, nc)
		default:
			out = append(out, s[i])
		}
	}
	return out
}

// Pair is one alignment work item: a query/target pair with a seed match
// (position in each sequence plus length), the unit LOGAN's host code
// batches onto the GPU.
type Pair struct {
	Query, Target      Seq
	SeedQPos, SeedTPos int
	SeedLen            int
	ID                 int
}

// PairSetOptions parameterizes RandPairSet.
type PairSetOptions struct {
	N           int           // number of pairs
	MinLen      int           // minimum read length
	MaxLen      int           // maximum read length
	ErrorRate   float64       // total per-base error rate between pair members
	SeedLen     int           // length of the exact seed planted at the seed position
	FracRelated float64       // fraction of pairs that truly overlap (rest are random)
	Profile     *ErrorProfile // optional explicit profile; defaults to PacBio split
	// SeedPosFrac places the seed at this fraction of the read length
	// (0 = default 0.5, mid-read). Overlap workloads put seeds near the
	// read starts, which makes the extensions sweep most of the matrix.
	SeedPosFrac float64
}

// RandPairSet generates the synthetic alignment workload the paper's
// evaluation uses: N read pairs with lengths in [MinLen, MaxLen] and the
// given error rate between the two members of each pair (paper §VI-A:
// 100K pairs, 2,500-7,500 bases, ~15% error). A FracRelated < 1 mixes in
// unrelated pairs, exercising X-drop's early-termination path.
func RandPairSet(rng *rand.Rand, opt PairSetOptions) []Pair {
	if opt.MinLen <= 0 || opt.MaxLen < opt.MinLen {
		panic("seq: invalid length range")
	}
	if opt.SeedLen <= 0 {
		opt.SeedLen = 17
	}
	prof := PacBioProfile(opt.ErrorRate)
	if opt.Profile != nil {
		prof = *opt.Profile
	}
	if opt.FracRelated == 0 {
		opt.FracRelated = 1
	}
	if opt.SeedPosFrac == 0 {
		opt.SeedPosFrac = 0.5
	}
	if opt.SeedPosFrac < 0 {
		opt.SeedPosFrac = 0
	}
	if opt.SeedPosFrac > 1 {
		opt.SeedPosFrac = 1
	}
	pairs := make([]Pair, 0, opt.N)
	for i := 0; i < opt.N; i++ {
		ln := opt.MinLen
		if opt.MaxLen > opt.MinLen {
			ln = opt.MinLen + rng.Intn(opt.MaxLen-opt.MinLen+1)
		}
		related := rng.Float64() < opt.FracRelated
		var q, t Seq
		var sq, st int
		if related {
			base := RandSeq(rng, ln)
			q = base
			t = Mutate(rng, base, prof)
			if len(t) < opt.SeedLen {
				t = RandSeq(rng, opt.SeedLen)
			}
			// Plant an exact seed at the configured position, as
			// BELLA's binning would produce.
			sq = int(float64(len(q)) * opt.SeedPosFrac)
			if sq+opt.SeedLen > len(q) {
				sq = max(0, len(q)-opt.SeedLen)
			}
			st = min(sq, len(t)-opt.SeedLen)
			if st < 0 {
				st = 0
			}
			copy(t[st:st+opt.SeedLen], q[sq:sq+opt.SeedLen])
		} else {
			q = RandSeq(rng, ln)
			t = RandSeq(rng, ln)
			sq = int(float64(len(q)) * opt.SeedPosFrac)
			st = int(float64(len(t)) * opt.SeedPosFrac)
			if sq+opt.SeedLen > len(q) {
				sq = max(0, len(q)-opt.SeedLen)
			}
			if st+opt.SeedLen > len(t) {
				st = max(0, len(t)-opt.SeedLen)
			}
			copy(t[st:st+opt.SeedLen], q[sq:sq+opt.SeedLen])
		}
		pairs = append(pairs, Pair{Query: q, Target: t, SeedQPos: sq, SeedTPos: st, SeedLen: opt.SeedLen, ID: i})
	}
	return pairs
}
