package par

import "math/bits"

// RadixSort sorts the keys held in keys, taken as one sequence in buffer
// order, ascending and stably: equal keys keep their input order. When
// vals is not nil it holds one payload per key (vals[b] at least as long
// as keys[b]), and each payload moves with its key. Every key must be
// below 1<<width.
//
// The buffers are typically the per-worker output of a Range pass and are
// scattered directly, with no concatenation copy: a histogram of each
// buffer's top key bits places every (buffer, partition) block in one
// shared array, so afterwards partition p holds, contiguously, all keys
// with top bits p. Partitions are sized to stay in cache, about 4096 keys
// each when keys are uniform, or down to 512 when up to 3 more partition
// bits leave the rest a whole number of bytes, which saves a pass. Each
// is finished on its own by stable byte-wise LSD counting passes over its
// remaining bits. Partition p is sorted[bounds[p]:bounds[p+1]], so
// callers can post-process partitions in parallel too. The result does
// not depend on workers.
//
// RadixSort consumes its input: it sets keys[b] and vals[b] to nil once
// buffer b is scattered, so the buffers can be collected while the
// partitions sort.
func RadixSort[K ~uint64](keys [][]K, vals [][]uint64, width uint, workers int) (sorted []K, moved []uint64, bounds []int) {
	total := 0
	for _, b := range keys {
		total += len(b)
	}
	pbits := min(uint(bits.Len(uint(total>>12))), 16, width)
	if r := (width - pbits) % 8; r <= 3 && pbits+r <= 16 {
		pbits += r
	}
	return radixSort(keys, vals, width, pbits, workers)
}

// radixSort is RadixSort with the partition width chosen by the caller:
// 2^pbits partitions on the top pbits of the width-bit keys.
func radixSort[K ~uint64](keys [][]K, vals [][]uint64, width, pbits uint, workers int) ([]K, []uint64, []int) {
	nparts, shift := 1<<pbits, width-pbits
	next := make([][]int, len(keys)) // next[b][p]: where buffer b writes its next partition-p key
	Range(len(keys), workers, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			next[b] = make([]int, nparts)
			for _, k := range keys[b] {
				next[b][k>>shift]++
			}
		}
	})
	bounds := make([]int, nparts+1)
	total := 0
	for p := 0; p < nparts; p++ {
		bounds[p] = total
		for b := range next {
			next[b][p], total = total, total+next[b][p]
		}
	}
	bounds[nparts] = total
	sorted := make([]K, total)
	var moved []uint64
	if vals != nil {
		moved = make([]uint64, total)
	}
	Range(len(keys), workers, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			var sv []uint64
			if vals != nil {
				sv, vals[b] = vals[b], nil
			}
			scatter(sorted, moved, keys[b], sv, next[b], shift)
			keys[b] = nil
		}
	})
	Range(nparts, workers, func(_, lo, hi int) {
		var s lsdScratch[K]
		for p := lo; p < hi; p++ {
			a, b := bounds[p], bounds[p+1]
			if moved == nil {
				s.sort(sorted[a:b], nil, shift)
			} else {
				s.sort(sorted[a:b], moved[a:b], shift)
			}
		}
	})
	return sorted, moved, bounds
}

// scatter moves each key of src, and its payload from sv when sv is not
// nil, to dst (and dv) at at[p] for its partition p = k>>shift, advancing
// at[p]. It is a function of its own, never inlined, so that the loop
// keeps its state in registers.
//
//go:noinline
func scatter[K ~uint64](dst []K, dv []uint64, src []K, sv []uint64, at []int, shift uint) {
	if sv == nil {
		for _, k := range src {
			dst[at[k>>shift]] = k
			at[k>>shift]++
		}
		return
	}
	sv = sv[:len(src)]
	for i, k := range src {
		p := k >> shift
		dst[at[p]], dv[at[p]] = k, sv[i]
		at[p]++
	}
}

// lsdScratch is one worker's reusable buffers for the LSD passes.
type lsdScratch[K ~uint64] struct {
	keys []K
	vals []uint64
}

// sort sorts a ascending, given that its keys differ only in their low
// width bits, with stable byte-wise counting passes; v, when not nil,
// moves with a.
func (s *lsdScratch[K]) sort(a []K, v []uint64, width uint) {
	if len(a) < 2 {
		return
	}
	if len(s.keys) < len(a) {
		s.keys = make([]K, len(a))
	}
	src, dst := a, s.keys[:len(a)]
	vsrc, vdst := v, []uint64(nil)
	if v != nil {
		if len(s.vals) < len(v) {
			s.vals = make([]uint64, len(v))
		}
		vdst = s.vals[:len(v)]
	}
	for sh := uint(0); sh < width; sh += 8 {
		if bytePass(dst, vdst, src, vsrc, sh) {
			src, dst = dst, src
			vsrc, vdst = vdst, vsrc
		}
	}
	if &src[0] != &a[0] {
		copy(a, src)
		copy(v, vsrc)
	}
}

// bytePass is one stable counting pass on the byte of the keys at bit sh:
// it moves src to dst, and sv (when not nil) to dv, in order of that
// byte. When every key has the same byte there it moves nothing and
// returns false.
func bytePass[K ~uint64](dst []K, dv []uint64, src []K, sv []uint64, sh uint) bool {
	var cnt [256]int
	for _, k := range src {
		cnt[(k>>sh)&255]++
	}
	if cnt[(src[0]>>sh)&255] == len(src) {
		return false
	}
	sum := 0
	for d, n := range cnt {
		cnt[d], sum = sum, sum+n
	}
	if sv == nil {
		for _, k := range src {
			d := (k >> sh) & 255
			dst[cnt[d]] = k
			cnt[d]++
		}
		return true
	}
	sv = sv[:len(src)]
	for i, k := range src {
		d := (k >> sh) & 255
		dst[cnt[d]], dv[cnt[d]] = k, sv[i]
		cnt[d]++
	}
	return true
}
