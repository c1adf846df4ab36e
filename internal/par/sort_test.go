package par

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type rec struct {
	key uint64
	val uint64
}

// splitBuffers cuts n random width-bit keys into up to 5 buffers, some of
// them empty, with payload i for the i-th key overall. Keys come from a
// small pool half of the time, so equal keys are common.
func splitBuffers(rng *rand.Rand, n int, width uint) (keys, vals [][]uint64, all []rec) {
	mask := ^uint64(0) >> (64 - width)
	pool := make([]uint64, 1+rng.Intn(8))
	for i := range pool {
		pool[i] = rng.Uint64() & mask
	}
	small := rng.Intn(2) == 0
	for i := 0; i < n; i++ {
		k := rng.Uint64() & mask
		if small {
			k = pool[rng.Intn(len(pool))]
		}
		all = append(all, rec{k, uint64(i)})
	}
	cuts := []int{0, n}
	for range rng.Intn(5) {
		cuts = append(cuts, rng.Intn(n+1))
	}
	slices.Sort(cuts)
	for b := 1; b < len(cuts); b++ {
		var ks, vs []uint64
		for _, r := range all[cuts[b-1]:cuts[b]] {
			ks, vs = append(ks, r.key), append(vs, r.val)
		}
		keys, vals = append(keys, ks), append(vals, vs)
	}
	return keys, vals, all
}

// checkSorted compares one sort's output with slices.SortStableFunc over
// the same records: keys ascending, payload (the input ordinal) moved
// with its key, so equal keys keep their input order, and every key in
// the partition its top pbits name.
func checkSorted(t *testing.T, all []rec, sorted, moved []uint64, bounds []int, width, pbits uint, payload bool) {
	t.Helper()
	want := slices.Clone(all)
	slices.SortStableFunc(want, func(a, b rec) int { return cmp.Compare(a.key, b.key) })
	if len(sorted) != len(want) {
		t.Fatalf("%d keys, want %d", len(sorted), len(want))
	}
	if payload != (moved != nil) || (payload && len(moved) != len(want)) {
		t.Fatalf("payload %v: moved has %d values", payload, len(moved))
	}
	for i, r := range want {
		if sorted[i] != r.key || (payload && moved[i] != r.val) {
			t.Fatalf("position %d: got key %#x, want %#x (input %d)", i, sorted[i], r.key, r.val)
		}
	}
	if len(bounds) != 1<<pbits+1 || bounds[0] != 0 || bounds[len(bounds)-1] != len(sorted) {
		t.Fatalf("bounds %v for %d partitions of %d keys", bounds, 1<<pbits, len(sorted))
	}
	for p := 0; p+1 < len(bounds); p++ {
		for _, k := range sorted[bounds[p]:bounds[p+1]] {
			if k>>(width-pbits) != uint64(p) {
				t.Fatalf("key %#x in partition %d", k, p)
			}
		}
	}
}

// TestRadixSortMatchesStableSort drives the sort over every partition
// width a key width allows, key widths on both sides of each byte
// boundary, with and without a payload, 1-4 workers and input cut into
// buffers of any sizes.
func TestRadixSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []uint{1, 2, 7, 8, 9, 16, 26, 34, 63, 64} {
		for pbits := uint(0); pbits <= min(width, 16); pbits++ {
			for _, payload := range []bool{false, true} {
				t.Run(fmt.Sprintf("width=%d/pbits=%d/payload=%v", width, pbits, payload), func(t *testing.T) {
					for trial := 0; trial < 4; trial++ {
						keys, vals, all := splitBuffers(rng, rng.Intn(600), width)
						if !payload {
							vals = nil
						}
						sorted, moved, bounds := radixSort(keys, vals, width, pbits, 1+rng.Intn(4))
						checkSorted(t, all, sorted, moved, bounds, width, pbits, payload)
						for b := range keys {
							if keys[b] != nil || (payload && vals[b] != nil) {
								t.Fatalf("buffer %d not released", b)
							}
						}
					}
				})
			}
		}
	}
}

// TestRadixSortPartitions: RadixSort's own partition width, about 4096
// keys per partition, on inputs from empty to many partitions.
func TestRadixSortPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 4095, 4096, 50000} {
		for _, width := range []uint{3, 34, 64} {
			keys, vals, all := splitBuffers(rng, n, width)
			sorted, moved, bounds := RadixSort(keys, vals, width, 3)
			pbits := uint(0)
			for 1<<pbits < len(bounds)-1 {
				pbits++
			}
			if n >= 8192 && width > 3 && pbits < 2 {
				t.Fatalf("n=%d width=%d: %d partitions", n, width, len(bounds)-1)
			}
			checkSorted(t, all, sorted, moved, bounds, width, pbits, true)
		}
	}
}
