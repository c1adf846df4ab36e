package logan

import "testing"

// TestResultCacheLRU pins the bounded-LRU mechanics: capacity, recency
// refresh on get, eviction of the least recently used entry, and the
// nil-cache (disabled) behavior.
func TestResultCacheLRU(t *testing.T) {
	if NewResultCache(0) != nil || NewResultCache(-1) != nil {
		t.Fatal("non-positive capacity must disable caching")
	}
	var off *ResultCache
	if off.Len() != 0 {
		t.Fatal("nil cache Len")
	}
	if _, ok := off.get(cacheKey{}); ok {
		t.Fatal("nil cache hit")
	}
	if off.put(cacheKey{}, Alignment{}) != 0 {
		t.Fatal("nil cache eviction")
	}

	c := NewResultCache(2)
	k := func(b byte) cacheKey {
		var key cacheKey
		key.digest[0] = b
		return key
	}
	if ev := c.put(k(1), Alignment{Score: 1}); ev != 0 {
		t.Fatalf("put 1 evicted %d", ev)
	}
	if ev := c.put(k(2), Alignment{Score: 2}); ev != 0 {
		t.Fatalf("put 2 evicted %d", ev)
	}
	// Touch 1 so 2 becomes the LRU victim.
	if r, ok := c.get(k(1)); !ok || r.Score != 1 {
		t.Fatalf("get 1: %+v ok %v", r, ok)
	}
	if ev := c.put(k(3), Alignment{Score: 3}); ev != 1 {
		t.Fatalf("put 3 evicted %d, want 1", ev)
	}
	if _, ok := c.get(k(2)); ok {
		t.Fatal("LRU entry 2 not evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("recently used entry 1 evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len %d, want 2", c.Len())
	}
	// Overwrite is not an eviction.
	if ev := c.put(k(1), Alignment{Score: 10}); ev != 0 {
		t.Fatalf("overwrite evicted %d", ev)
	}
	if r, _ := c.get(k(1)); r.Score != 10 {
		t.Fatalf("overwrite lost: %+v", r)
	}
}

// TestPairDigestCanonical: the content address must separate everything
// an X-drop result depends on — sequence bytes, their split, and the
// seed placement — and nothing else (same content, same digest).
func TestPairDigestCanonical(t *testing.T) {
	base := func() Pair {
		return Pair{Query: []byte("ACGTACGTACGT"), Target: []byte("ACGTACGTACGT"), SeedQ: 2, SeedT: 2, SeedLen: 4}
	}
	prep := func(p Pair) [32]byte {
		in, err := cfgT.ingestPair(&p, 0)
		if err != nil {
			t.Fatal(err)
		}
		return pairDigest(in)
	}
	d0 := prep(base())
	if d0 != prep(base()) {
		t.Fatal("identical pairs digest differently")
	}
	mut := base()
	mut.SeedQ = 3
	if d0 == prep(mut) {
		t.Fatal("seed placement not part of the digest")
	}
	mut = base()
	mut.Query = []byte("ACGTACGTACGA")
	if d0 == prep(mut) {
		t.Fatal("query bytes not part of the digest")
	}
	// Length-header check: moving a byte across the query/target boundary
	// must change the address even though the concatenation is equal.
	a := Pair{Query: []byte("ACGTA"), Target: []byte("CGT"), SeedQ: 0, SeedT: 0, SeedLen: 2}
	b := Pair{Query: []byte("ACGT"), Target: []byte("ACGT"), SeedQ: 0, SeedT: 0, SeedLen: 2}
	if prep(a) == prep(b) {
		t.Fatal("query/target split not part of the digest")
	}
}

// TestCoalescerCacheBitIdentical is the differential acceptance test of
// the result cache: for linear, affine and BLOSUM62 configurations, a
// repeated request must be served from the cache (no second engine
// batch) with results byte-identical to both the first coalesced run and
// a direct engine computation.
func TestCoalescerCacheBitIdentical(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 64, Cache: NewResultCache(1024)})
	defer coal.Close()

	cases := []struct {
		name  string
		cfg   Config
		pairs []Pair
	}{
		{"linear", DefaultConfig(50), makePairsSeed(6, 21)},
		{"affine", Config{X: 50, Scoring: AffineScoring(1, -1, -2, -1)}, makePairsSeed(6, 22)},
		{"blosum62", Config{X: 40, Scoring: MatrixScoring(Blosum62(-6))}, makeProteinPairs(6, 23)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct, _, err := eng.Align(ctxb, tc.pairs, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := coal.Metrics()
			first, _, err := coal.Align(ctxb, tc.pairs, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			mid := coal.Metrics()
			if misses := mid.CacheMisses - before.CacheMisses; misses != int64(len(tc.pairs)) {
				t.Fatalf("first run: %d cache misses, want %d", misses, len(tc.pairs))
			}
			second, st, err := coal.Align(ctxb, tc.pairs, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			after := coal.Metrics()
			if hits := after.CacheHits - mid.CacheHits; hits != int64(len(tc.pairs)) {
				t.Fatalf("second run: %d cache hits, want %d", hits, len(tc.pairs))
			}
			if after.MergedPairs != mid.MergedPairs {
				t.Fatalf("second run reached the engine: merged pairs %d -> %d", mid.MergedPairs, after.MergedPairs)
			}
			if st.Pairs != len(tc.pairs) {
				t.Fatalf("cached stats %+v, want %d pairs", st, len(tc.pairs))
			}
			for i := range direct {
				if first[i] != direct[i] {
					t.Fatalf("pair %d: coalesced %+v != direct %+v", i, first[i], direct[i])
				}
				if second[i] != direct[i] {
					t.Fatalf("pair %d: cached %+v != direct %+v (bit-identity broken)", i, second[i], direct[i])
				}
			}
		})
	}
}

// TestCoalescerCachePartialHit: a request overlapping a cached one is
// answered with its hits pre-filled and only the misses computed, and
// the merged result and its cell count are position-exact and
// bit-identical to a cold engine run.
func TestCoalescerCachePartialHit(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 64, Cache: NewResultCache(1024)})
	defer coal.Close()

	pairs := makePairsSeed(6, 31)
	direct, _, err := eng.Align(ctxb, pairs, cfgT)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coal.Align(ctxb, pairs[0:4], cfgT); err != nil {
		t.Fatal(err)
	}
	before := coal.Metrics()
	// pairs[2:6]: two cached, two fresh — and reversed order inside the
	// request must not matter for addressing, so flip them.
	req := []Pair{pairs[5], pairs[2], pairs[3], pairs[4]}
	want := []Alignment{direct[5], direct[2], direct[3], direct[4]}
	got, st, err := coal.Align(ctxb, req, cfgT)
	if err != nil {
		t.Fatal(err)
	}
	after := coal.Metrics()
	if hits := after.CacheHits - before.CacheHits; hits != 2 {
		t.Fatalf("partial request: %d hits, want 2", hits)
	}
	if misses := after.CacheMisses - before.CacheMisses; misses != 2 {
		t.Fatalf("partial request: %d misses, want 2", misses)
	}
	var cells int64
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %+v != %+v", i, got[i], want[i])
		}
		cells += want[i].Cells
	}
	if st.Pairs != 4 || st.Cells != cells {
		t.Fatalf("stats %+v, want 4 pairs and the cold run's %d cells", st, cells)
	}
	// The two fresh pairs are now cached too: repeating the request is
	// all hits.
	if _, _, err := coal.Align(ctxb, req, cfgT); err != nil {
		t.Fatal(err)
	}
	final := coal.Metrics()
	if hits := final.CacheHits - after.CacheHits; hits != 4 {
		t.Fatalf("repeat: %d hits, want 4", hits)
	}
}

// TestCoalescerCacheEviction: a cache smaller than the working set
// counts LRU evictions in the coalescer metrics.
func TestCoalescerCacheEviction(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 64, Cache: NewResultCache(3)})
	defer coal.Close()
	if _, _, err := coal.Align(ctxb, makePairsSeed(8, 41), cfgT); err != nil {
		t.Fatal(err)
	}
	m := coal.Metrics()
	if m.CacheEvictions != 5 {
		t.Fatalf("metrics %+v: want 5 evictions from an 8-pair fill of a 3-entry cache", m)
	}
}

// BenchmarkCacheServe compares the cache hit path against recomputation
// of the same request: "hit" serves a warm repeated request entirely
// from the result cache, "recompute" runs the identical pairs straight
// on the engine. The ratio of the two is the cache speedup.
func BenchmarkCacheServe(b *testing.B) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 64, Cache: NewResultCache(1 << 12)})
	defer coal.Close()
	pairs := makePairsSeed(32, 51)
	if _, _, err := coal.Align(ctxb, pairs, cfgT); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := coal.Align(ctxb, pairs, cfgT); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.Align(ctxb, pairs, cfgT); err != nil {
				b.Fatal(err)
			}
		}
	})
}
