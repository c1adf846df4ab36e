package logan

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"logan/internal/seq"
)

// ResultCache is a bounded content-addressed cache of alignment
// results, keyed by (canonical pair digest, config key). An X-drop
// alignment is a pure function of the pair bytes, the seed placement
// and the scoring configuration, so a hit returns a result
// byte-identical to recomputation by construction — the coalescer
// consults it at admission (hits never enter the queue or the tenant
// quota) and each caller fills it before its Align returns. Safe for
// concurrent use; share one cache across every path of a process so
// /align and /jobs traffic deduplicate against each other.
type ResultCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used
}

// cacheKey addresses one cached alignment: the sha256 digest of the
// canonical pair encoding plus the comparable scoring-config key.
// BLOSUM62 matrices are interned (config.go), so the matrix pointer
// inside configKey is identity-stable across requests.
type cacheKey struct {
	digest [32]byte
	cfg    configKey
}

// cacheEntry is one LRU node.
type cacheEntry struct {
	key cacheKey
	res Alignment
}

// NewResultCache builds a cache bounded to maxEntries alignments
// (least-recently-used eviction). maxEntries <= 0 returns nil, which
// every consumer treats as "caching disabled".
func NewResultCache(maxEntries int) *ResultCache {
	if maxEntries <= 0 {
		return nil
	}
	return &ResultCache{
		max:     maxEntries,
		entries: make(map[cacheKey]*list.Element),
		lru:     list.New(),
	}
}

// Len reports the current number of cached alignments.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// get returns the cached alignment for k, marking it most recently
// used. The second result reports whether it was present.
func (c *ResultCache) get(k cacheKey) (Alignment, bool) {
	if c == nil {
		return Alignment{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return Alignment{}, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores res under k and returns how many entries were evicted to
// make room (0 or 1; 0 also covers overwriting an existing entry).
func (c *ResultCache) put(k cacheKey, res Alignment) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).res = res
		c.lru.MoveToFront(el)
		return 0
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, res: res})
	if c.lru.Len() <= c.max {
		return 0
	}
	oldest := c.lru.Back()
	c.lru.Remove(oldest)
	delete(c.entries, oldest.Value.(*cacheEntry).key)
	return 1
}

// pairDigest computes the canonical content address of a prepared pair:
// sha256 over a fixed-width little-endian header (query length, target
// length, seed coordinates, seed length) followed by the raw query and
// target bytes. Lengths are part of the header so no concatenation of
// differing splits can collide, and seed placement is included because
// X-drop extension results depend on where the extension starts.
func pairDigest(p seq.Pair) [32]byte {
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(len(p.Query)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(p.Target)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(p.SeedQPos))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(p.SeedTPos))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(p.SeedLen))
	h := sha256.New()
	h.Write(hdr[:])
	h.Write(p.Query)
	h.Write(p.Target)
	var d [32]byte
	h.Sum(d[:0])
	return d
}
