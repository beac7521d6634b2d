// The selection cache: tuning queries are extremely repetitive — a cluster
// scheduler asks about the same (model, nodes, ppn, msize) instances over
// and over — so answered selections are kept in a sharded LRU. Sharding
// bounds lock contention (each shard has its own mutex and list), the
// per-shard capacity bounds memory, and the registry generation in the key
// makes hot-reloaded models miss naturally instead of serving stale
// decisions.

package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"mpicollpred/internal/core"
)

// CacheKey identifies one answered selection.
type CacheKey struct {
	// Gen is the model registry generation; a hot reload bumps it, so
	// entries from replaced models can never be returned again.
	Gen   uint64
	Model string
	Nodes int
	PPN   int
	Msize int64
}

// hash mixes the key fields FNV-1a style into a shard selector.
func (k CacheKey) hash() uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(k.Gen)
	for i := 0; i < len(k.Model); i++ {
		h ^= uint64(k.Model[i])
		h *= prime
	}
	mix(uint64(k.Nodes))
	mix(uint64(k.PPN))
	mix(uint64(k.Msize))
	return h
}

// SelectionCache is a sharded LRU over answered selections, safe for
// concurrent use.
type SelectionCache struct {
	shards []cacheShard
	mask   uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheShard struct {
	mu  sync.Mutex
	ll  *list.List // front = most recently used
	ent map[CacheKey]*list.Element
	cap int
}

type cacheEntry struct {
	key CacheKey
	val core.Prediction
}

// NewSelectionCache builds a cache of roughly `capacity` total entries
// spread over `shards` shards (rounded up to a power of two; minimum one
// shard, one entry per shard). A zero or negative capacity disables caching:
// Get always misses and Put is a no-op.
func NewSelectionCache(capacity, shards int) *SelectionCache {
	if capacity <= 0 {
		return &SelectionCache{}
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &SelectionCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].ent = make(map[CacheKey]*list.Element, perShard)
		c.shards[i].cap = perShard
	}
	return c
}

// Get returns the cached selection for the key, if present, and books a hit
// or miss.
func (c *SelectionCache) Get(k CacheKey) (core.Prediction, bool) {
	if len(c.shards) == 0 {
		c.misses.Add(1)
		return core.Prediction{}, false
	}
	s := &c.shards[k.hash()&c.mask]
	s.mu.Lock()
	el, ok := s.ent[k]
	if ok {
		s.ll.MoveToFront(el)
		val := el.Value.(*cacheEntry).val
		s.mu.Unlock()
		c.hits.Add(1)
		return val, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return core.Prediction{}, false
}

// Put stores a selection, evicting the shard's least recently used entry at
// capacity.
func (c *SelectionCache) Put(k CacheKey, v core.Prediction) {
	if len(c.shards) == 0 {
		return
	}
	s := &c.shards[k.hash()&c.mask]
	s.mu.Lock()
	if el, ok := s.ent[k]; ok {
		el.Value.(*cacheEntry).val = v
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	evicted := false
	if s.ll.Len() >= s.cap {
		back := s.ll.Back()
		if back != nil {
			delete(s.ent, back.Value.(*cacheEntry).key)
			s.ll.Remove(back)
			evicted = true
		}
	}
	s.ent[k] = s.ll.PushFront(&cacheEntry{key: k, val: v})
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// Len returns the current number of cached entries across all shards.
func (c *SelectionCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns the lifetime hit/miss/eviction counters.
func (c *SelectionCache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
