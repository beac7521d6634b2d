package serve

import (
	"fmt"
	"sync"
	"testing"

	"mpicollpred/internal/core"
)

func ck(model string, n int) CacheKey {
	return CacheKey{Gen: 1, Model: model, Nodes: n, PPN: 4, Msize: 1024}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewSelectionCache(8, 1)
	if _, ok := c.Get(ck("m", 2)); ok {
		t.Fatal("hit on empty cache")
	}
	want := core.Prediction{ConfigID: 7, Label: "ring"}
	c.Put(ck("m", 2), want)
	got, ok := c.Get(ck("m", 2))
	if !ok || got.ConfigID != 7 || got.Label != "ring" {
		t.Fatalf("got %+v, %v", got, ok)
	}
	// Different generation, model, or instance are all distinct keys.
	if _, ok := c.Get(CacheKey{Gen: 2, Model: "m", Nodes: 2, PPN: 4, Msize: 1024}); ok {
		t.Fatal("generation ignored in the key")
	}
	if _, ok := c.Get(ck("other", 2)); ok {
		t.Fatal("model ignored in the key")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("stats: %d hits, %d misses", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewSelectionCache(3, 1) // single shard, capacity 3
	for n := 1; n <= 3; n++ {
		c.Put(ck("m", n), core.Prediction{ConfigID: n})
	}
	// Touch 1 so 2 becomes the least recently used.
	if _, ok := c.Get(ck("m", 1)); !ok {
		t.Fatal("1 missing")
	}
	c.Put(ck("m", 4), core.Prediction{ConfigID: 4})
	if _, ok := c.Get(ck("m", 2)); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, n := range []int{1, 3, 4} {
		if _, ok := c.Get(ck("m", n)); !ok {
			t.Fatalf("%d evicted, want it kept", n)
		}
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("%d evictions, want 1", ev)
	}
	if c.Len() != 3 {
		t.Fatalf("len %d", c.Len())
	}
	// Updating an existing key must not evict.
	c.Put(ck("m", 4), core.Prediction{ConfigID: 44})
	if got, _ := c.Get(ck("m", 4)); got.ConfigID != 44 {
		t.Fatalf("update lost: %+v", got)
	}
	if c.Len() != 3 {
		t.Fatalf("len %d after update", c.Len())
	}
}

func TestCacheSharding(t *testing.T) {
	c := NewSelectionCache(1000, 5)
	if len(c.shards) != 8 {
		t.Fatalf("5 shards rounded to %d, want 8", len(c.shards))
	}
	for n := 0; n < 500; n++ {
		c.Put(ck("m", n), core.Prediction{ConfigID: n})
	}
	present := 0
	for n := 0; n < 500; n++ {
		if p, ok := c.Get(ck("m", n)); ok {
			if p.ConfigID != n {
				t.Fatalf("key %d returned %d", n, p.ConfigID)
			}
			present++
		}
	}
	// 500 entries across 8 shards of 125: nothing should have been evicted.
	if present != 500 {
		t.Fatalf("only %d/500 present", present)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewSelectionCache(0, 4)
	c.Put(ck("m", 2), core.Prediction{ConfigID: 1})
	if _, ok := c.Get(ck("m", 2)); ok {
		t.Fatal("disabled cache returned a value")
	}
	if c.Len() != 0 || len(c.shards) != 0 {
		t.Fatal("disabled cache holds state")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewSelectionCache(256, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := ck(fmt.Sprintf("m%d", w%2), i%64)
				if i%3 == 0 {
					c.Put(k, core.Prediction{ConfigID: i % 64})
				} else if p, ok := c.Get(k); ok && p.ConfigID != i%64 {
					t.Errorf("key %+v returned %d", k, p.ConfigID)
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses, _ := c.Stats()
	if hits+misses == 0 {
		t.Fatal("no traffic recorded")
	}
}
