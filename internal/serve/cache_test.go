package serve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

func body(s string) ([]byte, string) {
	b := []byte(s)
	return b, Digest(b)
}

func TestCacheEvictionOrder(t *testing.T) {
	c := NewCache(3)
	for _, k := range []string{"a", "b", "c"} {
		b, d := body(k)
		c.Put(k, b, d)
	}
	// Recency now c > b > a; touching a moves it to the front.
	if _, _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"a", "c", "b"}) {
		t.Fatalf("keys after touch = %v", got)
	}
	// Inserting d must evict the coldest entry: b, not a.
	bd, dd := body("d")
	c.Put("d", bd, dd)
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"d", "a", "c"}) {
		t.Fatalf("keys after eviction = %v", got)
	}
	if _, _, ok := c.Get("b"); ok {
		t.Fatal("evicted entry still resident")
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
}

func TestCacheBound(t *testing.T) {
	const max = 8
	c := NewCache(max)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		b, d := body(k)
		c.Put(k, b, d)
		if c.Len() > max {
			t.Fatalf("cache grew to %d > bound %d", c.Len(), max)
		}
	}
	if c.Len() != max {
		t.Fatalf("len = %d, want %d", c.Len(), max)
	}
	// Refreshing an existing key must not evict.
	k := c.Keys()[0]
	b, d := body("refreshed")
	c.Put(k, b, d)
	if c.Len() != max {
		t.Fatalf("refresh changed len to %d", c.Len())
	}
	if got, dig, ok := c.Get(k); !ok || string(got) != "refreshed" || dig != d {
		t.Fatalf("refresh lost: ok=%t body=%q", ok, got)
	}
}

func TestCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(2)
	c.Instrument(reg)
	b, d := body("x")
	c.Put("x", b, d)
	c.Get("x")    // hit
	c.Get("nope") // miss
	c.Put("y", b, d)
	c.Put("z", b, d) // evicts x
	c.Get("x")       // miss after eviction

	snap := reg.Snapshot()
	if got := snap.Counters[MetricCacheHits]; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := snap.Counters[MetricCacheMisses]; got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
	if got := snap.Counters[MetricCacheEvictions]; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := snap.Gauges[MetricCacheEntries]; got != 2 {
		t.Fatalf("entries gauge = %v, want 2", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	b, d := body("x")
	c.Put("x", b, d)
	if _, _, ok := c.Get("x"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatalf("disabled cache holds %d entries", c.Len())
	}
}

// TestCacheConcurrent hammers the cache from many goroutines; run under
// -race it asserts the locking, and the bound must hold throughout.
func TestCacheConcurrent(t *testing.T) {
	const max = 16
	c := NewCache(max)
	c.Instrument(obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%40)
				if i%3 == 0 {
					b, d := body(k)
					c.Put(k, b, d)
				} else if bodyB, dig, ok := c.Get(k); ok {
					if Digest(bodyB) != dig {
						t.Errorf("corrupt entry %s", k)
						return
					}
				}
				if n := c.Len(); n > max {
					t.Errorf("bound violated: %d > %d", n, max)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
