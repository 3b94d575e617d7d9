package serve

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// entry is one cached query response.
type entry struct {
	Key    string
	Body   []byte
	Digest string
}

// Cache is the hot-pair LRU in front of the backend: a bounded map from
// canonical query key to marshaled response. Query popularity is zipfian —
// operators watch the same few pairs — so a small cache absorbs most of
// the load; the metrics let the alert engine notice when it stops doing so
// (serve_cache_collapse).
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recent
	items map[string]*list.Element

	hitsC    *obs.Counter
	missesC  *obs.Counter
	evictC   *obs.Counter
	entriesG *obs.Gauge
}

// NewCache returns an LRU bounded to max entries. max <= 0 disables
// caching: every Get misses and Put is a no-op (the cache-off arm of the
// benchmark).
func NewCache(max int) *Cache {
	return &Cache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Instrument registers the cache metrics on reg.
func (c *Cache) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.hitsC = reg.Counter(MetricCacheHits, "query responses served from the hot-pair cache")
	c.missesC = reg.Counter(MetricCacheMisses, "query responses computed from the store")
	c.evictC = reg.Counter(MetricCacheEvictions, "cache entries evicted by the LRU bound")
	c.entriesG = reg.Gauge(MetricCacheEntries, "cache entries resident")
}

// Get returns the cached response for key and marks it most recent.
func (c *Cache) Get(key string) (body []byte, digest string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.missesC.Inc()
		return nil, "", false
	}
	c.hitsC.Inc()
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	return e.Body, e.Digest, true
}

// Put inserts (or refreshes) a response, evicting from the cold end to
// stay within the bound.
func (c *Cache) Put(key string, body []byte, digest string) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*entry)
		e.Body, e.Digest = body, digest
		return
	}
	c.items[key] = c.ll.PushFront(&entry{Key: key, Body: body, Digest: digest})
	for c.ll.Len() > c.max {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		delete(c.items, cold.Value.(*entry).Key)
		c.evictC.Inc()
	}
	c.entriesG.Set(float64(c.ll.Len()))
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Keys returns the resident keys from most to least recently used.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).Key)
	}
	return keys
}
