package sched

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"elfetch/internal/obs"
)

// Key content-addresses a job: it hashes the JSON encoding of its parts
// (configuration, workload identity, warmup, measure, ...) so two submits
// describing the same simulation collide and the second is served from
// cache. Parts must be JSON-encodable; encoding failures fold the error
// string into the hash, which still yields a stable, collision-safe key.
func Key(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			fmt.Fprintf(h, "!err:%v", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a bounded LRU result cache keyed by content address.
type Cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List               // front = most recent
	entries map[string]*list.Element // key -> element whose Value is *cacheEntry
	bytes   int64                    // sum of entry approxSize
	hits    *obs.Counter             // elf_cache_requests_total{result="hit"}
	misses  *obs.Counter             // elf_cache_requests_total{result="miss"}
}

type cacheEntry struct {
	key   string
	value any
	size  int64 // approximate bytes: key + JSON encoding of value
}

// approxSize estimates one entry's footprint as the key length plus the
// length of the value's JSON encoding — approximate (it ignores Go object
// overhead) but cheap relative to producing the value, stable, and good
// enough to size a cache on /debug/stats. A json.Marshaler (a finished
// cell's payload holds its encoding) is sized by the bytes it returns,
// without encoding it again.
func approxSize(key string, value any) int64 {
	var b []byte
	var err error
	if m, ok := value.(json.Marshaler); ok {
		b, err = m.MarshalJSON()
	} else {
		b, err = json.Marshal(value)
	}
	if err != nil {
		b = []byte(fmt.Sprintf("%v", value))
	}
	return int64(len(key) + len(b))
}

// newCache returns an LRU cache holding at most max results (max <= 0
// selects the 512-entry default) that counts its lookups on reg. One
// family serves exec.Local and the elfd worker path (both wire their
// scheduler here), so federated views sum a single series.
func newCache(max int, reg *obs.Registry) *Cache {
	if max <= 0 {
		max = 512
	}
	lookups := func(result string) *obs.Counter {
		return reg.Counter("elf_cache_requests_total", "Result-cache lookups, by result.",
			obs.L("result", result))
	}
	return &Cache{max: max, order: list.New(), entries: make(map[string]*list.Element),
		hits: lookups("hit"), misses: lookups("miss")}
}

// Get returns the cached value for key, counting a hit or a miss.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).value, true
}

// Put stores value under key, evicting the least-recently-used entry when
// full.
func (c *Cache) Put(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := approxSize(key, value)
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += size - e.size
		e.value, e.size = value, size
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, value: value, size: size})
	c.bytes += size
	if c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		delete(c.entries, e.key)
		c.bytes -= e.size
	}
}

// Len reports the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a point-in-time cache counter snapshot.
type CacheStats struct {
	Entries int `json:"entries"`
	// Bytes approximates the live footprint (keys + JSON-encoded values).
	Bytes  int64  `json:"bytes"`
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.order.Len(), Bytes: c.bytes, Hits: c.hits.Value(), Misses: c.misses.Value()}
}
