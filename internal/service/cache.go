package service

import (
	"container/list"
	"sync"
)

// resultCache is a content-addressed LRU over completed job results. Keys
// are canonical spec hashes (see Canonicalize), so the cache can only ever
// serve a result to a spec that describes the exact same deterministic
// simulation — which is what makes a hit indistinguishable from a rerun,
// except that it answers in microseconds instead of seconds.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *Result
}

// newResultCache returns a cache holding at most capacity results; a
// non-positive capacity disables caching entirely (every Get misses).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: map[string]*list.Element{},
	}
}

// Get returns the cached result for key and the entry's own copy of the
// key, refreshing its recency. A caller that keeps the key keeps that
// copy, so the one it looked up with can be collected.
func (c *resultCache) Get(key string) (*Result, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, "", false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.res, e.key, true
}

// Put stores a result under key, evicting the least recently used entry
// when the cache is full.
func (c *resultCache) Put(key string, res *Result) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the current entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
