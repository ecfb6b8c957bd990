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

// cacheEntry is one cached result. It is immutable once stored, so a job
// the entry serves keeps its key, result and bytes without a copy.
type cacheEntry struct {
	key string
	res *Result
	// view is res as WriteJSON writes it in a job view (memberJSON),
	// built once when the entry is stored; nil when res does not encode.
	view []byte
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

// Get returns the entry cached under key, refreshing its recency. A
// caller that keeps the entry's key keeps that copy, so the one it looked
// up with can be collected.
func (c *resultCache) Get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// Put stores a result under key, encoding it once, and returns the new
// entry; it evicts the least recently used entry when the cache is full.
// With caching disabled it stores nothing and returns nil.
func (c *resultCache) Put(key string, res *Result) *cacheEntry {
	if c.cap <= 0 {
		return nil
	}
	e := &cacheEntry{key: key, res: res, view: memberJSON(res)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return e
	}
	c.items[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	return e
}

// Len returns the current entry count.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
