package service

import "testing"

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	ra, rb, rc := &Result{Summary: "a"}, &Result{Summary: "b"}, &Result{Summary: "c"}

	c.Put("a", ra)
	c.Put("b", rb)
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing before eviction")
	}
	c.Put("c", rc)

	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	if got, ok := c.Get("a"); !ok || got.res != ra {
		t.Error("a evicted despite recent use")
	}
	if got, ok := c.Get("c"); !ok || got.res != rc {
		t.Error("c missing right after insert")
	}
	if c.Len() != 2 {
		t.Errorf("Len() = %d, want 2", c.Len())
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := newResultCache(2)
	c.Put("k", &Result{Summary: "old"})
	c.Put("k", &Result{Summary: "new"})
	if c.Len() != 1 {
		t.Fatalf("Len() = %d after double Put, want 1", c.Len())
	}
	if got, _ := c.Get("k"); got.res.Summary != "new" {
		t.Errorf("Get returned %q, want the updated result", got.res.Summary)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.Put("k", &Result{})
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Errorf("Len() = %d on disabled cache", c.Len())
	}
}
