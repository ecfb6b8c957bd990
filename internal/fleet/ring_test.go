package fleet

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	return keys
}

func TestRingSpreadsKeys(t *testing.T) {
	r := NewRing(64)
	for _, s := range []string{"s0", "s1", "s2"} {
		r.Add(s)
	}
	counts := map[string]int{}
	for _, k := range ringKeys(3000) {
		owner, ok := r.Lookup(k)
		if !ok {
			t.Fatalf("no owner for %s", k)
		}
		counts[owner]++
	}
	for _, s := range []string{"s0", "s1", "s2"} {
		if counts[s] < 500 {
			t.Fatalf("shard %s owns only %d/3000 keys; ring is badly imbalanced (%v)", s, counts[s], counts)
		}
	}
}

func TestRingLookupIsDeterministic(t *testing.T) {
	build := func() *Ring {
		r := NewRing(32)
		r.Add("s2")
		r.Add("s0")
		r.Add("s1")
		return r
	}
	a, b := build(), build()
	for _, k := range ringKeys(200) {
		oa, _ := a.Lookup(k)
		ob, _ := b.Lookup(k)
		if oa != ob {
			t.Fatalf("key %s: ring A says %s, ring B says %s", k, oa, ob)
		}
	}
}

// A down shard must shed exactly its own key range: keys owned by live
// shards keep their owner, and reviving the shard restores the original
// placement bit-for-bit.
func TestRingRerouteIsLocal(t *testing.T) {
	r := NewRing(64)
	for _, s := range []string{"s0", "s1", "s2"} {
		r.Add(s)
	}
	keys := ringKeys(1000)
	before := map[string]string{}
	for _, k := range keys {
		before[k], _ = r.Lookup(k)
	}

	r.SetLive("s1", false)
	moved := 0
	for _, k := range keys {
		owner, ok := r.Lookup(k)
		if !ok {
			t.Fatalf("no owner for %s with s1 down", k)
		}
		if owner == "s1" {
			t.Fatalf("key %s routed to down shard s1", k)
		}
		if before[k] != "s1" && owner != before[k] {
			t.Fatalf("key %s moved %s -> %s although its owner never went down", k, before[k], owner)
		}
		if before[k] == "s1" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("test is vacuous: s1 owned no keys")
	}

	r.SetLive("s1", true)
	for _, k := range keys {
		owner, _ := r.Lookup(k)
		if owner != before[k] {
			t.Fatalf("key %s did not return to %s after revival (got %s)", k, before[k], owner)
		}
	}
}

func TestRingRemoveForgetsShard(t *testing.T) {
	r := NewRing(16)
	r.Add("s0")
	r.Add("s1")
	r.Remove("s0")
	for _, k := range ringKeys(100) {
		owner, ok := r.Lookup(k)
		if !ok || owner != "s1" {
			t.Fatalf("key %s: owner %q ok=%v, want s1 after removal", k, owner, ok)
		}
	}
	if shards := r.Shards(); len(shards) != 1 || !shards["s1"] {
		t.Fatalf("Shards() = %v, want only live s1", shards)
	}
	// Removing again (or an unknown shard) is a no-op.
	r.Remove("s0")
	r.Remove("nope")
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(8)
	if _, ok := r.Lookup("k"); ok {
		t.Fatal("empty ring claims an owner")
	}
}

// Successors is the replica-placement primitive: it must be
// deterministic across construction order, exclude the shard itself,
// ignore liveness (a flapping follower keeps its on-disk replica) and
// drop permanently removed shards.
func TestRingSuccessors(t *testing.T) {
	names := []string{"s0", "s1", "s2", "s3"}
	r := NewRing(32)
	for _, s := range names {
		r.Add(s)
	}
	for _, s := range names {
		succ := r.Successors(s, 2)
		if len(succ) != 2 {
			t.Fatalf("Successors(%s, 2) = %v, want 2 shards", s, succ)
		}
		seen := map[string]bool{s: true}
		for _, f := range succ {
			if seen[f] {
				t.Fatalf("Successors(%s, 2) = %v repeats a shard or includes the shard itself", s, succ)
			}
			seen[f] = true
		}
	}

	// Same membership added in a different order places identically.
	r2 := NewRing(32)
	for _, s := range []string{"s3", "s1", "s0", "s2"} {
		r2.Add(s)
	}
	for _, s := range names {
		a, b := fmt.Sprintf("%v", r.Successors(s, 2)), fmt.Sprintf("%v", r2.Successors(s, 2))
		if a != b {
			t.Fatalf("Successors(%s) depends on Add order: %s vs %s", s, a, b)
		}
	}

	// A down follower keeps its placement; a removed one loses it.
	before := fmt.Sprintf("%v", r.Successors("s0", 2))
	r.SetLive("s1", false)
	if got := fmt.Sprintf("%v", r.Successors("s0", 2)); got != before {
		t.Fatalf("marking a shard down moved replica placement: %s -> %s", before, got)
	}
	r.Remove("s1")
	for _, f := range r.Successors("s0", 3) {
		if f == "s1" {
			t.Fatal("removed shard still listed as a successor")
		}
	}
	if got := r.Successors("s0", 10); len(got) != 2 {
		t.Fatalf("Successors(s0, 10) = %v, want the 2 remaining shards", got)
	}
	if got := r.Successors("nope", 2); got != nil {
		t.Fatalf("Successors of an unknown shard = %v, want nil", got)
	}
	if got := r.Successors("s0", 0); got != nil {
		t.Fatalf("Successors(s0, 0) = %v, want nil", got)
	}
}
