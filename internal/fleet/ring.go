package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Ring is a consistent-hash ring mapping canonical cache keys onto shard
// names. Each shard contributes Virtual points ("virtual nodes") placed
// by hashing "<shard>#<i>", which evens out the key ranges: with v
// virtual nodes per shard the largest shard owns O(log n / v) more than
// its fair share instead of O(n). Lookups walk clockwise from the key's
// hash to the first point owned by a live shard, so marking a shard down
// reroutes exactly its key range to its ring successors and nothing else
// — the property that makes shard loss a local event instead of a fleet-
// wide reshuffle.
//
// The ring hashes with SHA-256 (truncated to 64 bits): keys are already
// hex SHA-256 content addresses, and reusing the family keeps placement
// independent of Go's randomized map/hash state — the same fleet layout
// reproduces run after run.
type Ring struct {
	mu      sync.RWMutex
	virtual int
	points  []ringPoint // sorted by hash
	live    map[string]bool
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing returns an empty ring with v virtual nodes per shard (v <= 0
// means 64, enough to keep imbalance under a few percent for small
// fleets).
func NewRing(v int) *Ring {
	if v <= 0 {
		v = 64
	}
	return &Ring{virtual: v, live: map[string]bool{}}
}

// hashPoint places one virtual node deterministically.
func hashPoint(shard string, i int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", shard, i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// hashKey places a cache key on the ring.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a shard's virtual nodes and marks it live. Adding an
// existing shard only revives it.
func (r *Ring) Add(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.live[shard]; known {
		r.live[shard] = true
		return
	}
	r.live[shard] = true
	for i := 0; i < r.virtual; i++ {
		r.points = append(r.points, ringPoint{hashPoint(shard, i), shard})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
}

// SetLive marks a shard routable or not without disturbing its ring
// points: a down shard's range flows to its successors, and flows back
// the moment it revives.
func (r *Ring) SetLive(shard string, live bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.live[shard]; known {
		r.live[shard] = live
	}
}

// Remove deletes a shard's virtual nodes entirely (permanent death, after
// journal handoff).
func (r *Ring) Remove(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.live[shard]; !known {
		return
	}
	delete(r.live, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Shards returns every known shard name, sorted, with its liveness.
func (r *Ring) Shards() map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]bool, len(r.live))
	for s, l := range r.live {
		out[s] = l
	}
	return out
}

// Successors returns up to n distinct shards that follow shard's first
// virtual point clockwise — the deterministic follower set journal
// replication ships to. Placement deliberately ignores liveness: a
// follower that is briefly down still holds its replica on disk, and
// flapping must not reshuffle where copies live. Permanently removed
// shards no longer appear. The shard itself is excluded; an unknown
// shard yields nil.
func (r *Ring) Successors(shard string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	if _, known := r.live[shard]; !known {
		return nil
	}
	h := hashPoint(shard, 0)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := map[string]bool{shard: true}
	var out []string
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		out = append(out, p.shard)
	}
	return out
}

// Lookup returns the live shard owning key, walking clockwise from the
// key's hash past points of down shards. ok is false when no live shard
// exists.
func (r *Ring) Lookup(key string) (shard string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if r.live[p.shard] {
			return p.shard, true
		}
	}
	return "", false
}
