// Package game defines the cooperative-game abstraction the Shapley engine
// operates on, together with a collection of classical games with
// closed-form Shapley values used to validate every estimator, and utility
// wrappers (caching, evaluation counting) shared by the machine-learning
// valuation substrate.
//
// A cooperative game is a pair (N, U) of a player set N = {0, …, n−1} and a
// characteristic (utility) function U: 2^N → ℝ. In data valuation the
// players are training points and U(S) is the test performance of a model
// trained on S; nothing in the Shapley engine depends on that
// interpretation, which is why the paper's algorithms also apply to general
// games (paper §I).
package game

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dynshap/internal/bitset"
)

// Game is a cooperative game with a fixed player set.
//
// Implementations must be safe for concurrent Value calls; the engine's
// parallel samplers evaluate coalitions from many goroutines.
type Game interface {
	// N returns the number of players.
	N() int
	// Value returns the utility U(S) of the coalition S.
	// S must have capacity N().
	Value(s bitset.Set) float64
}

// Func adapts a plain function to the Game interface.
type Func struct {
	Players int
	U       func(s bitset.Set) float64
}

// N implements Game.
func (f Func) N() int { return f.Players }

// Value implements Game.
func (f Func) Value(s bitset.Set) float64 { return f.U(s) }

// ExactShapley is implemented by games whose Shapley values are known in
// closed form. The test suite uses it to validate estimators independently
// of the exact enumerator.
type ExactShapley interface {
	// ShapleyValues returns the exact Shapley value of every player.
	ShapleyValues() []float64
}

// Counting wraps a game and counts utility evaluations. The experiment
// harness reports evaluation counts alongside wall time because the paper's
// large-dataset tables (XI–XIV) are dominated by #evaluations × training
// time.
type Counting struct {
	inner      Game
	calls      atomic.Int64
	prefixAdds atomic.Int64
}

// NewCounting returns a counting wrapper around g.
func NewCounting(g Game) *Counting { return &Counting{inner: g} }

// N implements Game.
func (c *Counting) N() int { return c.inner.N() }

// Value implements Game.
func (c *Counting) Value(s bitset.Set) float64 {
	c.calls.Add(1)
	return c.inner.Value(s)
}

// Calls returns the number of Value invocations so far.
func (c *Counting) Calls() int64 { return c.calls.Load() }

// Reset zeroes the call counter.
func (c *Counting) Reset() { c.calls.Store(0) }

// cacheShardCount is the number of lock stripes in a cache store. Power of
// two so shard selection is a mask of the coalition hash; 64 stripes keep
// the probability of two of the paper's 48 threads colliding on one lock
// low without bloating small caches.
const cacheShardCount = 64

// cacheEntry holds one memoised coalition. Entries are bucketed by the
// 64-bit coalition hash; the full key bytes are kept only to confirm
// membership on the (rare) hash collision.
type cacheEntry struct {
	key string
	v   float64
}

// cacheShard is one lock stripe of the store. pending holds the shard's
// coalitions in flight — being computed by their first miss — keyed by key
// bytes, each with a channel closed once the value lands; it is allocated
// on first use. The trailing padding keeps adjacent shards' mutexes on
// distinct cache lines so uncontended stripes do not false-share.
type cacheShard struct {
	mu      sync.RWMutex
	values  map[uint64][]cacheEntry
	pending map[string]chan struct{}
	_       [24]byte
}

// cacheStore is the shareable state behind Cached: the memoised values,
// lock-striped by coalition hash so parallel samplers do not serialise on a
// single RWMutex, and the shared statistics.
type cacheStore struct {
	shards     [cacheShardCount]cacheShard
	hits       atomic.Int64
	misses     atomic.Int64
	prefixAdds atomic.Int64
}

func newCacheStore() *cacheStore {
	st := &cacheStore{}
	for i := range st.shards {
		st.shards[i].values = make(map[uint64][]cacheEntry)
	}
	return st
}

// find returns the shard's memoised value for (hash, key) if present. The
// caller holds sh.mu.
func (sh *cacheShard) find(h uint64, key []byte) (float64, bool) {
	for _, e := range sh.values[h] {
		if e.key == string(key) {
			return e.v, true
		}
	}
	return 0, false
}

// lookup returns the memoised value for (hash, key) if present.
func (st *cacheStore) lookup(h uint64, key []byte) (float64, bool) {
	sh := &st.shards[h%cacheShardCount]
	sh.mu.RLock()
	v, ok := sh.find(h, key)
	sh.mu.RUnlock()
	return v, ok
}

// miss resolves a lookup miss on (hash, key) = s: the first miss on a
// coalition registers it in its shard as in flight and computes g.Value(s)
// outside the lock; a miss on a coalition in flight waits for that value.
// So concurrent misses on one coalition compute it once, and the number of
// computations never depends on how walkers interleave. It reports whether
// this call computed the value. If the computation panics, its waiters
// retry, the first of them computing.
func (st *cacheStore) miss(h uint64, key []byte, g Game, s bitset.Set) (float64, bool) {
	sh := &st.shards[h%cacheShardCount]
	for {
		sh.mu.Lock()
		if v, ok := sh.find(h, key); ok {
			sh.mu.Unlock()
			return v, false
		}
		if done, ok := sh.pending[string(key)]; ok {
			sh.mu.Unlock()
			<-done
			continue
		}
		if sh.pending == nil {
			sh.pending = make(map[string]chan struct{})
		}
		k := string(key)
		done := make(chan struct{})
		sh.pending[k] = done
		sh.mu.Unlock()
		return sh.compute(h, k, done, g, s), true
	}
}

// compute evaluates the in-flight coalition k, publishes its value and
// releases the waiters — on a panic too, so none waits forever.
func (sh *cacheShard) compute(h uint64, k string, done chan struct{}, g Game, s bitset.Set) (v float64) {
	ok := false
	defer func() {
		sh.mu.Lock()
		if ok {
			sh.values[h] = append(sh.values[h], cacheEntry{key: k, v: v})
		}
		delete(sh.pending, k)
		sh.mu.Unlock()
		close(done)
	}()
	v = g.Value(s)
	ok = true
	return v
}

// Cached wraps a game with a memoising coalition→utility cache. Model
// training is by far the dominant cost of data valuation, and dynamic
// updates re-evaluate many coalitions already seen while valuing the
// original dataset (paper §I, motivating example), so the cache is what
// makes "reuse" measurable.
type Cached struct {
	inner Game
	store *cacheStore
}

// NewCached returns a caching wrapper around g.
func NewCached(g Game) *Cached {
	return &Cached{inner: g, store: newCacheStore()}
}

// NewCachedShared returns a caching wrapper around g that shares prev's
// memoised values (and statistics). It supports growing a game by appended
// players: coalitions over the original players keep identical keys, so
// the expensive utilities computed before the growth keep serving hits.
// It must NOT be used across player re-numberings (deletions) — build a
// fresh cache there. A nil prev behaves like NewCached.
func NewCachedShared(g Game, prev *Cached) *Cached {
	if prev == nil {
		return NewCached(g)
	}
	return &Cached{inner: g, store: prev.store}
}

// Fork returns a new Cached around inner, pre-warmed with a copy of c's
// entries but with fresh statistics and independent storage. The experiment
// harness uses it to hand every contender the same starting cache without
// letting them warm each other's.
func (c *Cached) Fork(inner Game) *Cached {
	st := newCacheStore()
	for i := range c.store.shards {
		src := &c.store.shards[i]
		dst := &st.shards[i]
		src.mu.RLock()
		for h, entries := range src.values {
			dst.values[h] = append([]cacheEntry(nil), entries...)
		}
		src.mu.RUnlock()
	}
	return &Cached{inner: inner, store: st}
}

// N implements Game.
func (c *Cached) N() int { return c.inner.N() }

// Value implements Game, consulting the cache first. The key bytes are
// built into a stack buffer via bitset.AppendKey, so a cache hit performs
// no allocation (games above 512 players spill the buffer to the heap).
// A miss on a coalition another goroutine is computing waits for that
// value and counts as a hit: each coalition is computed, and counted as a
// miss, once.
func (c *Cached) Value(s bitset.Set) float64 {
	var buf [64]byte
	key := s.AppendKey(buf[:0])
	h := s.Hash()
	if v, ok := c.store.lookup(h, key); ok {
		c.store.hits.Add(1)
		return v
	}
	v, computed := c.store.miss(h, key, c.inner, s)
	if computed {
		c.store.misses.Add(1)
	} else {
		c.store.hits.Add(1)
	}
	return v
}

// Stats returns the numbers of cache hits and misses so far.
func (c *Cached) Stats() (hits, misses int64) {
	return c.store.hits.Load(), c.store.misses.Load()
}

// Len returns the number of cached coalitions.
func (c *Cached) Len() int {
	total := 0
	for i := range c.store.shards {
		sh := &c.store.shards[i]
		sh.mu.RLock()
		for _, entries := range sh.values {
			total += len(entries)
		}
		sh.mu.RUnlock()
	}
	return total
}

// Purge drops all cached entries.
func (c *Cached) Purge() {
	for i := range c.store.shards {
		sh := &c.store.shards[i]
		sh.mu.Lock()
		sh.values = make(map[uint64][]cacheEntry)
		sh.mu.Unlock()
	}
}

// Restrict presents a sub-game over the players NOT in `removed`, with
// player indices renumbered to 0..n−|removed|−1 preserving order. It is how
// the deletion algorithms view the post-deletion dataset N⁻: utilities of
// coalitions in N⁻ are utilities of the same coalitions in the original
// game, so a cached original game transparently serves both.
type Restrict struct {
	inner Game
	// keep[i] is the original index of restricted player i.
	keep []int
}

// NewRestrict returns the sub-game of g over all players except removed.
func NewRestrict(g Game, removed ...int) *Restrict {
	gone := bitset.New(g.N())
	for _, p := range removed {
		gone.Add(p)
	}
	keep := make([]int, 0, g.N()-gone.Len())
	for i := 0; i < g.N(); i++ {
		if !gone.Contains(i) {
			keep = append(keep, i)
		}
	}
	return &Restrict{inner: g, keep: keep}
}

// N implements Game.
func (r *Restrict) N() int { return len(r.keep) }

// Keep returns the original indices of the remaining players in order.
func (r *Restrict) Keep() []int { return append([]int(nil), r.keep...) }

// Value implements Game by translating the restricted coalition into the
// original player numbering.
func (r *Restrict) Value(s bitset.Set) float64 {
	if s.Cap() != len(r.keep) {
		panic(fmt.Sprintf("game: Restrict.Value set capacity %d, want %d", s.Cap(), len(r.keep)))
	}
	orig := bitset.New(r.inner.N())
	s.ForEach(func(i int) { orig.Add(r.keep[i]) })
	return r.inner.Value(orig)
}
