package game

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dynshap/internal/bitset"
)

// walkBoth drives an incremental evaluator and scratch Value calls along the
// same permutation, requiring exact equality at every prefix.
func walkBoth(t *testing.T, g Game, ev PrefixEvaluator, perm []int) {
	t.Helper()
	prefix := bitset.New(g.N())
	ev.Reset()
	for pos, p := range perm {
		prefix.Add(p)
		want := g.Value(prefix)
		got := ev.Add(p)
		if got != want {
			t.Fatalf("prefix %v (pos %d): Add(%d) = %v, Value = %v", perm[:pos+1], pos, p, got, want)
		}
	}
}

func prefixGames() map[string]Game {
	return map[string]Game{
		// Integer-valued weights keep float addition exact, so the running
		// sums match index-order summation bit for bit.
		"additive":  Additive{Weights: []float64{3, -2, 7, 0, 5, -11, 4, 1, 9, -6}},
		"unanimity": Unanimity{Players: 10, Carrier: []int{2, 5, 9}},
		"glove":     NewGlove([]int{0, 2, 4, 6}, []int{1, 3, 5, 7, 8, 9}),
		"airport":   Airport{Costs: []float64{1, 4, 2, 8, 5.5, 7, 3, 6, 2.5, 4.5}},
		"voting":    WeightedVoting{Weights: []float64{4, 3, 2, 1, 5, 6, 2, 3, 1, 4}, Quota: 16},
		"symmetric": Symmetric{Players: 10, F: func(k int) float64 { return float64(k) / float64(k+3) }},
		"sum": Sum{
			A: Additive{Weights: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
			B: Airport{Costs: []float64{5, 3, 8, 1, 9, 2, 7, 4, 6, 10}},
		},
	}
}

func TestClassicPrefixEvaluatorsMatchValue(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for name, g := range prefixGames() {
		ev := PrefixEvaluatorOf(g)
		if ev == nil {
			t.Fatalf("%s: no prefix evaluator", name)
		}
		for trial := 0; trial < 50; trial++ {
			perm := rnd.Perm(g.N())
			t.Run(name, func(t *testing.T) { walkBoth(t, g, ev, perm) })
		}
	}
}

func TestScratchPrefixMatchesValue(t *testing.T) {
	g := Glove{Left: []int{0, 1}, Right: []int{2, 3, 4}, total: 5}
	walkBoth(t, g, ScratchPrefix(g), []int{4, 0, 2, 1, 3})
}

func TestPrefixEvaluatorOfUnsupported(t *testing.T) {
	g := Func{Players: 3, U: func(s bitset.Set) float64 { return float64(s.Len()) }}
	if ev := PrefixEvaluatorOf(g); ev != nil {
		t.Fatalf("Func unexpectedly supports prefix evaluation: %T", ev)
	}
	// Sum with one unsupported addend must not claim the capability.
	sum := Sum{A: Additive{Weights: []float64{1, 2, 3}}, B: g}
	if ev := PrefixEvaluatorOf(sum); ev != nil {
		t.Fatalf("Sum over unsupported addend yields evaluator: %T", ev)
	}
}

func TestCountingForwardsPrefix(t *testing.T) {
	c := NewCounting(Additive{Weights: []float64{1, 2, 3}})
	ev := PrefixEvaluatorOf(c)
	if ev == nil {
		t.Fatal("Counting did not forward the capability")
	}
	ev.Reset()
	ev.Add(1)
	ev.Add(0)
	if c.PrefixAdds() != 2 {
		t.Fatalf("PrefixAdds = %d, want 2", c.PrefixAdds())
	}
	if c.Calls() != 0 {
		t.Fatalf("Calls = %d, want 0 (Adds are not Value calls)", c.Calls())
	}
	// Unsupported inner game: no capability through the wrapper either.
	if ev := PrefixEvaluatorOf(NewCounting(Func{Players: 2, U: func(bitset.Set) float64 { return 0 }})); ev != nil {
		t.Fatal("Counting invented a capability its inner game lacks")
	}
}

func TestCachedForwardsPrefixAndBypassesCache(t *testing.T) {
	c := NewCached(Additive{Weights: []float64{2, 4, 6}})
	ev := PrefixEvaluatorOf(c)
	if ev == nil {
		t.Fatal("Cached did not forward the capability")
	}
	ev.Reset()
	if got := ev.Add(2); got != 6 {
		t.Fatalf("Add(2) = %v, want 6", got)
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 0 {
		t.Fatalf("incremental Add touched the cache: hits=%d misses=%d", hits, misses)
	}
	if c.PrefixAdds() != 1 {
		t.Fatalf("PrefixAdds = %d, want 1", c.PrefixAdds())
	}
	if c.Len() != 0 {
		t.Fatalf("incremental Add stored entries: Len = %d", c.Len())
	}
}

func TestRestrictForwardsPrefixWithTranslation(t *testing.T) {
	g := Additive{Weights: []float64{10, 20, 30, 40, 50}}
	r := NewRestrict(g, 1, 3) // keep 0, 2, 4
	ev := PrefixEvaluatorOf(r)
	if ev == nil {
		t.Fatal("Restrict did not forward the capability")
	}
	walkBoth(t, r, ev, []int{2, 0, 1})
}

// scratchPivotGame offers the pivot-aware capability by scratch Value
// calls on its inner game, so what a wrapper forwards can be checked
// against Value alone.
type scratchPivotGame struct{ Game }

func (g scratchPivotGame) PivotPrefix(pivots []int) PivotPrefixEvaluator {
	return &scratchPivot{g: g.Game, pivots: pivots}
}

type scratchPivot struct {
	g      Game
	pivots []int
}

func (e *scratchPivot) Walk(perm []int, row []float64) {
	stride := len(e.pivots) + 1
	s := bitset.New(e.g.N())
	for pos, p := range perm {
		s.Add(p)
		row[pos*stride] = e.g.Value(s)
		for j, v := range e.pivots {
			with := s.Clone()
			with.Add(v)
			row[pos*stride+1+j] = e.g.Value(with)
		}
	}
}

func (e *scratchPivot) WalkNested(final, starts []int, row []float64) {
	for j, start := range starts {
		seg := row[j*(len(final)+1):]
		s := bitset.New(e.g.N())
		if start == 0 {
			seg[0] = e.g.Value(s)
		}
		pos := 0
		for _, p := range final {
			if k := slices.Index(e.pivots, p); k > j {
				continue // pivot k arrives after chain j
			}
			s.Add(p)
			if pos++; pos >= start {
				seg[pos] = e.g.Value(s)
			}
		}
	}
}

// Walk and WalkNested through a Restrict price the restricted coalitions,
// pivots included, as Restrict.Value does, and the counting wrappers under
// it count every utility served. Powers-of-two weights give every
// coalition its own value, so a player translated wrongly shows.
func TestRestrictForwardsPivotPrefixWithTranslation(t *testing.T) {
	inner := scratchPivotGame{Additive{Weights: []float64{1, 2, 4, 8, 16, 32, 64}}}
	if PivotPrefixOf(NewRestrict(inner.Game, 1), nil) != nil {
		t.Fatal("Restrict invented a capability its inner game lacks")
	}
	counting, cached := NewCounting(inner), NewCached(inner)
	for name, c := range map[string]interface {
		Game
		PrefixAdds() int64
	}{"counting": counting, "cached": cached} {
		r := NewRestrict(c, 1, 4) // keep 0, 2, 3, 5, 6
		pivots := []int{3, 0}     // originals 5 and 0
		ev := PivotPrefixOf(r, pivots)
		if ev == nil {
			t.Fatalf("%s: Restrict did not forward the capability", name)
		}
		perm := []int{2, 4, 1}
		stride := len(pivots) + 1
		row := make([]float64, len(perm)*stride)
		ev.Walk(perm, row)
		for pos := range perm {
			for col := 0; col < stride; col++ {
				s := bitset.FromIndices(r.N(), perm[:pos+1]...)
				if col > 0 {
					s.Add(pivots[col-1])
				}
				if got, want := row[pos*stride+col], r.Value(s); got != want {
					t.Fatalf("%s: Walk pos %d column %d = %v, Value = %v", name, pos, col, got, want)
				}
			}
		}
		if got, want := c.PrefixAdds(), int64(len(perm)*stride); got != want {
			t.Fatalf("%s: Walk counted %d prefix adds, want %d", name, got, want)
		}

		// Chain 0 is final without pivot 1; pivot j sits at starts[j] in
		// chain j.
		final := []int{2, 3, 4, 0, 1}
		starts := []int{1, 3}
		nested := make([]float64, len(starts)*(len(final)+1))
		for i := range nested {
			nested[i] = -1
		}
		ev.WalkNested(final, starts, nested)
		for j, chain := range [][]int{{2, 3, 4, 1}, final} {
			seg := nested[j*(len(final)+1):]
			for pos := 0; pos <= len(chain); pos++ {
				want := -1.0 // untouched before the chain's start
				if pos >= starts[j] {
					want = r.Value(bitset.FromIndices(r.N(), chain[:pos]...))
				}
				if seg[pos] != want {
					t.Fatalf("%s: WalkNested chain %d pos %d = %v, want %v", name, j, pos, seg[pos], want)
				}
			}
		}
		if got, want := c.PrefixAdds(), int64(len(perm)*stride)+NestedPositions(len(final), len(starts)); got != want {
			t.Fatalf("%s: walks counted %d prefix adds, want %d", name, got, want)
		}
	}
}

// The sharded cache must behave exactly like the old single-map cache.

func TestShardedCacheStatsAndLen(t *testing.T) {
	calls := 0
	c := NewCached(Func{Players: 130, U: func(s bitset.Set) float64 {
		calls++
		return float64(s.Len())
	}})
	a := set(130, 0, 64, 129)
	b := set(130, 1)
	if c.Value(a) != 3 || c.Value(b) != 1 || c.Value(a) != 3 {
		t.Fatal("wrong values")
	}
	if calls != 2 {
		t.Fatalf("inner called %d times, want 2", calls)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = (%d, %d), want (1, 2)", hits, misses)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d", c.Len())
	}
	if c.Value(a) != 3 || calls != 3 {
		t.Fatalf("Purge did not drop entries (calls=%d)", calls)
	}
}

func TestShardedCacheFork(t *testing.T) {
	c := NewCached(Func{Players: 70, U: func(s bitset.Set) float64 { return float64(s.Len()) }})
	for i := 0; i < 70; i++ {
		c.Value(set(70, i))
	}
	fork := c.Fork(Func{Players: 70, U: func(s bitset.Set) float64 {
		t.Fatal("fork recomputed a warmed coalition")
		return 0
	}})
	for i := 0; i < 70; i++ {
		if got := fork.Value(set(70, i)); got != 1 {
			t.Fatalf("fork.Value = %v", got)
		}
	}
	hits, misses := fork.Stats()
	if hits != 70 || misses != 0 {
		t.Fatalf("fork stats = (%d, %d), want (70, 0)", hits, misses)
	}
	// Fresh entries in the fork must not leak back.
	fork2 := c.Fork(Func{Players: 70, U: func(s bitset.Set) float64 { return -1 }})
	fork2.Value(set(70, 0, 1))
	if c.Len() != 70 {
		t.Fatalf("fork wrote through to parent: Len = %d", c.Len())
	}
}

func TestShardedCacheConcurrentMixedCoalitions(t *testing.T) {
	c := NewCached(Func{Players: 200, U: func(s bitset.Set) float64 { return float64(s.Len()) }})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := bitset.New(200)
			for i := 0; i < 200; i++ {
				s.Clear()
				s.Add(i)
				s.Add((i + w) % 200)
				if got, want := c.Value(s), float64(s.Len()); got != want {
					t.Errorf("Value = %v, want %v", got, want)
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, 8*200)
	}
}

func BenchmarkCachedHit(b *testing.B) {
	c := NewCached(Func{Players: 256, U: func(s bitset.Set) float64 { return float64(s.Len()) }})
	s := bitset.Full(256)
	c.Value(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Value(s)
	}
}

// BenchmarkCachedParallelHit measures hit throughput under contention — the
// regime of the paper's 48-thread runs, where the old single RWMutex
// serialised every lookup.
func BenchmarkCachedParallelHit(b *testing.B) {
	c := NewCached(Func{Players: 128, U: func(s bitset.Set) float64 { return float64(s.Len()) }})
	warm := make([]bitset.Set, 128)
	for i := range warm {
		warm[i] = bitset.FromIndices(128, i, (i+1)%128, (i+7)%128)
		c.Value(warm[i])
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Value(warm[i%len(warm)])
			i++
		}
	})
}
