package game

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"dynshap/internal/bitset"
)

func set(n int, members ...int) bitset.Set { return bitset.FromIndices(n, members...) }

func TestFuncAdapter(t *testing.T) {
	g := Func{Players: 3, U: func(s bitset.Set) float64 { return float64(s.Len()) }}
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	if got := g.Value(set(3, 0, 2)); got != 2 {
		t.Fatalf("Value = %v", got)
	}
}

func TestAdditive(t *testing.T) {
	g := Additive{Weights: []float64{1, -2, 3.5}}
	if got := g.Value(set(3)); got != 0 {
		t.Errorf("U(∅) = %v", got)
	}
	if got := g.Value(set(3, 0, 1, 2)); got != 2.5 {
		t.Errorf("U(N) = %v", got)
	}
	sv := g.ShapleyValues()
	for i, w := range g.Weights {
		if sv[i] != w {
			t.Errorf("SV[%d] = %v, want %v", i, sv[i], w)
		}
	}
	// ShapleyValues must not alias Weights.
	sv[0] = 99
	if g.Weights[0] == 99 {
		t.Error("ShapleyValues aliases Weights")
	}
}

func TestUnanimity(t *testing.T) {
	g := Unanimity{Players: 5, Carrier: []int{1, 3}}
	if g.Value(set(5, 1)) != 0 {
		t.Error("partial carrier should have zero value")
	}
	if g.Value(set(5, 1, 3)) != 1 || g.Value(set(5, 0, 1, 3, 4)) != 1 {
		t.Error("supersets of the carrier should have value 1")
	}
	sv := g.ShapleyValues()
	want := []float64{0, 0.5, 0, 0.5, 0}
	for i := range want {
		if sv[i] != want[i] {
			t.Errorf("SV = %v, want %v", sv, want)
		}
	}
}

func TestGlove(t *testing.T) {
	g := NewGlove([]int{0}, []int{1, 2})
	if g.N() != 3 {
		t.Fatalf("N = %d", g.N())
	}
	cases := []struct {
		s    bitset.Set
		want float64
	}{
		{set(3), 0},
		{set(3, 0), 0},
		{set(3, 1, 2), 0},
		{set(3, 0, 1), 1},
		{set(3, 0, 1, 2), 1},
	}
	for _, c := range cases {
		if got := g.Value(c.s); got != c.want {
			t.Errorf("U(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestAirportClosedForm(t *testing.T) {
	g := Airport{Costs: []float64{1, 3, 3, 10}}
	sv := g.ShapleyValues()
	// Littlechild–Owen by hand:
	// sorted costs 1,3,3,10 (indices 0,1,2,3).
	// SV(0) = 1/4
	// SV(1) = 1/4 + 2/3 ≈ 0.91667 ; SV(2) same
	// SV(3) = 1/4 + 2/3 + 0/2 + 7/1 = 7.91667
	want := []float64{0.25, 0.25 + 2.0/3, 0.25 + 2.0/3, 0.25 + 2.0/3 + 7}
	for i := range want {
		if math.Abs(sv[i]-want[i]) > 1e-12 {
			t.Errorf("SV[%d] = %v, want %v", i, sv[i], want[i])
		}
	}
	// Balance: sum equals U(N) = max cost.
	sum := 0.0
	for _, v := range sv {
		sum += v
	}
	if math.Abs(sum-10) > 1e-12 {
		t.Errorf("ΣSV = %v, want 10", sum)
	}
}

func TestWeightedVoting(t *testing.T) {
	g := WeightedVoting{Weights: []float64{4, 2, 1}, Quota: 5}
	if g.Value(set(3, 0)) != 0 || g.Value(set(3, 0, 2)) != 1 || g.Value(set(3, 1, 2)) != 0 {
		t.Error("quota logic wrong")
	}
}

func TestSymmetric(t *testing.T) {
	g := Symmetric{Players: 4, F: func(k int) float64 { return float64(k * k) }}
	sv := g.ShapleyValues()
	for _, v := range sv {
		if v != 4 {
			t.Errorf("SV = %v, want all 4", sv)
		}
	}
}

func TestSum(t *testing.T) {
	a := Additive{Weights: []float64{1, 2}}
	b := Additive{Weights: []float64{10, 20}}
	g := Sum{A: a, B: b}
	if got := g.Value(set(2, 0, 1)); got != 33 {
		t.Errorf("Sum value = %v", got)
	}
}

func TestCounting(t *testing.T) {
	c := NewCounting(Additive{Weights: []float64{1, 2, 3}})
	if c.Calls() != 0 {
		t.Fatal("fresh counter nonzero")
	}
	s := set(3, 0)
	c.Value(s)
	c.Value(s)
	if c.Calls() != 2 {
		t.Fatalf("Calls = %d, want 2", c.Calls())
	}
	c.Reset()
	if c.Calls() != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestCachedDedupes(t *testing.T) {
	counted := NewCounting(Additive{Weights: []float64{1, 2, 3}})
	c := NewCached(counted)
	s := set(3, 0, 2)
	v1 := c.Value(s)
	v2 := c.Value(s)
	if v1 != v2 || v1 != 4 {
		t.Fatalf("cached values %v, %v", v1, v2)
	}
	if counted.Calls() != 1 {
		t.Fatalf("inner calls = %d, want 1", counted.Calls())
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d, %d), want (1, 1)", hits, misses)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("Purge did not clear")
	}
	c.Value(s)
	if counted.Calls() != 2 {
		t.Fatal("purged cache did not re-evaluate")
	}
}

func TestCachedSharedSurvivesGrowth(t *testing.T) {
	// A 4-player game grows to 5 players; coalitions of the original four
	// must hit the shared cache (same key), new coalitions must miss.
	inner4 := NewCounting(Additive{Weights: []float64{1, 2, 3, 4}})
	c4 := NewCached(inner4)
	_ = c4.Value(set(4, 0, 2))
	inner5 := NewCounting(Additive{Weights: []float64{1, 2, 3, 4, 5}})
	c5 := NewCachedShared(inner5, c4)
	if got := c5.Value(set(5, 0, 2)); got != 4 {
		t.Fatalf("shared value = %v, want 4", got)
	}
	if inner5.Calls() != 0 {
		t.Fatal("grown cache re-evaluated a known coalition")
	}
	_ = c5.Value(set(5, 0, 4))
	if inner5.Calls() != 1 {
		t.Fatal("new coalition should miss")
	}
	// Statistics are shared.
	hits, misses := c4.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("shared stats = (%d, %d), want (1, 2)", hits, misses)
	}
	// Nil prev behaves like NewCached.
	c := NewCachedShared(inner4, nil)
	if c.Len() != 0 {
		t.Fatal("nil-prev shared cache not empty")
	}
}

func TestCachedConcurrent(t *testing.T) {
	counted := NewCounting(Symmetric{Players: 64, F: func(k int) float64 { return float64(k) }})
	c := NewCached(counted)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := set(64, i%64, (i+w)%64)
				_ = c.Value(s)
			}
		}(w)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != 1600 {
		t.Fatalf("hits+misses = %d, want 1600", hits+misses)
	}
	if c.Len() > 64*64 {
		t.Fatalf("cache grew unreasonably: %d", c.Len())
	}
}

// Walkers that miss on the same coalitions at once must compute each one
// once: the first miss computes, the others wait for its value and count
// as hits. The inner game sleeps so every goroutine misses while the first
// computation is still in flight.
func TestCachedConcurrentMissesComputeOnce(t *testing.T) {
	const walkers, coalitions = 4, 6
	counted := NewCounting(Func{Players: coalitions, U: func(s bitset.Set) float64 {
		time.Sleep(20 * time.Millisecond)
		return float64(s.Len())
	}})
	c := NewCached(counted)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < walkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < coalitions; i++ {
				if v := c.Value(set(coalitions, i)); v != 1 {
					t.Errorf("coalition %d: value %v, want 1", i, v)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	hits, misses := c.Stats()
	if counted.Calls() != coalitions || misses != coalitions || hits != (walkers-1)*coalitions {
		t.Fatalf("inner calls %d, misses %d, hits %d; want %d, %d, %d",
			counted.Calls(), misses, hits, coalitions, coalitions, (walkers-1)*coalitions)
	}
}

// A panicking computation must not strand the misses waiting on it: they
// retry, and the first of them computes.
func TestCachedPanicReleasesWaiters(t *testing.T) {
	var calls atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	g := Func{Players: 2, U: func(s bitset.Set) float64 {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			panic("first computation fails")
		}
		return 7
	}}
	c := NewCached(g)
	first := make(chan any)
	go func() {
		defer func() { first <- recover() }()
		c.Value(set(2, 0))
	}()
	<-started
	second := make(chan float64)
	go func() { second <- c.Value(set(2, 0)) }()
	// Give the second miss time to start waiting on the first; the checks
	// below hold whichever way the two interleave.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if r := <-first; r == nil {
		t.Fatal("the failing computation did not panic")
	}
	if v := <-second; v != 7 {
		t.Fatalf("waiter got %v, want 7", v)
	}
	if _, misses := c.Stats(); misses != 1 || c.Len() != 1 {
		t.Fatalf("misses %d, cached %d; want 1, 1", misses, c.Len())
	}
}

func TestRestrict(t *testing.T) {
	g := Additive{Weights: []float64{1, 10, 100, 1000}}
	r := NewRestrict(g, 1)
	if r.N() != 3 {
		t.Fatalf("N = %d", r.N())
	}
	keep := r.Keep()
	want := []int{0, 2, 3}
	for i := range want {
		if keep[i] != want[i] {
			t.Fatalf("Keep = %v, want %v", keep, want)
		}
	}
	// Restricted player 1 is original player 2.
	if got := r.Value(set(3, 1)); got != 100 {
		t.Errorf("restricted U({1}) = %v, want 100", got)
	}
	if got := r.Value(set(3, 0, 1, 2)); got != 1101 {
		t.Errorf("restricted U(N⁻) = %v, want 1101", got)
	}
}

func TestRestrictMultiple(t *testing.T) {
	g := Additive{Weights: []float64{1, 10, 100, 1000, 10000}}
	r := NewRestrict(g, 0, 3)
	if r.N() != 3 {
		t.Fatalf("N = %d", r.N())
	}
	if got := r.Value(set(3, 0, 1, 2)); got != 10110 {
		t.Errorf("restricted value = %v", got)
	}
}

func TestRestrictCapacityPanics(t *testing.T) {
	r := NewRestrict(Additive{Weights: []float64{1, 2, 3}}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong capacity")
		}
	}()
	r.Value(set(3, 0))
}

// Property: glove value is monotone under adding players.
func TestQuickGloveMonotone(t *testing.T) {
	g := NewGlove([]int{0, 1, 2}, []int{3, 4, 5, 6})
	f := func(membersRaw []uint8, extraRaw uint8) bool {
		s := bitset.New(7)
		for _, m := range membersRaw {
			s.Add(int(m % 7))
		}
		before := g.Value(s)
		s.Add(int(extraRaw % 7))
		return g.Value(s) >= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Sum of additive games has additive values.
func TestQuickAdditivity(t *testing.T) {
	f := func(w1, w2 [5]int8, membersRaw []uint8) bool {
		a := Additive{Weights: make([]float64, 5)}
		b := Additive{Weights: make([]float64, 5)}
		for i := 0; i < 5; i++ {
			a.Weights[i] = float64(w1[i])
			b.Weights[i] = float64(w2[i])
		}
		s := bitset.New(5)
		for _, m := range membersRaw {
			s.Add(int(m % 5))
		}
		sum := Sum{A: a, B: b}
		return sum.Value(s) == a.Value(s)+b.Value(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
