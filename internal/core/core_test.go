package core

import (
	"math"
	"testing"
	"testing/quick"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

// tableGame is a deterministic pseudo-random game: every coalition's utility
// is a hash-derived value in [0, 1). It has no structure an estimator could
// exploit, making it a good generic target for unbiasedness tests.
type tableGame struct {
	n    int
	seed uint64
}

func (t tableGame) N() int { return t.n }

func (t tableGame) Value(s bitset.Set) float64 {
	if s.Empty() {
		return 0
	}
	x := s.Hash() ^ t.seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// monotoneGame is a coalition-size-plus-noise game resembling a learning
// curve: U grows with |S| with diminishing returns plus per-coalition noise.
type monotoneGame struct {
	n    int
	seed uint64
}

func (m monotoneGame) N() int { return m.n }

func (m monotoneGame) Value(s bitset.Set) float64 {
	if s.Empty() {
		return 0
	}
	base := 1 - math.Exp(-float64(s.Len())/3)
	noise := tableGame{n: m.n, seed: m.seed}.Value(s)
	return base + 0.05*noise
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestExactAdditive(t *testing.T) {
	g := game.Additive{Weights: []float64{0.5, -1, 2, 0, 3.25}}
	got := Exact(g)
	want := g.ShapleyValues()
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("Exact vs closed form: max diff %v\n got %v\nwant %v", d, got, want)
	}
}

func TestExactAirport(t *testing.T) {
	g := game.Airport{Costs: []float64{1, 2, 2, 5, 9}}
	got := Exact(g)
	want := g.ShapleyValues()
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("Exact vs Littlechild–Owen: max diff %v", d)
	}
}

func TestExactUnanimity(t *testing.T) {
	g := game.Unanimity{Players: 6, Carrier: []int{0, 2, 5}}
	got := Exact(g)
	want := g.ShapleyValues()
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("Exact vs unanimity closed form: max diff %v", d)
	}
}

func TestExactSymmetric(t *testing.T) {
	g := game.Symmetric{Players: 7, F: func(k int) float64 { return math.Sqrt(float64(k)) }}
	got := Exact(g)
	want := g.ShapleyValues()
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("Exact vs symmetric closed form: max diff %v", d)
	}
}

func TestExactGloveMarket(t *testing.T) {
	// Classic 3-player glove market: SV = (2/3, 1/6, 1/6).
	g := game.NewGlove([]int{0}, []int{1, 2})
	got := Exact(g)
	want := []float64{2.0 / 3, 1.0 / 6, 1.0 / 6}
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("glove SV = %v, want %v", got, want)
	}
}

func TestExactBalanceProperty(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := tableGame{n: 8, seed: seed}
		sv := Exact(g)
		sum := 0.0
		for _, v := range sv {
			sum += v
		}
		full := g.Value(bitset.Full(8))
		empty := g.Value(bitset.New(8))
		if math.Abs(sum-(full-empty)) > 1e-10 {
			t.Fatalf("balance violated: ΣSV = %v, U(N)−U(∅) = %v", sum, full-empty)
		}
	}
}

func TestExactNullPlayerProperty(t *testing.T) {
	// Player 3 contributes nothing: utility ignores it.
	inner := tableGame{n: 5, seed: 7}
	g := game.Func{Players: 6, U: func(s bitset.Set) float64 {
		sub := bitset.New(5)
		s.ForEach(func(i int) {
			switch {
			case i < 3:
				sub.Add(i)
			case i > 3:
				sub.Add(i - 1)
			}
		})
		return inner.Value(sub)
	}}
	sv := Exact(g)
	if math.Abs(sv[3]) > 1e-12 {
		t.Fatalf("null player has SV %v, want 0", sv[3])
	}
}

func TestExactSymmetryProperty(t *testing.T) {
	// Players 1 and 2 are interchangeable in a glove market.
	g := game.NewGlove([]int{0}, []int{1, 2})
	sv := Exact(g)
	if math.Abs(sv[1]-sv[2]) > 1e-12 {
		t.Fatalf("symmetric players valued differently: %v vs %v", sv[1], sv[2])
	}
}

func TestExactAdditivityProperty(t *testing.T) {
	a := tableGame{n: 6, seed: 1}
	b := tableGame{n: 6, seed: 2}
	svA := Exact(a)
	svB := Exact(b)
	svSum := Exact(game.Sum{A: a, B: b})
	for i := range svSum {
		if math.Abs(svSum[i]-(svA[i]+svB[i])) > 1e-10 {
			t.Fatalf("additivity violated at %d", i)
		}
	}
}

func TestExactEmptyGame(t *testing.T) {
	if got := Exact(game.Additive{}); got != nil {
		t.Fatalf("Exact of empty game = %v", got)
	}
}

func TestExactPanicsBeyondLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exact beyond MaxExactPlayers did not panic")
		}
	}()
	Exact(game.Symmetric{Players: MaxExactPlayers + 1, F: func(int) float64 { return 0 }})
}

func TestMonteCarloConverges(t *testing.T) {
	g := tableGame{n: 10, seed: 3}
	want := Exact(g)
	got := MonteCarlo(g, 20000, rng.New(1))
	if mse := stat.MSE(got, want); mse > 1e-4 {
		t.Fatalf("MC MSE = %v after 20000 perms", mse)
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	g := tableGame{n: 8, seed: 4}
	a := MonteCarlo(g, 100, rng.New(9))
	b := MonteCarlo(g, 100, rng.New(9))
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("same-seed MC runs differ")
	}
}

func TestMonteCarloDegenerate(t *testing.T) {
	if got := MonteCarlo(game.Additive{}, 10, rng.New(1)); len(got) != 0 {
		t.Fatal("MC on empty game should return empty")
	}
	got := MonteCarlo(game.Additive{Weights: []float64{1, 2}}, 0, rng.New(1))
	if got[0] != 0 || got[1] != 0 {
		t.Fatal("MC with τ=0 should return zeros")
	}
}

func TestMonteCarloExactOnAdditive(t *testing.T) {
	// For an additive game every permutation yields the same marginals, so
	// even one permutation is exact.
	g := game.Additive{Weights: []float64{3, -1, 0.5}}
	got := MonteCarlo(g, 1, rng.New(5))
	if d := maxAbsDiff(got, g.ShapleyValues()); d > 1e-12 {
		t.Fatalf("MC on additive game inexact: %v", d)
	}
}

// Engine.MonteCarlo walks permutations on several goroutines; the
// estimate still converges to the exact values.
func TestMonteCarloParallelConverges(t *testing.T) {
	g := tableGame{n: 10, seed: 6}
	want := Exact(g)
	got := NewEngine(WithWorkers(4)).MonteCarlo(g, 20000, rng.New(2))
	if mse := stat.MSE(got, want); mse > 1e-4 {
		t.Fatalf("parallel MC MSE = %v", mse)
	}
}

// The walkers only price prefixes and one goroutine folds them in
// permutation order, so the estimate is the same at every worker count.
func TestMonteCarloParallelDeterministicGivenWorkers(t *testing.T) {
	g := tableGame{n: 8, seed: 8}
	a := NewEngine(WithWorkers(3)).MonteCarlo(g, 200, rng.New(11))
	b := NewEngine(WithWorkers(3)).MonteCarlo(g, 200, rng.New(11))
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("same-seed same-workers parallel MC differs")
	}
	assertBitEqual(t, "workers 3 vs 1", a, NewEngine(WithWorkers(1)).MonteCarlo(g, 200, rng.New(11)))
}

func TestMonteCarloParallelWorkerCountClamped(t *testing.T) {
	g := game.Additive{Weights: []float64{1, 2}}
	got := NewEngine(WithWorkers(64)).MonteCarlo(g, 3, rng.New(1)) // workers > τ
	if d := maxAbsDiff(got, g.ShapleyValues()); d > 1e-12 {
		t.Fatalf("clamped parallel MC wrong: %v", got)
	}
}

func TestTruncatedMonteCarloConverges(t *testing.T) {
	// On a saturating game, truncation with a loose tolerance still tracks
	// the exact values reasonably.
	g := monotoneGame{n: 12, seed: 1}
	want := Exact(g)
	got := TruncatedMonteCarlo(g, 20000, 0.05, rng.New(3))
	if mse := stat.MSE(got, want); mse > 5e-4 {
		t.Fatalf("TMC MSE = %v", mse)
	}
}

func TestTruncatedMonteCarloTightToleranceEqualsMC(t *testing.T) {
	// tol = 0 never truncates, so TMC must equal plain MC with equal seeds.
	g := tableGame{n: 8, seed: 10}
	mc := MonteCarlo(g, 300, rng.New(21))
	tmc := TruncatedMonteCarlo(g, 300, 0, rng.New(21))
	if maxAbsDiff(mc, tmc) > 1e-15 {
		t.Fatal("TMC with tol=0 deviates from MC")
	}
}

func TestTruncatedMonteCarloSavesEvaluations(t *testing.T) {
	g := game.NewCounting(monotoneGame{n: 16, seed: 2})
	MonteCarlo(g, 50, rng.New(4))
	mcCalls := g.Calls()
	g.Reset()
	TruncatedMonteCarlo(g, 50, 0.2, rng.New(4))
	tmcCalls := g.Calls()
	if tmcCalls >= mcCalls {
		t.Fatalf("TMC used %d evals, MC %d — no savings", tmcCalls, mcCalls)
	}
}

func TestBaseAdd(t *testing.T) {
	got := BaseAdd([]float64{1, 2, 3}, 2)
	want := []float64{1, 2, 3, 2, 2}
	if maxAbsDiff(got, want) != 0 {
		t.Fatalf("BaseAdd = %v, want %v", got, want)
	}
	if got := BaseAdd(nil, 1); got[0] != 0 {
		t.Fatalf("BaseAdd on empty = %v", got)
	}
}

// Property: Monte Carlo respects the balance axiom permutation-by-
// permutation: for any game and τ, ΣSV = U(N) − U(∅) exactly.
func TestQuickMonteCarloBalance(t *testing.T) {
	f := func(seed uint64, nRaw, tauRaw uint8) bool {
		n := 2 + int(nRaw%8)
		tau := 1 + int(tauRaw%20)
		g := tableGame{n: n, seed: seed}
		sv := MonteCarlo(g, tau, rng.New(seed+1))
		sum := 0.0
		for _, v := range sv {
			sum += v
		}
		full := g.Value(bitset.Full(n))
		empty := g.Value(bitset.New(n))
		return math.Abs(sum-(full-empty)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: exact Shapley of a random additive game returns the weights.
func TestQuickExactAdditive(t *testing.T) {
	f := func(ws [6]int8) bool {
		w := make([]float64, 6)
		for i := range w {
			w[i] = float64(ws[i]) / 16
		}
		g := game.Additive{Weights: w}
		return maxAbsDiff(Exact(g), w) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
