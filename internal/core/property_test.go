package core

// Property-based tests over randomly generated games: every estimator must
// respect the axioms it can respect exactly, and converge to exact values
// in expectation. These complement the per-algorithm tests with coverage of
// game shapes no one thought to write down.

import (
	"math"
	"testing"
	"testing/quick"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

// randomGame builds a small deterministic pseudo-random game from quick's
// raw inputs.
func randomGame(seed uint64, nRaw uint8) tableGame {
	return tableGame{n: 3 + int(nRaw%6), seed: seed}
}

func TestQuickTMCBalanceAtZeroTolerance(t *testing.T) {
	// With tol = 0 no permutation truncates, so TMC inherits MC's exact
	// per-permutation balance.
	f := func(seed uint64, nRaw, tauRaw uint8) bool {
		g := randomGame(seed, nRaw)
		tau := 1 + int(tauRaw%10)
		sv := TruncatedMonteCarlo(g, tau, 0, rng.New(seed+3))
		sum := 0.0
		for _, v := range sv {
			sum += v
		}
		want := g.Value(bitset.Full(g.n)) - g.Value(bitset.New(g.n))
		return math.Abs(sum-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeltaAddConsistency(t *testing.T) {
	// For any random game, DeltaAdd from exact old values converges toward
	// the exact new values (loose tolerance at moderate τ).
	f := func(seed uint64, nRaw uint8) bool {
		gPlus := randomGame(seed, nRaw)
		n := gPlus.n - 1
		gD := restrictFirst(gPlus, n)
		oldSV := Exact(gD)
		got, err := deltaAdd(gPlus, oldSV, 4000, rng.New(seed+7))
		if err != nil {
			return false
		}
		want := Exact(gPlus)
		return stat.MSE(got, want) < 5e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQuickYNNNExactFillAllDeletions(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		g := randomGame(seed, nRaw)
		ds := PreprocessDeletionExact(g)
		for p := 0; p < g.n; p++ {
			got, err := ds.Merge(p)
			if err != nil {
				return false
			}
			want := expandDeleted(Exact(game.NewRestrict(g, p)), g.n, p)
			if maxAbsDiff(got, want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQuickExactSymmetryOnSymmetrisedGames(t *testing.T) {
	// Symmetrise a random game over players 0 and 1 by averaging with the
	// swapped game; exact Shapley values of 0 and 1 must then coincide.
	f := func(seed uint64, nRaw uint8) bool {
		base := randomGame(seed, nRaw)
		n := base.n
		swapped := game.Func{Players: n, U: func(s bitset.Set) float64 {
			sw := bitset.New(n)
			s.ForEach(func(i int) {
				switch i {
				case 0:
					sw.Add(1)
				case 1:
					sw.Add(0)
				default:
					sw.Add(i)
				}
			})
			return base.Value(sw)
		}}
		sym := game.Func{Players: n, U: func(s bitset.Set) float64 {
			return 0.5 * (base.Value(s) + swapped.Value(s))
		}}
		sv := Exact(sym)
		return math.Abs(sv[0]-sv[1]) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickLeaveOneOutBoundedByRange(t *testing.T) {
	// |LOO_i| ≤ range of the game's utilities (tableGame ⊂ [0,1)).
	f := func(seed uint64, nRaw uint8) bool {
		g := randomGame(seed, nRaw)
		for _, v := range LeaveOneOut(g) {
			if math.Abs(v) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickTrackerMatchesMC(t *testing.T) {
	f := func(seed uint64, nRaw, tauRaw uint8) bool {
		g := randomGame(seed, nRaw)
		tau := 1 + int(tauRaw%20)
		mc := MonteCarlo(g, tau, rng.New(seed+13))
		tr := NewTracker(g, rng.New(seed+13))
		tr.StepN(tau)
		return maxAbsDiff(mc, tr.Values()) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
