package core

import (
	"math"
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

func TestLeaveOneOutAdditive(t *testing.T) {
	// On an additive game LOO equals the Shapley value (= the weights).
	g := game.Additive{Weights: []float64{1, -0.5, 2, 0}}
	got := LeaveOneOut(g)
	if d := maxAbsDiff(got, g.Weights); d > 1e-12 {
		t.Fatalf("LOO on additive game: diff %v", d)
	}
}

func TestLeaveOneOutUnanimityDegenerates(t *testing.T) {
	// LOO famously fails on redundancy: with carrier {0,1}, removing either
	// destroys all value (LOO = 1 each) but removing one of two IDENTICAL
	// redundant carriers {0 or 1 suffices} yields 0. Use the OR-game: every
	// single carrier member suffices.
	orGame := game.Func{Players: 3, U: func(s bitset.Set) float64 {
		if s.Contains(0) || s.Contains(1) {
			return 1
		}
		return 0
	}}
	loo := LeaveOneOut(orGame)
	// Either redundant player alone keeps U(N∖i) = 1 → LOO = 0.
	if loo[0] != 0 || loo[1] != 0 {
		t.Fatalf("LOO = %v, want 0 for redundant players", loo)
	}
	// Shapley assigns them each 1/2 — the distinction the paper's intro cites.
	sv := Exact(orGame)
	if math.Abs(sv[0]-0.5) > 1e-12 || math.Abs(sv[1]-0.5) > 1e-12 {
		t.Fatalf("SV = %v, want (0.5, 0.5, 0)", sv)
	}
}

func TestLeaveOneOutEvaluationCount(t *testing.T) {
	c := game.NewCounting(tableGame{n: 9, seed: 90})
	LeaveOneOut(c)
	if c.Calls() != 10 {
		t.Fatalf("LOO used %d evaluations, want n+1 = 10", c.Calls())
	}
}

func TestLeaveOneOutEmpty(t *testing.T) {
	if got := LeaveOneOut(game.Additive{}); len(got) != 0 {
		t.Fatalf("LOO on empty game = %v", got)
	}
}

func TestTrackerConvergesToExact(t *testing.T) {
	g := tableGame{n: 8, seed: 92}
	want := Exact(g)
	tr := NewTracker(g, rng.New(3))
	tr.StepN(20000)
	if mse := stat.MSE(tr.Values(), want); mse > 1e-4 {
		t.Fatalf("tracker MSE = %v", mse)
	}
	if tr.Samples() != 20000 {
		t.Fatalf("Samples = %d", tr.Samples())
	}
}

func TestTrackerMatchesMonteCarlo(t *testing.T) {
	// Same seed, same τ ⇒ identical estimates (the tracker IS Algorithm 1
	// with running statistics).
	g := tableGame{n: 7, seed: 93}
	mc := MonteCarlo(g, 500, rng.New(4))
	tr := NewTracker(g, rng.New(4))
	tr.StepN(500)
	if d := maxAbsDiff(mc, tr.Values()); d > 1e-12 {
		t.Fatalf("tracker deviates from MC: %v", d)
	}
}

func TestTrackerStdErrsShrink(t *testing.T) {
	g := tableGame{n: 6, seed: 94}
	tr := NewTracker(g, rng.New(5))
	if !math.IsInf(tr.MaxStdErr(), 1) {
		t.Fatal("stderr before sampling should be +Inf")
	}
	tr.StepN(100)
	se100 := tr.MaxStdErr()
	tr.StepN(3900)
	se4000 := tr.MaxStdErr()
	if se4000 >= se100 {
		t.Fatalf("stderr did not shrink: %v → %v", se100, se4000)
	}
	// ~1/√τ scaling: 40× more samples ⇒ ~6.3× smaller, allow slack.
	if se4000 > se100/3 {
		t.Fatalf("stderr shrank too slowly: %v → %v", se100, se4000)
	}
}

func TestTrackerRunUntil(t *testing.T) {
	g := tableGame{n: 6, seed: 95}
	tr := NewTracker(g, rng.New(6))
	values, used := tr.RunUntil(0.05, 0.05, 30, 100000)
	if used >= 100000 {
		t.Fatalf("did not converge within cap (used %d)", used)
	}
	if used < 30 {
		t.Fatalf("stopped before minSamples: %d", used)
	}
	want := Exact(g)
	for i := range want {
		if math.Abs(values[i]-want[i]) > 0.1 {
			t.Fatalf("converged estimate %d off by %v", i, values[i]-want[i])
		}
	}
	// An impossible precision should exhaust the cap.
	tr2 := NewTracker(g, rng.New(7))
	_, used2 := tr2.RunUntil(1e-9, 0.05, 30, 200)
	if used2 != 200 {
		t.Fatalf("cap not honoured: %d", used2)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.0001, -3.719016},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("normalQuantile(0) did not panic")
		}
	}()
	normalQuantile(0)
}

// StepN samples n permutations.
func (t *Tracker) StepN(n int) {
	for i := 0; i < n; i++ {
		t.Step()
	}
}
