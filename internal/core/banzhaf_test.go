package core

import (
	"math"
	"testing"

	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

func TestExactBanzhafAdditive(t *testing.T) {
	// On additive games every semivalue returns the weights.
	g := game.Additive{Weights: []float64{1, -0.5, 2}}
	got := ExactBanzhaf(g)
	if d := maxAbsDiff(got, g.Weights); d > 1e-12 {
		t.Fatalf("Banzhaf on additive game diff %v", d)
	}
}

func TestExactBanzhafKnownVotingGame(t *testing.T) {
	// [quota 5; weights 4, 2, 1]: swings — player 0 swings in {}, {1}, {2},
	// {1,2}? w({1,2})=3 ≥... U(S∪0)−U(S): S=∅:0, {1}: 4+2=6≥5 → 1; {2}: 5 → 1;
	// {1,2}: 7 → 1. Raw Banzhaf of 0 = 3/4. Player 1: swings only with {0}:
	// 6 ≥ 5 but U({0})=0 → 1. So 1/4; symmetric for 2 with {0}: 5 → 1/4.
	g := game.WeightedVoting{Weights: []float64{4, 2, 1}, Quota: 5}
	got := ExactBanzhaf(g)
	want := []float64{0.75, 0.25, 0.25}
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("Banzhaf = %v, want %v", got, want)
	}
}

func TestExactBanzhafNullPlayer(t *testing.T) {
	g := game.Unanimity{Players: 4, Carrier: []int{0, 1}}
	got := ExactBanzhaf(g)
	if got[2] != 0 || got[3] != 0 {
		t.Fatalf("null players valued: %v", got)
	}
}

func TestMonteCarloBanzhafConverges(t *testing.T) {
	g := tableGame{n: 9, seed: 131}
	want := ExactBanzhaf(g)
	e := NewEngine(WithWorkers(1), WithSemivalues(semivalueBanzhaf))
	e.MonteCarlo(g, 20000, rng.New(1))
	got := e.HeadValues()[0]
	if mse := stat.MSE(got, want); mse > 1e-4 {
		t.Fatalf("MC Banzhaf MSE = %v", mse)
	}
}

func TestBanzhafDiffersFromShapley(t *testing.T) {
	// On non-symmetric games the two semivalues genuinely differ.
	g := game.WeightedVoting{Weights: []float64{4, 2, 1}, Quota: 5}
	banzhaf := ExactBanzhaf(g)
	shapley := Exact(g)
	diff := 0.0
	for i := range banzhaf {
		diff += math.Abs(banzhaf[i] - shapley[i])
	}
	if diff < 0.1 {
		t.Fatalf("Banzhaf %v suspiciously close to Shapley %v", banzhaf, shapley)
	}
}

func TestBanzhafDegenerate(t *testing.T) {
	if got := ExactBanzhaf(game.Additive{}); got != nil {
		t.Fatal("empty game should give nil")
	}
}

func TestBanzhafPanicsBeyondLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic beyond MaxExactPlayers")
		}
	}()
	ExactBanzhaf(game.Symmetric{Players: MaxExactPlayers + 1, F: func(int) float64 { return 0 }})
}
