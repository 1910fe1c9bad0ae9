package core

import (
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// costGame is a cheap saturating game for exercising the cost probes.
func costGame(n int) game.Game {
	return game.Func{Players: n, U: func(s bitset.Set) float64 {
		return float64(s.Len()) / float64(n+1)
	}}
}

func TestMergeCostsAreEvaluationFree(t *testing.T) {
	g := costGame(8)
	ds := PreprocessDeletion(g, 100, rng.New(1))
	c := ds.MergeCost()
	if c.Evaluations != 0 {
		t.Fatalf("YN-NN merge predicts %d evaluations, want 0", c.Evaluations)
	}
	if c.ArrayOps <= 0 {
		t.Fatalf("YN-NN merge predicts %d array ops", c.ArrayOps)
	}
	ms, err := PreprocessMultiDeletion(g, 2, []int{0, 1, 2}, 100, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	mc := ms.MergeCost()
	if mc.Evaluations != 0 || mc.ArrayOps <= 0 {
		t.Fatalf("YNN-NNN merge cost = %+v", mc)
	}
}

func TestMultiDeletionCovers(t *testing.T) {
	g := costGame(8)
	ms, err := PreprocessMultiDeletion(g, 2, []int{0, 1, 2}, 50, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Covers(2, 0) {
		t.Fatal("Covers(2,0) = false for covered tuple")
	}
	if ms.Covers(0, 5) {
		t.Fatal("Covers(0,5) = true for uncovered tuple")
	}
	if ms.Covers(0) {
		t.Fatal("Covers with wrong arity should be false")
	}
}

func TestUpdateCostOrdering(t *testing.T) {
	// The orderings the planner relies on: exact merges cost no
	// evaluations; a per-point delta pass costs more evaluations than one
	// MC permutation budget of the same τ; pivot suffix replay costs about
	// half a full pass.
	n, tau := 100, 500
	if DeltaAddCost(n, tau).Evaluations <= MonteCarloCost(n, tau).Evaluations {
		t.Fatal("delta per-point evaluations should exceed one MC pass at equal τ")
	}
	if PivotAddDifferentCost(n, tau).Evaluations >= MonteCarloCost(n+1, tau).Evaluations {
		t.Fatal("pivot suffix replay should undercut a full MC pass")
	}
	st := pivotInit(costGame(10), 50, true, rng.New(1))
	if c := st.AddSameCost(); c.Evaluations <= 0 {
		t.Fatalf("AddSameCost = %+v", c)
	}
	sum := DeltaDeleteCost(n, tau).Plus(DeltaDeleteCost(n, tau))
	if sum.Evaluations != 2*DeltaDeleteCost(n, tau).Evaluations {
		t.Fatal("Plus does not sum evaluations")
	}
	if DeltaDeleteCost(n, tau).Times(3).Evaluations != 3*DeltaDeleteCost(n, tau).Evaluations {
		t.Fatal("Times does not scale evaluations")
	}
	if MonteCarloCost(n, tau).String() == "" {
		t.Fatal("empty cost string")
	}
}

func TestNewStreamIndependence(t *testing.T) {
	a, b := rng.NewStream(7, 1), rng.NewStream(7, 2)
	same := rng.NewStream(7, 1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("distinct streams start identically")
	}
	x, y := same.Uint64(), rng.NewStream(7, 1).Uint64()
	if x != y {
		t.Fatal("NewStream is not pure")
	}
}
