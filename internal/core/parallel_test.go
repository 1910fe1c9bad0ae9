package core

import (
	"testing"

	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

// deltaAddWorkers is the single-point delta addition walked by workers
// goroutines: the batched walk at k = 1.
func deltaAddWorkers(gPlus game.Game, oldSV []float64, tau, workers int, r *rng.Source) ([]float64, error) {
	return NewEngine(WithWorkers(workers)).BatchDeltaAdd(gPlus, oldSV, 1, tau, r)
}

func TestDeltaAddParallelMatchesExact(t *testing.T) {
	gPlus := tableGame{n: 7, seed: 111}
	gD := restrictFirst(gPlus, 6)
	oldSV := Exact(gD)
	got, err := deltaAddWorkers(gPlus, oldSV, 30000, 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := Exact(gPlus)
	if mse := stat.MSE(got, want); mse > 1e-4 {
		t.Fatalf("parallel DeltaAdd MSE = %v", mse)
	}
}

func TestDeltaAddParallelDeterministic(t *testing.T) {
	gPlus := tableGame{n: 6, seed: 112}
	oldSV := make([]float64, 5)
	a, err := deltaAddWorkers(gPlus, oldSV, 500, 3, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := deltaAddWorkers(gPlus, oldSV, 500, 3, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("same-seed parallel DeltaAdd differs")
	}
}

func TestDeltaAddParallelValidation(t *testing.T) {
	gPlus := tableGame{n: 5, seed: 113}
	if _, err := deltaAddWorkers(gPlus, make([]float64, 3), 10, 2, rng.New(1)); err == nil {
		t.Fatal("size mismatch should fail")
	}
	if _, err := deltaAddWorkers(gPlus, make([]float64, 4), 0, 2, rng.New(1)); err == nil {
		t.Fatal("τ=0 should fail")
	}
}

func TestParallelWorkersClampedToTau(t *testing.T) {
	gPlus := tableGame{n: 4, seed: 117}
	oldSV := make([]float64, 3)
	if _, err := deltaAddWorkers(gPlus, oldSV, 2, 64, rng.New(8)); err != nil {
		t.Fatalf("clamped workers failed: %v", err)
	}
}
