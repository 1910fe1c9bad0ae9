package dynshap_test

// Black-box tests of the public facade: everything here exercises the API
// exactly as a downstream module would (external test package, no internal
// imports except the library's own entry point).

import (
	"bytes"
	"math"
	"testing"

	"dynshap"
)

// gloveGame is the classic 3-player glove market with known Shapley values
// (2/3, 1/6, 1/6).
func gloveGame() dynshap.Game {
	return dynshap.GameFunc{Players: 3, U: func(s dynshap.Coalition) float64 {
		l := 0
		if s.Contains(0) {
			l = 1
		}
		r := 0
		if s.Contains(1) {
			r++
		}
		if s.Contains(2) {
			r++
		}
		if l < r {
			return float64(l)
		}
		return float64(r)
	}}
}

func TestExactShapleyGlove(t *testing.T) {
	sv := dynshap.ExactShapley(gloveGame())
	want := []float64{2.0 / 3, 1.0 / 6, 1.0 / 6}
	for i := range want {
		if math.Abs(sv[i]-want[i]) > 1e-12 {
			t.Fatalf("SV = %v, want %v", sv, want)
		}
	}
}

func TestLeaveOneOutFacade(t *testing.T) {
	loo := dynshap.LeaveOneOut(gloveGame())
	// Removing the left glove destroys the pair: LOO_0 = 1. Removing one of
	// the two right gloves changes nothing: LOO_1 = LOO_2 = 0.
	if loo[0] != 1 || loo[1] != 0 || loo[2] != 0 {
		t.Fatalf("LOO = %v, want [1 0 0]", loo)
	}
}

func TestTrackerFacade(t *testing.T) {
	tr := dynshap.NewShapleyTracker(gloveGame(), 5)
	values, used := tr.RunUntil(0.02, 0.05, 30, 100000)
	if used >= 100000 {
		t.Fatal("tracker did not converge")
	}
	want := dynshap.ExactShapley(gloveGame())
	for i := range want {
		if math.Abs(values[i]-want[i]) > 0.1 {
			t.Fatalf("tracker value %d = %v, want ≈%v", i, values[i], want[i])
		}
	}
	if tr.MaxStdErr() <= 0 {
		t.Fatal("stderr should be positive after sampling")
	}
}

func TestPivotStatePersistenceFacade(t *testing.T) {
	g := gloveGame()
	st := dynshap.NewPivotState(g, 2000, true, 3)
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dynshap.ReadPivotState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dynshap.MSE(back.SV, st.SV) != 0 {
		t.Fatal("restored pivot state differs")
	}
}

func TestDeletionArraysPersistenceFacade(t *testing.T) {
	g := gloveGame()
	arrays := dynshap.PreprocessDeletion(g, 5000, 7)
	var buf bytes.Buffer
	if err := arrays.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dynshap.ReadDeletionArrays(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := arrays.Merge(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Merge(2)
	if err != nil {
		t.Fatal(err)
	}
	if dynshap.MSE(a, b) != 0 {
		t.Fatal("restored arrays merge differently")
	}
	// Post-deletion glove market {left, right}: SV = (1/2, 1/2) — check the
	// restored arrays track it.
	if math.Abs(b[0]-0.5) > 0.05 || math.Abs(b[1]-0.5) > 0.05 {
		t.Fatalf("merged values %v, want ≈[0.5 0.5 0]", b)
	}
}

func TestMultiDeletionArraysPersistenceFacade(t *testing.T) {
	g := dynshap.GameFunc{Players: 5, U: func(s dynshap.Coalition) float64 {
		return float64(s.Len() * s.Len())
	}}
	arrays, err := dynshap.PreprocessMultiDeletion(g, 2, []int{0, 2, 4}, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := arrays.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dynshap.ReadMultiDeletionArrays(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := arrays.Merge(0, 4)
	b, _ := back.Merge(0, 4)
	if dynshap.MSE(a, b) != 0 {
		t.Fatal("restored multi arrays merge differently")
	}
}

func TestDeltaAddShapleyOnGame(t *testing.T) {
	// Grow the glove market by a second left glove. New exact values:
	// symmetric two-left-two-right market.
	grown := dynshap.GameFunc{Players: 4, U: func(s dynshap.Coalition) float64 {
		l := 0
		if s.Contains(0) {
			l++
		}
		if s.Contains(3) {
			l++
		}
		r := 0
		if s.Contains(1) {
			r++
		}
		if s.Contains(2) {
			r++
		}
		return math.Min(float64(l), float64(r))
	}}
	oldSV := dynshap.ExactShapley(gloveGame())
	got, err := dynshap.DeltaAddShapley(grown, oldSV, 30000, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := dynshap.ExactShapley(grown)
	if m := dynshap.MSE(got, want); m > 1e-3 {
		t.Fatalf("DeltaAdd on game MSE = %v (got %v, want %v)", m, got, want)
	}
	// Workers only price prefixes; one goroutine folds them in order, so
	// the parallel form returns the serial values at every worker count.
	for _, workers := range []int{1, 2, 3} {
		par, err := dynshap.DeltaAddShapleyParallel(grown, oldSV, 30000, workers, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if par[i] != got[i] {
				t.Fatalf("workers=%d: value %d = %v, serial %v", workers, i, par[i], got[i])
			}
		}
	}
}

func TestDeltaDeleteShapleyOnGame(t *testing.T) {
	g := gloveGame()
	oldSV := dynshap.ExactShapley(g)
	got, err := dynshap.DeltaDeleteShapley(g, oldSV, 2, 30000, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Remaining {left, right}: SV = (1/2, 1/2).
	if math.Abs(got[0]-0.5) > 0.02 || math.Abs(got[1]-0.5) > 0.02 || got[2] != 0 {
		t.Fatalf("post-deletion values %v, want ≈[0.5 0.5 0]", got)
	}
}

func TestRestrictGameFacade(t *testing.T) {
	r := dynshap.RestrictGame(gloveGame(), 1)
	if r.N() != 2 {
		t.Fatalf("restricted N = %d", r.N())
	}
	// {left, right} pair present.
	if got := r.Value(dynshap.FullCoalition(2)); got != 1 {
		t.Fatalf("restricted U(N) = %v", got)
	}
}

func TestSampleSizeMonotonicity(t *testing.T) {
	// Larger n makes the delta-addition bound approach the plain Hoeffding
	// bound from below.
	small := dynshap.DeltaAddSampleSize(10, 0.1, 0.01, 0.05)
	large := dynshap.DeltaAddSampleSize(10000, 0.1, 0.01, 0.05)
	if small > large {
		t.Fatalf("bound should grow with n: %d vs %d", small, large)
	}
}

func TestKNNShapleyFacade(t *testing.T) {
	data := dynshap.IrisLike(30, 41)
	data.Standardize()
	train := data.Subset(rangeInts(0, 10))
	test := data.Subset(rangeInts(10, 30))
	exact, err := dynshap.KNNShapley(train, test, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The closed form must agree with enumeration of the matching game.
	enum := dynshap.ExactShapley(dynshap.SoftKNNGame(train, test, 3))
	if m := dynshap.MSE(exact, enum); m > 1e-20 {
		t.Fatalf("closed form vs enumeration MSE = %v", m)
	}
}

func TestShapleyShubikFacade(t *testing.T) {
	power, err := dynshap.ShapleyShubik([]int{4, 2, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Known example: [4;2;1] quota 5 → (2/3, 1/6, 1/6).
	want := []float64{2.0 / 3, 1.0 / 6, 1.0 / 6}
	for i := range want {
		if math.Abs(power[i]-want[i]) > 1e-12 {
			t.Fatalf("power = %v, want %v", power, want)
		}
	}
}

func TestBanzhafFacade(t *testing.T) {
	g := gloveGame()
	exact := dynshap.ExactBanzhaf(g)
	// Glove market Banzhaf (raw): left glove swings for {1},{2},{1,2} → 3/4;
	// each right glove swings only for {0} → 1/4.
	want := []float64{0.75, 0.25, 0.25}
	for i := range want {
		if math.Abs(exact[i]-want[i]) > 1e-12 {
			t.Fatalf("Banzhaf = %v, want %v", exact, want)
		}
	}
	mc := dynshap.MonteCarloBanzhaf(g, 20000, 9)
	if m := dynshap.MSE(mc, exact); m > 1e-3 {
		t.Fatalf("MC Banzhaf MSE = %v", m)
	}
	if got := dynshap.MonteCarloBanzhaf(g, 0, 9); len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("τ = 0 MC Banzhaf = %v, want three zeros", got)
	}
}

// TestMonteCarloSemivaluesFacade checks the multi-head pass's shape and
// its heads' independence: each head of a multi-head pass equals the
// same head priced alone at the same seed, bit for bit, and degenerate
// calls return one zeroed slice per head.
func TestMonteCarloSemivaluesFacade(t *testing.T) {
	g := gloveGame()
	heads := []dynshap.Semivalue{dynshap.Shapley(), dynshap.Banzhaf(), dynshap.Beta(4, 1)}
	all := dynshap.MonteCarloSemivalues(g, heads, 500, 3)
	if len(all) != len(heads) {
		t.Fatalf("%d heads priced, want %d", len(all), len(heads))
	}
	for h, w := range heads {
		alone := dynshap.MonteCarloSemivalues(g, []dynshap.Semivalue{w}, 500, 3)[0]
		for i := range alone {
			if all[h][i] != alone[i] {
				t.Fatalf("head %v: multi-head value %d is %v, alone %v", w, i, all[h][i], alone[i])
			}
		}
	}
	for _, c := range []struct {
		g   dynshap.Game
		tau int
		ws  []dynshap.Semivalue
	}{{g, 0, heads}, {dynshap.GameFunc{}, 10, heads}, {g, 10, nil}} {
		out := dynshap.MonteCarloSemivalues(c.g, c.ws, c.tau, 3)
		if len(out) != len(c.ws) {
			t.Fatalf("degenerate call priced %d heads, want %d", len(out), len(c.ws))
		}
		for _, vals := range out {
			if len(vals) != c.g.N() {
				t.Fatalf("degenerate head has %d values, want %d", len(vals), c.g.N())
			}
			for _, v := range vals {
				if v != 0 {
					t.Fatalf("degenerate head holds %v, want zeros", vals)
				}
			}
		}
	}
}
