package core

import (
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/ml"
	"dynshap/internal/rng"
	"dynshap/internal/utility"
)

// The incremental-prefix protocol's headline guarantee: every estimator
// produces the SAME result — to the last bit — whether the game exposes the
// capability or not, because the walker consumes no randomness and the
// evaluator's Adds equal scratch Values exactly. These tests run each
// estimator twice on the same KNN utility with the same seed: once directly
// (Prefixer capability visible) and once wrapped in game.Func (capability
// hidden → scratch fallback), and require exact slice equality.

// knnPair returns the same KNN valuation game twice: with the Prefixer
// capability visible, and hidden behind a game.Func wrapper.
func knnPair(t *testing.T, n int) (*utility.ModelUtility, game.Game) {
	t.Helper()
	rnd := rng.New(42)
	pool := dataset.IrisLike(rnd, n+12)
	pool.Standardize()
	train, test := pool.Split(float64(n) / float64(n+12))
	if train.Len() != n {
		t.Fatalf("split yielded %d train points, want %d", train.Len(), n)
	}
	u := utility.NewModelUtility(train, test, ml.KNN{K: 3})
	if game.PrefixEvaluatorOf(u) == nil {
		t.Fatal("KNN utility lost the Prefixer capability")
	}
	return u, game.Func{Players: n, U: u.Value}
}

// knnPlusPair is knnPair for the (n+1)-player updated game of the addition
// algorithms: the last player is an appended point.
func knnPlusPair(t *testing.T, n int) (*utility.ModelUtility, game.Game) {
	t.Helper()
	u, _ := knnPair(t, n)
	x := make([]float64, u.Train().Dim())
	for i := range x {
		x[i] = 0.25 * float64(i+1)
	}
	uPlus := u.Append(dataset.Point{X: x, Y: 1})
	return uPlus, game.Func{Players: n + 1, U: uPlus.Value}
}

func sameSlice(t *testing.T, name string, inc, fb []float64) {
	t.Helper()
	if len(inc) != len(fb) {
		t.Fatalf("%s: length %d vs %d", name, len(inc), len(fb))
	}
	for i := range inc {
		if inc[i] != fb[i] {
			t.Fatalf("%s: player %d differs: incremental %v, fallback %v", name, i, inc[i], fb[i])
		}
	}
}

func TestPrefixBitIdenticalMonteCarlo(t *testing.T) {
	u, hidden := knnPair(t, 14)
	sameSlice(t, "MonteCarlo",
		MonteCarlo(u, 25, rng.New(7)),
		MonteCarlo(hidden, 25, rng.New(7)))
	if u.PrefixAdds() == 0 {
		t.Fatal("incremental run never used the evaluator")
	}
	sameSlice(t, "TruncatedMonteCarlo",
		TruncatedMonteCarlo(u, 25, 0.05, rng.New(8)),
		TruncatedMonteCarlo(hidden, 25, 0.05, rng.New(8)))
}

func TestPrefixBitIdenticalMonteCarloParallel(t *testing.T) {
	u, hidden := knnPair(t, 14)
	sameSlice(t, "MonteCarloParallel",
		NewEngine(WithWorkers(3)).MonteCarlo(u, 24, rng.New(11)),
		NewEngine(WithWorkers(3)).MonteCarlo(hidden, 24, rng.New(11)))
}

func TestPrefixBitIdenticalPivotFamily(t *testing.T) {
	u, hidden := knnPair(t, 10)
	uPlus, hiddenPlus := knnPlusPair(t, 10)

	stInc := pivotInit(u, 30, true, rng.New(13))
	stFb := pivotInit(hidden, 30, true, rng.New(13))
	sameSlice(t, "pivotInit.SV", stInc.SV, stFb.SV)
	sameSlice(t, "pivotInit.LSV", stInc.LSV, stFb.LSV)

	svInc, err := stInc.Clone().AddSame(uPlus, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	svFb, err := stFb.Clone().AddSame(hiddenPlus, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "AddSame", svInc, svFb)

	svInc, err = NewEngine().AddDifferent(stInc.Clone(), uPlus, 20, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	svFb, err = NewEngine().AddDifferent(stFb.Clone(), hiddenPlus, 20, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "AddDifferent", svInc, svFb)
}

func TestPrefixBitIdenticalDeltaFamily(t *testing.T) {
	u, hidden := knnPair(t, 10)
	uPlus, hiddenPlus := knnPlusPair(t, 10)
	oldSV := MonteCarlo(hidden, 20, rng.New(17))

	svInc, err := deltaAdd(uPlus, oldSV, 20, rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	svFb, err := deltaAdd(hiddenPlus, oldSV, 20, rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "DeltaAdd", svInc, svFb)

	svInc, err = deltaAddWorkers(uPlus, oldSV, 18, 3, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	svFb, err = deltaAddWorkers(hiddenPlus, oldSV, 18, 3, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "DeltaAddParallel", svInc, svFb)

	svInc, err = deltaDelete(u, oldSV, 4, 20, rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	svFb, err = deltaDelete(hidden, oldSV, 4, 20, rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "DeltaDelete", svInc, svFb)
}

func TestPrefixBitIdenticalInitializeAndDeletionStores(t *testing.T) {
	u, hidden := knnPair(t, 8)

	must := func(sv []float64, err error) []float64 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}

	opt := InitOptions{KeepPerms: true, TrackDeletions: true}
	resInc, err := Initialize(u, 20, opt, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	resFb, err := Initialize(hidden, 20, opt, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "Initialize.SV", resInc.Pivot.SV, resFb.Pivot.SV)
	sameSlice(t, "Initialize.LSV", resInc.Pivot.LSV, resFb.Pivot.LSV)
	delInc := must(resInc.Deletion.Merge(3))
	delFb := must(resFb.Deletion.Merge(3))
	sameSlice(t, "Initialize.Deletion", delInc, delFb)

	dsInc := PreprocessDeletion(u, 20, rng.New(22))
	dsFb := PreprocessDeletion(hidden, 20, rng.New(22))
	sameSlice(t, "PreprocessDeletion.SV", dsInc.SV, dsFb.SV)
	sameSlice(t, "PreprocessDeletion.Delete", must(dsInc.Merge(2)), must(dsFb.Merge(2)))

	msInc, err := PreprocessMultiDeletion(u, 2, []int{0, 1, 2, 3}, 15, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	msFb, err := PreprocessMultiDeletion(hidden, 2, []int{0, 1, 2, 3}, 15, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	mdInc, err := msInc.Merge(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	mdFb, err := msFb.Merge(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "PreprocessMultiDeletion.Delete", mdInc, mdFb)
}

// The incremental path must spare trainings: an MC run over a KNN Prefixer
// should train no model beyond the two boundary coalitions (∅ is free, the
// full set is evaluated by TMC only).
func TestPrefixSparesTrainings(t *testing.T) {
	u, _ := knnPair(t, 14)
	MonteCarlo(u, 10, rng.New(31))
	if fits := u.Fits(); fits != 0 {
		t.Fatalf("incremental MC trained %d models, want 0", fits)
	}
	if adds := u.PrefixAdds(); adds != 10*14 {
		t.Fatalf("PrefixAdds = %d, want %d", adds, 10*14)
	}
}

// Classic closed-form games ride the same protocol; spot-check one walk
// through the core estimators rather than only game-level unit tests.
func TestPrefixBitIdenticalClassicGame(t *testing.T) {
	g := game.Airport{Costs: []float64{1, 4, 2, 8, 5, 7, 3, 6, 2, 4, 9, 1}}
	hidden := game.Func{Players: g.N(), U: g.Value}
	sameSlice(t, "MonteCarlo/airport",
		MonteCarlo(g, 40, rng.New(29)),
		MonteCarlo(hidden, 40, rng.New(29)))
	sameSlice(t, "Exact-vs-walker sanity", Exact(g), Exact(hidden))
}

// The walker itself: fallback mode must reproduce the scratch walk on a
// cached game, touching the cache exactly as the old code did.
func TestPrefixWalkerFallbackUsesValues(t *testing.T) {
	calls := 0
	g := game.Func{Players: 5, U: func(s bitset.Set) float64 {
		calls++
		return float64(s.Len() * s.Len())
	}}
	w := newPrefixWalker(g)
	if w.incremental() {
		t.Fatal("Func game unexpectedly incremental")
	}
	w.reset()
	for i, p := range []int{3, 0, 4} {
		if got, want := w.add(p), float64((i+1)*(i+1)); got != want {
			t.Fatalf("add(%d) = %v, want %v", p, got, want)
		}
	}
	if calls != 3 {
		t.Fatalf("fallback issued %d Value calls, want 3", calls)
	}
	// seed must not evaluate in fallback mode.
	w.reset()
	if got := w.seed(1, 123.5); got != 123.5 || calls != 3 {
		t.Fatalf("seed evaluated (calls=%d, got=%v)", calls, got)
	}
}
