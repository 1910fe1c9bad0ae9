package utility

import (
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/ml"
	"dynshap/internal/rng"
)

// knnFixture builds a standardised Iris-like valuation workload.
func knnFixture(t *testing.T, n, testSize, k int, seed uint64) *ModelUtility {
	t.Helper()
	rnd := rng.New(seed)
	pool := dataset.IrisLike(rnd, n+testSize)
	pool.Standardize()
	train, test := pool.Split(float64(n) / float64(n+testSize))
	if train.Len() != n {
		t.Fatalf("split yielded %d train points, want %d", train.Len(), n)
	}
	return NewModelUtility(train, test, ml.KNN{K: k})
}

// TestKNNPrefixMatchesScratchExactly is the property test backing the
// incremental protocol's bit-identity contract: on random permutations and
// random k, every prefix utility from the evaluator must EQUAL (==, no
// tolerance) the scratch Value of the same coalition.
func TestKNNPrefixMatchesScratchExactly(t *testing.T) {
	rnd := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 8 + rnd.Intn(25)
		k := 1 + rnd.Intn(9) // deliberately often exceeds small prefix sizes
		u := knnFixture(t, n, 10+rnd.Intn(20), k, uint64(1000+trial))
		ev := game.PrefixEvaluatorOf(u)
		if ev == nil {
			t.Fatal("KNN utility does not expose a prefix evaluator")
		}
		for rep := 0; rep < 3; rep++ {
			perm := rnd.PermN(n)
			prefix := bitset.New(n)
			ev.Reset()
			for pos, p := range perm {
				prefix.Add(p)
				want := u.Value(prefix)
				got := ev.Add(p)
				if got != want {
					t.Fatalf("trial %d rep %d k=%d pos %d (player %d): Add = %v, Value = %v",
						trial, rep, k, pos, p, got, want)
				}
			}
		}
	}
}

// The default-k (K=0 → 5) path and reuse across Resets must also agree.
func TestKNNPrefixDefaultKAndReuse(t *testing.T) {
	u := knnFixture(t, 20, 15, 0, 7)
	ev := game.PrefixEvaluatorOf(u)
	rnd := rng.New(3)
	prefix := bitset.New(20)
	for rep := 0; rep < 5; rep++ {
		perm := rnd.PermN(20)
		prefix.Clear()
		ev.Reset()
		for _, p := range perm {
			prefix.Add(p)
			if got, want := ev.Add(p), u.Value(prefix); got != want {
				t.Fatalf("rep %d: Add(%d) = %v, Value = %v", rep, p, got, want)
			}
		}
	}
}

func TestKNNPrefixCountsAdds(t *testing.T) {
	u := knnFixture(t, 10, 5, 3, 1)
	ev := game.PrefixEvaluatorOf(u)
	ev.Reset()
	for p := 0; p < 10; p++ {
		ev.Add(p)
	}
	if got := u.PrefixAdds(); got != 10 {
		t.Fatalf("PrefixAdds = %d, want 10", got)
	}
	if got := u.Fits(); got != 0 {
		t.Fatalf("incremental walk trained %d models, want 0", got)
	}
}

// Non-KNN trainers must not claim the capability.
func TestPrefixUnavailableForOtherTrainers(t *testing.T) {
	rnd := rng.New(5)
	pool := dataset.IrisLike(rnd, 30)
	train, test := pool.Split(0.5)
	for name, tr := range map[string]ml.Trainer{
		"nb":  ml.NaiveBayes{},
		"svm": ml.SVM{Epochs: 3},
	} {
		u := NewModelUtility(train, test, tr)
		if ev := game.PrefixEvaluatorOf(u); ev != nil {
			t.Errorf("%s trainer unexpectedly yields evaluator %T", name, ev)
		}
	}
}

// A utility derived by Append or Remove shares the receiver's test set,
// which no utility modifies. Even a mutation of the derived utility's
// test points must leave the receiver's values as they were: its k-NN
// values read distances from the kernel built at construction.
func TestAppendRemoveCloneTestSet(t *testing.T) {
	u := knnFixture(t, 10, 8, 3, 11)
	s := bitset.FromIndices(10, 0, 3, 7)

	plus := u.Append(dataset.Point{X: make([]float64, u.Train().Dim()), Y: 0})
	plus.Test().Points[0].X[0] = 0 // Test() clones; mutate via the internal pointer instead
	plus.test.Points[0].X[0] += 1e6
	if got, want := u.Value(s), knnFixture(t, 10, 8, 3, 11).Value(s); got != want {
		t.Fatalf("mutating the appended utility's test set changed the parent: %v != %v", got, want)
	}

	minus := u.Remove(9)
	minus.test.Points[0].X[0] += 1e6
	if got, want := u.Value(s), knnFixture(t, 10, 8, 3, 11).Value(s); got != want {
		t.Fatalf("mutating the removed utility's test set changed the parent: %v != %v", got, want)
	}
}
