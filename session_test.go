package dynshap

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture returns a small Iris-like train/test pair with a cheap utility
// model (KNN) so session tests run fast.
func fixture(t *testing.T, n int) (*Dataset, *Dataset) {
	t.Helper()
	d := IrisLike(n+30, 7)
	d.Standardize()
	train := d.Subset(seq(0, n))
	test := d.Subset(seq(n, n+30))
	return train, test
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func newTestSession(t *testing.T, n int, opts ...Option) *Session {
	t.Helper()
	train, test := fixture(t, n)
	base := []Option{WithSamples(30 * n), WithSeed(3), WithHeuristicK(3)}
	return NewSession(train, test, KNNClassifier{K: 3}, append(base, opts...)...)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestSessionInitValues(t *testing.T) {
	s := newTestSession(t, 12)
	if s.Values() != nil {
		t.Fatal("values before Init should be nil")
	}
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	sv := s.Values()
	if len(sv) != 12 {
		t.Fatalf("len(Values) = %d", len(sv))
	}
	// Balance: ΣSV = U(N) − U(∅) ∈ [−1, 1]; for an accuracy utility with a
	// sensible model the total should be positive.
	if total := sum(sv); total <= 0 || total > 1 {
		t.Fatalf("ΣSV = %v, expected in (0, 1]", total)
	}
	if s.N() != 12 {
		t.Fatalf("N = %d", s.N())
	}
	// The k-NN utility supports incremental prefix evaluation, so the walk
	// trains no models at all — the work shows up as prefix adds instead.
	if s.ModelTrainings()+s.PrefixAdds() == 0 {
		t.Fatal("no utility work recorded")
	}
	if s.PrefixAdds() == 0 {
		t.Fatal("k-NN session did not use the incremental prefix path")
	}
}

func TestSessionUpdateBeforeInitFails(t *testing.T) {
	s := newTestSession(t, 8)
	if _, err := s.Add([]Point{{X: []float64{0, 0, 0, 0}, Y: 0}}, AlgoDelta); err != ErrNotInitialized {
		t.Fatalf("Add err = %v, want ErrNotInitialized", err)
	}
	if _, err := s.Delete([]int{0}, AlgoDelta); err != ErrNotInitialized {
		t.Fatalf("Delete err = %v, want ErrNotInitialized", err)
	}
}

func TestSessionAddAlgorithmsAgree(t *testing.T) {
	// All sampling-based addition algorithms must land near the from-scratch
	// MC estimate on the extended set.
	algos := []Algorithm{AlgoPivotSame, AlgoPivotDifferent, AlgoDelta, AlgoMonteCarlo}
	p := Point{X: []float64{0.1, -0.2, 0.3, 0}, Y: 1}
	results := map[Algorithm][]float64{}
	for _, algo := range algos {
		s := newTestSession(t, 10, WithKeepPermutations())
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		got, err := s.Add([]Point{p}, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(got) != 11 {
			t.Fatalf("%v: len = %d", algo, len(got))
		}
		if s.N() != 11 {
			t.Fatalf("%v: N = %d", algo, s.N())
		}
		results[algo] = got
	}
	ref := results[AlgoMonteCarlo]
	for _, algo := range algos[:3] {
		if m := MSE(results[algo], ref); m > 5e-3 {
			t.Errorf("%v MSE vs MC = %v", algo, m)
		}
	}
}

func TestSessionAddHeuristics(t *testing.T) {
	s := newTestSession(t, 10)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	before := s.Values()
	trainings := s.ModelTrainings()
	p := Point{X: []float64{0, 0, 0, 0}, Y: 0}
	got, err := s.Add([]Point{p}, AlgoKNN)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range before {
		if got[i] != before[i] {
			t.Fatal("KNN changed original values")
		}
	}
	if s.ModelTrainings() != trainings {
		t.Fatal("KNN heuristic should not train models")
	}
}

func TestSessionAddKNNPlus(t *testing.T) {
	s := newTestSession(t, 10, WithKNNPlusConfig(KNNPlusConfig{CurveSamples: 4, CurveTau: 50, Degree: 2}))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Add([]Point{{X: []float64{0, 0, 0, 0}, Y: 0}}, AlgoKNNPlus)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestSessionAddBase(t *testing.T) {
	s := newTestSession(t, 8)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	before := s.Values()
	got, err := s.Add([]Point{{X: []float64{0, 0, 0, 0}, Y: 0}}, AlgoBase)
	if err != nil {
		t.Fatal(err)
	}
	avg := sum(before) / float64(len(before))
	if math.Abs(got[8]-avg) > 1e-12 {
		t.Fatalf("Base new value = %v, want avg %v", got[8], avg)
	}
}

func TestSessionDeleteYNNNMatchesMC(t *testing.T) {
	s := newTestSession(t, 10, WithTrackDeletions())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	trainingsBefore := s.ModelTrainings()
	got, err := s.Delete([]int{4}, AlgoYNNN)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("len = %d", len(got))
	}
	if s.ModelTrainings() != trainingsBefore {
		t.Fatal("YN-NN deletion trained models")
	}
	if s.N() != 9 {
		t.Fatalf("N = %d", s.N())
	}
	// Compare against a from-scratch MC on the reduced set.
	s2 := newTestSession(t, 10)
	if err := s2.Init(); err != nil {
		t.Fatal(err)
	}
	ref, err := s2.Delete([]int{4}, AlgoMonteCarlo)
	if err != nil {
		t.Fatal(err)
	}
	if m := MSE(got, ref); m > 5e-3 {
		t.Fatalf("YN-NN vs MC MSE = %v", m)
	}
}

func TestSessionDeleteMultiYNNN(t *testing.T) {
	s := newTestSession(t, 9, WithTrackDeletions(), WithMultiDelete(2, []int{1, 3, 5}))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Delete([]int{5, 1}, AlgoYNNN)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("len = %d", len(got))
	}
	// Uncovered pair must fail cleanly.
	s2 := newTestSession(t, 9, WithTrackDeletions(), WithMultiDelete(2, []int{1, 3, 5}))
	if err := s2.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Delete([]int{0, 2}, AlgoYNNN); err == nil {
		t.Fatal("uncovered tuple should fail")
	}
}

func TestSessionDeleteDelta(t *testing.T) {
	s := newTestSession(t, 10)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Delete([]int{2, 7}, AlgoDelta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("len = %d", len(got))
	}
	s2 := newTestSession(t, 10)
	if err := s2.Init(); err != nil {
		t.Fatal(err)
	}
	ref, err := s2.Delete([]int{2, 7}, AlgoMonteCarlo)
	if err != nil {
		t.Fatal(err)
	}
	if m := MSE(got, ref); m > 5e-3 {
		t.Fatalf("Delta vs MC MSE = %v", m)
	}
}

func TestSessionDeleteValidation(t *testing.T) {
	s := newTestSession(t, 6, WithTrackDeletions())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete([]int{6}, AlgoYNNN); err == nil {
		t.Fatal("out-of-range index should fail")
	}
	if _, err := s.Delete([]int{1, 1}, AlgoYNNN); err == nil {
		t.Fatal("duplicate index should fail")
	}
	if _, err := s.Delete([]int{0, 1}, AlgoYNNN); err == nil {
		t.Fatal("multi delete without multi store should fail")
	}
	if _, err := s.Delete([]int{0}, AlgoBase); err == nil {
		t.Fatal("Base cannot delete")
	}
}

func TestSessionYNNNStaleAfterUpdate(t *testing.T) {
	s := newTestSession(t, 8, WithTrackDeletions())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([]Point{{X: []float64{0, 0, 0, 0}, Y: 0}}, AlgoKNN); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete([]int{0}, AlgoYNNN); err != ErrStaleStores {
		t.Fatalf("err = %v, want ErrStaleStores", err)
	}
	// Refresh rebuilds the arrays for the new player set.
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete([]int{0}, AlgoYNNN); err != nil {
		t.Fatalf("after Refresh: %v", err)
	}
}

// TestSessionPivotSameNamesRemedy checks that a Pivot-s request on a state
// without stored permutations names the cause and a remedy the session
// offers: WithKeepPermutations when the session keeps none, Refresh after
// an AlgoPivotDifferent add, an add by another algorithm, or a deletion
// that dropped the pivot state. A Pivot-d request after the latter two,
// which leave no pivot state for the player set, names Refresh too. A
// missing pivot state still matches ErrNotInitialized, on which journal
// replay rebuilds the artifacts.
func TestSessionPivotSameNamesRemedy(t *testing.T) {
	point := []Point{{X: []float64{0, 0, 0, 0}, Y: 0}}
	add := func(algo Algorithm) func(*Session) error {
		return func(s *Session) error { _, err := s.Add(point, algo); return err }
	}
	keep := []Option{WithKeepPermutations()}
	for _, c := range []struct {
		name    string
		opts    []Option
		before  func(*Session) error
		remedy  string
		noPivot bool
		pivotD  bool // Pivot-d fails too
	}{
		{"without WithKeepPermutations", nil, nil, "WithKeepPermutations", false, false},
		{"after AlgoPivotDifferent", keep, add(AlgoPivotDifferent), "Refresh", false, false},
		{"after AlgoDelta add", keep, add(AlgoDelta), "Refresh", false, true},
		{"after AlgoDelta delete", keep, func(s *Session) error {
			_, err := s.Delete([]int{0}, AlgoDelta)
			return err
		}, "Refresh", true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newTestSession(t, 8, c.opts...)
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			if c.before != nil {
				if err := c.before(s); err != nil {
					t.Fatal(err)
				}
			}
			pivotSame := func() []error {
				_, errAdd := s.Add(point, AlgoPivotSame)
				_, errDel := s.Delete([]int{0}, AlgoPivotSameBatch)
				errs := []error{errAdd, errDel}
				if c.pivotD {
					_, errD := s.Add(point, AlgoPivotDifferent)
					errs = append(errs, errD)
				}
				return errs
			}
			for _, err := range pivotSame() {
				if err == nil {
					t.Fatal("Pivot-s ran without stored permutations")
				}
				msg := err.Error()
				if !strings.Contains(msg, c.remedy) || strings.Contains(msg, "PivotInit") || strings.Contains(msg, "call Init first") {
					t.Fatalf("error %q does not name the remedy %s", msg, c.remedy)
				}
				if errors.Is(err, ErrNotInitialized) != c.noPivot {
					t.Fatalf("errors.Is(%q, ErrNotInitialized) = %v, want %v", msg, !c.noPivot, c.noPivot)
				}
			}
			if c.remedy != "Refresh" {
				return
			}
			if err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
			for _, err := range pivotSame() {
				if err != nil {
					t.Fatalf("after Refresh: %v", err)
				}
			}
		})
	}
}

// TestSessionPivotDifferentEngineStats checks that EngineStats reports the
// Pivot-d pass itself after an AlgoPivotDifferent add: its τ is the update
// budget, not the initialisation's.
func TestSessionPivotDifferentEngineStats(t *testing.T) {
	s := newTestSession(t, 8, WithUpdateSamples(25))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([]Point{{X: []float64{0, 0, 0, 0}, Y: 0}}, AlgoPivotDifferent); err != nil {
		t.Fatal(err)
	}
	if st := s.EngineStats(); st.Issued != 25 || st.Budget != 25 {
		t.Fatalf("EngineStats after Pivot-d: Issued %d, Budget %d, want the update τ 25", st.Issued, st.Budget)
	}
}

func TestSessionInterleavedAddDelete(t *testing.T) {
	// §V-C: delta-based updates support interleaved dynamics end to end.
	s := newTestSession(t, 10)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([]Point{{X: []float64{0.5, 0.5, 0.5, 0.5}, Y: 1}}, AlgoDelta); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete([]int{0}, AlgoDelta); err != nil {
		t.Fatal(err)
	}
	got, err := s.Add([]Point{{X: []float64{-0.5, 0, 0, 0}, Y: 2}}, AlgoDelta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || s.N() != 11 {
		t.Fatalf("size after interleaving: %d/%d", len(got), s.N())
	}
	// Sanity: values stay in a plausible accuracy-shaped range.
	for i, v := range got {
		if math.Abs(v) > 1 {
			t.Fatalf("value %d = %v implausible", i, v)
		}
	}
}

func TestSessionAddEmptyAndDeleteEmpty(t *testing.T) {
	s := newTestSession(t, 6)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	before := s.Values()
	got, err := s.Add(nil, AlgoDelta)
	if err != nil {
		t.Fatal(err)
	}
	if MSE(got, before) != 0 {
		t.Fatal("empty Add changed values")
	}
	got, err = s.Delete(nil, AlgoDelta)
	if err != nil {
		t.Fatal(err)
	}
	if MSE(got, before) != 0 {
		t.Fatal("empty Delete changed values")
	}
}

func TestSessionDeterminism(t *testing.T) {
	run := func() []float64 {
		s := newTestSession(t, 10)
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		got, err := s.Add([]Point{{X: []float64{0, 0, 0, 0}, Y: 0}}, AlgoDelta)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if MSE(a, b) != 0 {
		t.Fatal("same-seed sessions diverge")
	}
}

func TestSessionCacheSavesTrainings(t *testing.T) {
	// Naive Bayes has no incremental prefix path, so every coalition
	// evaluation trains a model unless the cache intercepts it.
	train, test := fixture(t, 10)
	cached := NewSession(train, test, NaiveBayes{}, WithSamples(200), WithSeed(5))
	if err := cached.Init(); err != nil {
		t.Fatal(err)
	}
	uncached := NewSession(train, test, NaiveBayes{}, WithSamples(200), WithSeed(5), WithoutCache())
	if err := uncached.Init(); err != nil {
		t.Fatal(err)
	}
	if cached.ModelTrainings() >= uncached.ModelTrainings() {
		t.Fatalf("cache did not reduce trainings: %d vs %d",
			cached.ModelTrainings(), uncached.ModelTrainings())
	}
	hits, _ := cached.CacheStats()
	if hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestSessionPivotAddReusesCache(t *testing.T) {
	// Uses naive Bayes: with the k-NN trainer the incremental prefix path
	// sidesteps both trainings and the cache, leaving nothing to compare.
	train, test := fixture(t, 10)
	s := NewSession(train, test, NaiveBayes{},
		WithSamples(150), WithSeed(3), WithHeuristicK(3), WithKeepPermutations())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	initTrainings := s.ModelTrainings()
	if _, err := s.Add([]Point{{X: []float64{0, 0, 0, 0}, Y: 0}}, AlgoPivotSame); err != nil {
		t.Fatal(err)
	}
	addTrainings := s.ModelTrainings() - initTrainings
	// Pivot-s re-evaluates only the suffixes: with τ shared, the addition
	// must train well under the init count (≈ half of an MC pass on N⁺).
	if addTrainings >= initTrainings {
		t.Fatalf("Pivot-s trainings %d not below init %d", addTrainings, initTrainings)
	}
}

func TestSessionDataAligned(t *testing.T) {
	s := newTestSession(t, 6)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	p := Point{X: []float64{9, 9, 9, 9}, Y: 2}
	if _, err := s.Add([]Point{p}, AlgoKNN); err != nil {
		t.Fatal(err)
	}
	d := s.Data()
	if d.Len() != 7 || d.Points[6].X[0] != 9 {
		t.Fatal("Data not aligned after Add")
	}
	if _, err := s.Delete([]int{0}, AlgoKNN); err != nil {
		t.Fatal(err)
	}
	if s.Data().Len() != 6 {
		t.Fatal("Data not compacted after Delete")
	}
	if len(s.Values()) != 6 {
		t.Fatal("Values not compacted after Delete")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := newTestSession(t, 8)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := back.Resume(KNNClassifier{K: 3}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if MSE(resumed.Values(), s.Values()) != 0 {
		t.Fatal("resumed values differ")
	}
	if resumed.N() != 8 {
		t.Fatalf("resumed N = %d", resumed.N())
	}
	// Delta updates work immediately after resume.
	if _, err := resumed.Add([]Point{{X: []float64{0, 0, 0, 0}, Y: 0}}, AlgoDelta); err != nil {
		t.Fatal(err)
	}
	// YNNN requires Refresh.
	if _, err := resumed.Delete([]int{0}, AlgoYNNN); err == nil {
		t.Fatal("YNNN after resume without Refresh should fail")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	s := newTestSession(t, 6)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.json")
	if err := s.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Train) != 6 {
		t.Fatalf("loaded %d train points", len(back.Train))
	}
}

// A save that cannot encode its snapshot (JSON has no NaN) must fail
// without touching the file an earlier save wrote.
func TestSnapshotFailedSaveKeepsPrevious(t *testing.T) {
	s := newTestSession(t, 6)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.snap.json")
	if err := s.Snapshot().Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := s.Snapshot()
	bad.Values[0] = math.NaN()
	if err := bad.Save(path); err == nil {
		t.Fatal("saving a NaN value succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("a failed save changed the previous snapshot file")
	}
	if _, err := LoadSnapshot(path); err != nil {
		t.Fatalf("previous snapshot no longer loads: %v", err)
	}
}

func TestSnapshotValidation(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewBufferString("{")); err == nil {
		t.Fatal("truncated JSON should fail")
	}
	if _, err := ReadSnapshot(bytes.NewBufferString(`{"format":3}`)); err == nil {
		t.Fatal("unknown format should fail")
	}
	if _, err := ReadSnapshot(bytes.NewBufferString(`{"format":1,"train":[],"values":[1]}`)); err == nil {
		t.Fatal("value/train mismatch should fail")
	}
}

func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{
		AlgoMonteCarlo:     "MC",
		AlgoTruncatedMC:    "TMC",
		AlgoBase:           "Base",
		AlgoPivotSame:      "Pivot-s",
		AlgoPivotDifferent: "Pivot-d",
		AlgoDelta:          "Delta",
		AlgoYNNN:           "YN-NN",
		AlgoKNN:            "KNN",
		AlgoKNNPlus:        "KNN+",
		Algorithm(99):      "unknown",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestGameLevelAPI(t *testing.T) {
	g := GameFunc{Players: 3, U: func(s Coalition) float64 {
		if s.Contains(0) && s.Contains(1) {
			return 1
		}
		return 0
	}}
	exact := ExactShapley(g)
	if math.Abs(exact[0]-0.5) > 1e-12 || math.Abs(exact[1]-0.5) > 1e-12 || math.Abs(exact[2]) > 1e-12 {
		t.Fatalf("exact = %v", exact)
	}
	mc := MonteCarloShapley(g, 5000, 1)
	if MSE(mc, exact) > 1e-3 {
		t.Fatalf("MC MSE = %v", MSE(mc, exact))
	}
	// The walkers only price prefixes and one goroutine folds them in
	// permutation order, so the parallel estimate is the serial one.
	for w := 1; w <= 4; w++ {
		par := MonteCarloShapleyParallel(g, 5000, w, 1)
		for i := range par {
			if math.Float64bits(par[i]) != math.Float64bits(mc[i]) {
				t.Fatalf("MonteCarloShapleyParallel at %d workers: player %d = %v, serial %v", w, i, par[i], mc[i])
			}
		}
	}
	tmc := TruncatedMonteCarloShapley(g, 5000, 1e-12, 1)
	if MSE(tmc, exact) > 1e-3 {
		t.Fatalf("TMC MSE = %v", MSE(tmc, exact))
	}
}

func TestSampleSizeHelpers(t *testing.T) {
	if PivotSampleSize(1, 0.1, 0.05) <= 0 {
		t.Fatal("PivotSampleSize not positive")
	}
	// The delta bounds shrink with d — the whole point of §IV-B.
	if DeltaAddSampleSize(100, 0.05, 0.01, 0.05) >= PivotSampleSize(1, 0.01, 0.05) {
		t.Fatal("delta bound should beat pivot bound for small d")
	}
	if DeltaDeleteSampleSize(100, 0.05, 0.01, 0.05) <= 0 {
		t.Fatal("DeltaDeleteSampleSize not positive")
	}
}

func TestCoalitionHelpers(t *testing.T) {
	c := CoalitionOf(5, 1, 3)
	if !c.Contains(1) || !c.Contains(3) || c.Contains(0) {
		t.Fatal("CoalitionOf wrong members")
	}
	if NewCoalition(4).Len() != 0 {
		t.Fatal("NewCoalition not empty")
	}
	if FullCoalition(4).Len() != 4 {
		t.Fatal("FullCoalition not full")
	}
}
