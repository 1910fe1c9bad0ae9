package dynshap_test

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynshap"
	"dynshap/internal/dataset"
	"dynshap/internal/rng"
)

// softPool builds a standardized two-Gaussian train/test pair for the
// exact k-NN estimator tests.
func softPool(n, m int, seed uint64) (*dynshap.Dataset, *dynshap.Dataset) {
	pool := dataset.TwoGaussians(rng.New(seed), n+m, 6, 3)
	pool.Standardize()
	return pool.Split(float64(n) / float64(n+m))
}

// sumOf is Σsv — the efficiency axiom's left-hand side.
func sumOf(sv []float64) float64 {
	s := 0.0
	for _, v := range sv {
		s += v
	}
	return s
}

// fullSetValue evaluates U(N) for the soft k-NN game over the given sets.
func fullSetValue(train, test *dynshap.Dataset, k int) float64 {
	g := dynshap.SoftKNNGame(train, test, k)
	return g.Value(dynshap.FullCoalition(train.Len()))
}

// TestExactKNNMatchesEnumeration pins the estimator to ground truth: at
// n = 8 the session's exact path must agree with brute-force enumeration
// of all 2⁸ coalitions of the soft k-NN game to 1e-12.
func TestExactKNNMatchesEnumeration(t *testing.T) {
	train, test := softPool(8, 5, 21)
	const k = 3
	s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: k}, dynshap.WithSeed(1))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	got := s.Values()
	want := dynshap.ExactShapley(dynshap.SoftKNNGame(train, test, k))
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("sv[%d] = %g, enumeration %g (diff %g)", i, got[i], want[i], got[i]-want[i])
		}
	}
	// The init must have been the closed form: zero trainings, journaled
	// as Exact-KNN with a decision trace.
	if fits := s.ModelTrainings(); fits != 0 {
		t.Fatalf("exact init cost %d model trainings, want 0", fits)
	}
	rec, err := s.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != dynshap.AlgoExactKNN.String() {
		t.Fatalf("init journaled algo %q, want %q", rec.Algo, dynshap.AlgoExactKNN)
	}
	if len(rec.Decision) == 0 {
		t.Fatal("exact init recorded no decision trace")
	}
	// Efficiency: Σsv = U(N) − U(∅) = U(N) for the soft utility.
	if diff := math.Abs(sumOf(got) - fullSetValue(train, test, k)); diff > 1e-12 {
		t.Fatalf("efficiency violated: Σsv differs from U(N) by %g", diff)
	}
}

// TestExactKNNDynamicSoak is the acceptance soak: 200 random AlgoAuto
// adds and deletes on a soft k-NN session, with the maintained values
// required to EXACTLY equal (==, no tolerance) a from-scratch session's
// values after every single update.
func TestExactKNNDynamicSoak(t *testing.T) {
	train, test := softPool(60, 30, 33)
	const k = 5
	s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: k}, dynshap.WithSeed(2))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	// Source of new points: a disjoint pool (plus occasional duplicates of
	// live points so exact distance ties occur mid-soak).
	src, _ := softPool(400, 30, 34)
	next := 0
	r := rng.New(99)

	for step := 0; step < 200; step++ {
		if s.N() > 10 && r.Float64() < 0.45 {
			cnt := 1 + r.Intn(2)
			idxs := r.Sample(s.N(), cnt)
			if _, err := s.Delete(idxs, dynshap.AlgoAuto); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
		} else {
			cnt := 1 + r.Intn(3)
			pts := make([]dynshap.Point, 0, cnt)
			for j := 0; j < cnt; j++ {
				if r.Float64() < 0.2 {
					cur := s.Data()
					pts = append(pts, cur.Points[r.Intn(cur.Len())].Clone())
				} else {
					pts = append(pts, src.Points[next%src.Len()].Clone())
					next++
				}
			}
			if _, err := s.Add(pts, dynshap.AlgoAuto); err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
		}

		// Every update must have routed onto the exact path and cost
		// nothing in model trainings.
		rec, err := s.At(s.Version())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Algo != dynshap.AlgoExactKNN.String() {
			t.Fatalf("step %d: planner chose %q, want %q", step, rec.Algo, dynshap.AlgoExactKNN)
		}
		if rec.Trainings != 0 {
			t.Fatalf("step %d: exact update cost %d trainings", step, rec.Trainings)
		}

		// The maintained values must EXACTLY equal a from-scratch session.
		fresh := dynshap.NewSession(s.Data(), test, dynshap.SoftKNNClassifier{K: k}, dynshap.WithSeed(2))
		if err := fresh.Init(); err != nil {
			t.Fatalf("step %d: fresh init: %v", step, err)
		}
		got, want := s.Values(), fresh.Values()
		if len(got) != len(want) {
			t.Fatalf("step %d: maintained %d values, fresh %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d (n=%d): sv[%d] maintained %v != from-scratch %v — dynamic maintenance diverged",
					step, s.N(), i, got[i], want[i])
			}
		}
		if step%25 == 0 {
			if diff := math.Abs(sumOf(got) - fullSetValue(s.Data(), test, k)); diff > 1e-9 {
				t.Fatalf("step %d: efficiency violated by %g", step, diff)
			}
		}
	}
	if fits := s.ModelTrainings(); fits != 0 {
		t.Fatalf("soak cost %d model trainings, want 0", fits)
	}
}

// TestExactKNNJournalAttribution checks the audit trail the exact path
// adds: BatchValues on every exact add, RemovedValues on every exact
// delete, and the exact-vs-sampled comparison in the planner trace.
func TestExactKNNJournalAttribution(t *testing.T) {
	train, test := softPool(40, 20, 55)
	s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: 5}, dynshap.WithSeed(4))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	pts := []dynshap.Point{test.Points[0].Clone(), test.Points[1].Clone(), test.Points[2].Clone()}
	after, err := s.Add(pts, dynshap.AlgoAuto)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := s.At(s.Version())
	if len(rec.BatchValues) != len(pts) {
		t.Fatalf("exact add journaled %d batch values, want %d", len(rec.BatchValues), len(pts))
	}
	for i, v := range rec.BatchValues {
		if v != after[len(after)-len(pts)+i] {
			t.Fatalf("batch value %d is %v, published value %v", i, v, after[len(after)-len(pts)+i])
		}
	}
	if !traceMentions(rec.Decision, "sampled alternative") {
		t.Fatalf("add trace lacks the exact-vs-sampled comparison: %q", rec.Decision)
	}

	pre := s.Values()
	if _, err := s.Delete([]int{3, 17}, dynshap.AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, _ = s.At(s.Version())
	if len(rec.RemovedValues) != 2 {
		t.Fatalf("exact delete journaled %d removed values, want 2", len(rec.RemovedValues))
	}
	if rec.RemovedValues[0] != pre[3] || rec.RemovedValues[1] != pre[17] {
		t.Fatalf("removed values %v, want the departing points' pre-delete values %v",
			rec.RemovedValues, []float64{pre[3], pre[17]})
	}
}

func traceMentions(trace []string, substr string) bool {
	for _, line := range trace {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

// TestExactKNNUnavailable pins the failure mode: explicit AlgoExactKNN on
// a session without the estimator must return ErrExactUnavailable, for
// both update directions and both ways of lacking it (non-soft trainer,
// kernel disabled).
func TestExactKNNUnavailable(t *testing.T) {
	train, test := softPool(12, 6, 77)
	for name, s := range map[string]*dynshap.Session{
		"svm":      dynshap.NewSession(train, test, dynshap.SVM{}, dynshap.WithSamples(10)),
		"nokernel": dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: 3}, dynshap.WithSamples(10), dynshap.WithoutDistanceKernel()),
	} {
		if err := s.Init(); err != nil {
			t.Fatalf("%s: init: %v", name, err)
		}
		if _, err := s.Add([]dynshap.Point{test.Points[0].Clone()}, dynshap.AlgoExactKNN); err != dynshap.ErrExactUnavailable {
			t.Fatalf("%s: add: err = %v, want ErrExactUnavailable", name, err)
		}
		if _, err := s.Delete([]int{0}, dynshap.AlgoExactKNN); err != dynshap.ErrExactUnavailable {
			t.Fatalf("%s: delete: err = %v, want ErrExactUnavailable", name, err)
		}
	}
}

// TestExactKNNPivotDifferentNamesRemedy: an exact-initialised session holds
// no pivot state, and Refresh would not build one, so a Pivot-d request
// names the remedies that work instead.
func TestExactKNNPivotDifferentNamesRemedy(t *testing.T) {
	train, test := softPool(12, 6, 77)
	s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: 3}, dynshap.WithSamples(10))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	_, err := s.Add([]dynshap.Point{test.Points[0].Clone()}, dynshap.AlgoPivotDifferent)
	if err == nil || !strings.Contains(err.Error(), "AlgoExactKNN") ||
		!strings.Contains(err.Error(), "WithKeepPermutations") || strings.Contains(err.Error(), "Refresh") {
		t.Fatalf("Pivot-d on an exact-initialised session: err = %v, want the AlgoExactKNN and WithKeepPermutations remedies", err)
	}
}

// TestExactKNNWithSampledArtifacts: options that demand sampled artifacts
// (here YN-NN tracking) force a sampled init, but AlgoAuto updates still
// route onto the maintained exact estimator — and land on exact values.
func TestExactKNNWithSampledArtifacts(t *testing.T) {
	train, test := softPool(30, 15, 88)
	const k = 5
	s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: k},
		dynshap.WithSeed(5), dynshap.WithSamples(100), dynshap.WithTrackDeletions())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.At(1)
	if rec.Algo != dynshap.AlgoMonteCarlo.String() {
		t.Fatalf("init with WithTrackDeletions journaled %q, want a sampled pass", rec.Algo)
	}
	if !traceMentions(rec.Decision, "sampled pass") {
		t.Fatalf("sampled init over an exact-capable session should note why: %q", rec.Decision)
	}
	if _, err := s.Delete([]int{2}, dynshap.AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, _ = s.At(s.Version())
	if rec.Algo != dynshap.AlgoExactKNN.String() {
		t.Fatalf("auto delete chose %q, want %q", rec.Algo, dynshap.AlgoExactKNN)
	}
	fresh := dynshap.NewSession(s.Data(), test, dynshap.SoftKNNClassifier{K: k}, dynshap.WithSeed(5))
	if err := fresh.Init(); err != nil {
		t.Fatal(err)
	}
	got, want := s.Values(), fresh.Values()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sv[%d] = %v after exact delete, from-scratch %v", i, got[i], want[i])
		}
	}
}

// TestExactKNNSnapshotReplay: snapshot format 2 round-trips an exact
// session bit-for-bit (the estimator is rebuilt, not persisted), and
// ReplayTo reproduces every recorded version exactly.
func TestExactKNNSnapshotReplay(t *testing.T) {
	train, test := softPool(25, 12, 13)
	const k = 5
	s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: k}, dynshap.WithSeed(6))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	byVersion := map[int][]float64{1: s.Values()}
	if _, err := s.Add([]dynshap.Point{test.Points[0].Clone(), test.Points[1].Clone()}, dynshap.AlgoAuto); err != nil {
		t.Fatal(err)
	}
	byVersion[2] = s.Values()
	if _, err := s.Delete([]int{4, 9}, dynshap.AlgoAuto); err != nil {
		t.Fatal(err)
	}
	byVersion[3] = s.Values()
	if _, err := s.Add([]dynshap.Point{test.Points[2].Clone()}, dynshap.AlgoExactKNN); err != nil {
		t.Fatal(err)
	}
	byVersion[4] = s.Values()

	// Replay every version and demand bitwise equality.
	for v := 1; v <= 4; v++ {
		rep, err := s.ReplayTo(v)
		if err != nil {
			t.Fatalf("replay to %d: %v", v, err)
		}
		got, want := rep.Values(), byVersion[v]
		if len(got) != len(want) {
			t.Fatalf("version %d: replay %d values, recorded %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("version %d: replay sv[%d] = %v, recorded %v", v, i, got[i], want[i])
			}
		}
	}

	// Snapshot → Resume keeps the values and the ability to update exactly.
	s2, err := s.Snapshot().Resume(dynshap.SoftKNNClassifier{K: k})
	if err != nil {
		t.Fatal(err)
	}
	got, want := s2.Values(), s.Values()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed sv[%d] = %v, original %v", i, got[i], want[i])
		}
	}
	if _, err := s2.Add([]dynshap.Point{test.Points[3].Clone()}, dynshap.AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, _ := s2.At(s2.Version())
	if rec.Algo != dynshap.AlgoExactKNN.String() {
		t.Fatalf("post-resume auto add chose %q, want %q — estimator not rebuilt on resume", rec.Algo, dynshap.AlgoExactKNN)
	}
	fresh := dynshap.NewSession(s2.Data(), test, dynshap.SoftKNNClassifier{K: k}, dynshap.WithSeed(6))
	if err := fresh.Init(); err != nil {
		t.Fatal(err)
	}
	got, want = s2.Values(), fresh.Values()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-resume sv[%d] = %v, from-scratch %v", i, got[i], want[i])
		}
	}
}

// TestExactKNNOracle uses the closed form as ground truth for the sampled
// estimators, with the tolerance tied to WithTargetError: an adaptive MC
// initialisation certified to ε must actually land within ε of the exact
// values, and TMC / Delta updates must stay within the same order. One arm
// drops the distance kernel; the other keeps it, so the Pivot-s,
// Pivot-s-batch, Pivot-d, Delta, Delta-batch, TMC and MC updates are
// checked on the fused kernel walks too — the last two after an Append
// that compacts the kernel.
func TestExactKNNOracle(t *testing.T) {
	train, test := softPool(100, 40, 17)
	const (
		k   = 5
		eps = 0.02
	)
	truth, err := dynshap.KNNShapley(train, test, k)
	if err != nil {
		t.Fatal(err)
	}

	// Sampled arm: same soft utility, exact path disabled by dropping the
	// kernel, adaptive budget targeting ε.
	s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: k},
		dynshap.WithoutDistanceKernel(), dynshap.WithSeed(7),
		dynshap.WithSamples(4000), dynshap.WithTargetError(eps, 0.05))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if maxErr := maxAbsDiff(s.Values(), truth); maxErr > eps {
		t.Fatalf("certified MC init strayed %.4f from the exact values, target ε=%g", maxErr, eps)
	}

	// Delta addition versus the exact post-add truth.
	plus := train.Append(test.Points[0].Clone())
	truthPlus, err := dynshap.KNNShapley(plus, test, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Add([]dynshap.Point{test.Points[0].Clone()}, dynshap.AlgoDelta)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr := maxAbsDiff(got, truthPlus); maxErr > 3*eps {
		t.Fatalf("Delta add strayed %.4f from the exact values, tolerance %g", maxErr, 3*eps)
	}

	// TMC recomputation versus the same truth.
	got, err = s.Delete([]int{plus.Len() - 1}, dynshap.AlgoTruncatedMC)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr := maxAbsDiff(got, truth); maxErr > 3*eps {
		t.Fatalf("TMC recompute strayed %.4f from the exact values, tolerance %g", maxErr, 3*eps)
	}

	// Kernel-on arm: the same budget with stored permutations, which force
	// a sampled initialisation with the distance kernel on, so every update
	// below runs the fused kernel walks. Each stage is checked against the
	// closed form on the session's current data. The kernel starts with
	// 100 + 25 + 4 = 129 columns; after five appended points and five
	// deletions, the 25-point Delta-batch add outgrows it, so that Append
	// copies only the 100 live columns, and the Delta-batch walk and the
	// MC recompute after it read the compacted kernel.
	sk := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: k},
		dynshap.WithSeed(7), dynshap.WithKeepPermutations(),
		dynshap.WithSamples(4000), dynshap.WithTargetError(eps, 0.05))
	if err := sk.Init(); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, got []float64, tol float64) {
		t.Helper()
		want, err := dynshap.KNNShapley(sk.Data(), test, k)
		if err != nil {
			t.Fatal(err)
		}
		maxErr := maxAbsDiff(got, want)
		t.Logf("kernel on, %s: max |error| %.4f", stage, maxErr)
		if len(got) != len(want) || maxErr > tol {
			t.Fatalf("kernel on, %s strayed %.4f from the exact values (%d values, want %d), tolerance %g",
				stage, maxErr, len(got), len(want), tol)
		}
	}
	check("certified MC init", sk.Values(), eps)
	steps := []struct {
		stage string
		run   func() ([]float64, error)
	}{
		{"Pivot-s add", func() ([]float64, error) {
			return sk.Add([]dynshap.Point{test.Points[1].Clone()}, dynshap.AlgoPivotSame)
		}},
		{"two-point Pivot-s-batch add", func() ([]float64, error) {
			return sk.Add([]dynshap.Point{test.Points[2].Clone(), test.Points[3].Clone()}, dynshap.AlgoPivotSameBatch)
		}},
		{"Pivot-s-batch delete", func() ([]float64, error) {
			return sk.Delete([]int{4, 60}, dynshap.AlgoPivotSameBatch)
		}},
		{"Pivot-d add", func() ([]float64, error) {
			return sk.Add([]dynshap.Point{test.Points[5].Clone()}, dynshap.AlgoPivotDifferent)
		}},
		{"Delta add", func() ([]float64, error) {
			return sk.Add([]dynshap.Point{test.Points[4].Clone()}, dynshap.AlgoDelta)
		}},
		{"Delta-batch delete", func() ([]float64, error) {
			return sk.Delete([]int{10, 30}, dynshap.AlgoDeltaBatch)
		}},
		{"TMC recompute", func() ([]float64, error) {
			return sk.Delete([]int{20}, dynshap.AlgoTruncatedMC)
		}},
		{"compacting 25-point Delta-batch add", func() ([]float64, error) {
			pts := make([]dynshap.Point, 25)
			for i := range pts {
				pts[i] = test.Points[6+i].Clone()
			}
			return sk.Add(pts, dynshap.AlgoDeltaBatch)
		}},
		{"MC recompute", func() ([]float64, error) {
			return sk.Delete([]int{50}, dynshap.AlgoMonteCarlo)
		}},
	}
	for _, step := range steps {
		got, err := step.run()
		if err != nil {
			t.Fatalf("%s: %v", step.stage, err)
		}
		check(step.stage, got, 3*eps)
	}
	// 124 live columns in a buffer sized for the 125 the compacting Append
	// left (×1.25 + 4), not for the 130 columns appended since Init.
	live := sk.Data().Len()
	if got, want := sk.EngineStats().KernelBytes, int64((125+125/4+4)*test.Len()*8+live*4); got != want {
		t.Fatalf("kernel on: KernelBytes %d after the compacting add, want %d", got, want)
	}
}

func maxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// TestExactInitSpeedup enforces the acceptance bound behind
// BenchmarkExactKNNInitialize: at n = 200 the closed-form initialisation
// must beat the sampled kernel-backed pass by at least 10×. The true
// ratio is orders of magnitude larger (microseconds versus tens of
// milliseconds), so the bound holds with wide margin. Skipped on
// single-core machines, whose schedulers make wall-clock ratios noisy.
func TestExactInitSpeedup(t *testing.T) {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		t.Skipf("need at least 2 CPUs for a stable timing ratio, have %d", p)
	}
	rnd := rng.New(2026)
	pool := dataset.TwoGaussians(rnd, 280, 16, 4)
	pool.Standardize()
	train, test := pool.Split(float64(200) / 280)

	runInit := func(trainer dynshap.Trainer) {
		s := dynshap.NewSession(train, test, trainer, dynshap.WithSamples(200), dynshap.WithSeed(9))
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up once each, then take each arm's best of 3 alternating
	// repetitions.
	runInit(dynshap.SoftKNNClassifier{K: 5})
	runInit(dynshap.KNNClassifier{K: 5})
	secs := fastestAlternating(3,
		func() { runInit(dynshap.SoftKNNClassifier{K: 5}) },
		func() { runInit(dynshap.KNNClassifier{K: 5}) })
	exactSecs, sampledSecs := secs[0], secs[1]
	t.Logf("exact init %.1f× faster than the sampled pass (exact %.4fs, sampled %.4fs)", sampledSecs/exactSecs, exactSecs, sampledSecs)
	if exactSecs*10 > sampledSecs {
		t.Fatalf("exact init only %.1f× faster than the sampled pass (exact %.4fs, sampled %.4fs), want ≥10×",
			sampledSecs/exactSecs, exactSecs, sampledSecs)
	}
}

// TestExactKNNLargeN is the scale acceptance: an exact session over
// n = 20000 points initialises and updates in reasonable time — a scale
// where one sampled pass (τ·n utility evaluations) is out of the
// question. Efficiency pins the reduction's correctness at scale.
func TestExactKNNLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n acceptance run; skipped with -short")
	}
	const (
		n = 20000
		m = 50
		k = 5
	)
	pool := dataset.TwoGaussians(rng.New(12), n+m, 8, 3)
	pool.Standardize()
	train, test := pool.Split(float64(n) / float64(n+m))
	s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: k}, dynshap.WithSeed(8))
	begin := time.Now()
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	t.Logf("exact init at n=%d: %v", n, time.Since(begin))
	if got := len(s.Values()); got != n {
		t.Fatalf("got %d values", got)
	}
	if diff := math.Abs(sumOf(s.Values()) - fullSetValue(train, test, k)); diff > 1e-9 {
		t.Fatalf("efficiency violated by %g at n=%d", diff, n)
	}
	if _, err := s.Add([]dynshap.Point{test.Points[0].Clone()}, dynshap.AlgoAuto); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete([]int{0, n / 2}, dynshap.AlgoAuto); err != nil {
		t.Fatal(err)
	}
	if got := s.N(); got != n-1 {
		t.Fatalf("after add+delete: n=%d, want %d", got, n-1)
	}
	if fits := s.ModelTrainings(); fits != 0 {
		t.Fatalf("large-n exact session cost %d trainings", fits)
	}
}
