// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation. Each target regenerates its artifact through
// internal/bench at QuickConfig scale so the full suite completes in
// minutes; run `go run ./cmd/experiments` (optionally -full) for the
// paper-scale numbers, which are recorded in EXPERIMENTS.md.
package dynshap_test

import (
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"dynshap"
	"dynshap/internal/bench"
	"dynshap/internal/bitset"
	"dynshap/internal/core"
	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/ml"
	"dynshap/internal/rng"
	"dynshap/internal/utility"
)

// runArtifact regenerates one paper artifact per benchmark iteration.
func runArtifact(b *testing.B, id string) {
	b.Helper()
	r := bench.NewRunner(bench.QuickConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		t.Render(io.Discard)
	}
}

func BenchmarkFigure2DeltaSVField(b *testing.B)   { runArtifact(b, "F2") }
func BenchmarkTable4AddOneMSE(b *testing.B)       { runArtifact(b, "T4") }
func BenchmarkTable5PivotSvsD(b *testing.B)       { runArtifact(b, "T5") }
func BenchmarkFigure3aMSEvsN(b *testing.B)        { runArtifact(b, "F3a") }
func BenchmarkFigure3bTimeVsN(b *testing.B)       { runArtifact(b, "F3b") }
func BenchmarkTable6AddTwoMSE(b *testing.B)       { runArtifact(b, "T6") }
func BenchmarkTable7PivotSvsDAddTwo(b *testing.B) { runArtifact(b, "T7") }
func BenchmarkFigure4aMSEvsN(b *testing.B)        { runArtifact(b, "F4a") }
func BenchmarkFigure4bTimeVsN(b *testing.B)       { runArtifact(b, "F4b") }
func BenchmarkFigure4cTimeVsAdded(b *testing.B)   { runArtifact(b, "F4c") }
func BenchmarkTable8DeleteOneMSE(b *testing.B)    { runArtifact(b, "T8") }
func BenchmarkTable9Memory(b *testing.B)          { runArtifact(b, "T9") }
func BenchmarkFigure5aMSEvsN(b *testing.B)        { runArtifact(b, "F5a") }
func BenchmarkFigure5bTimeVsN(b *testing.B)       { runArtifact(b, "F5b") }
func BenchmarkTable10DeleteTwoMSE(b *testing.B)   { runArtifact(b, "T10") }
func BenchmarkFigure6aMSEvsN(b *testing.B)        { runArtifact(b, "F6a") }
func BenchmarkFigure6bTimeVsN(b *testing.B)       { runArtifact(b, "F6b") }
func BenchmarkFigure6cTimeVsDeleted(b *testing.B) { runArtifact(b, "F6c") }
func BenchmarkTable11LargeAddOne(b *testing.B)    { runArtifact(b, "T11") }
func BenchmarkTable12LargeAddTwo(b *testing.B)    { runArtifact(b, "T12") }
func BenchmarkTable13LargeDeleteOne(b *testing.B) { runArtifact(b, "T13") }
func BenchmarkTable14LargeDeleteTwo(b *testing.B) { runArtifact(b, "T14") }

// Micro-benchmarks of the estimators on a cheap synthetic game, isolating
// algorithmic overhead from model-training cost.

func syntheticGame(n int) dynshap.Game {
	return dynshap.GameFunc{Players: n, U: func(s dynshap.Coalition) float64 {
		// Saturating size-based utility: cheap and monotone.
		k := float64(s.Len())
		return k / (k + 3)
	}}
}

func BenchmarkMonteCarloN100Tau100(b *testing.B) {
	g := syntheticGame(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dynshap.MonteCarloShapley(g, 100, uint64(i))
	}
}

func BenchmarkMonteCarloParallelN100Tau100(b *testing.B) {
	g := syntheticGame(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dynshap.MonteCarloShapleyParallel(g, 100, 0, uint64(i))
	}
}

func BenchmarkDeltaAddN100Tau100(b *testing.B) {
	g := syntheticGame(101)
	old := make([]float64, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dynshap.DeltaAddShapley(g, old, 100, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPivotInitN100Tau100(b *testing.B) {
	g := syntheticGame(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dynshap.NewPivotState(g, 100, false, uint64(i))
	}
}

func BenchmarkPreprocessDeletionN100Tau100(b *testing.B) {
	g := syntheticGame(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dynshap.PreprocessDeletion(g, 100, uint64(i))
	}
}

func BenchmarkPreprocessDeletionParallelN100Tau100(b *testing.B) {
	g := coreSyntheticGame(100)
	e := core.NewEngine(core.WithWorkers(0)) // all available cores
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.PreprocessDeletion(g, 100, rng.New(uint64(i)))
	}
	// Array-cell updates per second for the last fill — the engine's fill
	// throughput stat, surfaced so benchsnap snapshots capture it.
	b.ReportMetric(e.Stats().Throughput(), "cellups/s")
}

func BenchmarkYNNNMergeN100(b *testing.B) {
	arrays := dynshap.PreprocessDeletion(syntheticGame(100), 100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arrays.Merge(i % 100); err != nil {
			b.Fatal(err)
		}
	}
}

// Multi-head fill: the identical Monte Carlo pass over a KNN utility
// pricing one semivalue (the native Shapley head) versus four (plus
// Banzhaf, Beta(4,1), Absolute Shapley). Extra heads are producer-side
// bookkeeping folded as each walk completes — no extra utility
// evaluations, no extra randomness — so the 4-head row must stay within
// 1.3× of the single-head row. benchsnap canonicalises the h<N>
// sub-benchmark as @h<N>, keeping head-count variants from diffing
// against each other across snapshots.
func BenchmarkMonteCarloKNNHeadsN100Tau50(b *testing.B) {
	for _, hc := range []struct {
		name  string
		heads []dynshap.Semivalue
	}{
		{"h1", nil},
		{"h4", []dynshap.Semivalue{dynshap.Banzhaf(), dynshap.Beta(4, 1), dynshap.AbsoluteShapley()}},
	} {
		b.Run(hc.name, func(b *testing.B) {
			u := knnWalkUtility(100)
			opts := []core.EngineOption{core.WithWorkers(1)}
			if len(hc.heads) > 0 {
				opts = append(opts, core.WithSemivalues(hc.heads...))
			}
			e := core.NewEngine(opts...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.MonteCarlo(u, 50, rng.New(uint64(i)+1))
			}
		})
	}
}

func BenchmarkExactShapleyN16(b *testing.B) {
	g := syntheticGame(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dynshap.ExactShapley(g)
	}
}

// Incremental prefix evaluation: one full permutation walk over a KNN
// utility at n = 200, through the incremental evaluator versus scratch
// Value calls. The incremental walk does O(m·(d+k)) work per step; the
// scratch walk clones and scans the whole prefix, O(|S|·m·d), so the gap
// widens with n — the per-permutation speedup the protocol exists for.

func knnWalkUtility(n int) *utility.ModelUtility {
	rnd := rng.New(2026)
	pool := dataset.IrisLike(rnd, n+40)
	pool.Standardize()
	train, test := pool.Split(float64(n) / float64(n+40))
	return utility.NewModelUtility(train, test, ml.KNN{K: 5})
}

func BenchmarkKNNPermutationWalkIncrementalN200(b *testing.B) {
	u := knnWalkUtility(200)
	ev := game.PrefixEvaluatorOf(u)
	if ev == nil {
		b.Fatal("KNN utility lost the Prefixer capability")
	}
	perm := rng.New(7).PermN(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Reset()
		for _, p := range perm {
			ev.Add(p)
		}
	}
}

func BenchmarkKNNPermutationWalkScratchN200(b *testing.B) {
	u := knnWalkUtility(200)
	perm := rng.New(7).PermN(200)
	prefix := bitset.New(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefix.Clear()
		for _, p := range perm {
			prefix.Add(p)
			u.Value(prefix)
		}
	}
}

// TestKNNWalkSpeedup enforces the acceptance bound behind the benchmark
// pair above: at n = 200 the incremental walk must beat the scratch walk by
// at least 5×. The true ratio is orders of magnitude larger, so the bound
// holds with wide margin even on noisy CI machines.
func TestKNNWalkSpeedup(t *testing.T) {
	u := knnWalkUtility(200)
	ev := game.PrefixEvaluatorOf(u)
	if ev == nil {
		t.Fatal("KNN utility lost the Prefixer capability")
	}
	perm := rng.New(7).PermN(200)

	walkInc := func() {
		ev.Reset()
		for _, p := range perm {
			ev.Add(p)
		}
	}
	prefix := bitset.New(200)
	walkScratch := func() {
		prefix.Clear()
		for _, p := range perm {
			prefix.Add(p)
			u.Value(prefix)
		}
	}
	// Warm up once each (allocation of windows, cache effects), then time.
	walkInc()
	walkScratch()
	const reps = 3
	startInc := time.Now()
	for i := 0; i < reps; i++ {
		walkInc()
	}
	incSecs := time.Since(startInc).Seconds()
	startScratch := time.Now()
	for i := 0; i < reps; i++ {
		walkScratch()
	}
	scratchSecs := time.Since(startScratch).Seconds()
	if incSecs*5 > scratchSecs {
		t.Fatalf("incremental walk only %.1f× faster than scratch (incremental %.4fs, scratch %.4fs), want ≥5×",
			scratchSecs/incSecs, incSecs, scratchSecs)
	}
}

// coreSyntheticGame mirrors syntheticGame at the internal/core layer so
// the engine can be driven directly (for stats access) in benchmarks.
func coreSyntheticGame(n int) game.Game {
	return game.Func{Players: n, U: func(s bitset.Set) float64 {
		k := float64(s.Len())
		return k / (k + 3)
	}}
}

// Update-path latencies: one Session.Add or Session.Delete per iteration
// at n = 100 under a KNN utility, one benchmark per algorithm family, so
// benchsnap snapshots record what a live update actually costs end to end
// (planning, estimation, state publication, journaling). State restoration
// between iterations (re-adding deleted points, refreshing consumed
// artifacts) happens off the timer.

func benchUpdateSession(b *testing.B, opts ...dynshap.Option) *dynshap.Session {
	b.Helper()
	pool := dataset.IrisLike(rng.New(2026), 140)
	pool.Standardize()
	train, test := pool.Split(100.0 / 140)
	base := []dynshap.Option{
		dynshap.WithSamples(200), dynshap.WithUpdateSamples(100), dynshap.WithSeed(9),
	}
	s := dynshap.NewSession(train, test, dynshap.KNNClassifier{K: 5}, append(base, opts...)...)
	if err := s.Init(); err != nil {
		b.Fatal(err)
	}
	return s
}

var benchUpdatePoint = []dynshap.Point{{X: []float64{0.1, 0.2, -0.3, 0.4}, Y: 1}}

// benchRestoreDelete drops the appended point off the timer.
func benchRestoreDelete(b *testing.B, s *dynshap.Session, refresh bool) {
	b.Helper()
	b.StopTimer()
	if _, err := s.Delete([]int{100}, dynshap.AlgoKNN); err != nil {
		b.Fatal(err)
	}
	if refresh {
		if err := s.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
	b.StartTimer()
}

// benchRestoreAdd re-grows the session to n = 100 off the timer.
func benchRestoreAdd(b *testing.B, s *dynshap.Session, refresh bool) {
	b.Helper()
	b.StopTimer()
	if _, err := s.Add(benchUpdatePoint, dynshap.AlgoBase); err != nil {
		b.Fatal(err)
	}
	if refresh {
		if err := s.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
	b.StartTimer()
}

func BenchmarkSessionAddDeltaN100(b *testing.B) {
	s := benchUpdateSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Add(benchUpdatePoint, dynshap.AlgoDelta); err != nil {
			b.Fatal(err)
		}
		benchRestoreDelete(b, s, false)
	}
}

func BenchmarkSessionAddPivotSameN100(b *testing.B) {
	s := benchUpdateSession(b, dynshap.WithKeepPermutations())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Add(benchUpdatePoint, dynshap.AlgoPivotSame); err != nil {
			b.Fatal(err)
		}
		benchRestoreDelete(b, s, true) // deletion dropped the pivot state
	}
}

func BenchmarkSessionAddKNNN100(b *testing.B) {
	s := benchUpdateSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Add(benchUpdatePoint, dynshap.AlgoKNN); err != nil {
			b.Fatal(err)
		}
		benchRestoreDelete(b, s, false)
	}
}

func BenchmarkSessionAddMonteCarloN100(b *testing.B) {
	s := benchUpdateSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Add(benchUpdatePoint, dynshap.AlgoMonteCarlo); err != nil {
			b.Fatal(err)
		}
		benchRestoreDelete(b, s, false)
	}
}

func BenchmarkSessionDeleteDeltaN100(b *testing.B) {
	s := benchUpdateSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Delete([]int{i % 100}, dynshap.AlgoDelta); err != nil {
			b.Fatal(err)
		}
		benchRestoreAdd(b, s, false)
	}
}

func BenchmarkSessionDeleteYNNNMergeN100(b *testing.B) {
	s := benchUpdateSession(b, dynshap.WithTrackDeletions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Delete([]int{i % 100}, dynshap.AlgoYNNN); err != nil {
			b.Fatal(err)
		}
		benchRestoreAdd(b, s, true) // the merge consumed the fresh arrays
	}
}

func BenchmarkSessionDeleteKNNN100(b *testing.B) {
	s := benchUpdateSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Delete([]int{i % 100}, dynshap.AlgoKNN); err != nil {
			b.Fatal(err)
		}
		benchRestoreAdd(b, s, false)
	}
}

func BenchmarkSessionDeleteMonteCarloN100(b *testing.B) {
	s := benchUpdateSession(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Delete([]int{i % 100}, dynshap.AlgoMonteCarlo); err != nil {
			b.Fatal(err)
		}
		benchRestoreAdd(b, s, false)
	}
}

// Cache contention: a warmed sharded cache replayed by parallel Monte
// Carlo. The same seed re-samples the same permutations, so every lookup
// hits; with the old single-RWMutex cache the workers serialised on the one
// lock, with the lock-striped shards they proceed mostly unimpeded.
func BenchmarkParallelMCWarmedCache(b *testing.B) {
	u := knnWalkUtility(60)
	// Hide the Prefixer capability so the walk exercises the cache.
	c := game.NewCached(game.Func{Players: 60, U: u.Value})
	e := core.NewEngine(core.WithWorkers(0))
	e.MonteCarlo(c, 120, rng.New(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MonteCarlo(c, 120, rng.New(5))
	}
}

// Distance-kernel layer: the kernel precomputes the m×n test-to-train
// distance matrix once, so the per-permutation preprocessing walk reads a
// contiguous column per added point instead of recomputing m Euclidean
// distances. The pair below measures the same walk with and without it;
// TestDistanceKernelSpeedup enforces the acceptance bound.

// kernelWalkPair builds the same n-point KNN workload twice — kernel-backed
// and scratch — over a 16-dimensional synthetic set, where the eliminated
// Euclidean work (16 multiply-adds plus a sqrt per candidate) dominates the
// shared window maintenance.
func kernelWalkPair(n int) (withKernel, scratch *utility.ModelUtility) {
	rnd := rng.New(2026)
	pool := dataset.TwoGaussians(rnd, n+80, 16, 4)
	pool.Standardize()
	train, test := pool.Split(float64(n) / float64(n+80))
	withKernel = utility.NewModelUtility(train, test, ml.KNN{K: 5})
	scratch = utility.NewModelUtility(train, test, ml.KNN{K: 5}, utility.WithoutKernel())
	return withKernel, scratch
}

func benchKernelWalk(b *testing.B, u *utility.ModelUtility, n int) {
	ev := game.PrefixEvaluatorOf(u)
	if ev == nil {
		b.Fatal("KNN utility lost the Prefixer capability")
	}
	perm := rng.New(7).PermN(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Reset()
		for _, p := range perm {
			ev.Add(p)
		}
	}
}

func BenchmarkKNNWalkKernelN200(b *testing.B) {
	u, _ := kernelWalkPair(200)
	benchKernelWalk(b, u, 200)
}

func BenchmarkKNNWalkNoKernelN200(b *testing.B) {
	_, u := kernelWalkPair(200)
	benchKernelWalk(b, u, 200)
}

// Initialisation end to end: Session.Init at n = 200 (τ = 200) with the
// kernel versus forced scratch evaluation, the ISSUE 4 "preprocessing at
// n≈200" target. The kernel build itself is on the timer — it is part of
// what Init costs.
func benchInitialize(b *testing.B, opts ...dynshap.Option) {
	rnd := rng.New(2026)
	pool := dataset.TwoGaussians(rnd, 280, 16, 4)
	pool.Standardize()
	train, test := pool.Split(float64(200) / 280)
	opts = append(opts, dynshap.WithSamples(200), dynshap.WithSeed(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := dynshap.NewSession(train, test, dynshap.KNNClassifier{K: 5}, opts...)
		if err := s.Init(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInitializeKNNKernelN200(b *testing.B) { benchInitialize(b) }

func BenchmarkInitializeKNNScratchN200(b *testing.B) {
	benchInitialize(b, dynshap.WithoutDistanceKernel())
}

// Exact closed-form path (ISSUE 6): the same n = 200 pool as
// benchInitialize, but under the soft k-NN model, where AlgoAuto routes
// through internal/exact — per-test-column sorted orders plus the
// rank-suffix recurrence — instead of a sampled permutation pass. The pair
// of fixtures is deliberately identical so the exact and sampled Init
// numbers compare like for like; TestExactInitSpeedup enforces the ≥10×
// bound between them.
func exactBenchFixture() (train, test *dataset.Dataset) {
	rnd := rng.New(2026)
	pool := dataset.TwoGaussians(rnd, 280, 16, 4)
	pool.Standardize()
	return pool.Split(float64(200) / 280)
}

func BenchmarkExactKNNInitialize(b *testing.B) {
	train, test := exactBenchFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: 5},
			dynshap.WithSamples(200), dynshap.WithSeed(9))
		if err := s.Init(); err != nil {
			b.Fatal(err)
		}
	}
}

// One AlgoAuto Add per iteration on the exact-KNN session at n = 200: a
// binary insert into every per-column sorted order plus the suffix
// recomputation from the insertion rank. The restoring Delete (also exact)
// runs off the timer.
func BenchmarkExactKNNAdd(b *testing.B) {
	train, test := exactBenchFixture()
	s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: 5},
		dynshap.WithSamples(200), dynshap.WithSeed(9))
	if err := s.Init(); err != nil {
		b.Fatal(err)
	}
	pt := []dynshap.Point{{X: make([]float64, 16), Y: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Add(pt, dynshap.AlgoAuto); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := s.Delete([]int{200}, dynshap.AlgoAuto); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// The matching Delete latency: remove one mid-ranked point per iteration
// (compaction of every sorted order plus suffix recomputation), restoring
// it off the timer.
func BenchmarkExactKNNDelete(b *testing.B) {
	train, test := exactBenchFixture()
	s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: 5},
		dynshap.WithSamples(200), dynshap.WithSeed(9))
	if err := s.Init(); err != nil {
		b.Fatal(err)
	}
	pt := []dynshap.Point{{X: make([]float64, 16), Y: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Delete([]int{i % 200}, dynshap.AlgoAuto); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := s.Add(pt, dynshap.AlgoAuto); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// The engine's deletion fill — the pass sessions run — over a
// kernel-backed KNN utility at n = 300: the workload `make profile`
// captures a CPU profile of (see CONTRIBUTING).
func BenchmarkPreprocessDeletionKNNN300(b *testing.B) {
	u, _ := kernelWalkPair(300)
	e := core.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PreprocessDeletion(u, 100, rng.New(11))
	}
}

// fastestAlternating times each arm reps times, alternating the arms
// repetition by repetition, and returns each arm's fastest time in
// seconds. A slow phase of a shared host then lands on every arm rather
// than on one, and the fastest repetition is the least disturbed one.
func fastestAlternating(reps int, arms ...func()) []float64 {
	best := make([]float64, len(arms))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for r := 0; r < reps; r++ {
		for i, arm := range arms {
			start := time.Now()
			arm()
			best[i] = min(best[i], time.Since(start).Seconds())
		}
	}
	return best
}

// TestDistanceKernelSpeedup enforces the distance kernel's acceptance
// bound: at n ≈ 200 the kernel-backed preprocessing walk must beat the
// scratch walk by at least 2×. Both arms share the incremental window and
// vote maintenance; the kernel arm replaces the per-step Euclidean column
// with a precomputed read, so the real ratio is far above the bound.
// Skipped on single-core machines, whose schedulers make wall-clock
// ratios too noisy to gate on.
func TestDistanceKernelSpeedup(t *testing.T) {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		t.Skipf("need at least 2 CPUs for a stable timing ratio, have %d", p)
	}
	const n = 200
	uKernel, uScratch := kernelWalkPair(n)
	evKernel := game.PrefixEvaluatorOf(uKernel)
	evScratch := game.PrefixEvaluatorOf(uScratch)
	if evKernel == nil || evScratch == nil {
		t.Fatal("KNN utility lost the Prefixer capability")
	}
	perms := make([][]int, 5)
	src := rng.New(7)
	for i := range perms {
		perms[i] = src.PermN(n)
	}
	walk := func(ev game.PrefixEvaluator) {
		for _, perm := range perms {
			ev.Reset()
			for _, p := range perm {
				ev.Add(p)
			}
		}
	}
	// Warm up once each (window allocation, cache effects), then compare
	// the arms' fastest of 3 alternating repetitions.
	walk(evKernel)
	walk(evScratch)
	secs := fastestAlternating(3, func() { walk(evKernel) }, func() { walk(evScratch) })
	kernelSecs, scratchSecs := secs[0], secs[1]
	t.Logf("kernel walk %.1f× faster than scratch (kernel %.4fs, scratch %.4fs)", scratchSecs/kernelSecs, kernelSecs, scratchSecs)
	if kernelSecs*2 > scratchSecs {
		t.Fatalf("kernel walk only %.2f× faster than scratch (kernel %.4fs, scratch %.4fs), want ≥2×",
			scratchSecs/kernelSecs, kernelSecs, scratchSecs)
	}
}

// Batched update pipeline: one Session.Add of k = 16 points at n = 200,
// batched walk versus the sequential per-point loop. The batch benchmarks
// and the gated speedup test share one fixture so snapshot numbers and the
// acceptance bound measure the same workload.

// newBatchSession builds an n = 200 KNN session for the batch benchmarks.
func newBatchSession(tb testing.TB, opts ...dynshap.Option) *dynshap.Session {
	tb.Helper()
	pool := dataset.IrisLike(rng.New(2026), 260)
	pool.Standardize()
	train, test := pool.Split(200.0 / 260)
	opts = append([]dynshap.Option{
		dynshap.WithSamples(200), dynshap.WithUpdateSamples(100), dynshap.WithSeed(9),
	}, opts...)
	s := dynshap.NewSession(train, test, dynshap.KNNClassifier{K: 5}, opts...)
	if err := s.Init(); err != nil {
		tb.Fatal(err)
	}
	return s
}

func batchBenchPoints(k int) []dynshap.Point {
	pts := make([]dynshap.Point, k)
	for j := range pts {
		pts[j] = dynshap.Point{
			X: []float64{0.3 - 0.05*float64(j%7), -0.2 + 0.1*float64(j%3), 0.15 * float64(j%5), -0.4},
			Y: j % 3,
		}
	}
	return pts
}

// dropBatch removes the k most recently appended points, restoring n = 200.
func dropBatch(tb testing.TB, s *dynshap.Session, k int) {
	tb.Helper()
	gone := make([]int, k)
	for j := range gone {
		gone[j] = 200 + j
	}
	if _, err := s.Delete(gone, dynshap.AlgoKNN); err != nil {
		tb.Fatal(err)
	}
}

func benchSessionAddBatch(b *testing.B, algo dynshap.Algorithm) {
	s := newBatchSession(b)
	pts := batchBenchPoints(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Add(pts, algo); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		dropBatch(b, s, 16)
		b.StartTimer()
	}
}

func BenchmarkSessionAddBatch16N200(b *testing.B)      { benchSessionAddBatch(b, dynshap.AlgoDeltaBatch) }
func BenchmarkSessionAddSequential16N200(b *testing.B) { benchSessionAddBatch(b, dynshap.AlgoDelta) }

// A 16-point Pivot-s-batch add on stored permutations: the nested walk
// over every stored permutation. A 16-index Pivot-s-batch delete of the
// added points restores n = 200 off the clock and keeps the artifact.
func BenchmarkSessionAddPivotBatch16N200(b *testing.B) {
	s := newBatchSession(b, dynshap.WithKeepPermutations())
	pts := batchBenchPoints(16)
	added := make([]int, len(pts))
	for j := range added {
		added[j] = 200 + j
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Add(pts, dynshap.AlgoPivotSameBatch); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := s.Delete(added, dynshap.AlgoPivotSameBatch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// TestBatchAddSpeedup gates the batched delta addition's win: a batched Add
// of k = 16 points at n = 200 must finish in under a quarter of the
// sequential per-point loop's wall clock. The batched walk evaluates the
// shared no-pivot chain once per permutation instead of once per point,
// the k-NN utility derives all k with-chains from that one chain (the fused
// pivot walk), and permutations spread across workers on top. Skipped on
// single-core machines, whose schedulers make wall-clock ratios too noisy
// to gate on.
func TestBatchAddSpeedup(t *testing.T) {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		t.Skipf("need at least 2 CPUs for a stable timing ratio, have %d", p)
	}
	const k, reps = 16, 3
	pts := batchBenchPoints(k)
	measure := func(algo dynshap.Algorithm) float64 {
		s := newBatchSession(t)
		// Warm up once (cache population, kernel growth), then time the
		// Add calls alone; state restoration runs off the clock.
		if _, err := s.Add(pts, algo); err != nil {
			t.Fatal(err)
		}
		dropBatch(t, s, k)
		var secs float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := s.Add(pts, algo); err != nil {
				t.Fatal(err)
			}
			secs += time.Since(start).Seconds()
			dropBatch(t, s, k)
		}
		return secs
	}
	seqSecs := measure(dynshap.AlgoDelta)
	batchSecs := measure(dynshap.AlgoDeltaBatch)
	t.Logf("batched add %.1f× faster than sequential (batch %.4fs, sequential %.4fs)", seqSecs/batchSecs, batchSecs, seqSecs)
	if batchSecs*4 > seqSecs {
		t.Fatalf("batched add only %.2f× faster than sequential (batch %.4fs, sequential %.4fs), want ≥4×",
			seqSecs/batchSecs, batchSecs, seqSecs)
	}
}

// Batched deletion pipeline: one Session.Delete of k = 16 indices at
// n = 200 versus the sequential per-index loop, on the pivot family —
// the path where the batch's saving is structural: k successive pivot
// deletions each walk every stored permutation in full, while the batch
// evolves the permutations through all k removals first (integer
// bookkeeping, no evaluations) and walks each one ONCE in the final
// (n−k)-player game. The artifact survives both arms, so the fixture
// loops by restoring state with pivot adds.

// deleteBenchIndices returns 16 indices scattered across n = 200,
// descending — valid both as one batch and as a sequential loop (deleting
// the highest index first never shifts the ones still to come).
func deleteBenchIndices() []int {
	idx := make([]int, 16)
	for j := range idx {
		idx[j] = (15 - j) * 12 // 180, 168, …, 0
	}
	return idx
}

// restorePivotBatch re-adds k points on the batched pivot path — keeping
// the stored-permutation artifact alive for the next deletion — returning
// the session to n = 200 off the clock.
func restorePivotBatch(tb testing.TB, s *dynshap.Session, k int) {
	tb.Helper()
	if _, err := s.Add(batchBenchPoints(k), dynshap.AlgoPivotSameBatch); err != nil {
		tb.Fatal(err)
	}
}

// deleteArm runs one deletion workload over idx: the whole set in one
// batched call, or one call per index.
func deleteArm(tb testing.TB, s *dynshap.Session, idx []int, sequential bool) {
	tb.Helper()
	if !sequential {
		if _, err := s.Delete(idx, dynshap.AlgoPivotSameBatch); err != nil {
			tb.Fatal(err)
		}
		return
	}
	for _, i := range idx {
		if _, err := s.Delete([]int{i}, dynshap.AlgoPivotSameBatch); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchSessionDeleteBatch(b *testing.B, sequential bool) {
	s := newBatchSession(b, dynshap.WithKeepPermutations())
	idx := deleteBenchIndices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deleteArm(b, s, idx, sequential)
		b.StopTimer()
		restorePivotBatch(b, s, len(idx))
		b.StartTimer()
	}
}

func BenchmarkSessionDeleteBatch16N200(b *testing.B)      { benchSessionDeleteBatch(b, false) }
func BenchmarkSessionDeleteSequential16N200(b *testing.B) { benchSessionDeleteBatch(b, true) }

// TestBatchDeleteSpeedup enforces ISSUE 10's acceptance bound: a batched
// Delete of k = 16 indices at n = 200 must finish in under half the
// sequential per-index loop's wall clock. The sequential loop pays
// Σ τ·(n−i) prefix evaluations across its k walks; the batch pays
// τ·(n−k) — one walk of each evolved permutation in the final game —
// so the real ratio approaches k and sits far above the bound. Skipped
// on single-core machines, whose schedulers make wall-clock ratios too
// noisy to gate on.
func TestBatchDeleteSpeedup(t *testing.T) {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		t.Skipf("need at least 2 CPUs for a stable timing ratio, have %d", p)
	}
	const reps = 3
	idx := deleteBenchIndices()
	measure := func(sequential bool) float64 {
		s := newBatchSession(t, dynshap.WithKeepPermutations())
		// Warm up once (cache population, scratch growth), then time the
		// Delete calls alone; state restoration runs off the clock.
		deleteArm(t, s, idx, sequential)
		restorePivotBatch(t, s, len(idx))
		var secs float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			deleteArm(t, s, idx, sequential)
			secs += time.Since(start).Seconds()
			restorePivotBatch(t, s, len(idx))
		}
		return secs
	}
	seqSecs := measure(true)
	batchSecs := measure(false)
	if batchSecs*2 > seqSecs {
		t.Fatalf("batched delete only %.2f× faster than sequential (batch %.4fs, sequential %.4fs), want ≥2×",
			seqSecs/batchSecs, batchSecs, seqSecs)
	}
}
