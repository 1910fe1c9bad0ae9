package core

import (
	"math"
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// additiveGame has exactly zero-variance marginal contributions: player
// i's marginal is (i+1)/n in every permutation, so the adaptive bound
// collapses to 0 as soon as enough samples accumulate.
type additiveGame struct{ n int }

func (g additiveGame) N() int { return g.n }

func (g additiveGame) Value(s bitset.Set) float64 {
	sum := 0.0
	s.ForEach(func(i int) { sum += float64(i + 1) })
	return sum / float64(g.n)
}

// assertBitEqual fails unless got and want are bitwise identical floats.
func assertBitEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (not bit-identical)", name, i, got[i], want[i])
		}
	}
}

// The tentpole's core contract: the striped fill is bit-identical to the
// serial PreprocessDeletion for a fixed seed, at every worker count
// (including workers = 1 and workers > n) and at chunk sizes that do and
// do not divide τ.
func TestEnginePreprocessDeletionBitIdentical(t *testing.T) {
	const n, tau = 19, 97
	for _, seed := range []uint64{1, 7} {
		g := tableGame{n: n, seed: seed}
		serial := PreprocessDeletion(g, tau, rng.New(seed))
		for _, workers := range []int{1, 2, 3, 8, 40} {
			for _, chunk := range []int{0, 5} { // 0 → default
				e := NewEngine(WithWorkers(workers), WithChunkSize(chunk))
				ds := e.PreprocessDeletion(g, tau, rng.New(seed))
				if ds.tau != serial.tau {
					t.Fatalf("workers=%d chunk=%d: tau %d, want %d", workers, chunk, ds.tau, serial.tau)
				}
				assertBitEqual(t, "SV", ds.SV, serial.SV)
				assertBitEqual(t, "yn", ds.yn, serial.yn)
				assertBitEqual(t, "nn", ds.nn, serial.nn)
				st := e.Stats()
				if st.Issued != tau || st.Budget != tau || st.EarlyStop {
					t.Fatalf("workers=%d: stats %+v, want issued=budget=%d without early stop", workers, st, tau)
				}
				if st.Updates != int64(tau)*int64(n)*int64(n+1) {
					t.Fatalf("workers=%d: %d updates, want %d", workers, st.Updates, tau*n*(n+1))
				}
				if st.Throughput() <= 0 {
					t.Fatalf("workers=%d: throughput %v, want > 0", workers, st.Throughput())
				}
			}
		}
	}
}

func TestEnginePreprocessMultiDeletionBitIdentical(t *testing.T) {
	const n, d, tau = 15, 2, 80
	candidates := []int{1, 4, 7, 9, 12}
	g := tableGame{n: n, seed: 11}
	serial, err := PreprocessMultiDeletion(g, d, candidates, tau, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 16} {
		e := NewEngine(WithWorkers(workers))
		ms, err := e.PreprocessMultiDeletion(g, d, candidates, tau, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if ms.tau != serial.tau {
			t.Fatalf("workers=%d: tau %d, want %d", workers, ms.tau, serial.tau)
		}
		assertBitEqual(t, "SV", ms.SV, serial.SV)
		assertBitEqual(t, "y", ms.y, serial.y)
		assertBitEqual(t, "nn", ms.nn, serial.nn)
	}
}

// The combined initialisation pass must reproduce the serial Initialize
// exactly — Shapley sums, pivot LSV, kept permutations and slot draws
// (i.e. the whole randomness stream), and both stores — at every worker
// count.
func TestEngineInitializeBitIdentical(t *testing.T) {
	const n, tau = 14, 75
	g := monotoneGame{n: n, seed: 5}
	opts := []InitOptions{
		{},
		{KeepPerms: true},
		{TrackDeletions: true},
		{KeepPerms: true, TrackDeletions: true, MultiDelete: 2, Candidates: []int{0, 3, 6, 10}},
	}
	for oi, opt := range opts {
		serial, err := Initialize(g, tau, opt, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 20} {
			e := NewEngine(WithWorkers(workers))
			res, err := e.Initialize(g, tau, opt, rng.New(21))
			if err != nil {
				t.Fatal(err)
			}
			assertBitEqual(t, "Pivot.SV", res.Pivot.SV, serial.Pivot.SV)
			assertBitEqual(t, "Pivot.LSV", res.Pivot.LSV, serial.Pivot.LSV)
			if res.Pivot.Tau != serial.Pivot.Tau {
				t.Fatalf("opt %d workers=%d: Tau %d, want %d", oi, workers, res.Pivot.Tau, serial.Pivot.Tau)
			}
			if opt.KeepPerms {
				if len(res.Pivot.perms) != len(serial.Pivot.perms) {
					t.Fatalf("opt %d: kept %d perms, want %d", oi, len(res.Pivot.perms), len(serial.Pivot.perms))
				}
				for k := range serial.Pivot.perms {
					if res.Pivot.slots[k] != serial.Pivot.slots[k] {
						t.Fatalf("opt %d: slot[%d] = %d, want %d", oi, k, res.Pivot.slots[k], serial.Pivot.slots[k])
					}
					for j := range serial.Pivot.perms[k] {
						if res.Pivot.perms[k][j] != serial.Pivot.perms[k][j] {
							t.Fatalf("opt %d: perm[%d][%d] differs", oi, k, j)
						}
					}
				}
			}
			if opt.TrackDeletions {
				assertBitEqual(t, "Deletion.SV", res.Deletion.SV, serial.Deletion.SV)
				assertBitEqual(t, "Deletion.yn", res.Deletion.yn, serial.Deletion.yn)
				assertBitEqual(t, "Deletion.nn", res.Deletion.nn, serial.Deletion.nn)
			}
			if opt.MultiDelete >= 1 {
				assertBitEqual(t, "Multi.SV", res.Multi.SV, serial.Multi.SV)
				assertBitEqual(t, "Multi.y", res.Multi.y, serial.Multi.y)
				assertBitEqual(t, "Multi.nn", res.Multi.nn, serial.Multi.nn)
			}
		}
	}
}

// With adaptive mode off, the engine's estimator methods must be
// bit-identical to their sequential references (for the single-point delta
// passes, the batch references at k = 1). Monte Carlo and TMC walk on
// several goroutines, so they are checked at every worker count and at
// chunk sizes that do and do not divide τ, on a table game and on a k-NN
// game with its incremental evaluator visible and hidden. Each walk prices
// the same prefixes whichever walker runs it, so the counted Value calls
// (every utility, on the hidden game) and prefix adds equal the
// reference's too.
func TestEngineEstimatorsMatchSerial(t *testing.T) {
	const n, tau, tol = 13, 90, 0.05
	g := tableGame{n: n, seed: 9}
	u, hidden := knnPair(t, n)
	for _, tc := range []struct {
		name string
		g    game.Game
	}{{"table", g}, {"knn", u}, {"knn hidden", hidden}} {
		ref := game.NewCounting(tc.g)
		wantMC := MonteCarlo(ref, tau, rng.New(4))
		mcCalls, mcAdds := ref.Calls(), ref.PrefixAdds()
		ref = game.NewCounting(tc.g)
		wantTMC := TruncatedMonteCarlo(ref, tau, tol, rng.New(4))
		tmcCalls, tmcAdds := ref.Calls(), ref.PrefixAdds()
		for _, workers := range []int{1, 2, 3, 8} {
			for _, chunk := range []int{0, 5} {
				e := NewEngine(WithWorkers(workers), WithChunkSize(chunk))
				c := game.NewCounting(tc.g)
				assertBitEqual(t, tc.name+" MonteCarlo", e.MonteCarlo(c, tau, rng.New(4)), wantMC)
				if c.Calls() != mcCalls || c.PrefixAdds() != mcAdds {
					t.Fatalf("%s MonteCarlo workers=%d chunk=%d: %d calls, %d prefix adds; reference %d, %d",
						tc.name, workers, chunk, c.Calls(), c.PrefixAdds(), mcCalls, mcAdds)
				}
				c = game.NewCounting(tc.g)
				assertBitEqual(t, tc.name+" TruncatedMonteCarlo", e.TruncatedMonteCarlo(c, tau, tol, rng.New(4)), wantTMC)
				if c.Calls() != tmcCalls || c.PrefixAdds() != tmcAdds {
					t.Fatalf("%s TruncatedMonteCarlo workers=%d chunk=%d: %d calls, %d prefix adds; reference %d, %d",
						tc.name, workers, chunk, c.Calls(), c.PrefixAdds(), tmcCalls, tmcAdds)
				}
			}
		}
	}

	gPlus := tableGame{n: n + 1, seed: 9}
	oldSV := MonteCarlo(tableGame{n: n, seed: 9}, tau, rng.New(1))
	want, err := BatchDeltaAddSeq(gPlus, oldSV, 1, tau, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEngine().BatchDeltaAdd(gPlus, oldSV, 1, tau, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, "DeltaAdd", got, want)

	wantDel, err := BatchDeltaDeleteSeq(g, oldSV, []int{5}, tau, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	gotDel, err := NewEngine().BatchDeltaDelete(g, oldSV, []int{5}, tau, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, "DeltaDelete", gotDel, wantDel)
}

// The acceptance criterion for adaptive mode: on a low-variance game the
// pass stops below the fixed τ budget and the stats report the τ actually
// used. The additive game has zero-variance marginals, so the bound hits
// zero at the first eligible chunk boundary.
func TestAdaptiveStopsEarlyOnLowVarianceGame(t *testing.T) {
	const n, budget = 12, 5000
	g := additiveGame{n: n}
	e := NewEngine(WithTargetError(1e-6, 0.05))
	sv := e.MonteCarlo(g, budget, rng.New(3))
	st := e.Stats()
	if !st.EarlyStop || st.Issued >= budget {
		t.Fatalf("adaptive MC did not stop early: %+v", st)
	}
	if st.Issued < adaptiveMinTau {
		t.Fatalf("stopped before the minimum τ floor: %+v", st)
	}
	if st.Budget != budget {
		t.Fatalf("budget %d, want %d", st.Budget, budget)
	}
	if st.Bound > 1e-6 {
		t.Fatalf("reported bound %v exceeds target", st.Bound)
	}
	for i, v := range sv {
		want := float64(i+1) / float64(n)
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("sv[%d] = %v, want %v", i, v, want)
		}
	}
}

// An adaptive preprocessing fill that stops after I permutations must
// equal the serial fill run for exactly I permutations on the same seed —
// early termination truncates the sample stream, nothing else.
func TestAdaptivePreprocessDeletionTruncatesExactly(t *testing.T) {
	const n, budget = 10, 4000
	g := additiveGame{n: n}
	e := NewEngine(WithTargetError(1e-6, 0.05), WithWorkers(3))
	ds := e.PreprocessDeletion(g, budget, rng.New(12))
	st := e.Stats()
	if !st.EarlyStop || st.Issued >= budget {
		t.Fatalf("adaptive fill did not stop early: %+v", st)
	}
	if ds.Tau() != st.Issued {
		t.Fatalf("store tau %d, stats issued %d", ds.Tau(), st.Issued)
	}
	serial := PreprocessDeletion(g, st.Issued, rng.New(12))
	assertBitEqual(t, "SV", ds.SV, serial.SV)
	assertBitEqual(t, "yn", ds.yn, serial.yn)
	assertBitEqual(t, "nn", ds.nn, serial.nn)
}

// A single-point delta pass (k = 1) honours WithTargetError. On the
// additive game the differential contributions have zero variance, so an
// addition and a deletion both stop at the first eligible chunk boundary —
// the same τ at every worker count — with the values of the sequential
// reference run for exactly that τ from the same seed. A later pass on the
// same engine must equal a fresh engine's, so no row of the stopped pass
// leaks into it; a table game's rows differ per permutation, so a stale
// row would show. At k = 3 the points share permutations and the pass
// spends its whole budget.
func TestAdaptiveDeltaK1(t *testing.T) {
	const n, budget, p = 12, 5000, 4
	gPlus := additiveGame{n: n + 1}
	oldSV := baseValues(n)
	oldDel := baseValues(n + 1)
	next := tableGame{n: n + 1, seed: 19}
	engine := func(workers int) *Engine {
		return NewEngine(WithWorkers(workers), WithTargetError(1e-6, 0.05))
	}
	issued := map[string]int{}
	for _, workers := range []int{1, 2, 3} {
		for _, op := range []string{"add", "delete"} {
			e := engine(workers)
			var got, want []float64
			var err error
			if op == "add" {
				got, err = e.BatchDeltaAdd(gPlus, oldSV, 1, budget, rng.New(21))
			} else {
				got, err = e.BatchDeltaDelete(gPlus, oldDel, []int{p}, budget, rng.New(21))
			}
			if err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if !st.EarlyStop || st.Issued >= budget || st.Issued < adaptiveMinTau || st.Issued%defaultChunkSize != 0 {
				t.Fatalf("workers=%d %s: no early stop at a chunk boundary: %+v", workers, op, st)
			}
			if st.Bound > 1e-6 {
				t.Fatalf("workers=%d %s: reported bound %v exceeds target", workers, op, st.Bound)
			}
			if first, ok := issued[op]; !ok {
				issued[op] = st.Issued
			} else if st.Issued != first {
				t.Fatalf("workers=%d %s: issued %d, workers=1 issued %d", workers, op, st.Issued, first)
			}
			if op == "add" {
				want, err = BatchDeltaAddSeq(gPlus, oldSV, 1, st.Issued, rng.New(21))
			} else {
				want, err = BatchDeltaDeleteSeq(gPlus, oldDel, []int{p}, st.Issued, rng.New(21))
			}
			if err != nil {
				t.Fatal(err)
			}
			assertBitEqual(t, op+" vs reference at the issued τ", got, want)

			second, err := e.BatchDeltaAdd(next, oldSV, 1, 300, rng.New(23))
			if err != nil {
				t.Fatal(err)
			}
			f := engine(workers)
			fresh, err := f.BatchDeltaAdd(next, oldSV, 1, 300, rng.New(23))
			if err != nil {
				t.Fatal(err)
			}
			assertBitEqual(t, op+" then a second pass", second, fresh)
			if e.Stats().Issued != f.Stats().Issued {
				t.Fatalf("workers=%d %s: second pass issued %d, fresh engine %d", workers, op, e.Stats().Issued, f.Stats().Issued)
			}
		}
	}

	e := engine(2)
	if _, err := e.BatchDeltaAdd(additiveGame{n: n + 3}, oldSV, 3, 500, rng.New(24)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.EarlyStop || st.Issued != 500 {
		t.Fatalf("k=3 add stopped early: %+v", st)
	}
	if _, err := e.BatchDeltaDelete(gPlus, oldDel, []int{1, p, 9}, 500, rng.New(24)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.EarlyStop || st.Issued != 500 {
		t.Fatalf("k=3 delete stopped early: %+v", st)
	}
}

// The stop decision lives in the producer, which sees only folded rows, so
// the issued τ — and every output — must be identical at every worker count
// even when the bound fires mid-run on a noisy game, and equal the
// sequential reference run for exactly the issued τ. The rows still in
// flight at the stop must not leak into the engine's next pass: a second
// pass on the same engine equals a fresh engine's.
func TestAdaptiveIssuedIndependentOfWorkers(t *testing.T) {
	const n, budget, tol = 20, 3000, 0.05
	g := monotoneGame{n: n, seed: 17}
	next := tableGame{n: n, seed: 19}
	// Each pass returns its outputs as float slices; Initialize also
	// returns its kept permutations and slots, so a count mismatch shows.
	flatPivot := func(st *PivotState) [][]float64 {
		var perms, slots []float64
		for i, p := range st.perms {
			for _, q := range p {
				perms = append(perms, float64(q))
			}
			slots = append(slots, float64(st.slots[i]))
		}
		return [][]float64{st.SV, st.LSV, perms, slots, {float64(len(st.perms))}}
	}
	passes := []struct {
		name string
		run  func(e *Engine, g game.Game, tau int) [][]float64
		ref  func(g game.Game, tau int) [][]float64
	}{
		{"PreprocessDeletion",
			func(e *Engine, g game.Game, tau int) [][]float64 {
				ds := e.PreprocessDeletion(g, tau, rng.New(30))
				return [][]float64{ds.SV, ds.yn, ds.nn}
			},
			func(g game.Game, tau int) [][]float64 {
				ds := PreprocessDeletion(g, tau, rng.New(30))
				return [][]float64{ds.SV, ds.yn, ds.nn}
			}},
		{"MonteCarlo",
			func(e *Engine, g game.Game, tau int) [][]float64 {
				return [][]float64{e.MonteCarlo(g, tau, rng.New(30))}
			},
			func(g game.Game, tau int) [][]float64 {
				return [][]float64{MonteCarlo(g, tau, rng.New(30))}
			}},
		{"TruncatedMonteCarlo",
			func(e *Engine, g game.Game, tau int) [][]float64 {
				return [][]float64{e.TruncatedMonteCarlo(g, tau, tol, rng.New(30))}
			},
			func(g game.Game, tau int) [][]float64 {
				return [][]float64{TruncatedMonteCarlo(g, tau, tol, rng.New(30))}
			}},
		{"Initialize",
			func(e *Engine, g game.Game, tau int) [][]float64 {
				res, err := e.Initialize(g, tau, InitOptions{KeepPerms: true}, rng.New(30))
				if err != nil {
					t.Fatal(err)
				}
				return flatPivot(res.Pivot)
			},
			func(g game.Game, tau int) [][]float64 {
				res, err := Initialize(g, tau, InitOptions{KeepPerms: true}, rng.New(30))
				if err != nil {
					t.Fatal(err)
				}
				return flatPivot(res.Pivot)
			}},
	}
	engine := func(workers int) *Engine {
		return NewEngine(WithTargetError(0.05, 0.05), WithWorkers(workers))
	}
	for _, ps := range passes {
		var issued int
		for workers := 1; workers <= 4; workers++ {
			e := engine(workers)
			got := ps.run(e, g, budget)
			st := e.Stats()
			if workers == 1 {
				issued = st.Issued
				if !st.EarlyStop {
					t.Logf("note: %s bound did not fire within budget (issued %d); worker-independence still verified", ps.name, issued)
				}
			} else if st.Issued != issued {
				t.Fatalf("%s workers=%d issued %d, workers=1 issued %d", ps.name, workers, st.Issued, issued)
			}
			for i, want := range ps.ref(g, issued) {
				assertBitEqual(t, ps.name+" vs reference at the issued τ", got[i], want)
			}

			second := ps.run(e, next, 300)
			f := engine(workers)
			for i, want := range ps.run(f, next, 300) {
				assertBitEqual(t, ps.name+" then a second pass", second[i], want)
			}
			if e.Stats().Issued != f.Stats().Issued {
				t.Fatalf("%s workers=%d: second pass issued %d, fresh engine %d", ps.name, workers, e.Stats().Issued, f.Stats().Issued)
			}
		}
	}
}

// Parallel Merge recovery must be bit-identical to the single-goroutine
// sweep, for both fill semantics and both stores.
func TestMergeParallelMatchesSerial(t *testing.T) {
	sampled := PreprocessDeletion(tableGame{n: 24, seed: 5}, 60, rng.New(9))
	exact := PreprocessDeletionExact(tableGame{n: 8, seed: 3})
	for _, ds := range []*DeletionStore{sampled, exact} {
		for _, p := range []int{0, ds.n / 2, ds.n - 1} {
			want, err := ds.mergeWith(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 5, 100} {
				got, err := ds.mergeWith(p, workers)
				if err != nil {
					t.Fatal(err)
				}
				assertBitEqual(t, "merge", got, want)
			}
		}
	}

	cands := []int{0, 2, 5, 8, 11}
	msSampled, err := PreprocessMultiDeletion(tableGame{n: 14, seed: 6}, 2, cands, 50, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	msExact, err := PreprocessMultiDeletionExact(tableGame{n: 12, seed: 4}, 2, cands)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range []*MultiDeletionStore{msSampled, msExact} {
		want, err := ms.mergeWith(1, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{3, 50} {
			got, err := ms.mergeWith(workers, 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			assertBitEqual(t, "multi merge", got, want)
		}
	}
}

// The binary-search tuple lookup must behave exactly like the old map:
// hits for every prepared tuple in any argument order, misses otherwise.
func TestTupleLookup(t *testing.T) {
	cands := []int{1, 3, 4, 8, 9}
	ms, err := NewMultiDeletionStore(12, 2, cands)
	if err != nil {
		t.Fatal(err)
	}
	for _, tuple := range ms.tuples {
		// Reversed argument order must still resolve (Merge sorts).
		if _, err := ms.Merge(tuple[1], tuple[0]); err != nil {
			t.Fatalf("Merge(%v reversed): %v", tuple, err)
		}
	}
	if _, err := ms.Merge(1, 2); err == nil {
		t.Fatal("Merge with non-candidate point should fail")
	}
	if _, err := ms.Merge(3, 3); err == nil {
		t.Fatal("Merge with a repeated point should fail")
	}
}

// WithTargetError must reject nonsensical parameters loudly.
func TestWithTargetErrorValidation(t *testing.T) {
	for _, bad := range [][2]float64{{0, 0.5}, {-1, 0.5}, {0.1, 0}, {0.1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WithTargetError(%v, %v) should panic", bad[0], bad[1])
				}
			}()
			WithTargetError(bad[0], bad[1])
		}()
	}
}
