package core

import (
	"fmt"
	"slices"
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/utility"
)

// The batched update walk's determinism contract: one shared permutation
// pass over k pending points produces EXACTLY the bits of the per-point
// sequential reference — for the delta form, k independent τ-walks against
// the fixed base sharing the permutation stream (BatchDeltaAddSeq); for
// the pivot form, k successive AddSame calls (BatchAddSameSeq) — at every
// worker count, on both the incremental-prefix and scratch-fallback paths.

// batchPoints fabricates k deterministic pending points for a utility.
func batchPoints(u *utility.ModelUtility, k int) []dataset.Point {
	dim := u.Train().Dim()
	pts := make([]dataset.Point, k)
	for j := range pts {
		x := make([]float64, dim)
		for i := range x {
			x[i] = 0.2*float64(i+1) - 0.15*float64(j+1)
		}
		pts[j] = dataset.Point{X: x, Y: (j + 1) % 3}
	}
	return pts
}

// knnBatchPair returns the (n+k)-player updated KNN game twice: Prefixer
// visible, and hidden behind game.Func (scratch fallback).
func knnBatchPair(t *testing.T, n, k int) (*utility.ModelUtility, game.Game) {
	t.Helper()
	u, _ := knnPair(t, n)
	uPlus := u.Append(batchPoints(u, k)...)
	return uPlus, game.Func{Players: n + k, U: uPlus.Value}
}

func baseValues(n int) []float64 {
	sv := make([]float64, n)
	for i := range sv {
		sv[i] = 0.01*float64(i) - 0.003*float64(n-i)
	}
	return sv
}

func TestBatchDeltaAddMatchesSequentialReference(t *testing.T) {
	const n, k, tau = 14, 5, 40
	uPlus, hidden := knnBatchPair(t, n, k)
	oldSV := baseValues(n)

	want, err := BatchDeltaAddSeq(uPlus, oldSV, k, tau, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	wantFB, err := BatchDeltaAddSeq(hidden, oldSV, k, tau, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "seq incremental vs fallback", want, wantFB)

	for _, workers := range []int{1, 2, 3, 4, 16} {
		e := NewEngine(WithWorkers(workers))
		got, err := e.BatchDeltaAdd(uPlus, oldSV, k, tau, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		sameSlice(t, "engine incremental", got, want)
		if st := e.Stats(); st.Issued != tau || st.Budget != tau {
			t.Fatalf("workers=%d: stats issued=%d budget=%d, want %d", workers, st.Issued, st.Budget, tau)
		}
		gotFB, err := e.BatchDeltaAdd(hidden, oldSV, k, tau, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		sameSlice(t, "engine fallback", gotFB, want)
	}
}

// At k = 1 the sequential reference is Algorithm 5's two-walker loop, and
// the batched walk — the session's single-point Delta — must reproduce it
// on the fused and the fallback walks at every worker count.
func TestBatchDeltaAddK1MatchesDeltaAdd(t *testing.T) {
	const n, tau = 12, 30
	uPlus, hidden := knnBatchPair(t, n, 1)
	oldSV := baseValues(n)

	want, err := BatchDeltaAddSeq(uPlus, oldSV, 1, tau, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		for _, g := range []game.Game{uPlus, hidden} {
			got, err := NewEngine(WithWorkers(workers)).BatchDeltaAdd(g, oldSV, 1, tau, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			sameSlice(t, "engine vs DeltaAdd", got, want)
		}
	}
}

// pivotFixture builds a keepPerms pivot state over the n-player base and
// the (n+k)-player updated game, plus k per-point RNG sources.
func pivotFixture(t *testing.T, n, k int) (*PivotState, *utility.ModelUtility, game.Game) {
	t.Helper()
	u, _ := knnPair(t, n)
	st := pivotInit(u, 25, true, rng.New(3))
	uPlus := u.Append(batchPoints(u, k)...)
	return st, uPlus, game.Func{Players: n + k, U: uPlus.Value}
}

func splitSources(seed uint64, k int) []*rng.Source {
	r := rng.New(seed)
	rs := make([]*rng.Source, k)
	for i := range rs {
		rs[i] = r.Split()
	}
	return rs
}

// prefixOnly hides a utility's pivot-aware evaluator but keeps its
// incremental one, so the batched walks take chainRows on the incremental
// path.
type prefixOnly struct{ u *utility.ModelUtility }

func (p prefixOnly) N() int                       { return p.u.N() }
func (p prefixOnly) Value(s bitset.Set) float64   { return p.u.Value(s) }
func (p prefixOnly) Prefix() game.PrefixEvaluator { return p.u.Prefix() }

// samePivotState fails unless two pivot passes returned the same values
// and left the same LSV, evolved permutations and slots.
func samePivotState(t *testing.T, name string, got *PivotState, gotSV []float64, want *PivotState, wantSV []float64) {
	t.Helper()
	sameSlice(t, name+" SV", gotSV, wantSV)
	sameSlice(t, name+" LSV", got.LSV, want.LSV)
	if len(got.perms) != len(want.perms) {
		t.Fatalf("%s: %d evolved perms, want %d", name, len(got.perms), len(want.perms))
	}
	for i := range got.perms {
		if got.slots[i] != want.slots[i] {
			t.Fatalf("%s: perm %d slot %d, want %d", name, i, got.slots[i], want.slots[i])
		}
		if !slices.Equal(got.perms[i], want.perms[i]) {
			t.Fatalf("%s: perm %d is %v, want %v", name, i, got.perms[i], want.perms[i])
		}
	}
}

// The sequential reference runs on the incremental and the scratch-Value
// paths, and the engine on the fused nested walk, the incremental fallback
// (chainRows over prefix evaluators) and the scratch fallback at every
// worker count; all must agree bit for bit. The second size nests 16
// chains in every stored permutation.
func TestBatchAddSameMatchesSequentialReference(t *testing.T) {
	for _, size := range []struct{ n, k int }{{14, 5}, {40, 16}} {
		n, k := size.n, size.k
		st, uPlus, hidden := pivotFixture(t, n, k)
		incremental := prefixOnly{uPlus}
		pivots := []int{n}
		if game.PivotPrefixOf(uPlus, pivots) == nil || game.PivotPrefixOf(incremental, pivots) != nil ||
			game.PrefixEvaluatorOf(incremental) == nil || game.PrefixEvaluatorOf(hidden) != nil {
			t.Fatal("fixture does not split the fused, incremental and scratch walks")
		}

		ref := st.Clone()
		want, err := BatchAddSameSeq(ref, uPlus, k, splitSources(9, k))
		if err != nil {
			t.Fatal(err)
		}
		refFB := st.Clone()
		wantFB, err := BatchAddSameSeq(refFB, hidden, k, splitSources(9, k))
		if err != nil {
			t.Fatal(err)
		}
		samePivotState(t, "seq scratch vs incremental", refFB, wantFB, ref, want)

		for _, workers := range []int{1, 2, 3, 4, 16} {
			for _, arm := range []struct {
				name string
				g    game.Game
			}{{"fused", uPlus}, {"incremental fallback", incremental}, {"scratch fallback", hidden}} {
				cl := st.Clone()
				got, err := NewEngine(WithWorkers(workers)).BatchAddSame(cl, arm.g, k, splitSources(9, k))
				if err != nil {
					t.Fatal(err)
				}
				samePivotState(t, fmt.Sprintf("n=%d k=%d workers=%d %s", n, k, workers, arm.name), cl, got, ref, want)
			}
		}
	}
}

func TestBatchAddSameK1MatchesAddSame(t *testing.T) {
	const n = 12
	st, uPlus, _ := pivotFixture(t, n, 1)

	ref := st.Clone()
	want, err := ref.AddSame(uPlus, splitSources(4, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	cl := st.Clone()
	got, err := NewEngine().BatchAddSame(cl, uPlus, 1, splitSources(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "k=1 batch vs AddSame", got, want)
	sameSlice(t, "k=1 LSV", cl.LSV, ref.LSV)
}

// TestPivotAddSlotsHoldFinalPermutation: a Pivot-s batch's pipeline slots
// carry the final permutation alone; the fold peels the k chains off it.
// A slot holding every point's evolved permutation would need k·(n+k) =
// 3,456 entries here.
func TestPivotAddSlotsHoldFinalPermutation(t *testing.T) {
	const n, k = 200, 16
	st, uPlus, _ := pivotFixture(t, n, k)
	e := NewEngine(WithWorkers(2))
	if _, err := e.BatchAddSame(st, uPlus, k, splitSources(9, k)); err != nil {
		t.Fatal(err)
	}
	if len(e.scratch.slots) == 0 {
		t.Fatal("the pass left no pipeline slots")
	}
	for i, s := range e.scratch.slots {
		if cap(s.perm) > n+k {
			t.Fatalf("slot %d has room for %d permutation entries, want ≤ n+k = %d", i, cap(s.perm), n+k)
		}
	}
}

func TestBatchAddErrors(t *testing.T) {
	const n, k = 8, 3
	uPlus, _ := knnBatchPair(t, n, k)
	oldSV := baseValues(n)
	e := NewEngine()

	if _, err := e.BatchDeltaAdd(uPlus, oldSV, k, 0, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaAdd accepted tau=0")
	}
	if _, err := e.BatchDeltaAdd(uPlus, oldSV, k+1, 10, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaAdd accepted a mis-sized game")
	}
	if _, err := e.BatchDeltaAdd(uPlus, oldSV, 0, 10, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaAdd accepted k=0")
	}
	if _, err := BatchDeltaAddSeq(uPlus, oldSV, k, 0, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaAddSeq accepted tau=0")
	}

	st, uPlusP, _ := pivotFixture(t, n, k)
	if _, err := e.BatchAddSame(st.Clone(), uPlusP, k, splitSources(1, k-1)); err == nil {
		t.Fatal("BatchAddSame accepted a short source list")
	}
	if _, err := e.BatchAddSame(st.Clone(), uPlusP, k+1, splitSources(1, k+1)); err == nil {
		t.Fatal("BatchAddSame accepted a mis-sized game")
	}
	noPerms := pivotInit(game.Func{Players: n, U: uPlusP.Value}, 5, false, rng.New(2))
	if _, err := e.BatchAddSame(noPerms, uPlusP, k, splitSources(1, k)); err != ErrNoPermutations {
		t.Fatalf("BatchAddSame without permutations: %v, want ErrNoPermutations", err)
	}
	if _, err := BatchAddSameSeq(noPerms, uPlusP, k, splitSources(1, k)); err != ErrNoPermutations {
		t.Fatalf("BatchAddSameSeq without permutations: %v, want ErrNoPermutations", err)
	}
}
