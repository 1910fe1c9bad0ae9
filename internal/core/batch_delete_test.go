package core

import (
	"slices"
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// The batched deletion walk's determinism contract mirrors the addition
// side: one shared pass over k departing points produces EXACTLY the bits
// of the per-point sequential reference — for the delta form, k
// independent τ-walks over the common survivors sharing the permutation
// stream (BatchDeltaDeleteSeq); for the pivot form, k successive
// DeleteSame calls (BatchDeleteSameSeq) — at every worker count, on both
// the incremental-prefix and scratch-fallback paths.

func TestBatchDeltaDeleteMatchesSequentialReference(t *testing.T) {
	const n, tau = 14, 40
	points := []int{2, 11, 0, 7, 5} // arrival order, deliberately unsorted
	u, hidden := knnPair(t, n)
	oldSV := baseValues(n)

	want, err := BatchDeltaDeleteSeq(u, oldSV, points, tau, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	wantFB, err := BatchDeltaDeleteSeq(hidden, oldSV, points, tau, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "seq incremental vs fallback", want, wantFB)
	for _, p := range points {
		if want[p] != 0 {
			t.Fatalf("removed point %d reported %v, want 0", p, want[p])
		}
	}

	for _, workers := range []int{1, 2, 3, 4, 16} {
		e := NewEngine(WithWorkers(workers))
		got, err := e.BatchDeltaDelete(u, oldSV, points, tau, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		sameSlice(t, "engine incremental", got, want)
		if st := e.Stats(); st.Issued != tau || st.Budget != tau {
			t.Fatalf("workers=%d: stats issued=%d budget=%d, want %d", workers, st.Issued, st.Budget, tau)
		}
		gotFB, err := e.BatchDeltaDelete(hidden, oldSV, points, tau, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		sameSlice(t, "engine fallback", gotFB, want)
	}
}

// At k = 1 the sequential reference is Algorithm 8's two-walker loop, and
// the batched walk — the session's single-point Delta — must reproduce it
// on the fused and the fallback walks at every worker count.
func TestBatchDeltaDeleteK1MatchesDeltaDelete(t *testing.T) {
	const n, tau, p = 12, 30, 4
	u, hidden := knnPair(t, n)
	oldSV := baseValues(n)

	want, err := BatchDeltaDeleteSeq(u, oldSV, []int{p}, tau, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		for _, g := range []game.Game{u, hidden} {
			got, err := NewEngine(WithWorkers(workers)).BatchDeltaDelete(g, oldSV, []int{p}, tau, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			sameSlice(t, "engine vs DeltaDelete", got, want)
		}
	}
}

func TestBatchDeltaDeleteEveryPlayer(t *testing.T) {
	const n, tau = 6, 10
	u, _ := knnPair(t, n)
	out, err := NewEngine().BatchDeltaDelete(u, baseValues(n), []int{0, 1, 2, 3, 4, 5}, tau, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("full-batch delete: out[%d] = %v, want 0", i, v)
		}
	}
}

// deletePivotFixture builds a keepPerms pivot state over the n-player
// base, the post-batch restricted game, and its scratch-fallback twin.
func deletePivotFixture(t *testing.T, n int, points []int) (*PivotState, game.Game, game.Game, game.Game) {
	t.Helper()
	u, _ := knnPair(t, n)
	st := pivotInit(u, 25, true, rng.New(3))
	rg := game.NewRestrict(u, points...)
	return st, u, rg, game.Func{Players: rg.N(), U: rg.Value}
}

func TestBatchDeleteSameMatchesSequentialReference(t *testing.T) {
	const n = 14
	points := []int{9, 1, 12, 4, 6}
	st, u, rg, hidden := deletePivotFixture(t, n, points)

	ref := st.Clone()
	want, err := BatchDeleteSameSeq(ref, u, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != n-len(points) {
		t.Fatalf("seq returned %d values, want %d", len(want), n-len(points))
	}

	for _, workers := range []int{1, 2, 3, 4, 16} {
		for _, g := range []game.Game{rg, hidden} {
			cl := st.Clone()
			e := NewEngine(WithWorkers(workers))
			got, err := e.BatchDeleteSame(cl, g, points)
			if err != nil {
				t.Fatal(err)
			}
			sameSlice(t, "engine batch SV", got, want)
			sameSlice(t, "engine batch LSV", cl.LSV, ref.LSV)
			if st := e.Stats(); st.Issued != cl.Tau || st.Budget != cl.Tau {
				t.Fatalf("workers=%d: stats issued=%d budget=%d, want %d", workers, st.Issued, st.Budget, cl.Tau)
			}
			if len(cl.perms) != len(ref.perms) {
				t.Fatalf("evolved perm count %d, want %d", len(cl.perms), len(ref.perms))
			}
			for i := range cl.perms {
				if cl.slots[i] != ref.slots[i] {
					t.Fatalf("perm %d: slot %d, want %d", i, cl.slots[i], ref.slots[i])
				}
				for j := range cl.perms[i] {
					if cl.perms[i][j] != ref.perms[i][j] {
						t.Fatalf("perm %d position %d: %d, want %d", i, j, cl.perms[i][j], ref.perms[i][j])
					}
				}
			}
		}
	}
}

func TestBatchDeleteSameK1MatchesDeleteSame(t *testing.T) {
	const n, p = 12, 7
	st, _, rg, _ := deletePivotFixture(t, n, []int{p})

	ref := st.Clone()
	want, err := ref.DeleteSame(rg, p)
	if err != nil {
		t.Fatal(err)
	}
	cl := st.Clone()
	got, err := NewEngine().BatchDeleteSame(cl, rg, []int{p})
	if err != nil {
		t.Fatal(err)
	}
	sameSlice(t, "k=1 batch vs DeleteSame", got, want)
	sameSlice(t, "k=1 LSV", cl.LSV, ref.LSV)
}

// TestDeleteSameThenAddSame checks the deletion leaves a coherent pivot
// artifact: the evolved permutations and slots must still drive AddSame,
// and deleting the point just added must restore the pre-add player count.
func TestDeleteSameThenAddSame(t *testing.T) {
	const n = 10
	u, _ := knnPair(t, n)
	st := pivotInit(u, 20, true, rng.New(7))

	rg := game.NewRestrict(u, 3)
	if _, err := st.DeleteSame(rg, 3); err != nil {
		t.Fatal(err)
	}
	if st.N() != n-1 {
		t.Fatalf("post-delete state covers %d players, want %d", st.N(), n-1)
	}
	for i, perm := range st.perms {
		if len(perm) != n-1 {
			t.Fatalf("perm %d has %d entries, want %d", i, len(perm), n-1)
		}
		if st.slots[i] < 0 || st.slots[i] > n-1 {
			t.Fatalf("perm %d slot %d out of range [0,%d]", i, st.slots[i], n-1)
		}
	}
	// The evolved artifact must still power an addition: the adjusted
	// slots are valid insertion points for an (n−1)-length permutation.
	gPlus := game.Func{Players: n, U: func(s bitset.Set) float64 {
		v := 0.0
		s.ForEach(func(i int) { v += float64(i + 1) })
		return v
	}}
	if _, err := st.AddSame(gPlus, rng.New(9)); err != nil {
		t.Fatal(err)
	}
	if st.N() != n {
		t.Fatalf("post-add state covers %d players, want %d", st.N(), n)
	}
}

func TestBatchDeleteErrors(t *testing.T) {
	const n = 8
	u, _ := knnPair(t, n)
	oldSV := baseValues(n)
	e := NewEngine()

	if _, err := e.BatchDeltaDelete(u, oldSV, []int{1, 2}, 0, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaDelete accepted tau=0")
	}
	if _, err := e.BatchDeltaDelete(u, oldSV, nil, 10, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaDelete accepted an empty batch")
	}
	if _, err := e.BatchDeltaDelete(u, oldSV, []int{1, 1}, 10, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaDelete accepted a duplicate point")
	}
	if _, err := e.BatchDeltaDelete(u, oldSV, []int{n}, 10, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaDelete accepted an out-of-range point")
	}
	if _, err := e.BatchDeltaDelete(u, oldSV[:n-1], []int{1}, 10, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaDelete accepted mis-sized oldSV")
	}
	if _, err := BatchDeltaDeleteSeq(u, oldSV, []int{1, 2}, 0, rng.New(1)); err == nil {
		t.Fatal("BatchDeltaDeleteSeq accepted tau=0")
	}

	st := pivotInit(u, 5, true, rng.New(2))
	rg := game.NewRestrict(u, 1, 2)
	if _, err := e.BatchDeleteSame(st.Clone(), u, []int{1, 2}); err == nil {
		t.Fatal("BatchDeleteSame accepted a mis-sized game")
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if _, err := e.BatchDeleteSame(st.Clone(), rg, all); err == nil {
		t.Fatal("BatchDeleteSame accepted removing every player")
	}
	noPerms := pivotInit(u, 5, false, rng.New(2))
	if _, err := e.BatchDeleteSame(noPerms, rg, []int{1, 2}); err != ErrNoPermutations {
		t.Fatalf("BatchDeleteSame without permutations: %v, want ErrNoPermutations", err)
	}
	if _, err := BatchDeleteSameSeq(noPerms, u, []int{1, 2}); err != ErrNoPermutations {
		t.Fatalf("BatchDeleteSameSeq without permutations: %v, want ErrNoPermutations", err)
	}
	if _, err := noPerms.DeleteSame(game.NewRestrict(u, 0), 0); err != ErrNoPermutations {
		t.Fatalf("DeleteSame without permutations: %v, want ErrNoPermutations", err)
	}
}

// TestDeleteEvolveMatchesSteps: one deleteEvolve pass over a batch lands
// on the permutation and pivot slot that one deleteEvolveStep per point,
// in arrival order, reaches — at slot 0, at slot n, and with removals on
// both sides of the slot.
func TestDeleteEvolveMatchesSteps(t *testing.T) {
	rnd := rng.New(29)
	const n = 12
	cases := 0
	for trial := 0; trial < 300; trial++ {
		perm := rnd.PermN(n)
		slot := rnd.Intn(n + 1)
		switch trial % 5 {
		case 0:
			slot = 0
		case 1:
			slot = n
		}
		k := 1 + rnd.Intn(n-1)
		points := rnd.PermN(n)[:k] // arrival order, unsorted
		before, after := 0, 0
		for r, q := range perm {
			for _, p := range points {
				if q == p && r < slot {
					before++
				} else if q == p {
					after++
				}
			}
		}
		if before > 0 && after > 0 {
			cases++
		}

		want, wantSlot := append([]int(nil), perm...), slot
		for j, p := range points {
			for _, d := range points[:j] {
				if d < points[j] {
					p--
				}
			}
			want, wantSlot = deleteEvolveStep(want, wantSlot, p)
		}
		renum := make([]int, n)
		next := 0
		for q := range renum {
			renum[q] = -1
			if !slices.Contains(points, q) {
				renum[q] = next
				next++
			}
		}
		got, gotSlot := deleteEvolve(append([]int(nil), perm...), slot, renum)
		if gotSlot != wantSlot || !slices.Equal(got, want) {
			t.Fatalf("perm %v slot %d removing %v: one pass gave %v slot %d, steps %v slot %d",
				perm, slot, points, got, gotSlot, want, wantSlot)
		}
	}
	if cases == 0 {
		t.Fatal("no trial removed points on both sides of the slot")
	}
}
