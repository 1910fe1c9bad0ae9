package core

import (
	"math"
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

// restrictFirst returns the sub-game of gPlus over its first n players —
// the "original dataset" view used by the addition tests.
func restrictFirst(gPlus game.Game, n int) game.Game {
	removed := make([]int, 0, gPlus.N()-n)
	for i := n; i < gPlus.N(); i++ {
		removed = append(removed, i)
	}
	return game.NewRestrict(gPlus, removed...)
}

// exactLSV computes the exact left-group average LSV⁺ (Lemma 1) for every
// original player by enumerating all (n+1)! permutations of the updated
// game. Used to validate the pivot initialisation's sampler.
func exactLSV(gPlus game.Game) []float64 {
	m := gPlus.N()
	lsv := make([]float64, m-1)
	pivot := m - 1
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	count := 0
	prefix := bitset.New(m)
	var visit func(k int)
	var scan func()
	scan = func() {
		count++
		prefix.Clear()
		prev := gPlus.Value(prefix)
		seenPivot := false
		for _, p := range perm {
			prefix.Add(p)
			cur := gPlus.Value(prefix)
			if p == pivot {
				seenPivot = true
			} else if !seenPivot {
				lsv[p] += cur - prev
			}
			prev = cur
		}
	}
	visit = func(k int) {
		if k == m {
			scan()
			return
		}
		for i := k; i < m; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			visit(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	visit(0)
	for i := range lsv {
		lsv[i] /= float64(count)
	}
	return lsv
}

func TestPivotInitSVMatchesExact(t *testing.T) {
	gPlus := tableGame{n: 7, seed: 21}
	gD := restrictFirst(gPlus, 6)
	st := pivotInit(gD, 30000, false, rng.New(1))
	want := Exact(gD)
	if mse := stat.MSE(st.SV, want); mse > 1e-4 {
		t.Fatalf("pivot init SV MSE = %v", mse)
	}
}

func TestPivotInitLSVUnbiased(t *testing.T) {
	gPlus := tableGame{n: 5, seed: 22}
	gD := restrictFirst(gPlus, 4)
	st := pivotInit(gD, 200000, false, rng.New(2))
	want := exactLSV(gPlus)
	if mse := stat.MSE(st.LSV, want); mse > 1e-4 {
		t.Fatalf("LSV MSE vs enumeration = %v\n got %v\nwant %v", mse, st.LSV, want)
	}
}

func TestPivotAddSameMatchesExact(t *testing.T) {
	gPlus := tableGame{n: 7, seed: 23}
	gD := restrictFirst(gPlus, 6)
	st := pivotInit(gD, 30000, true, rng.New(3))
	got, err := st.AddSame(gPlus, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	want := Exact(gPlus)
	if mse := stat.MSE(got, want); mse > 2e-4 {
		t.Fatalf("AddSame MSE = %v\n got %v\nwant %v", mse, got, want)
	}
	if st.N() != 7 {
		t.Fatalf("state N = %d after add", st.N())
	}
}

func TestPivotAddDifferentMatchesExact(t *testing.T) {
	gPlus := tableGame{n: 7, seed: 24}
	gD := restrictFirst(gPlus, 6)
	st := pivotInit(gD, 30000, false, rng.New(5))
	got, err := NewEngine().AddDifferent(st, gPlus, 30000, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	want := Exact(gPlus)
	if mse := stat.MSE(got, want); mse > 2e-4 {
		t.Fatalf("AddDifferent MSE = %v\n got %v\nwant %v", mse, got, want)
	}
}

func TestPivotAddDifferentLargerOfflineTau(t *testing.T) {
	// The Table V regime: a large offline τ_LSV with a modest online τ_RSV
	// must beat equal small τ on both. Averaged over repetitions to avoid
	// flaky single-draw comparisons.
	gPlus := tableGame{n: 6, seed: 25}
	gD := restrictFirst(gPlus, 5)
	want := Exact(gPlus)
	const reps = 30
	var mseSmall, mseBig float64
	for rep := 0; rep < reps; rep++ {
		seed := uint64(100 + rep)
		stSmall := pivotInit(gD, 50, false, rng.New(seed))
		gotSmall, err := NewEngine().AddDifferent(stSmall, gPlus, 50, rng.New(seed+1000))
		if err != nil {
			t.Fatal(err)
		}
		stBig := pivotInit(gD, 5000, false, rng.New(seed))
		gotBig, err := NewEngine().AddDifferent(stBig, gPlus, 50, rng.New(seed+1000))
		if err != nil {
			t.Fatal(err)
		}
		mseSmall += stat.MSE(gotSmall, want) / reps
		mseBig += stat.MSE(gotBig, want) / reps
	}
	if mseBig >= mseSmall {
		t.Fatalf("larger offline τ_LSV did not help: %v vs %v", mseBig, mseSmall)
	}
}

func TestPivotAddSameRequiresPermutations(t *testing.T) {
	gPlus := tableGame{n: 4, seed: 26}
	gD := restrictFirst(gPlus, 3)
	st := pivotInit(gD, 10, false, rng.New(7))
	if _, err := st.AddSame(gPlus, rng.New(8)); err != ErrNoPermutations {
		t.Fatalf("err = %v, want ErrNoPermutations", err)
	}
}

func TestPivotAddDifferentInvalidatesPermutations(t *testing.T) {
	g8 := tableGame{n: 8, seed: 27}
	g7 := restrictFirst(g8, 7)
	g6 := restrictFirst(g8, 6)
	st := pivotInit(g6, 50, true, rng.New(9))
	if !st.HasPermutations() {
		t.Fatal("keepPerms init lost permutations")
	}
	if _, err := NewEngine().AddDifferent(st, g7, 50, rng.New(10)); err != nil {
		t.Fatal(err)
	}
	if st.HasPermutations() {
		t.Fatal("AddDifferent should drop stored permutations")
	}
	if _, err := st.AddSame(g8, rng.New(11)); err != ErrNoPermutations {
		t.Fatalf("err = %v, want ErrNoPermutations", err)
	}
}

func TestPivotAddSizeMismatch(t *testing.T) {
	gPlus := tableGame{n: 6, seed: 28}
	gD := restrictFirst(gPlus, 5)
	st := pivotInit(gD, 10, true, rng.New(12))
	if _, err := st.AddSame(tableGame{n: 8, seed: 28}, rng.New(13)); err == nil {
		t.Fatal("AddSame with wrong game size should fail")
	}
	if _, err := NewEngine().AddDifferent(st, tableGame{n: 8, seed: 28}, 10, rng.New(13)); err == nil {
		t.Fatal("AddDifferent with wrong game size should fail")
	}
	if _, err := NewEngine().AddDifferent(st, gPlus, 0, rng.New(13)); err == nil {
		t.Fatal("AddDifferent with τ=0 should fail")
	}
}

func TestPivotSequentialAdds(t *testing.T) {
	// Two sequential AddSame calls track the exact values of the twice-
	// extended game. The LSV 2/3-decay is approximate, so the tolerance is
	// looser than for a single addition.
	g8 := tableGame{n: 8, seed: 29}
	g7 := restrictFirst(g8, 7)
	g6 := restrictFirst(g8, 6)
	st := pivotInit(g6, 20000, true, rng.New(14))
	if _, err := st.AddSame(g7, rng.New(15)); err != nil {
		t.Fatal(err)
	}
	got, err := st.AddSame(g8, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	want := Exact(g8)
	if mse := stat.MSE(got, want); mse > 5e-3 {
		t.Fatalf("two sequential AddSame MSE = %v", mse)
	}
}

func TestPivotAddSameReusesCachedUtilities(t *testing.T) {
	// The pivot reuse claim: with a shared cache, AddSame evaluates roughly
	// half the coalitions a fresh MC run over N⁺ would.
	gPlus := game.NewCached(tableGame{n: 11, seed: 30})
	counting := game.NewCounting(gPlus)
	gD := restrictFirst(counting, 10)
	st := pivotInit(gD, 200, true, rng.New(17))
	initCalls := counting.Calls()
	counting.Reset()
	hitsBefore, _ := gPlus.Stats()
	if _, err := st.AddSame(counting, rng.New(18)); err != nil {
		t.Fatal(err)
	}
	addCalls := counting.Calls()
	hitsAfter, _ := gPlus.Stats()
	if addCalls >= initCalls {
		t.Fatalf("AddSame evaluated %d ≥ init's %d coalitions", addCalls, initCalls)
	}
	// The t-prefix utilities must come from cache (they were computed in init).
	if hitsAfter <= hitsBefore {
		t.Fatal("AddSame produced no cache hits; prefix reuse broken")
	}
}

func TestPivotNewPointValueAccurate(t *testing.T) {
	gPlus := tableGame{n: 6, seed: 31}
	gD := restrictFirst(gPlus, 5)
	want := Exact(gPlus)
	st := pivotInit(gD, 20000, false, rng.New(19))
	got, err := NewEngine().AddDifferent(st, gPlus, 20000, rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(got[5] - want[5]); d > 0.02 {
		t.Fatalf("new point SV = %v, want %v (diff %v)", got[5], want[5], d)
	}
}
