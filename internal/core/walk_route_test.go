package core

import (
	"fmt"
	"slices"
	"testing"

	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/utility"
)

// walkArm is one route a full-walk pass can take over the same k-NN game.
type walkArm struct {
	name string
	g    game.Game
}

// walkArms returns the three routes over u, each passed through wrap: the
// game as it is (one zero-pivot Walk per permutation), prefixOnly (the
// step view, one Add per position) and the game with every evaluator
// hidden (scratch Value calls). It fails unless wrap keeps them apart.
func walkArms(t *testing.T, u *utility.ModelUtility, wrap func(game.Game) game.Game) []walkArm {
	t.Helper()
	arms := []walkArm{
		{"whole walk", wrap(u)},
		{"step view", wrap(prefixOnly{u})},
		{"scratch", wrap(game.Func{Players: u.N(), U: u.Value})},
	}
	if game.PivotPrefixOf(arms[0].g, nil) == nil ||
		game.PivotPrefixOf(arms[1].g, nil) != nil || game.PrefixEvaluatorOf(arms[1].g) == nil ||
		game.PivotPrefixOf(arms[2].g, nil) != nil || game.PrefixEvaluatorOf(arms[2].g) != nil {
		t.Fatal("fixture does not split the whole-walk, step and scratch routes")
	}
	return arms
}

// passResult is everything a pass leaves behind: named float outputs
// (values, heads, store arrays) and any stored permutations and slots.
type passResult struct {
	floats []namedFloats
	perms  [][]int32
	slots  []int
}

type namedFloats struct {
	name string
	v    []float64
}

func (r *passResult) add(name string, v []float64) {
	r.floats = append(r.floats, namedFloats{name, v})
}

func (r *passResult) addHeads(hv [][]float64) {
	for h, v := range hv {
		r.add(fmt.Sprintf("head %d", h), v)
	}
}

func (r *passResult) addPivot(st *PivotState) {
	r.add("pivot SV", st.SV)
	r.add("pivot LSV", st.LSV)
	r.perms, r.slots = st.perms, st.slots
}

func (r *passResult) addDeletion(ds *DeletionStore) {
	r.add("deletion SV", ds.SV)
	r.add("yn", ds.yn)
	r.add("nn", ds.nn)
}

func (r *passResult) addMulti(ms *MultiDeletionStore) {
	r.add("multi SV", ms.SV)
	r.add("multi y", ms.y)
	r.add("multi nn", ms.nn)
}

// sameResult fails unless two pass results agree bit for bit.
func sameResult(t *testing.T, name string, got, want passResult) {
	t.Helper()
	if len(got.floats) != len(want.floats) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got.floats), len(want.floats))
	}
	for i, w := range want.floats {
		assertBitEqual(t, name+" "+w.name, got.floats[i].v, w.v)
	}
	if len(got.perms) != len(want.perms) || !slices.Equal(got.slots, want.slots) {
		t.Fatalf("%s: %d stored permutations with slots %v, want %d with %v", name, len(got.perms), got.slots, len(want.perms), want.slots)
	}
	for i := range want.perms {
		if !slices.Equal(got.perms[i], want.perms[i]) {
			t.Fatalf("%s: stored permutation %d is %v, want %v", name, i, got.perms[i], want.perms[i])
		}
	}
}

// Every pass that walks full permutations — Initialize in each of its
// configurations, MonteCarlo, the deletion-store fills, BatchDeleteSame on
// a Restrict survivor game and MonteCarlo over a Restrict — gives the same
// bits on the whole-walk, step and scratch routes at every worker count,
// and the whole walk counts as many prefix adds as the step view.
func TestFullWalksMatchOnEveryRoute(t *testing.T) {
	const n, tau = 14, 30
	u, _ := knnPair(t, n)
	removed := []int{2, 9}
	plain := func(g game.Game) game.Game { return g }
	restrict := func(g game.Game) game.Game { return game.NewRestrict(g, removed...) }
	stored, err := NewEngine().Initialize(u, tau, InitOptions{KeepPerms: true}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}

	initPass := func(opt InitOptions, engineOpts ...EngineOption) func(int, game.Game) passResult {
		return func(workers int, g game.Game) passResult {
			res, err := NewEngine(append(engineOpts, WithWorkers(workers))...).Initialize(g, tau, opt, rng.New(21))
			if err != nil {
				t.Fatal(err)
			}
			var out passResult
			out.addPivot(res.Pivot)
			out.addHeads(res.HeadValues)
			if res.Deletion != nil {
				out.addDeletion(res.Deletion)
			}
			if res.Multi != nil {
				out.addMulti(res.Multi)
			}
			return out
		}
	}
	monteCarlo := func(workers int, g game.Game) passResult {
		e := NewEngine(WithWorkers(workers), WithSemivalues(fourHeads()...))
		var out passResult
		out.add("SV", e.MonteCarlo(g, tau, rng.New(8)))
		out.addHeads(e.HeadValues())
		return out
	}
	passes := []struct {
		name string
		wrap func(game.Game) game.Game
		run  func(workers int, g game.Game) passResult
	}{
		{"Initialize", plain, initPass(InitOptions{})},
		{"Initialize stored permutations", plain, initPass(InitOptions{KeepPerms: true})},
		{"Initialize deletion store", plain, initPass(InitOptions{TrackDeletions: true})},
		{"Initialize multi-delete store", plain, initPass(InitOptions{MultiDelete: 2, Candidates: []int{0, 3, 7, 11}})},
		{"Initialize heads", plain, initPass(InitOptions{Heads: fourHeads()})},
		{"Initialize truncated", plain, initPass(InitOptions{TrackDeletions: true}, WithTruncation(5))},
		{"MonteCarlo", plain, monteCarlo},
		{"PreprocessDeletion", plain, func(workers int, g game.Game) passResult {
			var out passResult
			out.addDeletion(NewEngine(WithWorkers(workers)).PreprocessDeletion(g, tau, rng.New(5)))
			return out
		}},
		{"PreprocessMultiDeletion", plain, func(workers int, g game.Game) passResult {
			ms, err := NewEngine(WithWorkers(workers)).PreprocessMultiDeletion(g, 2, []int{1, 4, 12}, tau, rng.New(6))
			if err != nil {
				t.Fatal(err)
			}
			var out passResult
			out.addMulti(ms)
			return out
		}},
		{"BatchDeleteSame", restrict, func(workers int, g game.Game) passResult {
			st := stored.Pivot.Clone()
			sv, err := NewEngine(WithWorkers(workers)).BatchDeleteSame(st, g, removed)
			if err != nil {
				t.Fatal(err)
			}
			var out passResult
			out.add("SV", sv)
			out.addPivot(st)
			return out
		}},
		{"MonteCarlo over Restrict", restrict, monteCarlo},
	}
	for _, pass := range passes {
		arms := walkArms(t, u, pass.wrap)
		for workers := 1; workers <= 3; workers++ {
			var want passResult
			var wantAdds int64
			for i, arm := range arms {
				before := u.PrefixAdds()
				got := pass.run(workers, arm.g)
				adds := u.PrefixAdds() - before
				name := fmt.Sprintf("%s workers=%d %s", pass.name, workers, arm.name)
				switch i {
				case 0:
					want, wantAdds = got, adds
					if adds == 0 {
						t.Fatalf("%s: no prefix adds", name)
					}
				case 1:
					if adds != wantAdds {
						t.Fatalf("%s: %d prefix adds, whole walk %d", name, adds, wantAdds)
					}
				}
				sameResult(t, name, got, want)
			}
		}
	}
}

// Engine.AddDifferent gives its sequential reference's bits on the
// whole-walk, step and scratch routes at every worker count, and leaves
// the same state: values, LSV, τ₂ and no stored permutations. It walks the
// k-NN nested walk on the first route and the step view on the second,
// with the reference's prefix-add count on both, and trains as many models
// as the reference on the third.
func TestAddDifferentMatchesReferenceOnEveryRoute(t *testing.T) {
	const n, tau, tau2 = 14, 30, 25
	u, _ := knnPair(t, n)
	uPlus, _ := knnPlusPair(t, n)
	base, err := NewEngine().Initialize(u, tau, InitOptions{KeepPerms: true}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	// run applies one Pivot-d pass to a copy of the base state and returns
	// what it left, with the prefix adds and trainings it spent.
	run := func(add func(*PivotState) ([]float64, error)) (passResult, int, int64, int64) {
		st := base.Pivot.Clone()
		adds, fits := uPlus.PrefixAdds(), uPlus.Fits()
		sv, err := add(st)
		if err != nil {
			t.Fatal(err)
		}
		var out passResult
		out.add("SV", sv)
		out.addPivot(st)
		return out, st.Tau, uPlus.PrefixAdds() - adds, uPlus.Fits() - fits
	}
	for i, arm := range walkArms(t, uPlus, func(g game.Game) game.Game { return g }) {
		want, wantTau, wantAdds, wantFits := run(func(st *PivotState) ([]float64, error) {
			return st.AddDifferent(arm.g, tau2, rng.New(9))
		})
		for workers := 1; workers <= 3; workers++ {
			got, gotTau, adds, fits := run(func(st *PivotState) ([]float64, error) {
				return NewEngine(WithWorkers(workers)).AddDifferent(st, arm.g, tau2, rng.New(9))
			})
			name := fmt.Sprintf("AddDifferent workers=%d %s", workers, arm.name)
			sameResult(t, name, got, want)
			if gotTau != tau2 || wantTau != tau2 {
				t.Fatalf("%s: τ = %d, reference %d, want %d", name, gotTau, wantTau, tau2)
			}
			if i < 2 && (adds != wantAdds || adds == 0) {
				t.Fatalf("%s: %d prefix adds, reference %d", name, adds, wantAdds)
			}
			if i == 2 && (fits != wantFits || fits == 0) {
				t.Fatalf("%s: %d trainings, reference %d", name, fits, wantFits)
			}
		}
	}
}
