package plan

import (
	"strings"
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/core"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

func planGame(n int) game.Game {
	return game.Func{Players: n, U: func(s bitset.Set) float64 {
		return float64(s.Len()) / float64(n+1)
	}}
}

func artifacts(t *testing.T, n int, keepPerms, trackDel bool, multiD int, cands []int) Artifacts {
	t.Helper()
	art := Artifacts{N: n, StoresFresh: true}
	e := core.NewEngine(core.WithWorkers(1))
	res, err := e.Initialize(planGame(n), 50, core.InitOptions{KeepPerms: keepPerms}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	art.Pivot = res.Pivot
	if trackDel {
		art.Deletion = e.PreprocessDeletion(planGame(n), 50, rng.New(1))
	}
	if multiD > 0 {
		ms, err := e.PreprocessMultiDeletion(planGame(n), multiD, cands, 50, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		art.Multi = ms
	}
	return art
}

func TestPlanDeleteExactWhenFresh(t *testing.T) {
	art := artifacts(t, 10, false, true, 0, nil)
	d := Plan(Request{Op: OpDelete, Count: 1, Indices: []int{3}}, art, Budget{UpdateTau: 100})
	if d.Choice != ChoiceExact {
		t.Fatalf("choice = %v, want exact", d.Choice)
	}
	if d.Cost.Evaluations != 0 {
		t.Fatalf("exact path predicts %d evaluations", d.Cost.Evaluations)
	}
	if len(d.Trace) == 0 || !strings.Contains(strings.Join(d.Trace, " "), "YN-NN") {
		t.Fatalf("trace missing rationale: %v", d.Trace)
	}
}

func TestPlanDeleteDeltaWhenStale(t *testing.T) {
	art := artifacts(t, 10, false, true, 0, nil)
	art.StoresFresh = false
	d := Plan(Request{Op: OpDelete, Count: 1, Indices: []int{3}}, art, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDelta {
		t.Fatalf("choice = %v, want delta", d.Choice)
	}
	if !strings.Contains(strings.Join(d.Trace, " "), "stale") {
		t.Fatalf("trace should mention staleness: %v", d.Trace)
	}
}

func TestPlanDeleteDeltaWithoutArrays(t *testing.T) {
	art := Artifacts{N: 10, StoresFresh: true}
	d := Plan(Request{Op: OpDelete, Count: 1, Indices: []int{0}}, art, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDelta {
		t.Fatalf("choice = %v, want delta", d.Choice)
	}
}

func TestPlanMultiDelete(t *testing.T) {
	art := artifacts(t, 10, false, true, 2, []int{1, 3, 5})
	covered := Plan(Request{Op: OpDelete, Count: 2, Indices: []int{5, 1}}, art, Budget{UpdateTau: 100})
	if covered.Choice != ChoiceExact {
		t.Fatalf("covered tuple: choice = %v, want exact", covered.Choice)
	}
	uncovered := Plan(Request{Op: OpDelete, Count: 2, Indices: []int{0, 2}}, art, Budget{UpdateTau: 100})
	if uncovered.Choice != ChoiceDeltaDeleteBatch {
		t.Fatalf("uncovered tuple: choice = %v, want Delta-batch", uncovered.Choice)
	}
	if !strings.Contains(strings.Join(uncovered.Trace, " "), "candidate") {
		t.Fatalf("trace should explain coverage miss: %v", uncovered.Trace)
	}
}

func TestPlanDeleteBatch(t *testing.T) {
	// Multi-point deletes without artifacts take the batched delta walk,
	// and its predicted cost must undercut k sequential delta passes.
	art := Artifacts{N: 20}
	d := Plan(Request{Op: OpDelete, Count: 4, Indices: []int{0, 5, 9, 13}}, art, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDeltaDeleteBatch {
		t.Fatalf("choice = %v, want Delta-batch", d.Choice)
	}
	seq := core.DeltaDeleteCost(20, 100).Times(4)
	if d.Cost.Evaluations >= seq.Evaluations {
		t.Fatalf("batch cost %d not below sequential %d", d.Cost.Evaluations, seq.Evaluations)
	}
	if !strings.Contains(strings.Join(d.Trace, " "), "batch") {
		t.Fatalf("trace should explain the batching: %v", d.Trace)
	}

	// Heads disqualify the Shapley-only batched walk: sequential delta
	// passes carry them instead.
	withHeads := Artifacts{N: 20, Heads: 2, HeadsLinear: true}
	d = Plan(Request{Op: OpDelete, Count: 4, Indices: []int{0, 5, 9, 13}}, withHeads, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDelta {
		t.Fatalf("with heads: choice = %v, want delta", d.Choice)
	}
	if !strings.Contains(strings.Join(d.Trace, " "), "Shapley-only") {
		t.Fatalf("trace should explain the head rejection: %v", d.Trace)
	}
}

func TestPlanDeletePivotPreservesArtifact(t *testing.T) {
	// Retained permutations route deletions onto the evolved-walk path —
	// the only one that keeps the pivot artifact alive for later adds.
	withPerms := artifacts(t, 10, true, false, 0, nil)
	for _, req := range []Request{
		{Op: OpDelete, Count: 1, Indices: []int{3}},
		{Op: OpDelete, Count: 3, Indices: []int{3, 7, 0}},
	} {
		d := Plan(req, withPerms, Budget{UpdateTau: 100})
		if d.Choice != ChoicePivotDeleteBatch {
			t.Fatalf("count=%d: choice = %v, want Pivot-s-batch", req.Count, d.Choice)
		}
		if got := withPerms.Pivot.DeleteSameBatchCost(req.Count); d.Cost != got {
			t.Fatalf("count=%d: cost = %v, want %v", req.Count, d.Cost, got)
		}
		if !strings.Contains(strings.Join(d.Trace, " "), "pivot artifact alive") {
			t.Fatalf("trace should note the artifact preservation: %v", d.Trace)
		}
	}

	// A fresh YN-NN array still beats it: zero evaluations wins.
	withBoth := artifacts(t, 10, true, true, 0, nil)
	d := Plan(Request{Op: OpDelete, Count: 1, Indices: []int{3}}, withBoth, Budget{UpdateTau: 100})
	if d.Choice != ChoiceExact {
		t.Fatalf("with fresh arrays: choice = %v, want exact", d.Choice)
	}

	// Without permutations there is nothing to evolve.
	noPerms := artifacts(t, 10, false, false, 0, nil)
	d = Plan(Request{Op: OpDelete, Count: 1, Indices: []int{3}}, noPerms, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDelta {
		t.Fatalf("without perms: choice = %v, want delta", d.Choice)
	}

	// Heads force the sampled path (the SV/LSV rebuild is Shapley-only).
	headed := artifacts(t, 10, true, false, 0, nil)
	headed.Heads, headed.HeadsLinear = 2, true
	d = Plan(Request{Op: OpDelete, Count: 1, Indices: []int{3}}, headed, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDelta {
		t.Fatalf("with heads: choice = %v, want delta", d.Choice)
	}

	// Bulk removals fall back to recomputation even with a pivot.
	d = Plan(Request{Op: OpDelete, Count: 6, Indices: []int{0, 1, 2, 3, 4, 5}}, withPerms, Budget{UpdateTau: 100})
	if d.Choice != ChoiceMonteCarlo {
		t.Fatalf("bulk with perms: choice = %v, want MC", d.Choice)
	}
}

func TestPlanBulkFallsBackToMC(t *testing.T) {
	art := Artifacts{N: 10, StoresFresh: true}
	del := Plan(Request{Op: OpDelete, Count: 6, Indices: []int{0, 1, 2, 3, 4, 5}}, art, Budget{UpdateTau: 100})
	if del.Choice != ChoiceMonteCarlo {
		t.Fatalf("bulk delete: choice = %v, want MC", del.Choice)
	}
	add := Plan(Request{Op: OpAdd, Count: 6}, art, Budget{UpdateTau: 100})
	if add.Choice != ChoiceMonteCarlo {
		t.Fatalf("bulk add: choice = %v, want MC", add.Choice)
	}
}

func TestPlanAddPivotFamily(t *testing.T) {
	withPerms := artifacts(t, 10, true, false, 0, nil)
	d := Plan(Request{Op: OpAdd, Count: 1}, withPerms, Budget{UpdateTau: 100})
	if d.Choice != ChoicePivotSame {
		t.Fatalf("choice = %v, want Pivot-s", d.Choice)
	}
	noPerms := artifacts(t, 10, false, false, 0, nil)
	d = Plan(Request{Op: OpAdd, Count: 1}, noPerms, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDelta {
		t.Fatalf("without perms: choice = %v, want delta", d.Choice)
	}
	// A pivot sized for a different player count is unusable.
	resized := artifacts(t, 10, true, false, 0, nil)
	resized.N = 12
	d = Plan(Request{Op: OpAdd, Count: 1}, resized, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDelta {
		t.Fatalf("mis-sized pivot: choice = %v, want delta", d.Choice)
	}
}

func TestPlanAddBatch(t *testing.T) {
	// Multi-point adds without artifacts take the batched delta walk, and
	// its predicted cost must undercut k sequential delta passes.
	art := Artifacts{N: 20}
	d := Plan(Request{Op: OpAdd, Count: 4}, art, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDeltaBatch {
		t.Fatalf("choice = %v, want Delta-batch", d.Choice)
	}
	seq := core.DeltaAddCost(20, 100).Times(4)
	if d.Cost.Evaluations >= seq.Evaluations {
		t.Fatalf("batch cost %d not below sequential %d", d.Cost.Evaluations, seq.Evaluations)
	}
	if !strings.Contains(strings.Join(d.Trace, " "), "batch") {
		t.Fatalf("trace should explain the batching: %v", d.Trace)
	}

	// With retained permutations the whole batch rides one stored-perm pass.
	withPerms := artifacts(t, 20, true, false, 0, nil)
	d = Plan(Request{Op: OpAdd, Count: 4}, withPerms, Budget{UpdateTau: 100})
	if d.Choice != ChoicePivotBatch {
		t.Fatalf("with perms: choice = %v, want Pivot-s-batch", d.Choice)
	}

	// Bulk additions still fall back to recomputation.
	d = Plan(Request{Op: OpAdd, Count: 11}, Artifacts{N: 20}, Budget{UpdateTau: 100})
	if d.Choice != ChoiceMonteCarlo {
		t.Fatalf("bulk add: choice = %v, want MC", d.Choice)
	}
}

func TestPlanExactKNNDominates(t *testing.T) {
	// With the exact estimator maintained, every update shape routes onto
	// it — even when every sampled artifact is also present and fresh.
	art := artifacts(t, 10, true, true, 2, []int{1, 3, 5})
	art.ExactKNN = true
	art.TestPoints = 4
	for _, req := range []Request{
		{Op: OpAdd, Count: 1},
		{Op: OpAdd, Count: 4},
		{Op: OpAdd, Count: 9}, // bulk: MC would win among sampled paths
		{Op: OpDelete, Count: 1, Indices: []int{3}},
		{Op: OpDelete, Count: 2, Indices: []int{5, 1}},
	} {
		d := Plan(req, art, Budget{UpdateTau: 100})
		if d.Choice != ChoiceExactKNN {
			t.Fatalf("%s count=%d: choice = %v, want Exact-KNN", req.Op, req.Count, d.Choice)
		}
		if d.Cost.Evaluations != 0 {
			t.Fatalf("%s count=%d: exact path predicts %d utility evaluations", req.Op, req.Count, d.Cost.Evaluations)
		}
		trace := strings.Join(d.Trace, " ")
		if !strings.Contains(trace, "sampled alternative") {
			t.Fatalf("trace should price the sampled alternative: %v", d.Trace)
		}
		if !strings.Contains(trace, "chose Exact-KNN") {
			t.Fatalf("trace should record the verdict: %v", d.Trace)
		}
	}

	// Without the estimator the same artifacts fall through to the
	// sampled decision tree.
	art.ExactKNN = false
	d := Plan(Request{Op: OpDelete, Count: 1, Indices: []int{3}}, art, Budget{UpdateTau: 100})
	if d.Choice != ChoiceExact {
		t.Fatalf("without estimator: choice = %v, want YN-NN merge", d.Choice)
	}
}

func TestPlanTraceMentionsAdaptiveBudget(t *testing.T) {
	art := Artifacts{N: 10}
	d := Plan(Request{Op: OpAdd, Count: 1}, art, Budget{UpdateTau: 100, TargetEps: 0.01, TargetDelta: 0.05})
	if !strings.Contains(strings.Join(d.Trace, " "), "adaptive") {
		t.Fatalf("trace should mention the adaptive budget: %v", d.Trace)
	}
}

func TestOpAndChoiceStrings(t *testing.T) {
	if OpAdd.String() != "add" || OpDelete.String() != "delete" {
		t.Fatal("Op names wrong")
	}
	names := map[Choice]string{
		ChoiceExact: "YN-NN", ChoicePivotSame: "Pivot-s",
		ChoiceDelta: "Delta", ChoiceMonteCarlo: "MC",
		ChoiceDeltaBatch: "Delta-batch", ChoicePivotBatch: "Pivot-s-batch",
		ChoiceExactKNN:         "Exact-KNN",
		ChoiceDeltaDeleteBatch: "Delta-batch",
		ChoicePivotDeleteBatch: "Pivot-s-batch",
	}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestPlanHeadsDisqualifyShapleyOnlyPaths(t *testing.T) {
	// Extra heads must force the sampled path off the exact k-NN fast path.
	art := Artifacts{N: 20, ExactKNN: true, TestPoints: 50, Heads: 3, HeadsLinear: true}
	d := Plan(Request{Op: OpAdd, Count: 1}, art, Budget{UpdateTau: 100})
	if d.Choice == ChoiceExactKNN {
		t.Fatalf("choice = %v; heads must disqualify the Shapley-only exact path", d.Choice)
	}
	if !strings.Contains(strings.Join(d.Trace, " "), "Shapley-only") {
		t.Fatalf("trace should explain the exact k-NN rejection: %v", d.Trace)
	}

	// Pivot replays are Shapley-specific too.
	art = artifacts(t, 10, true, false, 0, nil)
	art.Heads, art.HeadsLinear = 2, true
	d = Plan(Request{Op: OpAdd, Count: 1}, art, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDelta {
		t.Fatalf("choice = %v, want delta (pivot replay cannot carry heads)", d.Choice)
	}

	// The multi-deletion merge recovers only Shapley.
	art = artifacts(t, 10, false, false, 2, []int{1, 2, 3})
	art.Heads, art.HeadsLinear = 1, true
	d = Plan(Request{Op: OpDelete, Count: 2, Indices: []int{1, 2}}, art, Budget{UpdateTau: 100})
	if d.Choice == ChoiceExact {
		t.Fatalf("choice = %v; YNN-NNN merge is Shapley-only", d.Choice)
	}
}

func TestPlanHeadsKeepLinearDeletionMerge(t *testing.T) {
	// Linear heads CAN be recovered from the YN-NN arrays, so the exact
	// merge survives; an absolute-transform head kills it.
	art := artifacts(t, 10, false, true, 0, nil)
	art.Heads, art.HeadsLinear = 2, true
	d := Plan(Request{Op: OpDelete, Count: 1, Indices: []int{3}}, art, Budget{UpdateTau: 100})
	if d.Choice != ChoiceExact {
		t.Fatalf("choice = %v, want exact (linear heads merge from the arrays)", d.Choice)
	}

	art.HeadsLinear = false
	d = Plan(Request{Op: OpDelete, Count: 1, Indices: []int{3}}, art, Budget{UpdateTau: 100})
	if d.Choice != ChoiceDelta {
		t.Fatalf("choice = %v, want delta (absolute head cannot merge)", d.Choice)
	}
	if !strings.Contains(strings.Join(d.Trace, " "), "absolute-transform") {
		t.Fatalf("trace should explain the abs rejection: %v", d.Trace)
	}
}

func TestPlanHeadsPriceBookkeeping(t *testing.T) {
	art := Artifacts{N: 12, Heads: 3, HeadsLinear: true}
	d := Plan(Request{Op: OpAdd, Count: 1}, art, Budget{UpdateTau: 100})
	base := core.DeltaAddCost(12, 100)
	want := base.Plus(core.HeadFillCost(3, 12, 100))
	if d.Cost != want {
		t.Fatalf("cost = %v, want %v (delta plus head fill)", d.Cost, want)
	}
	if !strings.Contains(strings.Join(d.Trace, " "), "head(s) ride") {
		t.Fatalf("trace should price the head fill: %v", d.Trace)
	}
}
