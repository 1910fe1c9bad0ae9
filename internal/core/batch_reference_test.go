package core

import (
	"fmt"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// This file defines the batched update walks' SEQUENTIAL reference
// implementations: the per-point loops the engine's batched passes
// (engine_batch.go, engine_batch_delete.go) must reproduce bit for bit —
// the single-point Pivot-s steps AddSame and DeleteSame, and the four
// *Seq loops over them and over Algorithms 5 and 8. The batched forms
// change only the loop order and the sharing of prefix state — never the
// set of coalitions evaluated for a given (perm, point) pair, the order in
// which any single accumulator receives floating-point additions, or the
// order in which any single RNG source is consumed — which is the whole
// determinism argument, so the references stay as the equality tests'
// ground truth. The engine passes are the only shipped form.

// AddSame runs Algorithm 3 (the pivot-based algorithm with the same sampled
// permutations): the stored permutations are extended by inserting the new
// player at the recorded pivot slot, only the suffix starting at the pivot
// is (re-)evaluated, and the refreshed estimates SV⁺ = LSV + RSV are
// installed in the state. gPlus must be the (n+1)-player game whose last
// player is the new point.
//
// With a cached utility the prefix evaluations before the pivot hit the
// cache entries produced by Initialize — this is the "half the computation"
// reuse the paper's title claim rests on.
func (st *PivotState) AddSame(gPlus game.Game, r *rng.Source) ([]float64, error) {
	if st.perms == nil {
		return nil, ErrNoPermutations
	}
	n := st.N()
	if gPlus.N() != n+1 {
		return nil, fmt.Errorf("core: AddSame game has %d players, want %d", gPlus.N(), n+1)
	}
	pivot := n
	m := n + 1
	rsv := make([]float64, m)
	dlsv := make([]float64, m)
	w := newPrefixWalker(gPlus)
	var uEmpty float64
	if w.incremental() {
		uEmpty = gPlus.Value(bitset.New(m))
	}
	for k := range st.perms {
		old := st.perms[k]
		t := st.slots[k]
		perm := make([]int, 0, m)
		perm = append(perm, old[:t]...)
		perm = append(perm, pivot)
		perm = append(perm, old[t:]...)
		// Slot for the *next* pivot, uniform over the m+1 = n+2 positions.
		p := r.Intn(m + 1)
		w.reset()
		prev := w.advance(perm, t, uEmpty)
		for pos := t; pos < m; pos++ {
			q := perm[pos]
			cur := w.add(q)
			mc := cur - prev
			rsv[q] += mc
			if pos < p {
				dlsv[q] += mc
			}
			prev = cur
		}
		st.perms[k] = perm
		st.slots[k] = p
	}
	sv := make([]float64, m)
	lsv := make([]float64, m)
	for i := 0; i < m; i++ {
		var l float64
		if i < n {
			l = st.LSV[i]
		}
		sv[i] = l + rsv[i]/float64(st.Tau)
		// 2/3 of the permutations counted in the old LSV keep z_i before the
		// next pivot (among the 3! relative orders of {z_i, old pivot, next
		// pivot}, conditioning on z_i before the old pivot leaves 2/3 with
		// z_i also before the next one); ∆LSV supplies the freshly sampled
		// "after old pivot, before next pivot" share.
		lsv[i] = 2.0/3.0*l + dlsv[i]/float64(st.Tau)
	}
	st.SV = sv
	st.LSV = lsv
	return append([]float64(nil), sv...), nil
}

// DeleteSame removes player p from the state by evolving the stored
// permutations — the deletion-side counterpart of AddSame, and the reason
// a pivot artifact can now survive removals instead of being rebuilt.
//
// Deleting a player from a uniform permutation leaves a uniform
// permutation of the survivors (a subsequence of a uniform order is
// uniform), so the stored permutations stay a valid sample after dropping
// p and renumbering the survivors down by one. The pivot slot moves with
// its position: t' = t − 1 when p sat before the slot, else t' = t — a
// uniform slot over the n+1 positions maps to a uniform slot over the n
// remaining ones (P(t'=s) = (n−s)/((n+1)n) + (s+1)/((n+1)n) = 1/n), so
// the LSV decomposition's pivot stays uniformly placed. One full walk of
// each evolved permutation in the (n−1)-player game gMinus then
// re-establishes Initialize's pivot invariant: SV from all positions, LSV from
// positions before the slot. The walk consumes NO randomness — replay and
// batching stay deterministic for free.
//
// gMinus must be the (n−1)-player post-deletion game whose indices are
// the survivors renumbered by order-preserving compaction (index q > p
// becomes q−1), exactly what game.NewRestrict(g, p) or a utility's Remove
// produces.
func (st *PivotState) DeleteSame(gMinus game.Game, p int) ([]float64, error) {
	if st.perms == nil {
		return nil, ErrNoPermutations
	}
	n := st.N()
	if n < 2 {
		return nil, fmt.Errorf("core: DeleteSame cannot remove the last player")
	}
	if p < 0 || p >= n {
		return nil, fmt.Errorf("core: DeleteSame point %d out of range [0,%d)", p, n)
	}
	m := n - 1
	if gMinus.N() != m {
		return nil, fmt.Errorf("core: DeleteSame game has %d players, want %d", gMinus.N(), m)
	}
	rsv := make([]float64, m)
	dlsv := make([]float64, m)
	w := newPrefixWalker(gMinus)
	uEmpty := gMinus.Value(bitset.New(m))
	for t := range st.perms {
		perm, slot := deleteEvolveStep(st.perms[t], st.slots[t], p)
		w.reset()
		prev := uEmpty
		for pos, q := range perm {
			cur := w.add(q)
			mc := cur - prev
			rsv[q] += mc
			if pos < slot {
				dlsv[q] += mc
			}
			prev = cur
		}
		st.perms[t] = perm
		st.slots[t] = slot
	}
	sv := make([]float64, m)
	lsv := make([]float64, m)
	for i := 0; i < m; i++ {
		sv[i] = rsv[i] / float64(st.Tau)
		lsv[i] = dlsv[i] / float64(st.Tau)
	}
	st.SV = sv
	st.LSV = lsv
	return append([]float64(nil), sv...), nil
}

// BatchDeltaAddSeq is the sequential reference for the batched delta
// addition: k independent Algorithm-5 estimates against the FIXED n-player
// base, sharing one permutation stream. The permutations are pre-drawn
// exactly as the batched walk draws them (PermN consumes the same values
// Perm does), then each pending point j = 0..k−1 runs Algorithm 5's full
// two-walker pass over all of them and folds its contribution into the
// output in arrival order.
//
// Note what this estimator is NOT: the session's historic per-point loop
// re-bases after every insertion (point j is valued against a game already
// containing points 0..j−1, and later deltas adjust the earlier arrivals'
// fresh values). The batch form values every pending point against the
// shared pre-batch base — that is what lets one permutation pass serve all
// k points. At k = 1 the two notions coincide: this function is then
// Algorithm 5's two-walker loop, the reference for single-point updates.
func BatchDeltaAddSeq(gPlus game.Game, oldSV []float64, k, tau int, r *rng.Source) ([]float64, error) {
	n := len(oldSV)
	if err := checkBatchAdd(gPlus, n, k); err != nil {
		return nil, err
	}
	if tau <= 0 {
		return nil, fmt.Errorf("core: BatchDeltaAddSeq requires tau > 0, got %d", tau)
	}
	m := n + k
	perms := make([][]int, tau)
	for t := range perms {
		perms[t] = r.PermN(n)
	}
	uEmpty := gPlus.Value(bitset.New(m))

	out := make([]float64, m)
	copy(out, oldSV)
	wNo := newPrefixWalker(gPlus)
	wWith := newPrefixWalker(gPlus)
	for j := 0; j < k; j++ {
		pivot := n + j
		uPivot := gPlus.Value(bitset.FromIndices(m, pivot))
		dsv := make([]float64, n)
		newSV := 0.0
		for _, perm := range perms {
			wNo.reset()
			wWith.reset()
			prevNo := uEmpty
			prevWith := wWith.seed(pivot, uPivot)
			newSV += prevWith - prevNo // S=∅ stratum of the new point's value
			for pos, p := range perm {
				curNo := wNo.add(p)
				curWith := wWith.add(p)
				dmc := (curWith - curNo) - (prevWith - prevNo)
				dsv[p] += dmc * float64(pos+1) / float64(n+1)
				newSV += curWith - curNo
				prevNo, prevWith = curNo, curWith
			}
		}
		for i := 0; i < n; i++ {
			out[i] += dsv[i] / float64(tau)
		}
		out[pivot] = newSV / float64(tau) / float64(n+1)
	}
	return out, nil
}

// BatchDeltaDeleteSeq is the sequential reference for the batched delta
// deletion: k independent Algorithm-8 estimates against the FIXED n-player
// pre-batch game, sharing one permutation stream drawn over the COMMON
// survivors (the n−k players departing in no removal). The permutations
// are pre-drawn exactly as the batched walk draws them, then each
// departing point j runs Algorithm 8's full two-walker pass over all of
// them and folds its (negated) contribution into the output in arrival
// order. Removed players report 0 (the paper's convention).
//
// As with BatchDeltaAddSeq, this is a different estimator from the
// session's historic per-point loop — which re-bases after every removal,
// shrinking the survivor pool one step at a time — but both are unbiased
// for the same target, and at k = 1 the two notions coincide: this
// function is then Algorithm 8's two-walker loop, the reference for
// single-point updates.
func BatchDeltaDeleteSeq(g game.Game, oldSV []float64, points []int, tau int, r *rng.Source) ([]float64, error) {
	n := g.N()
	if len(oldSV) != n {
		return nil, fmt.Errorf("core: BatchDeltaDeleteSeq oldSV has %d entries, want %d", len(oldSV), n)
	}
	if err := checkBatchDelete(n, points); err != nil {
		return nil, err
	}
	if tau <= 0 {
		return nil, fmt.Errorf("core: BatchDeltaDeleteSeq requires tau > 0, got %d", tau)
	}
	k := len(points)
	out := make([]float64, n)
	if k == n {
		// Every player leaves: nothing survives to estimate, consume no
		// randomness.
		return out, nil
	}
	survivors := batchSurvivors(n, points)
	c := n - k
	perms := make([][]int, tau)
	for t := range perms {
		perms[t] = r.PermN(c)
	}
	uEmpty := g.Value(bitset.New(n))
	for _, q := range survivors {
		out[q] = oldSV[q]
	}
	wNo := newPrefixWalker(g)
	wWith := newPrefixWalker(g)
	for _, p := range points {
		uP := g.Value(bitset.FromIndices(n, p))
		dsv := make([]float64, n)
		for _, perm := range perms {
			wNo.reset()
			wWith.reset()
			prevNo := uEmpty
			prevWith := wWith.seed(p, uP)
			for pos, idx := range perm {
				q := survivors[idx]
				curNo := wNo.add(q)
				curWith := wWith.add(q)
				dmc := (curWith - curNo) - (prevWith - prevNo)
				// Stratified weight (|S|+1)/(c+1) over the common-survivor
				// game; at k = 1, c+1 = n — Lemma 2's deletion weight.
				dsv[q] -= dmc * float64(pos+1) / float64(c+1)
				prevNo, prevWith = curNo, curWith
			}
		}
		for _, q := range survivors {
			out[q] += dsv[q] / float64(tau)
		}
	}
	return out, nil
}

// deleteEvolveStep removes player p from one stored permutation in place:
// p's entry is dropped, survivors above p renumber down by one, and the
// pivot slot decrements when p sat before it — one step of the evolution
// deleteEvolve applies to a whole batch at once.
func deleteEvolveStep(perm []int, slot, p int) ([]int, int) {
	w := 0
	for r, q := range perm {
		if q == p {
			if r < slot {
				slot--
			}
			continue
		}
		if q > p {
			q--
		}
		perm[w] = q
		w++
	}
	return perm[:w], slot
}

// BatchDeleteSameSeq is the sequential reference for the batched pivot
// deletion: k successive DeleteSame calls, each against the restriction of
// the n-player pre-batch game g to the players still present (dropping the
// removed points renumbers the rest by order-preserving compaction — the
// exact renumbering DeleteSame applies to the stored permutations). points
// are original n-player indices in arrival order; the per-step index is
// translated through the earlier removals. DeleteSame consumes no
// randomness, so the reference takes no RNG sources.
func BatchDeleteSameSeq(st *PivotState, g game.Game, points []int) ([]float64, error) {
	if st.perms == nil {
		return nil, ErrNoPermutations
	}
	n := st.N()
	if g.N() != n {
		return nil, fmt.Errorf("core: BatchDeleteSameSeq game has %d players, want %d", g.N(), n)
	}
	if err := checkBatchDelete(n, points); err != nil {
		return nil, err
	}
	if len(points) >= n {
		return nil, fmt.Errorf("core: BatchDeleteSameSeq would remove every player")
	}
	var sv []float64
	for j := range points {
		gj := game.NewRestrict(g, points[:j+1]...)
		pj := points[j]
		for _, d := range points[:j] {
			if d < points[j] {
				pj--
			}
		}
		var err error
		sv, err = st.DeleteSame(gj, pj)
		if err != nil {
			return nil, err
		}
	}
	return sv, nil
}

// BatchAddSameSeq is the sequential reference for the batched Pivot-s
// walk: k successive AddSame calls, each against the restriction of gPlus
// to the players inserted so far (dropping the tail pivots keeps indices
// 0..n+j unchanged, so step j sees exactly the (n+j+1)-player game the
// session's per-point loop would build). rs supplies one RNG source per
// pending point, in arrival order — the batched walk consumes the same
// sources in the same per-source order, which is what keeps the two forms
// bit-identical.
func BatchAddSameSeq(st *PivotState, gPlus game.Game, k int, rs []*rng.Source) ([]float64, error) {
	if st.perms == nil {
		return nil, ErrNoPermutations
	}
	n := st.N()
	if err := checkBatchAdd(gPlus, n, k); err != nil {
		return nil, err
	}
	if len(rs) != k {
		return nil, fmt.Errorf("core: BatchAddSameSeq got %d RNG sources for %d points", len(rs), k)
	}
	var sv []float64
	for j := 0; j < k; j++ {
		gj := game.Game(gPlus)
		if j < k-1 {
			tail := make([]int, 0, k-1-j)
			for t := n + j + 1; t < n+k; t++ {
				tail = append(tail, t)
			}
			gj = game.NewRestrict(gPlus, tail...)
		}
		var err error
		sv, err = st.AddSame(gj, rs[j])
		if err != nil {
			return nil, err
		}
	}
	return sv, nil
}
