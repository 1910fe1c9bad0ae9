package core

import (
	"fmt"
	"time"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// This file implements the batched DELETION walk — the removal-side
// counterpart of engine_batch.go. The same two families, mirrored:
//
//   - BatchDeltaDelete shares the common-survivor chain. A single-point
//     delta deletion pays two prefix walks per permutation; across k
//     departing points the without-chain (a walk of the survivors only)
//     is the SAME for every point once permutations are drawn over the
//     COMMON survivors, so each permutation is walked into one row of the
//     shared chain plus the k with-chains — each seeded with its departing
//     point — through walkDeltaRows (engine_batch.go), fused into one walk
//     when the game offers a pivot-aware evaluator.
//
//   - BatchDeleteSame evolves the stored permutations through all k
//     removals first (one pass of pure integer bookkeeping per
//     permutation, zero randomness, zero evaluations) and walks each
//     FINAL permutation once in the final
//     (n−k)-player game. k successive single-point deletions rebuild
//     SV/LSV from scratch at every step, so the intermediate walks are dead
//     work — the batch skips them for a genuine k× evaluation saving
//     while landing on bit-identical state: the final walk visits the
//     same permutations in the same game either way.
//
// Both run on the engine's permutation pipeline (walkRows, engine.go),
// as engine_batch.go's passes do. The delta form's producer draws the
// permutations; the pivot form's producer evolves the stored ones through
// the k removals, and a walker walks each evolved permutation once. Either
// way the producer folds the rows in permutation order, so every
// accumulator is written by one goroutine in the sequential references'
// order — bit-identical to them at any worker count. The pivot form
// consumes no randomness at all.
//
// The single-point deletion is the delta form at k = 1, and only there do
// the adaptive early stop and the extra semivalue heads apply. At k > 1
// shared permutations couple the points' budgets, and the batched deletes
// are Shapley-only (the planner never routes a head-carrying session
// there); Stats report Issued == Budget.

// BatchDeltaDelete runs the batched delta deletion (Algorithm 8
// generalised to k departing points): g is the n-player PRE-batch game,
// oldSV the n pre-batch values, points the departing indices in arrival
// order. It returns n entries — every survivor's value adjusted by the k
// points' summed (negated) deltas folded in arrival order, and 0 for each
// removed player (the paper's convention). Bit-identical to its
// sequential reference (BatchDeltaDeleteSeq, in the package tests) for the
// same seed at every worker count.
//
// At k = 1 it is Algorithm 8, the single-point delta deletion: each
// survivor's value change is estimated from differential marginal
// contributions involving the departing point and subtracted from its
// precomputed value. Every utility evaluated is a coalition of the
// original game g, so no new data is touched — only extra model trainings
// on subsets never sampled before. Only there does the pass honour
// WithTargetError and carry the extra semivalue heads.
func (e *Engine) BatchDeltaDelete(g game.Game, oldSV []float64, points []int, tau int, r *rng.Source) ([]float64, error) {
	n := g.N()
	if len(oldSV) != n {
		return nil, fmt.Errorf("core: BatchDeltaDelete oldSV has %d entries, want %d", len(oldSV), n)
	}
	if err := checkBatchDelete(n, points); err != nil {
		return nil, err
	}
	if tau <= 0 {
		return nil, fmt.Errorf("core: BatchDeltaDelete requires tau > 0, got %d", tau)
	}
	k := len(points)
	if k == n {
		// Nobody survives: every value, and every head's, is zero.
		e.stats = EngineStats{Budget: tau, Workers: 1}
		e.headVals = nil
		for range e.heads {
			e.headVals = append(e.headVals, make([]float64, n))
		}
		return make([]float64, n), nil
	}
	survivors := batchSurvivors(n, points)
	c := n - k
	workers := e.effectiveWorkers(tau)
	e.stats = EngineStats{Budget: tau, Workers: workers}
	e.headVals = nil
	// A single departing point may stop early (WithTargetError) and carries
	// the extra heads (WithSemivalues), with their own n → n−1 transition
	// coefficients (semivalue.DeleteCoeffs). At k > 1 the points share
	// permutations, so the pass spends its full τ, Shapley only.
	var trk *adaptiveTracker
	var hf *delHeadFold
	if k == 1 {
		trk = e.tracker(n)
		hf = newDelHeadFold(e.heads, n)
	}

	uEmpty := g.Value(bitset.New(n))
	uP := make([]float64, k)
	for j, p := range points {
		uP[j] = g.Value(bitset.FromIndices(n, p))
	}
	dsv := zeroMat(&e.scratch.dsv, k, n)

	start := time.Now()
	stride := k + 1
	prevWith := make([]float64, k)
	// Each point's fold is the single-point walk's inner loop over the
	// survivor game, with both chains' utilities read from the walked row,
	// position by position across the k chains as in BatchDeltaAdd;
	// denominator c+1 = n−k+1 is the survivor-game stratification weight.
	// Zero differences skip their update, bit for bit, as in BatchDeltaAdd.
	issued := e.walkDeltaRows(g, survivors, points, uP, tau, workers, trk, r, func(perm []int, row []float64) {
		copy(prevWith, uP)
		prevNo := uEmpty
		for pos, q := range perm {
			at := row[pos*stride : (pos+1)*stride]
			curNo := at[0]
			for j, curWith := range at[1:] {
				if dmc := (curWith - curNo) - (prevWith[j] - prevNo); dmc != 0 {
					dsv[j][q] -= dmc * float64(pos+1) / float64(c+1)
				}
				prevWith[j] = curWith
			}
			prevNo = curNo
		}
		if trk != nil || hf != nil {
			observeDeltaDelete(trk, hf, perm, row, uEmpty, uP[0])
		}
	})
	e.finishPass(start, issued, trk)
	e.stats.Updates = int64(issued) * int64(k) * int64(c)

	out := make([]float64, n)
	for _, q := range survivors {
		out[q] = oldSV[q]
	}
	for j := 0; j < k; j++ {
		for _, q := range survivors {
			out[q] += dsv[j][q] / float64(issued)
		}
	}
	if hf != nil {
		e.headVals = hf.finishDelete(e.headBase, points[0], issued)
	}
	return out, nil
}

// observeDeltaDelete re-reads one walked row of a single-point deletion
// for the adaptive tracker (each survivor's weighted, negated differential
// contribution) and the extra heads (its pivot-free and pivot-included
// marginals); either may be nil. Like observeDeltaAdd it keeps the fold
// loop free of both.
func observeDeltaDelete(trk *adaptiveTracker, hf *delHeadFold, perm []int, row []float64, uEmpty, uP float64) {
	n := len(perm) + 1
	prevNo, prevWith := uEmpty, uP
	for pos, q := range perm {
		curNo, curWith := row[pos*2], row[pos*2+1]
		if trk != nil {
			dmc := (curWith - curNo) - (prevWith - prevNo)
			trk.observe(q, -(dmc * float64(pos+1) / float64(n)))
		}
		if hf != nil {
			hf.foldPos(pos, q, curNo-prevNo, curWith-prevWith)
		}
		prevNo, prevWith = curNo, curWith
	}
	if trk != nil {
		trk.endSample()
	}
}

// BatchDeleteSame runs the batched pivot deletion: the producer threads
// every stored permutation through all k removals in one pass
// (deleteEvolve), then ONE full walk per evolved permutation in
// the final (n−k)-player game gMinus rebuilds SV and LSV — exactly the
// state k successive single-point deletions land on, minus their k−1
// intermediate walks. points are original n-player indices in arrival
// order; gMinus must renumber survivors by order-preserving compaction.
// st is mutated exactly as the sequential loop would mutate it (evolved
// permutations, adjusted slots, rebuilt SV/LSV); no randomness is
// consumed. Bit-identical to its sequential reference (BatchDeleteSameSeq,
// in the package tests) at every worker count; at k = 1 it is the
// single-point deletion.
func (e *Engine) BatchDeleteSame(st *PivotState, gMinus game.Game, points []int) ([]float64, error) {
	if st.perms == nil {
		return nil, ErrNoPermutations
	}
	n := st.N()
	if err := checkBatchDelete(n, points); err != nil {
		return nil, err
	}
	k := len(points)
	if k >= n {
		return nil, fmt.Errorf("core: BatchDeleteSame would remove every player")
	}
	m := n - k
	if gMinus.N() != m {
		return nil, fmt.Errorf("core: BatchDeleteSame game has %d players, want %d", gMinus.N(), m)
	}
	tau := len(st.perms)
	workers := e.effectiveWorkers(tau)
	e.stats = EngineStats{Budget: st.Tau, Workers: workers}
	e.headVals = nil

	// renum[q] is survivor q's index in gMinus — q less the removed
	// players below it — and −1 for a removed player.
	renum := make([]int, n)
	for q := range renum {
		renum[q] = -1
	}
	for i, q := range batchSurvivors(n, points) {
		renum[q] = i
	}

	rsv := zeroMat(&e.scratch.rsv, 1, m)[0]
	dlsv := zeroMat(&e.scratch.dlsv, 1, m)[0]
	uEmpty := gMinus.Value(bitset.New(m))

	start := time.Now()
	e.walkRows(permPass{
		tau: tau, workers: workers, plen: m, rlen: m,
		// The evolution rewrites the state's own permutation; the slot
		// walks a copy, so the pool never aliases the state.
		draw: func(s *permSlot, t int) {
			perm, slot := deleteEvolve(st.perms[t], st.slots[t], renum)
			st.perms[t], st.slots[t] = perm, slot
			copy(s.perm, perm)
			s.walk, s.slot = m, slot
		},
		walker: prefixRows(gMinus),
		fold: func(s *permSlot) {
			foldPivot(s.perm, s.row, uEmpty, 0, m, s.slot, rsv, dlsv)
		},
	})
	e.finishPass(start, tau, nil)
	e.stats.Updates = int64(tau) * int64(m)

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

// checkBatchDelete validates the departing points of a batched deletion
// against an n-player pre-batch game: at least one point, all indices in
// range, no duplicates. Points are given in arrival order (the order the
// caller wants their per-point deltas folded), not necessarily sorted.
func checkBatchDelete(n int, points []int) error {
	if len(points) < 1 {
		return fmt.Errorf("core: batch delete requires k ≥ 1 departing points, got 0")
	}
	if len(points) > n {
		return fmt.Errorf("core: batch delete of %d points from %d players", len(points), n)
	}
	seen := bitset.New(n)
	for _, p := range points {
		if p < 0 || p >= n {
			return fmt.Errorf("core: batch delete point %d out of range [0,%d)", p, n)
		}
		if seen.Contains(p) {
			return fmt.Errorf("core: batch delete point %d listed twice", p)
		}
		seen.Add(p)
	}
	return nil
}

// batchSurvivors returns the ascending indices of the players departing in
// no removal of the batch.
func batchSurvivors(n int, points []int) []int {
	gone := bitset.New(n)
	for _, p := range points {
		gone.Add(p)
	}
	survivors := make([]int, 0, n-len(points))
	for i := 0; i < n; i++ {
		if !gone.Contains(i) {
			survivors = append(survivors, i)
		}
	}
	return survivors
}

// deleteEvolve removes a batch of players from one stored permutation in
// place, landing where one removal after another would: renum maps each
// player to its survivor index, or −1 when it departs, and the pivot slot
// drops by the departing entries ahead of it. Pure integer bookkeeping —
// the batched deletion walks utilities only once, which is where its k×
// saving comes from.
func deleteEvolve(perm []int, slot int, renum []int) ([]int, int) {
	w, s := 0, slot
	for r, q := range perm {
		if nq := renum[q]; nq >= 0 {
			perm[w] = nq
			w++
		} else if r < slot {
			s--
		}
	}
	return perm[:w], s
}
