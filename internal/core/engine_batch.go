package core

import (
	"fmt"
	"slices"
	"time"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// This file implements the batched update walks: for a batch of k pending
// points, each sampled permutation is walked ONCE, with all k points
// evaluated against shared prefix state, instead of k separate τ-walks
// each re-deriving its prefixes.
//
// Two passes, one per addition family:
//
//   - BatchDeltaAdd shares the no-pivot chain. A single-point delta
//     addition pays two prefix walks per permutation (with and without the
//     new point), but the without-chain is the SAME walk for every pending
//     point, so each permutation is walked into one row of (k+1)·n
//     utilities: the shared chain plus the k with-chains. A game that
//     offers a pivot-aware evaluator (game.PivotPrefixer: the KNN
//     utilities) derives all k with-chains from the shared chain's state
//     in one walk; any other game walks them one by one through
//     prefixWalker.
//
//   - BatchAddSame shares the stored-permutation evolution. The producer
//     threads each stored permutation through all k pivot insertions (slot
//     draws in arrival order). Point j's evolved permutation is the final
//     one without pivots j+1..k−1, so the k chains are nested, and a
//     walker walks them into one row from the final permutation and the
//     recorded insertion slots: the KNN utilities in one walk of the base
//     chain (game.PivotPrefixEvaluator.WalkNested), any other game one
//     chain at a time through chainRows. Pivot-d (AddDifferent) is the
//     same pass at k = 1 over freshly drawn permutations.
//
// Both run on the engine's permutation pipeline (walkRows, engine.go): the
// producer draws in RNG order, walkers — the producer among them — walk
// whole permutations into rows, and the producer folds the rows into the
// per-point accumulators in permutation order. Each accumulator so
// receives its floating-point additions in exactly the sequential
// reference's order, and all randomness is consumed in the producer in the
// reference's per-source order. Together that makes both passes
// bit-identical to their sequential references (BatchDeltaAddSeq and
// BatchAddSameSeq, in the package tests) — and, for the pivot form, to k
// single-point passes in arrival order — at any worker count.
//
// A single-point update is the k = 1 case of either pass, and only the
// delta form honours adaptive early termination (WithTargetError), there:
// the producer checks the stop rule after each in-order fold. At k > 1 the
// stopping decision would couple the k points' budgets (they share
// permutations), so a batch spends its full τ, as does every pivot pass;
// Stats report Issued == Budget.

// batchScratch holds the engine's cached buffers (see the Engine field's
// doc for the ownership argument): the per-point accumulators and one slot
// pool that serves every pass.
type batchScratch struct {
	dsv  [][]float64
	rsv  [][]float64
	dlsv [][]float64

	slots []*permSlot
}

// reuse returns a length-n buffer, reusing s's storage when it fits.
// Contents are unspecified — callers overwrite before reading.
func reuse[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// zeroMat returns a k×n matrix of zeroed accumulators, reusing *dst's
// rows when they fit.
func zeroMat(dst *[][]float64, k, n int) [][]float64 {
	m := *dst
	if cap(m) < k {
		grown := make([][]float64, k)
		copy(grown, m[:cap(m)])
		m = grown
	} else {
		m = m[:k]
	}
	for j := range m {
		if cap(m[j]) < n {
			m[j] = make([]float64, n)
		} else {
			m[j] = m[j][:n]
			clear(m[j])
		}
	}
	*dst = m
	return m
}

// BatchDeltaAdd runs the batched delta addition (Algorithm 5 generalised
// to k pending points): gPlus is the (n+k)-player updated game whose last
// k players are the pending points in arrival order, oldSV the n
// pre-batch values. It returns n+k entries: every original player's value
// adjusted by the k points' summed deltas (folded in arrival order), and
// one fresh estimate per pending point. Bit-identical to its sequential
// reference (BatchDeltaAddSeq, in the package tests) for the same seed at
// every worker count.
//
// At k = 1 it is Algorithm 5, the single-point delta addition: instead of
// re-estimating absolute Shapley values it estimates the *change* ∆SV_i of
// every original player caused by the new point, by sampling differential
// marginal contributions
//
//	DMC(S, i) = [U(S∪{z_new}∪{z_i}) − U(S∪{z_i})] − [U(S∪{z_new}) − U(S)],
//
// whose range d is typically far smaller than the range r of raw marginal
// contributions; by Hoeffding's inequality (Theorem 2) the same accuracy
// then needs a factor (d/r)² fewer permutations. Only there does the pass
// honour WithTargetError, stopping once the bound certifies every
// player's change — and the new point's value — within eps.
//
// Deviation from the paper's pseudocode: Algorithm 5 (line 8) estimates the
// new point's own value by averaging its marginal contributions over prefix
// sizes 1..n with weight 1/n, which both skips the S=∅ stratum and
// mis-normalises Eq. (2); we include the empty stratum and divide by n+1,
// which makes the estimator unbiased (verified against exact enumeration in
// the tests).
func (e *Engine) BatchDeltaAdd(gPlus game.Game, oldSV []float64, k, tau int, r *rng.Source) ([]float64, error) {
	n := len(oldSV)
	if err := checkBatchAdd(gPlus, n, k); err != nil {
		return nil, err
	}
	if tau <= 0 {
		return nil, fmt.Errorf("core: BatchDeltaAdd requires tau > 0, got %d", tau)
	}
	m := n + k
	workers := e.effectiveWorkers(tau)
	e.stats = EngineStats{Budget: tau, Workers: workers}
	e.headVals = nil

	uEmpty := gPlus.Value(bitset.New(m))
	pivots := make([]int, k)
	uPivot := make([]float64, k)
	for j := range pivots {
		pivots[j] = n + j
		uPivot[j] = gPlus.Value(bitset.FromIndices(m, n+j))
	}
	players := make([]int, n)
	for i := range players {
		players[i] = i
	}
	dsv := zeroMat(&e.scratch.dsv, k, n)
	newSV := make([]float64, k)
	// Extra heads mirror the Shapley batch semantics: each pending point's
	// head differential is measured against the shared n-player no-pivot
	// chain (the same n → n+1 tables for every j) and the deltas are summed
	// in arrival order at the end.
	ht := newAddHeadTables(e.heads, n)
	var hsums []*addHeadSums
	if ht != nil {
		hsums = make([]*addHeadSums, k)
		for j := range hsums {
			hsums[j] = newAddHeadSums(ht, n)
		}
	}

	// A single point may stop early (WithTargetError). At k > 1 the points
	// share permutations, so one certificate would cut every point's budget:
	// the pass spends its full τ.
	var trk *adaptiveTracker
	if k == 1 {
		trk = e.tracker(m)
	}

	start := time.Now()
	stride := k + 1
	prevWith := make([]float64, k)
	// Each point's fold is the single-point walk's inner loop, with both
	// chains' utilities read from the walked row, run position by position
	// across the k chains so the row is read in order; each accumulator
	// still receives its additions in permutation order. A zero difference
	// — most of them under k-NN utilities — is skipped, with its division
	// for dmc: every sum starts at +0, a sum that starts at +0 is never
	// −0, and adding ±0 leaves such a sum as it was, so the skips keep
	// every bit of the sequential reference's unconditional fold (NaN
	// still folds).
	issued := e.walkDeltaRows(gPlus, players, pivots, uPivot, tau, workers, trk, r, func(perm []int, row []float64) {
		for j := 0; j < k; j++ {
			prevWith[j] = uPivot[j]
			d0 := uPivot[j] - uEmpty
			newSV[j] += d0
			if hsums != nil {
				hsums[j].foldD0(d0)
			}
		}
		prevNo := uEmpty
		for pos, p := range perm {
			at := row[pos*stride : (pos+1)*stride]
			curNo := at[0]
			for j, curWith := range at[1:] {
				if dmc := (curWith - curNo) - (prevWith[j] - prevNo); dmc != 0 {
					dsv[j][p] += dmc * float64(pos+1) / float64(n+1)
				}
				dd := curWith - curNo
				if dd != 0 {
					newSV[j] += dd
				}
				if hsums != nil {
					hsums[j].foldPos(pos, p, curNo-prevNo, curWith-prevWith[j], dd)
				}
				prevWith[j] = curWith
			}
			prevNo = curNo
		}
		if trk != nil {
			observeDeltaAdd(trk, perm, row, uEmpty, uPivot[0])
		}
	})
	e.finishPass(start, issued, trk)
	e.stats.Updates = int64(issued) * int64(k) * int64(n)

	out := make([]float64, m)
	copy(out, oldSV)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			out[i] += dsv[j][i] / float64(issued)
		}
		out[n+j] = newSV[j] / float64(issued) / float64(n+1)
	}
	if hsums != nil {
		hv := make([][]float64, len(e.heads))
		for h := range e.heads {
			vals := make([]float64, m)
			if e.headBase != nil && h < len(e.headBase) {
				copy(vals, e.headBase[h])
			}
			for j := 0; j < k; j++ {
				for i := 0; i < n; i++ {
					vals[i] += hsums[j].sums[h][i] / float64(issued)
				}
				vals[n+j] = hsums[j].pivot[h] / float64(issued)
			}
			hv[h] = vals
		}
		e.headVals = hv
	}
	return out, nil
}

// observeDeltaAdd feeds one walked row of a single-point addition to the
// adaptive tracker: each old player's weighted differential contribution,
// then one observation whose mean is the new point's value. It re-reads
// the row the fold just used, so the fold loop carries no tracker work.
func observeDeltaAdd(trk *adaptiveTracker, perm []int, row []float64, uEmpty, uPivot float64) {
	n := len(perm)
	prevNo, prevWith := uEmpty, uPivot
	permNew := prevWith - prevNo
	for pos, p := range perm {
		curNo, curWith := row[pos*2], row[pos*2+1]
		dmc := (curWith - curNo) - (prevWith - prevNo)
		trk.observe(p, dmc*float64(pos+1)/float64(n+1))
		permNew += curWith - curNo
		prevNo, prevWith = curNo, curWith
	}
	trk.observe(n, permNew/float64(n+1))
	trk.endSample()
}

// walkDeltaRows runs a delta pass on the pipeline. The producer draws tau
// permutations of len(players) positions from r and translates each
// position through players; walkers turn each into a row of
// len(players)·(k+1) utilities, the base chain at column 0 and pivot j's
// with-chain at column 1+j of each position's stride; fold receives the
// rows in permutation order. trk is the stop rule, nil when off.
func (e *Engine) walkDeltaRows(g game.Game, players, pivots []int, uPivot []float64, tau, workers int, trk *adaptiveTracker, r *rng.Source, fold func(perm []int, row []float64)) int {
	return e.walkRows(permPass{
		tau: tau, workers: workers, plen: len(players), rlen: len(players) * (len(pivots) + 1), trk: trk,
		draw: func(s *permSlot, _ int) {
			r.Perm(s.perm)
			for i, idx := range s.perm {
				s.perm[i] = players[idx]
			}
		},
		walker: func() func(*permSlot) {
			ev := pivotRows(g, chainRows{pivots: pivots, uPivot: uPivot})
			return func(s *permSlot) { ev.Walk(s.perm, s.row) }
		},
		fold: func(s *permSlot) { fold(s.perm, s.row) },
	})
}

// pivotRows returns one worker's row walker over fb's pivots: the game's
// pivot-aware evaluator when it offers one, otherwise fb with its walkers.
func pivotRows(g game.Game, fb chainRows) game.PivotPrefixEvaluator {
	if ev := game.PivotPrefixOf(g, fb.pivots); ev != nil {
		return ev
	}
	fb.base, fb.with = newPrefixWalker(g), newPrefixWalker(g)
	return &fb
}

// chainRows is the fallback row walker, one chain at a time through
// prefixWalker. Walk walks the base chain and then one with-chain per
// pivot, each seeded with its pivot, whose utility the caller already
// priced (uPivot), so the scratch path spends no Value call on it.
// WalkNested walks each nested chain as the per-point Pivot-s step does:
// advance to the point's slot (uEmpty, the caller's U(∅), serves a slot of
// 0 on the incremental path), then the suffix.
type chainRows struct {
	base, with *prefixWalker
	pivots     []int
	uPivot     []float64
	uEmpty     float64
	chain      []int
}

func (c *chainRows) Walk(perm []int, row []float64) {
	stride := len(c.pivots) + 1
	c.base.reset()
	for pos, p := range perm {
		row[pos*stride] = c.base.add(p)
	}
	for j, v := range c.pivots {
		c.with.reset()
		c.with.seed(v, c.uPivot[j])
		for pos, p := range perm {
			row[pos*stride+1+j] = c.with.add(p)
		}
	}
}

// WalkNested rebuilds chain 0 by taking pivots k−1..1 out of final, and
// each next chain by putting its pivot back at its slot.
func (c *chainRows) WalkNested(final, starts []int, row []float64) {
	c.chain = append(c.chain[:0], final...)
	for j := len(starts) - 1; j > 0; j-- {
		c.chain = slices.Delete(c.chain, starts[j], starts[j]+1)
	}
	for j, t := range starts {
		if j > 0 {
			c.chain = slices.Insert(c.chain, t, c.pivots[j])
		}
		u := row[j*(len(final)+1):]
		c.base.reset()
		u[t] = c.base.advance(c.chain, t, c.uEmpty)
		for pos := t; pos < len(c.chain); pos++ {
			u[pos+1] = c.base.add(c.chain[pos])
		}
	}
}

// BatchAddSame runs the batched Pivot-s walk (Algorithm 3 generalised to
// k pending points) on the pipeline. The producer threads every stored
// permutation through all k pivot insertions; a walker walks the k nested
// chains — point j's evolved permutation, from the slot j landed in — into
// one row, in one walk of the base chain when the game offers the nested
// walk; the fold adds each chain's marginals to point j's accumulators
// rsv_j and dlsv_j (the latter up to the slot drawn for the next pivot).
// st is mutated exactly as k successive single-point passes would mutate
// it (evolved permutations, final slots, folded SV/LSV); rs supplies one
// RNG source per pending point in arrival order, each consumed once per
// stored permutation — the same per-source order as the sequential loop.
// Bit-identical to its sequential reference (BatchAddSameSeq, in the
// package tests) and so to k passes at k = 1, for the same sources at every
// worker count; requires a state built with InitOptions.KeepPerms.
func (e *Engine) BatchAddSame(st *PivotState, gPlus game.Game, k int, rs []*rng.Source) ([]float64, error) {
	if st.perms == nil {
		return nil, ErrNoPermutations
	}
	n := st.N()
	if err := checkBatchAdd(gPlus, n, k); err != nil {
		return nil, err
	}
	if len(rs) != k {
		return nil, fmt.Errorf("core: BatchAddSame got %d RNG sources for %d points", len(rs), k)
	}
	return e.pivotAdd(st, gPlus, k, len(st.perms), st.Tau, func(s *permSlot, t int) {
		evolvePivotPerm(st, t, n, k, rs, s)
	}), nil
}

// AddDifferent runs Algorithm 4 (the pivot-based algorithm with different
// sampled permutations) on the pipeline: tau2 fresh permutations of the
// updated game are sampled and only the suffix from the pivot's position
// onward is evaluated; RSV is estimated from these while LSV is inherited
// from the state. It is Pivot-s's pass at k = 1 over drawn rather than
// stored permutations. Fresh permutations cost no permutation storage and
// allow τ_LSV ≠ τ_RSV — the paper's Table V regime, where a large offline
// τ_LSV drives the overall error below Pivot-s. Bit-identical to its
// sequential reference (PivotState.AddDifferent, in the package tests) for
// the same source at every worker count.
//
// AddDifferent invalidates any stored permutations (they no longer match
// the sampled estimates), so a subsequent Pivot-s pass returns
// ErrNoPermutations.
func (e *Engine) AddDifferent(st *PivotState, gPlus game.Game, tau2 int, r *rng.Source) ([]float64, error) {
	n := st.N()
	if gPlus.N() != n+1 {
		return nil, fmt.Errorf("core: AddDifferent game has %d players, want %d", gPlus.N(), n+1)
	}
	if tau2 <= 0 {
		return nil, fmt.Errorf("core: AddDifferent requires tau2 > 0, got %d", tau2)
	}
	// The draws keep the reference's order: the permutation, then the next
	// pivot's slot over the n+2 positions. The walk starts where the new
	// point landed.
	sv := e.pivotAdd(st, gPlus, 1, tau2, tau2, func(s *permSlot, _ int) {
		r.Perm(s.perm)
		s.cuts = reuse(s.cuts, 2)
		s.cuts[0] = slices.Index(s.perm, n)
		s.cuts[1] = r.Intn(n + 2)
	})
	st.Tau = tau2
	st.perms, st.slots = nil, nil
	return sv, nil
}

// pivotAdd is the pivot walk of k pending points, the last k players of
// gPlus, over tau permutations: draw leaves permutation t's final form —
// every pending point inserted — in s.perm, with the points' insertion
// slots in s.cuts[:k] and their next-pivot slots in s.cuts[k:]. Point j's
// evolved permutation, chain j, is the final one without points
// j+1..k−1. A walker walks the k nested chains into one row, and the fold
// adds each chain's marginals to point j's accumulators rsv_j and dlsv_j
// (the latter up to the slot drawn for the next pivot). The k points'
// contributions, divided by norm, then fold into st's SV and LSV in
// arrival order.
func (e *Engine) pivotAdd(st *PivotState, gPlus game.Game, k, tau, norm int, draw func(s *permSlot, t int)) []float64 {
	n := st.N()
	m := n + k
	workers := e.effectiveWorkers(tau)
	e.stats = EngineStats{Budget: norm, Workers: workers}
	// The pivot walk cannot carry extra heads: its suffix walks and LSV
	// recurrence are Shapley-specific (the planner never routes a
	// multi-head update here).
	e.headVals = nil

	rsv := zeroMat(&e.scratch.rsv, k, m)
	dlsv := zeroMat(&e.scratch.dlsv, k, m)
	var uEmpty float64
	if game.PrefixEvaluatorOf(gPlus) != nil {
		uEmpty = gPlus.Value(bitset.New(m))
	}
	pivots := make([]int, k)
	for j := range pivots {
		pivots[j] = n + j
	}

	// A slot holds the final permutation (m players) and one row of k
	// segments: chain j's suffix utilities at row[j·(m+1):], where u[pos]
	// is U(chain_j[:pos]) for pos from j's insertion slot to the end. The
	// fold rebuilds the chains by peeling: it copies the final permutation
	// into chain, its own scratch, folds chain k−1, takes point k−1 out at
	// its insertion slot to leave chain k−2, and so on down to chain 0.
	chain := make([]int, 0, m)
	start := time.Now()
	e.walkRows(permPass{
		tau: tau, workers: workers, plen: m, rlen: k * (m + 1),
		draw: draw,
		walker: func() func(*permSlot) {
			ev := pivotRows(gPlus, chainRows{pivots: pivots, uEmpty: uEmpty})
			return func(s *permSlot) {
				ev.WalkNested(s.perm, s.cuts[:k], s.row)
			}
		},
		fold: func(s *permSlot) {
			chain = append(chain[:0], s.perm...)
			for j := k - 1; j >= 0; j-- {
				u := s.row[j*(m+1) : j*(m+1)+len(chain)+1]
				tslot, next := s.cuts[j], s.cuts[k+j]
				e.stats.Updates += foldPivot(chain, u[1:], u[tslot], tslot, len(chain), next, rsv[j], dlsv[j])
				chain = slices.Delete(chain, tslot, tslot+1)
			}
		},
	})
	e.finishPass(start, tau, nil)

	// Fold the k points' contributions in arrival order — the exact
	// SV/LSV recurrence k successive single-point folds apply, with each
	// step's lsv feeding the next step's reuse term.
	sv := make([]float64, m)
	lsv := make([]float64, m)
	copy(lsv, st.LSV)
	for j := 0; j < k; j++ {
		mj := n + j + 1
		for i := 0; i < mj; i++ {
			l := lsv[i]
			sv[i] = l + rsv[j][i]/float64(norm)
			lsv[i] = 2.0/3.0*l + dlsv[j][i]/float64(norm)
		}
	}
	st.SV = sv
	st.LSV = lsv
	return append([]float64(nil), sv...)
}

// evolvePivotPerm threads stored permutation t through all k pivot
// insertions in slot s — exactly what k successive single-point passes
// do to this permutation — and installs the final permutation and slot
// back into the state. s.perm ends as the final permutation, and s.cuts[j],
// s.cuts[k+j] record the slot point j was inserted at (where its suffix
// walk starts) and the slot drawn for the next pivot (its dlsv cutoff). It
// consumes one Intn draw from each source, in arrival order. The final
// permutation is COPIED into the state: st.perms[t] is cloned by the
// session for this update and must outlive the slot.
func evolvePivotPerm(st *PivotState, t, n, k int, rs []*rng.Source, s *permSlot) {
	s.cuts = reuse(s.cuts, 2*k)
	perm := s.perm[:n]
	loadPerm(perm, st.perms[t])
	tslot := st.slots[t]
	for j := 0; j < k; j++ {
		perm = perm[:len(perm)+1]
		copy(perm[tslot+1:], perm[tslot:])
		perm[tslot] = n + j
		next := rs[j].Intn(len(perm) + 1)
		s.cuts[j], s.cuts[k+j] = tslot, next
		tslot = next
	}
	st.perms[t] = storePerm(st.perms[t], perm)
	st.slots[t] = tslot
}

// checkBatchAdd validates the common preconditions of the batched addition
// walks: gPlus is the (n+k)-player updated game whose LAST k players are
// the pending points, in arrival order.
func checkBatchAdd(gPlus game.Game, n, k int) error {
	if k < 1 {
		return fmt.Errorf("core: batch add requires k ≥ 1 pending points, got %d", k)
	}
	if gPlus.N() != n+k {
		return fmt.Errorf("core: batch add game has %d players, want %d", gPlus.N(), n+k)
	}
	return nil
}
