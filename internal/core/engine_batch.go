package core

import (
	"fmt"
	"sync"
	"time"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// This file implements the batched update walk: for a batch of k pending
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
//     threads each stored permutation through all k pivot insertions
//     (slot draws in arrival order), and the k suffix walks — one per
//     pending point — proceed independently from the recorded insertion
//     slots.
//
// The delta form runs on a permutation pipeline (walkDeltaRows): the
// producer draws permutations in RNG order, workers — the producer among
// them — walk whole permutations into rows, and the producer folds the
// rows into the per-point accumulators in permutation order. The pivot
// form stripes over the PENDING POINTS: every per-point accumulator
// (rsv_j, dlsv_j) is owned
// by exactly one worker, which processes chunks in issue order and
// permutations in order within a chunk. Either way each accumulator
// receives its floating-point additions in exactly the sequential
// reference's order, and all randomness is consumed in the producer in the
// reference's per-source order. Together that makes both passes
// bit-identical to their batch.go references — and, for the pivot form, to
// the session's historic per-point AddSame loop — at any worker count.
//
// A single-point update is the delta form at k = 1, and only there does
// adaptive early termination (WithTargetError) apply: the producer checks
// the stop rule after each in-order fold. At k > 1 the stopping decision
// would couple the k points' budgets (they share permutations), so a batch
// spends its full τ, as does every pivot pass; Stats report Issued ==
// Budget.

// batchScratch holds the batched walks' cached buffers (see the Engine
// field's doc for the ownership argument).
type batchScratch struct {
	dsv  [][]float64
	rsv  [][]float64
	dlsv [][]float64

	deltaSlots []*deltaSlot
	pivotSlots []*pivotBatchChunk
	delSlots   []*deleteSameChunk
}

// reuseInts returns a length-n int buffer, reusing s's storage when it
// fits. Contents are unspecified — callers overwrite before reading.
func reuseInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// reuseFloats is reuseInts for float64 buffers.
func reuseFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
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
// one fresh estimate per pending point. Bit-identical to BatchDeltaAddSeq
// for the same seed at every worker count.
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
	if e.adaptive() && k == 1 {
		trk = newAdaptiveTracker(m, e.eps, e.delta)
	}

	start := time.Now()
	stride := k + 1
	// Each point's fold is the single-point walk's inner loop, with both
	// chains' utilities read from the walked row.
	issued := e.walkDeltaRows(gPlus, players, pivots, uPivot, tau, workers, trk, r, func(perm []int, row []float64) {
		for j := 0; j < k; j++ {
			var hs *addHeadSums
			if hsums != nil {
				hs = hsums[j]
			}
			dj := dsv[j]
			prevNo, prevWith := uEmpty, uPivot[j]
			d0 := prevWith - prevNo
			newSV[j] += d0
			if hs != nil {
				hs.foldD0(d0)
			}
			for pos, p := range perm {
				curNo, curWith := row[pos*stride], row[pos*stride+1+j]
				dmc := (curWith - curNo) - (prevWith - prevNo)
				dj[p] += dmc * float64(pos+1) / float64(n+1)
				dd := curWith - curNo
				newSV[j] += dd
				if hs != nil {
					hs.foldPos(pos, p, curNo-prevNo, curWith-prevWith, dd)
				}
				prevNo, prevWith = curNo, curWith
			}
		}
		if trk != nil {
			observeDeltaAdd(trk, perm, row, uEmpty, uPivot[0])
		}
	})
	e.stats.Seconds = time.Since(start).Seconds()
	e.finishDeltaStats(trk, issued, tau)
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

// finishDeltaStats records how a delta pass of budget tau ended after
// issued permutations.
func (e *Engine) finishDeltaStats(trk *adaptiveTracker, issued, tau int) {
	e.stats.Issued = issued
	e.stats.EarlyStop = issued < tau
	if trk != nil {
		e.stats.Bound = trk.lastBound
	}
}

// deltaSlot is one permutation in flight through walkDeltaRows: drawn by
// the producer, walked into row by a helper or the producer itself, folded
// by the producer.
type deltaSlot struct {
	perm []int
	row  []float64
	done chan struct{}
}

// slotsPerWorker bounds walkDeltaRows's permutations in flight. The
// producer folds rows strictly in permutation order, so a walker that
// finishes early needs queued permutations to stay busy; at n = 200 and
// k = 16, one or two per worker measurably stalled the walkers and four
// did not. The rows — (k+1)·n utilities each — stay a small part of the
// heap.
const slotsPerWorker = 4

// walkDeltaRows is the delta passes' permutation pipeline. The producer —
// the calling goroutine — draws tau permutations of len(players) positions
// in RNG order and translates each position through players; walkers turn
// whole permutations into rows of len(players)·(k+1) utilities, the base
// chain at column 0 and pivot j's with-chain at column 1+j of each
// position's stride; the producer hands every row to fold in permutation
// order. Only fold writes accumulators, on one goroutine, in the order the
// sequential references use, so the result is bit-identical at any worker
// count.
//
// trk is the adaptive stop rule (nil when off): fold observes each row into
// it, and the producer checks the rule after every fold, so the pass stops
// after the same permutation at any worker count. walkDeltaRows returns the
// number of permutations folded — tau unless the rule fired. On a stop the
// producer first collects the rows still in flight, so no slot's
// completion signal carries over into the engine's next pass; r is then
// left past the folded permutations by those rows' draws, so callers hand
// in a source they do not reuse.
//
// The producer is itself one of the walkers: it starts workers−1
// helpers and, while the row it must fold next is still being walked,
// walks the oldest queued permutation instead of waiting. So no more
// goroutines run than there are workers, and the producer's draws and
// folds — about a seventh of a fused walk's cost — never wait behind the
// walkers for a processor.
//
// On a game without a pivot-aware evaluator whose utilities come from
// scratch Value calls behind a shared game.Cached, two walkers may miss on
// a coalition their permutations share (a prefix's first members); the
// cache computes it once and the other waits, so the training count does
// not depend on the worker count either.
func (e *Engine) walkDeltaRows(g game.Game, players, pivots []int, uPivot []float64, tau, workers int, trk *adaptiveTracker, r *rng.Source, fold func(perm []int, row []float64)) int {
	slots := e.deltaSlots(min(tau, workers*slotsPerWorker), len(players), len(players)*(len(pivots)+1))
	work := make(chan *deltaSlot, len(slots)) // never more sends in flight than slots
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			ev := pivotRows(g, pivots, uPivot)
			for s := range work {
				ev.Walk(s.perm, s.row)
				s.done <- struct{}{}
			}
		}()
	}
	draw := func(s *deltaSlot) {
		r.Perm(s.perm)
		for i, idx := range s.perm {
			s.perm[i] = players[idx]
		}
		work <- s
	}
	for _, s := range slots {
		draw(s)
	}
	own := pivotRows(g, pivots, uPivot)
	issued := tau
	for t := 0; t < tau; t++ {
		s := slots[t%len(slots)] // holds permutation t
		awaitRow(s, work, own)
		fold(s.perm, s.row)
		if e.stopNow(trk, t+1, tau) {
			issued = t + 1
			for u := issued; u < min(t+len(slots), tau); u++ {
				awaitRow(slots[u%len(slots)], work, own)
			}
			break
		}
		if t+len(slots) < tau {
			draw(s)
		}
	}
	close(work)
	wg.Wait()
	return issued
}

// awaitRow returns once s's row is walked, walking queued permutations
// with ev while it is not. A finished row is folded before any further
// walk, so the producer never delays a fold it could make.
func awaitRow(s *deltaSlot, work chan *deltaSlot, ev game.PivotPrefixEvaluator) {
	for {
		select {
		case <-s.done:
			return
		default:
		}
		select {
		case <-s.done:
			return
		case q := <-work:
			ev.Walk(q.perm, q.row)
			q.done <- struct{}{}
		}
	}
}

// deltaSlots returns count pipeline slots sized for permutations of plen
// players and rows of rlen utilities, reusing the engine's cached slots.
func (e *Engine) deltaSlots(count, plen, rlen int) []*deltaSlot {
	for len(e.scratch.deltaSlots) < count {
		e.scratch.deltaSlots = append(e.scratch.deltaSlots, &deltaSlot{done: make(chan struct{}, 1)})
	}
	slots := e.scratch.deltaSlots[:count]
	for _, s := range slots {
		s.perm = reuseInts(s.perm, plen)
		s.row = reuseFloats(s.row, rlen)
	}
	return slots
}

// pivotRows returns one worker's row walker: the game's pivot-aware
// evaluator when it offers one, otherwise chainRows.
func pivotRows(g game.Game, pivots []int, uPivot []float64) game.PivotPrefixEvaluator {
	if ev := game.PivotPrefixOf(g, pivots); ev != nil {
		return ev
	}
	return &chainRows{base: newPrefixWalker(g), with: newPrefixWalker(g), pivots: pivots, uPivot: uPivot}
}

// chainRows walks a row as the base chain followed by one with-chain per
// pivot, through prefixWalker. Each with-chain is seeded with its pivot,
// whose utility the caller already priced, so the scratch path spends no
// Value call on it.
type chainRows struct {
	base, with *prefixWalker
	pivots     []int
	uPivot     []float64
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

// pivotBatchStep records one pending point's insertion into one stored
// permutation: the evolved permutation (pivots 0..j included), the slot
// the point landed in (where the suffix walk starts), and the slot drawn
// for the NEXT pivot (the dlsv cutoff).
type pivotBatchStep struct {
	perm  []int
	tslot int
	next  int
}

// pivotBatchChunk is one batch of evolved stored permutations in flight.
type pivotBatchChunk struct {
	count int
	steps [][]pivotBatchStep // [perm][pending point]
	wg    sync.WaitGroup
}

// BatchAddSame runs the batched Pivot-s walk (Algorithm 3 generalised to
// k pending points): every stored permutation is threaded through all k
// pivot insertions by the producer, and the k suffix walks proceed from
// the recorded slots, striped across workers by pending point. st is
// mutated exactly as k successive AddSame calls would mutate it (evolved
// permutations, final slots, folded SV/LSV); rs supplies one RNG source
// per pending point in arrival order, each consumed once per stored
// permutation — the same per-source order as the sequential loop.
// Bit-identical to BatchAddSameSeq (and therefore to the per-point
// AddSame loop) for the same sources at every worker count; requires a
// state built with keepPerms.
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
	m := n + k
	workers := e.effectiveWorkers(k)
	e.stats = EngineStats{Budget: st.Tau, Workers: workers}
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

	start := time.Now()
	e.stats.Updates = e.runPivotBatchStriped(st, gPlus, n, k, rs, uEmpty, rsv, dlsv, workers)
	e.stats.Seconds = time.Since(start).Seconds()
	e.stats.Issued = st.Tau

	// Fold the k points' contributions in arrival order — the exact
	// SV/LSV recurrence k successive AddSame folds apply, with each step's
	// lsv feeding the next step's reuse term.
	sv := make([]float64, m)
	lsv := make([]float64, m)
	copy(lsv, st.LSV)
	for j := 0; j < k; j++ {
		mj := n + j + 1
		for i := 0; i < mj; i++ {
			l := lsv[i]
			sv[i] = l + rsv[j][i]/float64(st.Tau)
			lsv[i] = 2.0/3.0*l + dlsv[j][i]/float64(st.Tau)
		}
	}
	st.SV = sv
	st.LSV = lsv
	return append([]float64(nil), sv...), nil
}

// reuseSteps returns a length-k step buffer, reusing *dst's entries (and
// through them the per-step perm buffers evolvePivotPerm recycles).
func reuseSteps(dst *[]pivotBatchStep, k int) []pivotBatchStep {
	s := *dst
	if cap(s) < k {
		grown := make([]pivotBatchStep, k)
		copy(grown, s[:cap(s)])
		s = grown
	} else {
		s = s[:k]
	}
	*dst = s
	return s
}

// evolvePivotPerm threads stored permutation t through all k pivot
// insertions, recording one step per pending point, and installs the
// final permutation and slot back into the state — exactly what k
// successive AddSame iterations over this permutation do. It consumes one
// Intn draw from each source, in arrival order.
//
// Each step's perm buffer is recycled from the previous call (steps
// buffers are single-owner: a chunk slot drains its steps' walks before
// they are re-evolved into), so the k insertions cost zero steady-state
// allocations. The final permutation is COPIED into the state —
// st.perms[t] is freshly cloned by the session for this update and must
// outlive the recycled buffers.
func (e *Engine) evolvePivotPerm(st *PivotState, t, n, k int, rs []*rng.Source, steps []pivotBatchStep) {
	cur := st.perms[t]
	tslot := st.slots[t]
	for j := 0; j < k; j++ {
		pj := steps[j].perm
		if cap(pj) < len(cur)+1 {
			pj = make([]int, 0, len(cur)+1)
		} else {
			pj = pj[:0]
		}
		pj = append(pj, cur[:tslot]...)
		pj = append(pj, n+j)
		pj = append(pj, cur[tslot:]...)
		next := rs[j].Intn(len(pj) + 1)
		steps[j] = pivotBatchStep{perm: pj, tslot: tslot, next: next}
		cur, tslot = pj, next
	}
	st.perms[t] = append(st.perms[t][:0], cur...)
	st.slots[t] = tslot
}

// pivotBatchWalk evaluates one pending point's suffix walk over one
// evolved permutation — AddSame's inner loop verbatim — and returns the
// number of accumulator updates for throughput accounting.
func pivotBatchWalk(w *prefixWalker, s pivotBatchStep, uEmpty float64, rsv, dlsv []float64) int64 {
	w.reset()
	prev := w.advance(s.perm, s.tslot, uEmpty)
	for pos := s.tslot; pos < len(s.perm); pos++ {
		q := s.perm[pos]
		cur := w.add(q)
		mc := cur - prev
		rsv[q] += mc
		if pos < s.next {
			dlsv[q] += mc
		}
		prev = cur
	}
	return int64(len(s.perm) - s.tslot)
}

// runPivotBatchStriped is BatchAddSame's walk at every worker count, one
// included: the producer evolves stored permutations (consuming all
// randomness) into double-buffered chunks; worker w walks only its
// pending-point stripe. Per-point accumulators are single-writer and fed
// in chunk issue order, so the result is bit-identical to the per-point
// sequential loop.
func (e *Engine) runPivotBatchStriped(st *PivotState, gPlus game.Game, n, k int, rs []*rng.Source, uEmpty float64, rsv, dlsv [][]float64, workers int) int64 {
	const depth = 2
	if e.scratch.pivotSlots == nil {
		e.scratch.pivotSlots = make([]*pivotBatchChunk, depth)
		for s := range e.scratch.pivotSlots {
			e.scratch.pivotSlots[s] = &pivotBatchChunk{steps: make([][]pivotBatchStep, e.chunk)}
		}
	}
	slots := e.scratch.pivotSlots
	for _, c := range slots {
		for p := 0; p < e.chunk; p++ {
			c.steps[p] = reuseSteps(&c.steps[p], k)
		}
	}

	counts := make([]int64, workers)
	chans := make([]chan *pivotBatchChunk, workers)
	var wwg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		chans[wk] = make(chan *pivotBatchChunk, depth)
		jlo, jhi := wk*k/workers, (wk+1)*k/workers
		wwg.Add(1)
		go func(wk, jlo, jhi int, ch chan *pivotBatchChunk) {
			defer wwg.Done()
			w := newPrefixWalker(gPlus)
			for c := range ch {
				for p := 0; p < c.count; p++ {
					for j := jlo; j < jhi; j++ {
						counts[wk] += pivotBatchWalk(w, c.steps[p][j], uEmpty, rsv[j], dlsv[j])
					}
				}
				c.wg.Done()
			}
		}(wk, jlo, jhi, chans[wk])
	}

	tau := len(st.perms)
	issued := 0
	for si := 0; issued < tau; si++ {
		c := slots[si%depth]
		c.wg.Wait()
		count := e.chunk
		if rem := tau - issued; rem < count {
			count = rem
		}
		c.count = count
		for p := 0; p < count; p++ {
			e.evolvePivotPerm(st, issued+p, n, k, rs, c.steps[p])
		}
		c.wg.Add(workers)
		for _, ch := range chans {
			ch <- c
		}
		issued += count
	}
	for _, ch := range chans {
		close(ch)
	}
	wwg.Wait()
	var total int64
	for _, c := range counts {
		total += c
	}
	return total
}
