package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/semivalue"
)

// This file implements the permutation engine behind every sampled pass:
// Monte Carlo, TMC, the combined initialisation and the YN-NN / YNN-NNN
// preprocessing fills here, the batched delta and pivot updates in
// engine_batch.go and engine_batch_delete.go.
//
// Every pass runs on one pipeline (walkRows), which moves each permutation
// through three steps:
//
//   - draw: the producer — the calling goroutine — draws the permutation
//     in RNG order, so every random draw happens in the sequential
//     reference's order;
//   - walk: a walker turns the permutation into a row of prefix
//     utilities, through evaluators of its own (incremental evaluators and
//     the utility cache never see two goroutines at once); the producer is
//     one of the walkers;
//   - fold: the producer folds the row into the pass's accumulators in
//     permutation order, then checks the stop rule.
//
// Only the fold writes accumulators, on one goroutine, in the sequential
// order, so every pass is bit-identical to its reference at any worker
// count. The fills add one step: their O(n²) array updates per permutation
// go to stripe workers (stripeFan). Worker w owns the contiguous stripe
// lo ≤ i < hi of the arrays' first axis — no per-worker array clones (the
// naive approach costs workers × n³ floats), no locks — and receives the
// folded rows in permutation order, so each array entry also gets its
// additions in the serial order.
//
// Adaptive early termination rides on the fold: the producer feeds each
// folded row to an empirical-Bernstein tracker and stops at the first chunk
// boundary where every player's estimate is certified within eps at
// confidence 1−delta, recording the τ actually spent instead of always
// burning the full budget. The decision sees only folded rows, so it is the
// same at every worker count.
//
// See DESIGN.md §9 for the determinism contract and the bound's failure
// modes.

// defaultChunkSize is the permutation batch issued between stripe
// dispatches and adaptive-bound checks: large enough to amortise channel
// and barrier overhead, small enough that early termination overshoots the
// certified τ by at most one in-flight batch.
const defaultChunkSize = 64

// adaptiveMinTau is the fewest permutations accumulated before the engine
// trusts the empirical bound; variance estimates below this are too noisy
// to certify anything.
const adaptiveMinTau = 32

// Engine runs permutation-sampling passes with parallel walkers,
// stripe-parallel array fills and optional adaptive early termination. The
// zero value is not usable; construct with NewEngine. An Engine is not safe
// for concurrent use: it records per-pass statistics, and its fills mutate
// the target stores.
type Engine struct {
	workers int
	chunk   int
	eps     float64
	delta   float64
	trunc   int

	// heads are the extra semivalue weightings every head-capable pass
	// folds alongside the Shapley estimate (WithSemivalues). They are pure
	// producer-side bookkeeping: no randomness consumed, no stripe-worker
	// involvement, so the Shapley output is bit-identical with or without
	// them. headBase feeds the differential passes (BatchDeltaAdd, and
	// BatchDeltaDelete at k = 1: new = base + observed change); headVals
	// holds the most recent pass's per-head results.
	heads    []semivalue.Weighting
	headBase [][]float64
	headVals [][]float64

	// scratch caches the passes' reusable buffers across calls — per-point
	// accumulator matrices and the pipeline's permutation slots. The engine
	// is single-writer (the session serialises updates), so cached scratch
	// is never shared between concurrent passes; every buffer is resized on
	// use and either zeroed (accumulators) or fully overwritten before it
	// is read. This matters most under the write-coalescing pipeline, where
	// every admission window pays a batch walk: without the cache each
	// window re-allocates its whole O(k·n) scratch.
	scratch batchScratch

	stats EngineStats
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithWorkers sets how many goroutines walk permutations in every pass,
// the producer among them, and how many stripe workers a deletion-store
// fill runs beside them (≤0 selects GOMAXPROCS). Results are bit-identical
// at every worker count — the producer consumes all randomness and folds
// rows in permutation order, and each stripe worker owns a disjoint stripe
// of the arrays — so this is purely a throughput knob.
func WithWorkers(k int) EngineOption { return func(e *Engine) { e.workers = k } }

// WithTargetError enables adaptive early termination: a pass stops at the
// first chunk boundary where an empirical-Bernstein bound certifies every
// player's estimate within eps at confidence 1−delta, instead of spending
// the full τ budget. Stats().Issued reports the τ actually used. The
// sampled full-walk passes and the single-point delta passes (BatchDeltaAdd
// and BatchDeltaDelete at k = 1) honour it; multi-point and pivot passes
// spend their budget. It panics if eps ≤ 0 or delta lies outside (0, 1).
func WithTargetError(eps, delta float64) EngineOption {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		panic("core: WithTargetError needs eps > 0 and delta in (0, 1)")
	}
	return func(e *Engine) { e.eps, e.delta = eps, delta }
}

// WithTruncation enables stratified-truncated sampling (see ALGORITHMS.md
// and arXiv 2311.05346): every permutation walk stops after its first t
// positions, and walks are drawn in rotation blocks — each block shares
// one uniformly drawn base permutation, and walk s of the block rotates it
// by s·t positions, so every player lands inside the truncated window
// exactly once per block (when t divides n; nearly so otherwise). Each
// rotated permutation is itself uniformly distributed, so the sampled
// arrays stay unbiased for strata k ≤ t; strata k > t are never written
// and contribute zero, which is the documented truncation bias (small
// under diminishing returns). Cuts both utility evaluations and array
// updates per walk from O(n) and O(n²) to O(t) and O(t·n).
//
// t ≤ 0 disables truncation; t ≥ n is a no-op. Incompatible with kept
// permutations (InitOptions.KeepPerms) — truncated walks don't carry full
// prefix information.
func WithTruncation(t int) EngineOption { return func(e *Engine) { e.trunc = t } }

// WithSemivalues configures extra semivalue heads: every head-capable pass
// (Initialize, MonteCarlo, TruncatedMonteCarlo, BatchDeltaAdd,
// BatchDeltaDelete at k = 1, the preprocessing fills) prices each
// weighting from the same permutation walks and exposes the results
// through HeadValues.
// Shapley itself needs no head — it is the pass's native output; passing
// it anyway just prices it a second time through the weighted fold.
// Pivot-based passes (BatchAddSame) cannot carry heads: their suffix walks
// never observe the old players' marginals, and their LSV reuse recurrence
// is Shapley-specific — they leave HeadValues nil, as does a multi-point
// BatchDeltaDelete.
func WithSemivalues(ws ...semivalue.Weighting) EngineOption {
	return func(e *Engine) { e.heads = append([]semivalue.Weighting(nil), ws...) }
}

// NewEngine returns an Engine with the given options.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{chunk: defaultChunkSize}
	for _, o := range opts {
		o(e)
	}
	if e.chunk <= 0 {
		e.chunk = defaultChunkSize
	}
	return e
}

// EngineStats describes the engine's most recent pass.
type EngineStats struct {
	// Budget is the τ requested; Issued is the τ actually accumulated —
	// smaller than Budget when adaptive stopping fired.
	Budget, Issued int
	// Workers is the number of goroutines that walked permutations, the
	// producer included. A deletion-store fill runs up to as many stripe
	// workers beside them.
	Workers int
	// EarlyStop reports whether the adaptive bound ended the pass before
	// the budget; Bound is the certified half-width at the last check
	// (+Inf before enough samples, 0 when adaptive mode was off).
	EarlyStop bool
	Bound     float64
	// Truncation is the effective walk length of a stratified-truncated
	// pass (0 when truncation was off — walks covered all n positions).
	Truncation int
	// Updates counts array-fill updates performed and Seconds the wall
	// time of the pass, together giving the fill throughput.
	Updates int64
	Seconds float64
	// KernelBytes is the heap footprint of the utility's precomputed
	// distance kernel when the pass ran against one (0 otherwise). The
	// engine itself is game-agnostic; owners that pair it with a
	// kernel-backed utility — the session — fill this in when publishing,
	// so large-n runs can see the m×n matrix in their accounting.
	KernelBytes int64
}

// Throughput returns the fill rate in array updates per second (0 for
// passes without striped fills).
func (s EngineStats) Throughput() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return float64(s.Updates) / s.Seconds
}

// Stats returns the statistics of the engine's most recent pass.
func (e *Engine) Stats() EngineStats { return e.stats }

// Heads returns the configured extra semivalue heads.
func (e *Engine) Heads() []semivalue.Weighting { return e.heads }

// SetHeadBase supplies the per-head values the next differential pass
// (BatchDeltaAdd, BatchDeltaDelete at k = 1) updates from, aligned with the
// configured heads. A nil base — or a pass over a game the base was not
// sized for — treats missing entries as zero. Full passes ignore it.
func (e *Engine) SetHeadBase(base [][]float64) { e.headBase = base }

// HeadValues returns the extra heads' values from the most recent pass,
// aligned with the configured heads, or nil when the pass carried none
// (no heads configured, or a head-incapable pass). The caller owns the
// returned slices; the next pass replaces them.
func (e *Engine) HeadValues() [][]float64 { return e.headVals }

// tracker returns the adaptive stop rule for a pass over n players, or nil
// when adaptive mode is off.
func (e *Engine) tracker(n int) *adaptiveTracker {
	if e.eps <= 0 {
		return nil
	}
	return newAdaptiveTracker(n, e.eps, e.delta)
}

// stopNow reports whether the adaptive stop rule ends a pass of budget tau
// after issued permutations: at a chunk boundary, past adaptiveMinTau,
// short of the budget, once the bound certifies every player's estimate.
// trk is nil when adaptive mode is off.
func (e *Engine) stopNow(trk *adaptiveTracker, issued, tau int) bool {
	return trk != nil && issued%e.chunk == 0 && issued >= adaptiveMinTau &&
		issued < tau && trk.met()
}

// finishPass records how the pass that began at start ended after issued
// permutations; trk is its stop rule, nil when off.
func (e *Engine) finishPass(start time.Time, issued int, trk *adaptiveTracker) {
	e.stats.Seconds = time.Since(start).Seconds()
	e.stats.Issued = issued
	e.stats.EarlyStop = issued < e.stats.Budget
	if trk != nil {
		e.stats.Bound = trk.lastBound
	}
}

// effectiveWorkers resolves the worker option against the number of work
// items (permutations to walk, or array rows to stripe).
func (e *Engine) effectiveWorkers(n int) int {
	w := e.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// permSlot is one permutation in flight through walkRows: drawn by the
// producer, walked into row by a helper or the producer itself, folded by
// the producer. A pass uses the fields it needs; the buffers are regrown in
// place from pass to pass and overwritten before they are read.
type permSlot struct {
	perm []int     // the drawn permutation; pivot additions: its k evolved forms
	cuts []int     // pivot additions: the points' insertion slots, then their next-pivot slots
	row  []float64 // the walked prefix utilities
	walk int       // positions walked: the walk length, or where TMC cut
	slot int       // pivot slot: Initialize's draw, BatchDeleteSame's evolved one
	done chan struct{}
}

// permPass is one pass on the pipeline.
type permPass struct {
	tau, workers int
	plen, rlen   int              // slot permutation and row lengths
	trk          *adaptiveTracker // the stop rule, nil when off
	// draw fills s with permutation t. The producer calls it in permutation
	// order, so it may consume randomness.
	draw func(s *permSlot, t int)
	// walker builds one walker's evaluators and returns its walk, which
	// fills s.row from what draw left in s. It is called once per walker.
	walker func() func(s *permSlot)
	// fold folds s into the pass's accumulators. The producer calls it in
	// permutation order.
	fold func(s *permSlot)
}

// slotsPerWorker bounds walkRows's permutations in flight. The producer
// folds rows strictly in permutation order, so a walker that finishes early
// needs queued permutations to stay busy; at n = 200 and k = 16, one or two
// per worker measurably stalled the walkers and four did not. The rows stay
// a small part of the heap.
const slotsPerWorker = 4

// walkRows is the engine's permutation pipeline; every pass runs on it. The
// producer — the calling goroutine — draws p.tau permutations into slots in
// order, walkers turn them into rows, and the producer hands every row to
// p.fold in permutation order. Only fold writes accumulators, on one
// goroutine, in the order the sequential references use, so the result is
// bit-identical at any worker count.
//
// p.trk is the adaptive stop rule (nil when off): fold observes each row
// into it, and the producer checks the rule after every fold, so the pass
// stops after the same permutation at any worker count. walkRows returns
// the number of permutations folded — p.tau unless the rule fired. On a
// stop the producer first collects the rows still in flight, so no slot's
// completion signal carries over into the engine's next pass; their draws
// have then run past the folded permutations, so a pass that can stop
// early draws from a source its caller does not reuse. Without a stop
// exactly p.tau permutations are drawn.
//
// The producer is itself one of the walkers: it starts workers−1 helpers
// and, while the row it must fold next is still being walked, walks the
// oldest queued permutation instead of waiting. So no more goroutines walk
// than there are workers, and the producer's draws and folds never wait
// behind the walkers for a processor.
//
// On a game without an incremental evaluator whose utilities come from
// scratch Value calls behind a shared game.Cached, two walkers may miss on
// a coalition their permutations share (a prefix's first members); the
// cache computes it once and the other waits, so the training count does
// not depend on the worker count either.
func (e *Engine) walkRows(p permPass) int {
	slots := e.permSlots(min(p.tau, p.workers*slotsPerWorker), p.plen, p.rlen)
	work := make(chan *permSlot, len(slots)) // never more sends in flight than slots
	var wg sync.WaitGroup
	wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		go func() {
			defer wg.Done()
			walk := p.walker()
			for s := range work {
				walk(s)
				s.done <- struct{}{}
			}
		}()
	}
	issue := func(s *permSlot, t int) {
		p.draw(s, t)
		work <- s
	}
	for t, s := range slots {
		issue(s, t)
	}
	own := p.walker()
	issued := p.tau
	for t := 0; t < p.tau; t++ {
		s := slots[t%len(slots)] // holds permutation t
		awaitRow(s, work, own)
		p.fold(s)
		if e.stopNow(p.trk, t+1, p.tau) {
			issued = t + 1
			for u := issued; u < min(t+len(slots), p.tau); u++ {
				awaitRow(slots[u%len(slots)], work, own)
			}
			break
		}
		if t+len(slots) < p.tau {
			issue(s, t+len(slots))
		}
	}
	close(work)
	wg.Wait()
	return issued
}

// awaitRow returns once s's row is walked, walking queued permutations
// with walk while it is not. A finished row is folded before any further
// walk, so the producer never delays a fold it could make.
func awaitRow(s *permSlot, work chan *permSlot, walk func(*permSlot)) {
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
			walk(q)
			q.done <- struct{}{}
		}
	}
}

// permSlots returns count pipeline slots sized for permutations of plen
// entries and rows of rlen utilities, regrowing the engine's cached slots.
func (e *Engine) permSlots(count, plen, rlen int) []*permSlot {
	for len(e.scratch.slots) < count {
		e.scratch.slots = append(e.scratch.slots, &permSlot{done: make(chan struct{}, 1)})
	}
	slots := e.scratch.slots[:count]
	for _, s := range slots {
		s.perm = reuseInts(s.perm, plen)
		s.row = reuseFloats(s.row, rlen)
	}
	return slots
}

// prefixRows is the full walks' walker: it fills s.row[pos] with
// U(s.perm[:pos+1]) for the first s.walk positions — in one call of the
// game's zero-pivot whole-walk evaluator when it offers one, step by step
// through prefixWalker otherwise. Both give the same bits and the same
// prefix-add count; the whole walk pays its counters once per permutation.
func prefixRows(g game.Game) func() func(*permSlot) {
	return func() func(*permSlot) {
		if ev := game.PivotPrefixOf(g, nil); ev != nil {
			return func(s *permSlot) { ev.Walk(s.perm[:s.walk], s.row[:s.walk]) }
		}
		w := newPrefixWalker(g)
		return func(s *permSlot) {
			w.reset()
			for pos, p := range s.perm[:s.walk] {
				s.row[pos] = w.add(p)
			}
		}
	}
}

// stripeTarget is a structure whose per-permutation accumulation
// partitions by the first array axis (the player row). Both deletion
// stores implement it.
type stripeTarget interface {
	// newAux allocates one permutation's worth of producer-side metadata
	// (nil when the target needs none).
	newAux() []int
	// prepare fills aux for the permutation and returns how many array
	// updates the permutation costs, for throughput accounting. It runs
	// in the producer and consumes no randomness. Only the first walk
	// positions of the permutation will be accumulated.
	prepare(perm []int, aux []int, walk int) int64
	// accumulateStripe folds one permutation into rows lo ≤ i < hi.
	// utilities[pos] holds U({perm[0..pos]}) for pos < walk (entries past
	// walk are stale and must not be read); uEmpty is U(∅). Rows outside
	// [lo, hi) must not be touched, and neither may SV or τ — the
	// producer owns those.
	accumulateStripe(perm []int, utilities []float64, uEmpty float64, aux []int, lo, hi, walk int)
}

// stripeFan is a fill pass's stripe fan-out. The producer copies each
// folded permutation and its utilities into a chunk; a full chunk goes to
// every stripe worker, and worker w folds only its stripe lo ≤ i < hi of
// every target, chunks in issue order and permutations in order within a
// chunk. Two chunks alternate, so the producer fills one while the workers
// drain the other.
type stripeFan struct {
	targets []stripeTarget
	walk    int
	chans   []chan *fillChunk
	chunks  [2]*fillChunk
	sent    int // chunks dispatched
	fill    int // permutations in the chunk being filled
	wg      sync.WaitGroup
}

// fillChunk is one batch of folded permutations in flight between the
// producer and the stripe workers.
type fillChunk struct {
	count int
	perms [][]int
	utils [][]float64
	aux   [][][]int // [perm][target]
	wg    sync.WaitGroup
}

// newStripeFan starts workers stripe workers over n rows, fed chunks of
// size permutations walked to walk positions.
func newStripeFan(targets []stripeTarget, n, walk, size, workers int, uEmpty float64) *stripeFan {
	f := &stripeFan{targets: targets, walk: walk, chans: make([]chan *fillChunk, workers)}
	for i := range f.chunks {
		c := &fillChunk{perms: make([][]int, size), utils: make([][]float64, size), aux: make([][][]int, size)}
		for p := range c.perms {
			c.perms[p] = make([]int, n)
			c.utils[p] = make([]float64, n)
			c.aux[p] = make([][]int, len(targets))
			for ti, t := range targets {
				c.aux[p][ti] = t.newAux()
			}
		}
		f.chunks[i] = c
	}
	for wk := range f.chans {
		// One send per chunk in flight: push refills a chunk only once
		// every worker has drained it.
		ch := make(chan *fillChunk, len(f.chunks))
		f.chans[wk] = ch
		lo, hi := wk*n/workers, (wk+1)*n/workers
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for c := range ch {
				for p := 0; p < c.count; p++ {
					for ti, t := range targets {
						t.accumulateStripe(c.perms[p], c.utils[p], uEmpty, c.aux[p][ti], lo, hi, walk)
					}
				}
				c.wg.Done()
			}
		}()
	}
	return f
}

// push queues one folded permutation for the stripe workers and returns the
// array updates it costs.
func (f *stripeFan) push(perm []int, utilities []float64) int64 {
	c := f.chunks[f.sent%len(f.chunks)]
	if f.fill == 0 {
		c.wg.Wait() // the workers have drained this chunk's last dispatch
	}
	p := f.fill
	copy(c.perms[p], perm)
	copy(c.utils[p], utilities[:f.walk])
	var updates int64
	for ti, t := range f.targets {
		updates += t.prepare(c.perms[p], c.aux[p][ti], f.walk)
	}
	if f.fill++; f.fill == len(c.perms) {
		f.dispatch()
	}
	return updates
}

func (f *stripeFan) dispatch() {
	c := f.chunks[f.sent%len(f.chunks)]
	c.count = f.fill
	c.wg.Add(len(f.chans))
	for _, ch := range f.chans {
		ch <- c
	}
	f.sent++
	f.fill = 0
}

// close dispatches the partly filled chunk and waits for the workers.
func (f *stripeFan) close() {
	if f.fill > 0 {
		f.dispatch()
	}
	for _, ch := range f.chans {
		close(ch)
	}
	f.wg.Wait()
}

// walkLen resolves the engine's truncation against the player count: the
// number of leading permutation positions a pass walks and accumulates.
func (e *Engine) walkLen(n int) int {
	if e.trunc > 0 && e.trunc < n {
		return e.trunc
	}
	return n
}

// permSampler draws the pass's permutations. Untruncated it is exactly
// r.Perm — the historic randomness stream, bit-identical. Truncated it
// draws one uniform base permutation per rotation block and rotates it by
// walk positions between samples: each rotation of a uniform permutation
// is itself uniform (so every sample is an unbiased truncated walk), and
// across one block every player visits the truncated window once (when
// walk divides n), stratifying the positions players are observed at.
type permSampler struct {
	r     *rng.Source
	n     int
	walk  int
	block int // rotations per base permutation: ⌈n/walk⌉
	rot   int
	base  []int
}

func newPermSampler(r *rng.Source, n, walk int) *permSampler {
	s := &permSampler{r: r, n: n, walk: walk, block: 1}
	if walk < n {
		s.block = (n + walk - 1) / walk
		s.base = make([]int, n)
	}
	return s
}

func (s *permSampler) next(perm []int) {
	if s.block <= 1 {
		s.r.Perm(perm)
		return
	}
	if s.rot == 0 {
		s.r.Perm(s.base)
	}
	// rot < block = ⌈n/walk⌉ ⇒ off = rot·walk < n, so one wrap suffices.
	off := s.rot * s.walk
	for q := 0; q < s.n; q++ {
		j := q + off
		if j >= s.n {
			j -= s.n
		}
		perm[q] = s.base[j]
	}
	s.rot++
	if s.rot == s.block {
		s.rot = 0
	}
}

// fillRun describes one full-walk pass: Initialize, MonteCarlo or a
// deletion-store fill.
type fillRun struct {
	g       game.Game
	tau     int
	r       *rng.Source
	targets []stripeTarget
	// heads are the extra semivalue weightings this pass folds from the
	// same walks (after perPerm, consuming no randomness).
	heads []semivalue.Weighting
	// pivotSlots draws a pivot slot, uniform on 0..n, into s.slot after
	// each permutation, the order in which Algorithm 2 draws.
	pivotSlots bool
	// perPerm folds one walked permutation into the pass's own sums
	// (Shapley sums, pivot LSV, kept permutations). Only s.row[:s.walk] is
	// valid.
	perPerm func(s *permSlot, uEmpty float64)
}

// run executes a full-walk pass on the pipeline and returns the number of
// permutations issued: the producer draws each permutation, walkers walk
// its first walkLen(n) prefixes, and the fold runs perPerm, the heads and
// the stop rule's tracker, then queues the row for the stripe workers.
// Callers guarantee n ≥ 1 and tau ≥ 1.
func (e *Engine) run(fr fillRun) int {
	n := fr.g.N()
	walk := e.walkLen(n)
	workers := e.effectiveWorkers(fr.tau)
	e.stats = EngineStats{Budget: fr.tau, Workers: workers}
	if walk < n {
		e.stats.Truncation = walk
	}
	uEmpty := fr.g.Value(bitset.New(n))
	trk := e.tracker(n)
	// Extra semivalue heads fold after perPerm — behind all randomness
	// draws, outside all stripes — so they change neither the random
	// stream nor any Shapley-path arithmetic.
	hf := newHeadFold(fr.heads, n)
	e.headVals = nil
	var fan *stripeFan
	if len(fr.targets) > 0 {
		fan = newStripeFan(fr.targets, n, walk, e.chunk, e.effectiveWorkers(n), uEmpty)
	}
	sampler := newPermSampler(fr.r, n, walk)

	start := time.Now()
	issued := e.walkRows(permPass{
		tau: fr.tau, workers: workers, plen: n, rlen: n, trk: trk,
		draw: func(s *permSlot, _ int) {
			sampler.next(s.perm)
			s.walk = walk
			if fr.pivotSlots {
				s.slot = fr.r.Intn(n + 1)
			}
		},
		walker: prefixRows(fr.g),
		fold: func(s *permSlot) {
			fr.perPerm(s, uEmpty)
			if hf != nil {
				hf.foldWalk(s.perm, s.row, uEmpty, walk)
			}
			if trk != nil {
				trk.observeWalk(s.perm, s.row, uEmpty, walk)
			}
			if fan != nil {
				e.stats.Updates += fan.push(s.perm, s.row)
			}
		},
	})
	if fan != nil {
		fan.close()
	}
	e.finishPass(start, issued, trk)
	if hf != nil {
		e.headVals = hf.finish(issued)
	}
	return issued
}

// PreprocessDeletion is Algorithm 6 through the engine: the Monte Carlo
// fill of the YN-NN arrays with stripe-parallel accumulation and, when
// configured, adaptive early termination. Bit-identical to the sequential
// fill (the package tests' reference) for a fixed seed at every worker
// count.
func (e *Engine) PreprocessDeletion(g game.Game, tau int, r *rng.Source) *DeletionStore {
	ds, _ := e.PreprocessDeletionWith(g, tau, r, StoreConfig{})
	return ds
}

// PreprocessDeletionWith is PreprocessDeletion with an explicit storage
// backend for the YN-NN arrays. Only the spill backend can fail.
func (e *Engine) PreprocessDeletionWith(g game.Game, tau int, r *rng.Source, cfg StoreConfig) (*DeletionStore, error) {
	n := g.N()
	ds, err := NewDeletionStoreWith(n, cfg)
	if err != nil {
		return nil, err
	}
	e.stats = EngineStats{Budget: tau}
	e.headVals = nil
	if n == 0 || tau <= 0 {
		return ds, nil
	}
	issued := e.run(fillRun{
		g: g, tau: tau, r: r,
		targets: []stripeTarget{ds},
		heads:   e.heads,
		// The producer owns the Shapley sums; the store's striped
		// accumulation covers only the arrays.
		perPerm: func(s *permSlot, uEmpty float64) {
			accumulateMarginals(s.perm, s.row, uEmpty, ds.SV, s.walk)
		},
	})
	ds.tau = issued
	ds.finishSampled()
	return ds, nil
}

// PreprocessMultiDeletion is the YNN-NNN fill through the engine.
func (e *Engine) PreprocessMultiDeletion(g game.Game, d int, candidates []int, tau int, r *rng.Source) (*MultiDeletionStore, error) {
	return e.PreprocessMultiDeletionWith(g, d, candidates, tau, r, StoreConfig{})
}

// PreprocessMultiDeletionWith is PreprocessMultiDeletion with an explicit
// storage backend for the YNN-NNN arrays.
func (e *Engine) PreprocessMultiDeletionWith(g game.Game, d int, candidates []int, tau int, r *rng.Source, cfg StoreConfig) (*MultiDeletionStore, error) {
	n := g.N()
	ms, err := NewMultiDeletionStoreWith(n, d, candidates, cfg)
	if err != nil {
		return nil, err
	}
	e.stats = EngineStats{Budget: tau}
	e.headVals = nil
	if n == 0 || tau <= 0 {
		return ms, nil
	}
	issued := e.run(fillRun{
		g: g, tau: tau, r: r,
		targets: []stripeTarget{ms},
		heads:   e.heads,
		perPerm: func(s *permSlot, uEmpty float64) {
			accumulateMarginals(s.perm, s.row, uEmpty, ms.SV, s.walk)
		},
	})
	ms.tau = issued
	ms.finishSampled()
	return ms, nil
}

// Initialize is the combined initialisation pass (Shapley estimates,
// pivot LSV, and any requested deletion stores) through the engine: one
// Monte Carlo pass of τ permutations builds every requested structure from
// the same samples — the Shapley estimates, the pivot state's LSV
// (Algorithm 2) and the YN-NN / YNN-NNN arrays (Algorithm 6) — with the
// walks spread over the workers, the store fills striped across them, and
// optional adaptive early termination. Sharing the pass matters because
// utility evaluations dominate the cost. Bit-identical to the sequential
// pass (the package tests' reference) for a fixed seed at every worker
// count.
func (e *Engine) Initialize(g game.Game, tau int, opt InitOptions, r *rng.Source) (*InitResult, error) {
	n := g.N()
	if opt.KeepPerms && e.walkLen(n) < n {
		return nil, fmt.Errorf("core: truncation (t = %d) is incompatible with kept permutations — truncated walks carry no full prefix information", e.trunc)
	}
	res := &InitResult{
		Pivot: &PivotState{
			SV:  make([]float64, n),
			LSV: make([]float64, n),
			Tau: tau,
		},
	}
	if opt.KeepPerms {
		res.Pivot.perms = make([][]int, 0, tau)
		res.Pivot.slots = make([]int, 0, tau)
	}
	if opt.TrackDeletions {
		ds, err := NewDeletionStoreWith(n, opt.Store)
		if err != nil {
			return nil, err
		}
		res.Deletion = ds
	}
	if opt.MultiDelete >= 1 {
		ms, err := NewMultiDeletionStoreWith(n, opt.MultiDelete, opt.Candidates, opt.Store)
		if err != nil {
			return nil, err
		}
		res.Multi = ms
	}
	e.stats = EngineStats{Budget: tau}
	e.headVals = nil
	if n == 0 || tau <= 0 {
		return res, nil
	}

	var targets []stripeTarget
	if res.Deletion != nil {
		targets = append(targets, res.Deletion)
	}
	if res.Multi != nil {
		targets = append(targets, res.Multi)
	}
	heads := opt.Heads
	if heads == nil {
		heads = e.heads
	}
	st := res.Pivot
	issued := e.run(fillRun{
		g: g, tau: tau, r: r,
		targets:    targets,
		heads:      heads,
		pivotSlots: true,
		perPerm: func(s *permSlot, uEmpty float64) {
			foldPivot(s.perm, s.row, uEmpty, 0, s.walk, s.slot, st.SV, st.LSV)
			if opt.KeepPerms {
				st.perms = append(st.perms, slices.Clone(s.perm))
				st.slots = append(st.slots, s.slot)
			}
		},
	})
	st.Tau = issued
	res.HeadValues = e.headVals
	// The stores' SV sums equal the pivot's (same marginals, same order);
	// install them before the pivot divides, then let each store apply
	// its own historic normalisation (multiply by 1/τ).
	if res.Deletion != nil {
		copy(res.Deletion.SV, st.SV)
		res.Deletion.tau = issued
		res.Deletion.finishSampled()
	}
	if res.Multi != nil {
		copy(res.Multi.SV, st.SV)
		res.Multi.tau = issued
		res.Multi.finishSampled()
	}
	for i := 0; i < n; i++ {
		st.SV[i] /= float64(issued)
		st.LSV[i] /= float64(issued)
	}
	return res, nil
}

// foldPivot folds positions from ≤ pos < to of one walked permutation into
// the Shapley sums sv and the left-of-pivot sums lsv: row[pos] is
// U(perm[:pos+1]) and prev is U(perm[:from]). Each player's marginal goes
// to sv, and to lsv too when its position lies before the pivot slot. It
// returns the number of positions folded.
func foldPivot(perm []int, row []float64, prev float64, from, to, slot int, sv, lsv []float64) int64 {
	for pos := from; pos < to; pos++ {
		p := perm[pos]
		cur := row[pos]
		m := cur - prev
		sv[p] += m
		if pos < slot {
			lsv[p] += m
		}
		prev = cur
	}
	return int64(to - from)
}

// MonteCarlo is Algorithm 1 through the engine: τ random permutations are
// scanned head to tail and each player is credited its marginal
// contribution; the estimate is the average. The walks spread over the
// workers, adaptive early termination is optional, and the result is the
// same at every worker count.
func (e *Engine) MonteCarlo(g game.Game, tau int, r *rng.Source) []float64 {
	n := g.N()
	sv := make([]float64, n)
	e.stats = EngineStats{Budget: tau}
	e.headVals = nil
	if n == 0 || tau <= 0 {
		return sv
	}
	issued := e.run(fillRun{
		g: g, tau: tau, r: r,
		heads: e.heads,
		perPerm: func(s *permSlot, uEmpty float64) {
			accumulateMarginals(s.perm, s.row, uEmpty, sv, s.walk)
		},
	})
	for i := range sv {
		sv[i] /= float64(issued)
	}
	return sv
}

// accumulateMarginals folds the first walk positions of one walked
// permutation's marginal contributions into sv.
func accumulateMarginals(perm []int, utilities []float64, uEmpty float64, sv []float64, walk int) {
	prev := uEmpty
	for pos := 0; pos < walk; pos++ {
		cur := utilities[pos]
		sv[perm[pos]] += cur - prev
		prev = cur
	}
}

// TruncatedMonteCarlo is Monte Carlo with Ghorbani–Zou truncation: once
// the prefix utility is within tol of the full-coalition utility, the
// remaining players of the permutation are credited zero marginal
// contribution, saving their model trainings. Following the paper's
// experimental setup (§VII-A), truncation is only allowed from position
// ⌈n/2⌉ onward. Each walker records where its walk was cut; the fold
// credits the walked prefix and, for the stop rule, a zero contribution to
// every player past the cut. It draws plain uniform permutations and
// ignores WithTruncation.
func (e *Engine) TruncatedMonteCarlo(g game.Game, tau int, tol float64, r *rng.Source) []float64 {
	n := g.N()
	sv := make([]float64, n)
	workers := e.effectiveWorkers(tau)
	e.stats = EngineStats{Budget: tau, Workers: workers}
	e.headVals = nil
	if n == 0 || tau <= 0 {
		return sv
	}
	empty := g.Value(bitset.New(n))
	full := g.Value(bitset.Full(n))
	minPos := (n + 1) / 2
	trk := e.tracker(n)
	// Extra heads see the same truncation as the Shapley estimate: a
	// position past the cut is credited zero for every weighting.
	hf := newHeadFold(e.heads, n)
	start := time.Now()
	issued := e.walkRows(permPass{
		tau: tau, workers: workers, plen: n, rlen: n, trk: trk,
		draw: func(s *permSlot, _ int) { r.Perm(s.perm) },
		walker: func() func(*permSlot) {
			w := newPrefixWalker(g)
			return func(s *permSlot) {
				w.reset()
				prev := empty
				s.walk = n
				for pos, p := range s.perm {
					if pos >= minPos && abs(full-prev) < tol {
						s.walk = pos
						break
					}
					prev = w.add(p)
					s.row[pos] = prev
				}
			}
		},
		fold: func(s *permSlot) {
			accumulateMarginals(s.perm, s.row, empty, sv, s.walk)
			if hf != nil {
				hf.foldWalk(s.perm, s.row, empty, s.walk)
			}
			if trk != nil {
				for _, q := range s.perm[s.walk:] {
					trk.observe(q, 0)
				}
				trk.observeWalk(s.perm, s.row, empty, s.walk)
			}
		},
	})
	e.finishPass(start, issued, trk)
	if hf != nil {
		e.headVals = hf.finish(issued)
	}
	for i := range sv {
		sv[i] /= float64(issued)
	}
	return sv
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// adaptiveTracker maintains the per-player moments behind the stopping
// rule. One observation per player per sample (a per-permutation marginal
// or differential contribution); the half-width certified for player i
// after t samples is the Maurer–Pontil empirical-Bernstein bound
//
//	h_i = sqrt(2·V_i·L/t) + 3·R_i·L/t,  L = ln(3n/δ),
//
// with V_i the empirical variance, R_i the OBSERVED range standing in for
// the true range (the documented approximation: a later sample landing
// outside the range seen so far voids the certificate — DESIGN.md §9),
// and the union bound over the n players folded into L.
type adaptiveTracker struct {
	eps, delta float64
	n          int
	t          int
	sum        []float64
	sumsq      []float64
	min, max   []float64
	lastBound  float64
}

func newAdaptiveTracker(n int, eps, delta float64) *adaptiveTracker {
	a := &adaptiveTracker{
		eps: eps, delta: delta, n: n,
		sum:       make([]float64, n),
		sumsq:     make([]float64, n),
		min:       make([]float64, n),
		max:       make([]float64, n),
		lastBound: math.Inf(1),
	}
	for i := 0; i < n; i++ {
		a.min[i] = math.Inf(1)
		a.max[i] = math.Inf(-1)
	}
	return a
}

// observe records one observation for player i.
func (a *adaptiveTracker) observe(i int, x float64) {
	a.sum[i] += x
	a.sumsq[i] += x * x
	if x < a.min[i] {
		a.min[i] = x
	}
	if x > a.max[i] {
		a.max[i] = x
	}
}

// observeWalk records the walked players' marginals from one (possibly
// truncated) permutation and closes the sample.
func (a *adaptiveTracker) observeWalk(perm []int, utilities []float64, uEmpty float64, walk int) {
	prev := uEmpty
	for pos := 0; pos < walk; pos++ {
		cur := utilities[pos]
		a.observe(perm[pos], cur-prev)
		prev = cur
	}
	a.t++
}

// endSample closes one sample for trackers fed via observe.
func (a *adaptiveTracker) endSample() { a.t++ }

// bound returns the widest per-player half-width certified so far.
func (a *adaptiveTracker) bound() float64 {
	if a.t < 2 {
		return math.Inf(1)
	}
	t := float64(a.t)
	l := math.Log(3 * float64(a.n) / a.delta)
	worst := 0.0
	for i := 0; i < a.n; i++ {
		v := (a.sumsq[i] - a.sum[i]*a.sum[i]/t) / (t - 1)
		if v < 0 {
			v = 0 // guard FP cancellation
		}
		r := a.max[i] - a.min[i]
		if r < 0 {
			r = 0 // player never observed (e.g. the deleted point)
		}
		h := math.Sqrt(2*v*l/t) + 3*r*l/t
		if h > worst {
			worst = h
		}
	}
	return worst
}

// met reports whether the bound satisfies the target, caching the value
// for the pass's stats.
func (a *adaptiveTracker) met() bool {
	a.lastBound = a.bound()
	return a.lastBound <= a.eps
}
