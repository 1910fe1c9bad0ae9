// Incremental prefix evaluation.
//
// Every permutation-sampling estimator in the engine walks a permutation
// head to tail asking for U(prefix) after each player joins. A plain Game
// answers each question from scratch — for model utilities that is a full
// training run per question, so one permutation costs Θ(n · training). Many
// games, however, can maintain U as players JOIN a coalition far more
// cheaply than they can evaluate an arbitrary coalition: the KNN utility
// updates per-test-point neighbour lists (Jia et al., "Towards Efficient
// Data Valuation Based on the Shapley Value"), and the closed-form games
// update running sums, counts, or maxima in O(1).
//
// PrefixEvaluator is that capability's protocol, and Prefixer is how games
// advertise it. The contract binding the two paths together: for a
// deterministic game, the value returned by Add MUST be bit-identical to
// what Value would return on the same coalition, so estimators produce the
// same estimates to the last bit whichever path they take. Estimators
// detect the capability with PrefixEvaluatorOf and fall back to Value
// unchanged when it returns nil.
package game

import (
	"sync/atomic"

	"dynshap/internal/bitset"
)

// PrefixEvaluator incrementally evaluates the utility of a growing
// coalition. After Reset the tracked coalition is ∅; each Add(p) inserts
// player p and returns U(prefix ∪ {p}). Players must not repeat between
// Resets. An evaluator is NOT safe for concurrent use — parallel samplers
// obtain one per worker from the game's Prefixer.
type PrefixEvaluator interface {
	// Reset empties the tracked coalition.
	Reset()
	// Add inserts player p into the coalition and returns its new utility.
	Add(p int) float64
}

// Prefixer is implemented by games that can hand out incremental prefix
// evaluators. Prefix may return nil when the capability is unavailable for
// the game's current configuration (e.g. a model utility whose trainer has
// no incremental form); callers should use PrefixEvaluatorOf, which folds
// that case into the missing-capability one.
type Prefixer interface {
	// Prefix returns a fresh evaluator over the game's players, or nil.
	// It must be safe for concurrent calls.
	Prefix() PrefixEvaluator
}

// PrefixEvaluatorOf returns a fresh incremental evaluator for g, or nil if
// g does not support incremental prefix evaluation.
func PrefixEvaluatorOf(g Game) PrefixEvaluator {
	if p, ok := g.(Prefixer); ok {
		return p.Prefix()
	}
	return nil
}

// PivotPrefixEvaluator prices the prefixes of chains that share one walk
// of the players outside a pivot set fixed when the evaluator was built.
// Walk serves the delta algorithms: each prefix S of a permutation on its
// own and S ∪ {v} for every pivot v, the pairs they difference along
// shared permutations, one pivot per pending or departing point. WalkNested
// serves the batched Pivot-s walk: the k nested chains one stored
// permutation passes through as the pivots arrive. A game that can derive
// these utilities from the state of the chain over the non-pivot players
// walks that chain once instead of once per pivot. With no pivots, Walk is
// the plain prefix walk: the engine's full walks price a whole permutation
// in one call of it where a PrefixEvaluator would take one call per step.
// The PrefixEvaluator contract carries over: every value MUST be
// bit-identical to Value on the same coalition. An evaluator is not safe
// for concurrent use.
type PivotPrefixEvaluator interface {
	// Walk evaluates perm's prefixes, starting from the empty coalition.
	// With k pivots, row holds len(perm) strides of k+1 values: at position
	// pos, row[pos*(k+1)] = U(perm[:pos+1]) and row[pos*(k+1)+1+j] =
	// U(perm[:pos+1] ∪ {pivots[j]}). perm must not contain a pivot.
	Walk(perm []int, row []float64)
	// WalkNested evaluates the prefixes of k = len(starts) nested chains.
	// final holds every pivot and the other players; chain j is final
	// without pivots j+1..k−1, and starts[j] is pivot j's position in it.
	// Chain j's segment is row[j*(len(final)+1):]: for pos from starts[j]
	// to len(chain j), segment[pos] = U(chain_j[:pos]). Entries before
	// starts[j] are left as they were.
	WalkNested(final, starts []int, row []float64)
}

// NestedPositions returns the positions of k nested chains over a final
// permutation of l players, Σ_j (l−k+1+j): the prefix adds one WalkNested
// serves, the same count as walking every chain on its own.
func NestedPositions(l, k int) int64 {
	return int64(k*l - k*(k-1)/2)
}

// PivotPrefixer is implemented by games that can hand out pivot-aware
// prefix evaluators. PivotPrefix may return nil when the capability is
// unavailable for the game's configuration; callers use PivotPrefixOf.
type PivotPrefixer interface {
	// PivotPrefix returns a fresh evaluator for the given pivots, or nil.
	// It must be safe for concurrent calls.
	PivotPrefix(pivots []int) PivotPrefixEvaluator
}

// PivotPrefixOf returns a fresh pivot-aware evaluator for g over the given
// pivots, or nil if g does not offer one.
func PivotPrefixOf(g Game, pivots []int) PivotPrefixEvaluator {
	if p, ok := g.(PivotPrefixer); ok {
		return p.PivotPrefix(pivots)
	}
	return nil
}

// countedPivot wraps a pivot-aware evaluator, counting the utilities it
// serves into a shared counter once per walk — (k+1) per position of a
// Walk, one per chain position of a WalkNested: parallel workers walk
// whole permutations, and one atomic add per step on a shared counter
// costs them more than the walk saves.
type countedPivot struct {
	ev PivotPrefixEvaluator
	n  *atomic.Int64
	k  int
}

func (c *countedPivot) Walk(perm []int, row []float64) {
	c.ev.Walk(perm, row)
	c.n.Add(int64(len(perm)) * int64(c.k+1))
}

func (c *countedPivot) WalkNested(final, starts []int, row []float64) {
	c.ev.WalkNested(final, starts, row)
	c.n.Add(NestedPositions(len(final), c.k))
}

func countPivots(inner Game, pivots []int, n *atomic.Int64) PivotPrefixEvaluator {
	ev := PivotPrefixOf(inner, pivots)
	if ev == nil {
		return nil
	}
	return &countedPivot{ev: ev, n: n, k: len(pivots)}
}

// PivotPrefix implements PivotPrefixer by forwarding the inner game's
// capability; the utilities it serves count as prefix adds.
func (c *Counting) PivotPrefix(pivots []int) PivotPrefixEvaluator {
	return countPivots(c.inner, pivots, &c.prefixAdds)
}

// PivotPrefix implements PivotPrefixer by forwarding the inner game's
// capability. Like Prefix, walks bypass the cache and count as prefix adds.
func (c *Cached) PivotPrefix(pivots []int) PivotPrefixEvaluator {
	return countPivots(c.inner, pivots, &c.store.prefixAdds)
}

// countedPrefix wraps an evaluator, counting Adds into a shared counter.
type countedPrefix struct {
	ev PrefixEvaluator
	n  *atomic.Int64
}

func (c *countedPrefix) Reset() { c.ev.Reset() }

func (c *countedPrefix) Add(p int) float64 {
	c.n.Add(1)
	return c.ev.Add(p)
}

// Prefix implements Prefixer by forwarding the inner game's capability.
// Incremental evaluations are counted separately from Value calls (see
// PrefixAdds): an Add is not a model training, which is what Calls
// measures.
func (c *Counting) Prefix() PrefixEvaluator {
	ev := PrefixEvaluatorOf(c.inner)
	if ev == nil {
		return nil
	}
	return &countedPrefix{ev: ev, n: &c.prefixAdds}
}

// PrefixAdds returns the number of incremental prefix evaluations served
// through evaluators handed out by Prefix.
func (c *Counting) PrefixAdds() int64 { return c.prefixAdds.Load() }

// Prefix implements Prefixer by forwarding the inner game's capability.
// Incremental evaluations bypass the cache entirely — for games that
// support them, an Add is cheaper than a cache lookup, and the values it
// produces are bit-identical to Value's — so they appear in PrefixAdds
// rather than in the hit/miss statistics.
func (c *Cached) Prefix() PrefixEvaluator {
	ev := PrefixEvaluatorOf(c.inner)
	if ev == nil {
		return nil
	}
	return &countedPrefix{ev: ev, n: &c.store.prefixAdds}
}

// PrefixAdds returns the number of incremental prefix evaluations served
// past the cache (shared across NewCachedShared views of the same store).
func (c *Cached) PrefixAdds() int64 { return c.store.prefixAdds.Load() }

// restrictPrefix translates restricted player indices to the original
// numbering before delegating.
type restrictPrefix struct {
	ev   PrefixEvaluator
	keep []int
}

func (r *restrictPrefix) Reset()            { r.ev.Reset() }
func (r *restrictPrefix) Add(p int) float64 { return r.ev.Add(r.keep[p]) }

// Prefix implements Prefixer: a prefix of the restricted game is a prefix
// of the original game over the translated indices, so the inner
// evaluator serves it directly.
func (r *Restrict) Prefix() PrefixEvaluator {
	ev := PrefixEvaluatorOf(r.inner)
	if ev == nil {
		return nil
	}
	return &restrictPrefix{ev: ev, keep: r.keep}
}

// restrictPivot translates each walked permutation into the original
// numbering, in a buffer it owns, before delegating.
type restrictPivot struct {
	ev   PivotPrefixEvaluator
	keep []int
	buf  []int
}

func (r *restrictPivot) translate(perm []int) []int {
	r.buf = r.buf[:0]
	for _, p := range perm {
		r.buf = append(r.buf, r.keep[p])
	}
	return r.buf
}

func (r *restrictPivot) Walk(perm []int, row []float64) { r.ev.Walk(r.translate(perm), row) }

func (r *restrictPivot) WalkNested(final, starts []int, row []float64) {
	r.ev.WalkNested(r.translate(final), starts, row)
}

// PivotPrefix implements PivotPrefixer the way Prefix does: the chains of
// the restricted game are chains of the original game over the translated
// indices, so the inner evaluator, built over the translated pivots,
// serves them directly.
func (r *Restrict) PivotPrefix(pivots []int) PivotPrefixEvaluator {
	orig := make([]int, len(pivots))
	for j, v := range pivots {
		orig[j] = r.keep[v]
	}
	ev := PivotPrefixOf(r.inner, orig)
	if ev == nil {
		return nil
	}
	return &restrictPivot{ev: ev, keep: r.keep, buf: make([]int, 0, len(r.keep))}
}

// --- Closed-form games -----------------------------------------------------
//
// The evaluators below maintain the quantity each game's Value derives from
// the coalition (sum, count, maximum, size) under single-player joins. For
// Unanimity, Glove, Airport, and Symmetric the maintained quantity is exact
// (integer counts or order-independent maxima), so Add is bit-identical to
// Value unconditionally. Additive and WeightedVoting maintain a running
// float sum in JOIN order while Value sums in INDEX order; the two agree
// bit-for-bit whenever the additions are exact (e.g. integer-valued
// weights, the test suite's choice), and to FP re-association error
// otherwise.

type additivePrefix struct {
	weights []float64
	sum     float64
}

func (e *additivePrefix) Reset()            { e.sum = 0 }
func (e *additivePrefix) Add(p int) float64 { e.sum += e.weights[p]; return e.sum }

// Prefix implements Prefixer with an O(1)-per-Add running sum.
func (g Additive) Prefix() PrefixEvaluator {
	return &additivePrefix{weights: g.Weights}
}

type unanimityPrefix struct {
	carrier []bool
	need    int
	have    int
}

func (e *unanimityPrefix) Reset() { e.have = 0 }

func (e *unanimityPrefix) Add(p int) float64 {
	if e.carrier[p] {
		e.have++
	}
	if e.have == e.need {
		return 1
	}
	return 0
}

// Prefix implements Prefixer with an O(1)-per-Add carrier-membership count.
func (g Unanimity) Prefix() PrefixEvaluator {
	carrier := make([]bool, g.Players)
	for _, t := range g.Carrier {
		carrier[t] = true
	}
	return &unanimityPrefix{carrier: carrier, need: len(g.Carrier)}
}

type glovePrefix struct {
	side []int8 // 0 = neither, 1 = left, 2 = right
	l, r int
}

func (e *glovePrefix) Reset() { e.l, e.r = 0, 0 }

func (e *glovePrefix) Add(p int) float64 {
	switch e.side[p] {
	case 1:
		e.l++
	case 2:
		e.r++
	}
	if e.l < e.r {
		return float64(e.l)
	}
	return float64(e.r)
}

// Prefix implements Prefixer with O(1)-per-Add glove counts.
func (g Glove) Prefix() PrefixEvaluator {
	side := make([]int8, g.total)
	for _, i := range g.Left {
		side[i] = 1
	}
	for _, i := range g.Right {
		side[i] = 2
	}
	return &glovePrefix{side: side}
}

type airportPrefix struct {
	costs []float64
	max   float64
}

func (e *airportPrefix) Reset() { e.max = 0 }

func (e *airportPrefix) Add(p int) float64 {
	if e.costs[p] > e.max {
		e.max = e.costs[p]
	}
	return e.max
}

// Prefix implements Prefixer with an O(1)-per-Add running maximum.
func (g Airport) Prefix() PrefixEvaluator {
	return &airportPrefix{costs: g.Costs}
}

type votingPrefix struct {
	weights []float64
	quota   float64
	sum     float64
}

func (e *votingPrefix) Reset() { e.sum = 0 }

func (e *votingPrefix) Add(p int) float64 {
	e.sum += e.weights[p]
	if e.sum >= e.quota {
		return 1
	}
	return 0
}

// Prefix implements Prefixer with an O(1)-per-Add running weight.
func (g WeightedVoting) Prefix() PrefixEvaluator {
	return &votingPrefix{weights: g.Weights, quota: g.Quota}
}

type symmetricPrefix struct {
	f    func(size int) float64
	size int
}

func (e *symmetricPrefix) Reset() { e.size = 0 }

func (e *symmetricPrefix) Add(int) float64 {
	e.size++
	return e.f(e.size)
}

// Prefix implements Prefixer with an O(1)-per-Add size count.
func (g Symmetric) Prefix() PrefixEvaluator {
	return &symmetricPrefix{f: g.F}
}

type sumPrefix struct {
	a, b PrefixEvaluator
}

func (e *sumPrefix) Reset() { e.a.Reset(); e.b.Reset() }

func (e *sumPrefix) Add(p int) float64 { return e.a.Add(p) + e.b.Add(p) }

// Prefix implements Prefixer when BOTH addends support it.
func (g Sum) Prefix() PrefixEvaluator {
	a := PrefixEvaluatorOf(g.A)
	if a == nil {
		return nil
	}
	b := PrefixEvaluatorOf(g.B)
	if b == nil {
		return nil
	}
	return &sumPrefix{a: a, b: b}
}

// valuePrefix evaluates prefixes by scratch Value calls over a maintained
// bitset — the universal fallback. It is not handed out by any Prefixer
// (estimators already implement this walk themselves); it exists for
// callers that want a uniform PrefixEvaluator regardless of capability.
type valuePrefix struct {
	g Game
	s bitset.Set
}

func (e *valuePrefix) Reset() { e.s.Clear() }

func (e *valuePrefix) Add(p int) float64 {
	e.s.Add(p)
	return e.g.Value(e.s)
}

// ScratchPrefix returns a PrefixEvaluator that answers every Add with a
// scratch Value call. It is the reference implementation the property tests
// compare capability implementations against.
func ScratchPrefix(g Game) PrefixEvaluator {
	return &valuePrefix{g: g, s: bitset.New(g.N())}
}
