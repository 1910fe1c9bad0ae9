package core

import (
	"dynshap/internal/bitset"
	"dynshap/internal/game"
)

// prefixWalker drives the permutation walks shared by every sampler: it
// evaluates utilities of growing coalition prefixes through the game's
// incremental evaluator when the game offers one (game.Prefixer), and
// through scratch Value calls on a maintained bitset otherwise — the exact
// code path the samplers used before the capability existed. Deterministic
// games return bit-identical utilities on both paths (the PrefixEvaluator
// contract), and the walker consumes no randomness, so an estimator's
// output is the same to the last bit whichever path serves it.
//
// A walker is single-goroutine state; parallel samplers build one per
// worker (game.Prefixer.Prefix is safe for concurrent calls).
type prefixWalker struct {
	g      game.Game
	ev     game.PrefixEvaluator // nil → scratch fallback
	prefix bitset.Set
}

func newPrefixWalker(g game.Game) *prefixWalker {
	return &prefixWalker{g: g, ev: game.PrefixEvaluatorOf(g), prefix: bitset.New(g.N())}
}

// reset empties the prefix.
func (w *prefixWalker) reset() {
	if w.ev != nil {
		w.ev.Reset()
		return
	}
	w.prefix.Clear()
}

// add inserts player p into the prefix and returns U(prefix ∪ {p}).
func (w *prefixWalker) add(p int) float64 {
	if w.ev != nil {
		return w.ev.Add(p)
	}
	w.prefix.Add(p)
	return w.g.Value(w.prefix)
}

// seed inserts player p whose utility the caller already knows (known),
// returning U(prefix ∪ {p}). The fallback path skips the redundant Value
// call — preserving the historic evaluation counts of the delta
// algorithms, which reuse U({pivot}) across permutations — while the
// incremental path must still feed the evaluator, whose Add returns the
// same value bit-identically.
func (w *prefixWalker) seed(p int, known float64) float64 {
	if w.ev != nil {
		return w.ev.Add(p)
	}
	w.prefix.Add(p)
	return known
}

// advance inserts perm[:t] and returns U(perm[:t]); uEmpty supplies U(∅)
// for the t = 0 case on the incremental path. The fallback path batches
// the prefix into ONE Value call — the pivot algorithms' historic
// behaviour, where with a warmed cache that single pre-pivot lookup is the
// "reuse half the computation" claim — so it ignores uEmpty and evaluates
// even the empty prefix, exactly as before.
func (w *prefixWalker) advance(perm []int, t int, uEmpty float64) float64 {
	if w.ev != nil {
		prev := uEmpty
		for _, q := range perm[:t] {
			prev = w.ev.Add(q)
		}
		return prev
	}
	for _, q := range perm[:t] {
		w.prefix.Add(q)
	}
	return w.g.Value(w.prefix)
}
