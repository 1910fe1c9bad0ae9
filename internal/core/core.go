// Package core implements the paper's contribution: Shapley value
// computation and its dynamic maintenance under data additions and
// deletions.
//
// The static estimators are exact enumeration (small n), Monte Carlo
// permutation sampling (Algorithm 1 of the paper) and Truncated Monte Carlo
// (Ghorbani & Zou). The dynamic algorithms are:
//
//   - addition: the pivot-based algorithms with same/different sampled
//     permutations (Algorithms 2–4) and the delta-based algorithm
//     (Algorithm 5);
//   - deletion: the YN-NN algorithm (Algorithms 6–7), its multi-delete
//     generalisation YNN-NNN (Lemma 4) and the delta-based deletion
//     algorithm (Algorithm 8);
//   - heuristics: KNN (Algorithm 9) and KNN+ (Algorithm 10).
//
// All estimators take an explicit *rng.Source and are deterministic given
// the seed. Player indexing follows the game: players are 0-based; in
// addition scenarios the new point is player n of the (n+1)-player game.
package core

import (
	"dynshap/internal/game"
	"dynshap/internal/semivalue"
)

// MaxExactPlayers bounds the exact enumerator: it tabulates all 2^n
// coalition utilities, so memory is 8·2^n bytes.
const MaxExactPlayers = 24

// Exact returns the exact Shapley values of every player by complete
// enumeration of the 2^n coalitions. It panics if g has more than
// MaxExactPlayers players. It is the Shapley head of the generalised
// enumerator: the Shapley subset weights are built by the same recurrence
// (w[0] = 1/n, w[s] = w[s−1]·s/(n−s)) and folded with the same
// weight·marginal expression this function used before the semivalue
// layer, so the delegation is bit-identical.
func Exact(g game.Game) []float64 {
	if g.N() == 0 {
		return nil
	}
	return ExactSemivalue(g, semivalue.Shapley())
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

// BaseAdd is the paper's "Base" baseline for additions: original players
// keep their precomputed values and every added player receives the average
// of the original values.
func BaseAdd(oldSV []float64, added int) []float64 {
	n := len(oldSV)
	out := make([]float64, n+added)
	copy(out, oldSV)
	avg := 0.0
	if n > 0 {
		for _, v := range oldSV {
			avg += v
		}
		avg /= float64(n)
	}
	for i := 0; i < added; i++ {
		out[n+i] = avg
	}
	return out
}
