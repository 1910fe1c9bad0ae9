package core

import (
	"fmt"

	"dynshap/internal/game"
)

// The Banzhaf value is the other classical semivalue: instead of averaging
// a player's marginal contribution over permutations (sizes weighted like
// Shapley), it averages over all 2^{n−1} coalitions of the other players
// with EQUAL weight. Data-valuation practice sometimes prefers it because
// its per-coalition weight is size-independent, making variance analysis
// elementary. It forgoes the balance axiom (values don't sum to
// U(N) − U(∅)), which is why Shapley remains the compensation rule.
//
// Both estimators are heads of the semivalue layer: exact enumeration
// folds the utility table with the Banzhaf subset weight 2^{1−n}
// (a power of two, so the fold is bit-identical to the historic
// divide-by-2^{n−1} loop), and the Monte Carlo estimator is
// Engine.MonteCarlo with a Banzhaf head (WithSemivalues): the walks are
// re-weighted with the Banzhaf position coefficients
// ω(pos) = n·C(n−1,pos)/2^{n−1} — the same walks that price Shapley, so a
// multi-head pass gets Banzhaf for free.

// ExactBanzhaf returns exact Banzhaf values by complete enumeration
// (n ≤ MaxExactPlayers).
func ExactBanzhaf(g game.Game) []float64 {
	n := g.N()
	if n > MaxExactPlayers {
		panic(fmt.Sprintf("core: ExactBanzhaf limited to %d players, got %d", MaxExactPlayers, n))
	}
	if n == 0 {
		return nil
	}
	return ExactSemivalue(g, semivalueBanzhaf)
}
