package core

import (
	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// The sequential Monte Carlo references: one goroutine, one walk per
// permutation, marginals folded as they are priced. Engine.MonteCarlo and
// Engine.TruncatedMonteCarlo must match them bit for bit at every worker
// count.

// MonteCarlo approximates Shapley values by permutation sampling
// (Algorithm 1): τ random permutations are scanned head to tail and each
// player is credited its marginal contribution; the estimate is the average.
func MonteCarlo(g game.Game, tau int, r *rng.Source) []float64 {
	n := g.N()
	sv := make([]float64, n)
	if n == 0 || tau <= 0 {
		return sv
	}
	perm := make([]int, n)
	w := newPrefixWalker(g)
	empty := g.Value(bitset.New(n))
	for k := 0; k < tau; k++ {
		r.Perm(perm)
		w.reset()
		prev := empty
		for _, p := range perm {
			cur := w.add(p)
			sv[p] += cur - prev
			prev = cur
		}
	}
	for i := range sv {
		sv[i] /= float64(tau)
	}
	return sv
}

// TruncatedMonteCarlo is Monte Carlo with Ghorbani–Zou truncation: once the
// prefix utility is within tol of the full-coalition utility, the remaining
// players of the permutation are credited zero marginal contribution,
// saving their model trainings. Following the paper's experimental setup
// (§VII-A), truncation is only allowed from position ⌈n/2⌉ onward.
func TruncatedMonteCarlo(g game.Game, tau int, tol float64, r *rng.Source) []float64 {
	n := g.N()
	sv := make([]float64, n)
	if n == 0 || tau <= 0 {
		return sv
	}
	perm := make([]int, n)
	w := newPrefixWalker(g)
	empty := g.Value(bitset.New(n))
	full := g.Value(bitset.Full(n))
	minPos := (n + 1) / 2
	for k := 0; k < tau; k++ {
		r.Perm(perm)
		w.reset()
		prev := empty
		for pos, p := range perm {
			if pos >= minPos && abs(full-prev) < tol {
				break // remaining marginals treated as zero
			}
			cur := w.add(p)
			sv[p] += cur - prev
			prev = cur
		}
	}
	for i := range sv {
		sv[i] /= float64(tau)
	}
	return sv
}
