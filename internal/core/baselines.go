package core

import (
	"dynshap/internal/bitset"
	"dynshap/internal/game"
)

// LeaveOneOut returns each player's leave-one-out score
//
//	LOO_i = U(N) − U(N∖{i}),
//
// the classical cheap alternative the paper's introduction compares Shapley
// value against (data points selected by SV train substantially better
// models than LOO-selected ones — Ghorbani & Zou). It costs n+1 utility
// evaluations.
func LeaveOneOut(g game.Game) []float64 {
	n := g.N()
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	full := g.Value(bitset.Full(n))
	s := bitset.Full(n)
	for i := 0; i < n; i++ {
		s.Remove(i)
		out[i] = full - g.Value(s)
		s.Add(i)
	}
	return out
}
