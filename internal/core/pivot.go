package core

import (
	"errors"
	"fmt"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// PivotState carries the precomputation the pivot-based algorithms maintain
// across additions: the current Shapley estimates, the left-of-pivot partial
// sums LSV, and (optionally) the sampled permutations with their pivot
// insertion slots, which Pivot-s (Algorithm 3) reuses verbatim.
//
// The decomposition (Lemma 1): taking the incoming point as a pivot, every
// permutation of the updated dataset N⁺ places an original point z_i either
// before the pivot — where its marginal contribution is unchanged from the
// original dataset and can be reused — or after it. SV⁺_i = LSV⁺_i + RSV⁺_i,
// where the two terms average marginal contributions over the two groups.
type PivotState struct {
	// SV holds the current Shapley estimates, one per player.
	SV []float64
	// LSV holds the left-group partial averages (LSV⁺ in the paper).
	LSV []float64
	// Tau is the number of permutations that produced SV and LSV.
	Tau int

	// perms/slots are retained only when the state was built with
	// InitOptions.KeepPerms; they enable Pivot-s (Engine.BatchAddSame and
	// Engine.BatchDeleteSame).
	perms [][]int
	slots []int
}

// N returns the number of players currently covered by the state.
func (st *PivotState) N() int { return len(st.SV) }

// Clone returns an independent deep copy of the state, so one
// initialisation can seed several competing update sequences.
func (st *PivotState) Clone() *PivotState {
	c := &PivotState{
		SV:  append([]float64(nil), st.SV...),
		LSV: append([]float64(nil), st.LSV...),
		Tau: st.Tau,
	}
	if st.perms != nil {
		c.perms = make([][]int, len(st.perms))
		for i, p := range st.perms {
			c.perms[i] = append([]int(nil), p...)
		}
		c.slots = append([]int(nil), st.slots...)
	}
	return c
}

// HasPermutations reports whether Pivot-s (Algorithm 3) is available.
func (st *PivotState) HasPermutations() bool { return st.perms != nil }

// ErrNoPermutations is returned by the Pivot-s passes when the state was
// built without InitOptions.KeepPerms (or a previous AddDifferent discarded
// the permutations).
var ErrNoPermutations = errors.New("core: pivot state holds no stored permutations; Pivot-s needs a state initialised with kept permutations")

// AddDifferent runs Algorithm 4 (the pivot-based algorithm with different
// sampled permutations): tau2 fresh permutations of the updated game are
// sampled and only the suffix from the pivot's position onward is
// evaluated; RSV is estimated from these while LSV is inherited from the
// state. Fresh permutations cost no permutation storage and allow
// τ_LSV ≠ τ_RSV — the paper's Table V regime, where a large offline τ_LSV
// drives the overall error below Pivot-s.
//
// AddDifferent invalidates any stored permutations (they no longer match
// the sampled estimates), so a subsequent Pivot-s pass returns
// ErrNoPermutations.
func (st *PivotState) AddDifferent(gPlus game.Game, tau2 int, r *rng.Source) ([]float64, error) {
	n := st.N()
	if gPlus.N() != n+1 {
		return nil, fmt.Errorf("core: AddDifferent game has %d players, want %d", gPlus.N(), n+1)
	}
	if tau2 <= 0 {
		return nil, fmt.Errorf("core: AddDifferent requires tau2 > 0, got %d", tau2)
	}
	pivot := n
	m := n + 1
	rsv := make([]float64, m)
	dlsv := make([]float64, m)
	w := newPrefixWalker(gPlus)
	var uEmpty float64
	if w.incremental() {
		uEmpty = gPlus.Value(bitset.New(m))
	}
	perm := make([]int, m)
	for k := 0; k < tau2; k++ {
		r.Perm(perm)
		t := 0
		for pos, q := range perm {
			if q == pivot {
				t = pos
				break
			}
		}
		p := r.Intn(m + 1)
		w.reset()
		prev := w.advance(perm, t, uEmpty)
		for pos := t; pos < m; pos++ {
			q := perm[pos]
			cur := w.add(q)
			mc := cur - prev
			rsv[q] += mc
			if pos < p {
				dlsv[q] += mc
			}
			prev = cur
		}
	}
	sv := make([]float64, m)
	lsv := make([]float64, m)
	for i := 0; i < m; i++ {
		var l float64
		if i < n {
			l = st.LSV[i]
		}
		sv[i] = l + rsv[i]/float64(tau2)
		lsv[i] = 2.0/3.0*l + dlsv[i]/float64(tau2)
	}
	st.SV = sv
	st.LSV = lsv
	st.Tau = tau2
	st.perms = nil
	st.slots = nil
	return append([]float64(nil), sv...), nil
}
