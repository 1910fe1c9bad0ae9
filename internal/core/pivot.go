package core

import "errors"

// PivotState carries the precomputation the pivot-based algorithms maintain
// across additions: the current Shapley estimates, the left-of-pivot partial
// sums LSV, and (optionally) the sampled permutations with their pivot
// insertion slots, which Pivot-s (Algorithm 3, Engine.BatchAddSame)
// reuses verbatim. Pivot-d (Algorithm 4, Engine.AddDifferent) draws fresh
// permutations instead and drops the stored ones.
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
	// Engine.BatchDeleteSame). There are Tau of each: a permutation of the
	// N players and its pivot slot in [0, N]. The ids are int32, half the
	// bytes of int in the largest thing the state keeps (τ·N ids); the
	// passes widen them into the pipeline's []int slots as they draw.
	perms [][]int32
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
		c.perms = make([][]int32, len(st.perms))
		for i, p := range st.perms {
			c.perms[i] = append([]int32(nil), p...)
		}
		c.slots = append([]int(nil), st.slots...)
	}
	return c
}

// HasPermutations reports whether Pivot-s (Algorithm 3) is available.
func (st *PivotState) HasPermutations() bool { return st.perms != nil }

// ErrNoPermutations is returned by the Pivot-s passes when the state was
// built without InitOptions.KeepPerms (or a previous Engine.AddDifferent
// discarded the permutations).
var ErrNoPermutations = errors.New("core: pivot state holds no stored permutations; Pivot-s needs a state initialised with kept permutations")

// storePerm narrows perm into dst as a stored permutation, reusing dst's
// storage when it fits.
func storePerm(dst []int32, perm []int) []int32 {
	dst = reuse(dst, len(perm))
	for i, q := range perm {
		dst[i] = int32(q)
	}
	return dst
}

// loadPerm widens stored permutation perm into dst[:len(perm)].
func loadPerm(dst []int, perm []int32) {
	dst = dst[:len(perm)]
	for i, q := range perm {
		dst[i] = int(q)
	}
}
