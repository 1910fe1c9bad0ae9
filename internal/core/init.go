package core

import "dynshap/internal/semivalue"

// InitOptions selects which dynamic-update structures a combined
// initialisation pass should build alongside the Shapley estimates.
type InitOptions struct {
	// KeepPerms retains sampled permutations in the pivot state, enabling
	// Pivot-s (Algorithm 3) later. Costs O(τ·n) memory.
	KeepPerms bool
	// TrackDeletions fills the YN-NN store (Algorithm 6). Costs O(n³) memory
	// and O(n²) extra additions per permutation.
	TrackDeletions bool
	// MultiDelete, when ≥1, additionally fills a YNN-NNN store for deleting
	// exactly MultiDelete of the Candidates at once.
	MultiDelete int
	// Candidates restricts the multi-deletion store; required when
	// MultiDelete ≥ 1.
	Candidates []int
	// Store selects the storage backend for the deletion stores. The zero
	// value is the exact dense float64 default.
	Store StoreConfig
	// Heads lists extra semivalue weightings to price from the same pass
	// (see HeadValues). Heads consume no randomness, so the Shapley output
	// is bit-identical with or without them.
	Heads []semivalue.Weighting
}

// InitResult bundles the structures produced by Initialize. Pivot is always
// present; Deletion and Multi are nil unless requested.
type InitResult struct {
	Pivot    *PivotState
	Deletion *DeletionStore
	Multi    *MultiDeletionStore
	// HeadValues holds one estimate slice per requested head, in the order
	// of InitOptions.Heads; nil when no heads were requested.
	HeadValues [][]float64
}

// SV returns the Shapley estimates of the initialisation pass.
func (res *InitResult) SV() []float64 {
	return append([]float64(nil), res.Pivot.SV...)
}
