package core

import "fmt"

// This file attaches cost hints to the dynamic-update artifacts. The
// planner (internal/plan) compares them to pick the cheapest valid update
// path for a session; they are estimates of *work shape*, not wall-clock
// predictions — the point is that a YN-NN merge costs zero utility
// evaluations while a delta pass costs O(τ·n) of them, a gap of many
// orders of magnitude whenever a utility evaluation trains a model.

// Cost predicts what an update path spends, split into the two currencies
// that matter for valuation workloads.
type Cost struct {
	// Evaluations is the number of coalition-utility evaluations the path
	// performs. Each one trains a model unless the coalition cache or an
	// incremental prefix evaluator absorbs it, so this is the dominant
	// term for ML utilities.
	Evaluations int64
	// ArrayOps is the auxiliary floating-point work (array reads/writes,
	// merge recurrences) — cheap per unit, but the only cost of the exact
	// merge paths.
	ArrayOps int64
}

// Plus returns the component-wise sum of two costs.
func (c Cost) Plus(o Cost) Cost {
	return Cost{Evaluations: c.Evaluations + o.Evaluations, ArrayOps: c.ArrayOps + o.ArrayOps}
}

// Times returns the cost scaled by k (a per-point cost applied k times).
func (c Cost) Times(k int) Cost {
	return Cost{Evaluations: c.Evaluations * int64(k), ArrayOps: c.ArrayOps * int64(k)}
}

// String renders the cost for planner traces.
func (c Cost) String() string {
	return fmt.Sprintf("%d evals + %d array ops", c.Evaluations, c.ArrayOps)
}

// MergeCost is the cost of recovering post-deletion values from the YN-NN
// arrays: no utility evaluations at all, one O(n²) coefficient sweep.
func (ds *DeletionStore) MergeCost() Cost {
	n := int64(ds.n)
	return Cost{ArrayOps: n * (n + 1)}
}

// MergeCost is the cost of a YNN-NNN merge: zero evaluations, one
// O(n·(n−d+1)) sweep over the tuple's arrays.
func (ms *MultiDeletionStore) MergeCost() Cost {
	n, d := int64(ms.n), int64(ms.d)
	return Cost{ArrayOps: n * (n - d + 1)}
}

// Covers reports whether the store can merge out exactly the given points
// — len(points) must equal the prepared d and the set must be one of the
// candidate d-subsets. It is the planner's validity probe; Merge repeats
// the check and returns an error.
func (ms *MultiDeletionStore) Covers(points ...int) bool {
	if len(points) != ms.d {
		return false
	}
	sorted := append([]int(nil), points...)
	insertionSortInts(sorted)
	return ms.tupleIndex(sorted) >= 0
}

// insertionSortInts sorts tiny index tuples without pulling package sort
// into the hot planner path (d is single digits in every realistic store).
func insertionSortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for k := i; k > 0 && xs[k] < xs[k-1]; k-- {
			xs[k], xs[k-1] = xs[k-1], xs[k]
		}
	}
}

// AddSameCost is the per-point cost of Pivot-s (Algorithm 3): each stored
// permutation re-evaluates only the suffix from the pivot slot, half the
// walk in expectation.
func (st *PivotState) AddSameCost() Cost {
	n := int64(st.N())
	return Cost{Evaluations: int64(st.Tau) * (n + 2) / 2}
}

// PivotAddDifferentCost is the per-point cost of Pivot-d (Algorithm 4)
// with tau fresh permutations over an n-player original set.
func PivotAddDifferentCost(n, tau int) Cost {
	return Cost{Evaluations: int64(tau) * (int64(n) + 2) / 2}
}

// DeltaAddCost is the per-point cost of the delta addition (Algorithm 5):
// two interleaved prefix walks of the (n+1)-player game per permutation.
func DeltaAddCost(n, tau int) Cost {
	return Cost{Evaluations: 2 * int64(tau) * int64(n+1)}
}

// BatchDeltaAddCost is the cost of the batched delta addition of k points
// (BatchDeltaAdd): per permutation, ONE shared no-pivot chain of n prefix
// evaluations plus k with-chains of n+1 each — versus the sequential
// loop's k·2·(n+1) (DeltaAddCost times k). The ratio approaches 2× as k
// grows before any parallelism.
func BatchDeltaAddCost(n, k, tau int) Cost {
	return Cost{Evaluations: int64(tau) * (int64(n) + int64(k)*int64(n+1))}
}

// AddSameBatchCost is the cost of the batched Pivot-s walk over k pending
// points (BatchAddSame) as the chained walk pays it: the j-th point's
// suffix walk covers half of an (n+j+1)-permutation in expectation, same
// per-point shape as AddSameCost. The k-NN utilities' nested walk prices
// all k chains from about one base chain per stored permutation, which
// this does not model; calibrating the planner's costs against measured
// times is an open ROADMAP item.
func (st *PivotState) AddSameBatchCost(k int) Cost {
	n := int64(st.N())
	var evals int64
	for j := int64(0); j < int64(k); j++ {
		evals += int64(st.Tau) * (n + j + 2) / 2
	}
	return Cost{Evaluations: evals}
}

// DeltaDeleteCost is the per-point cost of the delta deletion
// (Algorithm 8): two interleaved walks over the n−1 survivors.
func DeltaDeleteCost(n, tau int) Cost {
	if n < 1 {
		n = 1
	}
	return Cost{Evaluations: 2 * int64(tau) * int64(n-1)}
}

// BatchDeltaDeleteCost is the cost of the batched delta deletion of k
// points (BatchDeltaDelete): per permutation, ONE shared common-survivor
// chain of n−k prefix evaluations plus k with-chains of n−k+1 each —
// versus the sequential loop's k·2·(n−1) (DeltaDeleteCost times k). The
// ratio approaches 2× as k grows before any parallelism.
func BatchDeltaDeleteCost(n, k, tau int) Cost {
	c := n - k
	if c < 0 {
		c = 0
	}
	return Cost{Evaluations: int64(tau) * (int64(c) + int64(k)*int64(c+1))}
}

// DeleteSameBatchCost is the cost of the batched pivot deletion of k
// points (BatchDeleteSame): the permutations evolve through all k
// removals for free (integer bookkeeping) and pay ONE full walk of the
// final (n−k)-length permutations — versus k single-point deletions'
// Σ_j τ·(n−j−1), a genuine ~k× evaluation saving. The artifact it
// preserves (stored permutations through the removal) is the other half
// of its value: the next addition can still run Pivot-s.
func (st *PivotState) DeleteSameBatchCost(k int) Cost {
	c := int64(st.N()) - int64(k)
	if c < 0 {
		c = 0
	}
	return Cost{Evaluations: int64(st.Tau) * c}
}

// MonteCarloCost is the cost of recomputing from scratch over n players
// with tau permutations (Algorithm 1).
func MonteCarloCost(n, tau int) Cost {
	return Cost{Evaluations: int64(tau) * int64(n)}
}

// StratifiedMCCost is MonteCarloCost under stratified-truncated sampling
// (WithTruncation): each walk evaluates only its first min(t, n) prefixes,
// and an initialisation pass that also fills the YN-NN arrays pays
// O(t·(2n−t)) array updates per walk instead of O(n²). t ≤ 0 means no
// truncation.
func StratifiedMCCost(n, t, tau int) Cost {
	walk := int64(n)
	if t > 0 && t < n {
		walk = int64(t)
	}
	return Cost{
		Evaluations: int64(tau) * walk,
		ArrayOps:    int64(tau) * walk * (2*int64(n) - walk + 1),
	}
}

// HeadFillCost is the bookkeeping a sampled pass pays to price `heads`
// extra semivalue weightings from its walks: one weighted fold per head
// per walked position, zero additional utility evaluations. It is why the
// multi-head pass is nearly free next to any path that re-evaluates
// coalitions — the currency that matters never moves.
func HeadFillCost(heads, n, tau int) Cost {
	if heads <= 0 {
		return Cost{}
	}
	return Cost{ArrayOps: int64(heads) * int64(tau) * int64(n)}
}

// ExactKNNCost is the cost of maintaining exact closed-form k-NN Shapley
// values (Jia et al.) through an update touching count points of an
// n-point set valued against m test points: per test column, a binary
// search per point plus the affected rank suffix of the recurrence
// (bounded by n+count), then the O(m·(n+count)) deterministic value
// reduction. ZERO utility evaluations — like the YN-NN merge, only array
// work — which is why the planner routes every update of an exact-capable
// session here.
func ExactKNNCost(n, m, count int) Cost {
	after := int64(n + count)
	lg := int64(1)
	for v := after; v > 1; v >>= 1 {
		lg++
	}
	return Cost{ArrayOps: int64(m) * (int64(count)*lg + 2*after)}
}
