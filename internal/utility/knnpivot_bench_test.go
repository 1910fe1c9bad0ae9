package utility

import (
	"slices"
	"testing"

	"dynshap/internal/dataset"
	"dynshap/internal/ml"
	"dynshap/internal/rng"
)

// The window kernel's three routes at the knn benchmark workloads' shape:
// IrisLike with n = 200 base training points plus 16 arrivals, m = 50 test
// points, K = 3 hard vote, and 16 pivots where the route has any. Each
// iteration walks one of a fixed set of permutations, so ns/op is the
// cost of one permutation: the zero-pivot Walk every full-walk pass makes
// (initialisation, the deletion fills, the batched delete), the 16-pivot
// Walk of a Delta-batch window, and the 16-pivot WalkNested of a
// Pivot-s-batch add window.

const (
	benchN      = 200
	benchArrive = 16
	benchM      = 50
	benchPerms  = 64
)

func benchWalkUtility() *ModelUtility {
	d := dataset.IrisLike(rng.New(1), benchN+benchArrive+benchM)
	train, test := d.Split(float64(benchN+benchArrive) / float64(benchN+benchArrive+benchM))
	return NewModelUtility(train, test, ml.KNN{K: 3})
}

func benchPivots(np int) []int {
	pivots := make([]int, np)
	for j := range pivots {
		pivots[j] = benchN + j
	}
	return pivots
}

func benchmarkWalk(b *testing.B, np int) {
	ev := benchWalkUtility().PivotPrefix(benchPivots(np))
	rnd := rng.New(7)
	perms := make([][]int, benchPerms)
	for i := range perms {
		perms[i] = rnd.PermN(benchN)
	}
	row := make([]float64, benchN*(np+1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Walk(perms[i%benchPerms], row)
	}
}

func BenchmarkKNNWalkN200P0(b *testing.B)  { benchmarkWalk(b, 0) }
func BenchmarkKNNWalkN200P16(b *testing.B) { benchmarkWalk(b, benchArrive) }

// BenchmarkKNNWalkNestedN200P16 threads each permutation through the 16
// arrivals as the batched Pivot-s walk does: pivot j goes in at a uniform
// slot of chain j−1.
func BenchmarkKNNWalkNestedN200P16(b *testing.B) {
	pivots := benchPivots(benchArrive)
	ev := benchWalkUtility().PivotPrefix(pivots)
	rnd := rng.New(7)
	finals := make([][]int, benchPerms)
	starts := make([][]int, benchPerms)
	for i := range finals {
		final := rnd.PermN(benchN)
		for _, v := range pivots {
			slot := rnd.Intn(len(final) + 1)
			final = slices.Insert(final, slot, v)
			starts[i] = append(starts[i], slot)
		}
		finals[i] = final
	}
	row := make([]float64, benchArrive*(benchN+benchArrive+1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.WalkNested(finals[i%benchPerms], starts[i%benchPerms], row)
	}
}
