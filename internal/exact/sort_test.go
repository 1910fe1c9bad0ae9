package exact

import (
	"math"
	"sort"
	"testing"

	"dynshap/internal/rng"
)

// TestSortKeysIsStableSortByDistance checks sortKeys against a stable sort
// by distance on columns shaped to reach each path: spread distances (the
// bucket sort), heavy ties and a far outlier over a bunched column (the
// radix fallback), one repeated distance, subnormal and zero distances,
// an infinite distance, and short columns (insertion sort).
func TestSortKeysIsStableSortByDistance(t *testing.T) {
	r := rng.New(31)
	shapes := []func(i int) float64{
		func(int) float64 { return 10 * r.Float64() },
		func(int) float64 { return math.Abs(r.NormFloat64()) + 2 },
		func(int) float64 { return float64(r.Intn(4)) },
		func(i int) float64 {
			if i == 0 {
				return 1e6
			}
			return 3 + 1e-3*r.Float64()
		},
		func(int) float64 { return 7 },
		func(int) float64 { return math.SmallestNonzeroFloat64 * float64(r.Intn(6)) },
		func(i int) float64 {
			if i == 1 {
				return math.Inf(1)
			}
			return r.Float64()
		},
	}
	var bucketed, declined int
	for trial := 0; trial < 700; trial++ {
		shape := shapes[trial%len(shapes)]
		n := 1 + r.Intn(400)
		sc := newSortScratch(n)
		input := make([]rankKey, n)
		for i := range input {
			input[i] = rankKey{bits: math.Float64bits(shape(i)), idx: int32(i)}
		}
		want := append([]rankKey(nil), input...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].bits < want[b].bits })

		copy(sc.keys, input)
		got := sortKeys(sc, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d): rank %d holds %+v, want %+v", trial, n, i, got[i], want[i])
			}
		}
		if n > 32 {
			copy(sc.keys, input)
			if _, ok := bucketSort(sc, n); ok {
				bucketed++
			} else {
				declined++
			}
		}
	}
	if bucketed == 0 || declined == 0 {
		t.Fatalf("bucket sort took %d columns and declined %d; both paths must run", bucketed, declined)
	}
}
