package exact

import (
	"testing"

	"dynshap/internal/dataset"
	"dynshap/internal/rng"
)

// TestReduceSumsInTestOrder pins the reduction's summation order: each
// value is the sum, in ascending test index, of the point's per-test
// contributions s1[j] − t_j[rank], times 1/m — before and after updates
// leave tombstoned physical columns behind.
func TestReduceSumsInTestOrder(t *testing.T) {
	pool := dataset.TwoGaussians(rng.New(5), 140, 5, 2)
	train, test := pool.Split(100.0 / 140)
	labels := func(d *dataset.Dataset) []int {
		ys := make([]int, d.Len())
		for i, p := range d.Points {
			ys[i] = p.Y
		}
		return ys
	}
	kernel := dataset.NewDistanceKernel(test, train, 0)
	e := New(kernel, labels(train), labels(test), 3, 0)
	check := func(stage string) {
		t.Helper()
		got := e.Values()
		inv := 1 / float64(e.m)
		for i := range got {
			p := e.kernel.Phys(i)
			acc := 0.0
			for j, ord := range e.orders {
				r := 0
				for ord[r] != p {
					r++
				}
				acc += e.s1[j] - e.tvals[j][r]
			}
			if want := acc * inv; got[i] != want {
				t.Fatalf("%s: sv[%d] = %v, want %v summed in test order", stage, i, got[i], want)
			}
		}
	}
	check("built")
	removed := []int32{kernel.Phys(3), kernel.Phys(40), kernel.Phys(77)}
	kernel = kernel.Remove(3, 40, 77)
	e.Delete(removed, kernel)
	check("after a delete")
	first := kernel.Cols()
	kernel = kernel.Append(test.Points[0].Clone(), train.Points[9].Clone())
	e.Add(kernel, first, []int{test.Points[0].Y, train.Points[9].Y})
	check("after an add")
}
