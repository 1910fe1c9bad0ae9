package exact_test

import (
	"math"
	"testing"

	"dynshap/internal/core"
	"dynshap/internal/dataset"
	"dynshap/internal/exact"
	"dynshap/internal/rng"
)

// labelsOf flattens a dataset's labels for the estimator's constructors.
func labelsOf(d *dataset.Dataset) []int {
	ys := make([]int, d.Len())
	for i, p := range d.Points {
		ys[i] = p.Y
	}
	return ys
}

// build constructs an estimator from scratch over the given sets.
func build(train, test *dataset.Dataset, k, workers int) (*exact.Estimator, *dataset.DistanceKernel) {
	kernel := dataset.NewDistanceKernel(test, train, workers)
	return exact.New(kernel, labelsOf(train), labelsOf(test), k, workers), kernel
}

// TestEstimatorMatchesClosedForm checks the maintained recurrence against
// the independent backward-recurrence implementation (core.KNNShapley) —
// different summation order, so agreement is to tolerance, not bits.
func TestEstimatorMatchesClosedForm(t *testing.T) {
	for _, k := range []int{1, 3, 5, 11} {
		pool := dataset.TwoGaussians(rng.New(42), 160, 6, 3)
		pool.Standardize()
		train, test := pool.Split(120.0 / 160)
		e, _ := build(train, test, k, 0)
		got := e.Values()
		want, err := core.KNNShapley(train, test, k)
		if err != nil {
			t.Fatalf("k=%d: oracle: %v", k, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("k=%d: sv[%d] = %g, oracle %g (diff %g)", k, i, got[i], want[i], got[i]-want[i])
			}
		}
	}
}

// TestDynamicEqualsRebuild drives the estimator through a long random
// add/delete sequence and demands EXACT (bitwise) equality with a
// from-scratch build after every step — the suffix-reuse invariant the
// package documents. The pool contains duplicated points, so distance ties
// are exercised, not just measure-zero-lucky.
func TestDynamicEqualsRebuild(t *testing.T) {
	r := rng.New(7)
	pool := dataset.TwoGaussians(r, 120, 4, 2.5)
	// Duplicate a slice of the pool to force exact distance ties.
	dup := make([]dataset.Point, 0, 30)
	for i := 0; i < 30; i++ {
		dup = append(dup, pool.Points[i].Clone())
	}
	pool = dataset.New(append(pool.Points, dup...))
	pool.Classes = 2
	train, test := pool.Split(90.0 / 150)

	const k = 5
	e, kernel := build(train, test, k, 0)
	cur := train.Clone()
	next := 0 // rotates through test points as an add source

	for step := 0; step < 120; step++ {
		if cur.Len() > 5 && r.Float64() < 0.45 {
			// Delete 1–3 random points.
			cnt := 1 + r.Intn(3)
			if cnt >= cur.Len() {
				cnt = 1
			}
			seen := map[int]bool{}
			idxs := make([]int, 0, cnt)
			for len(idxs) < cnt {
				i := r.Intn(cur.Len())
				if !seen[i] {
					seen[i] = true
					idxs = append(idxs, i)
				}
			}
			phys := make([]int32, len(idxs))
			for t, idx := range idxs {
				phys[t] = kernel.Phys(idx)
			}
			kernel = kernel.Remove(idxs...)
			cur = cur.Remove(idxs...)
			e.Delete(phys, kernel)
		} else {
			// Add 1–2 points, sometimes duplicating an existing one (ties).
			cnt := 1 + r.Intn(2)
			pts := make([]dataset.Point, 0, cnt)
			for t := 0; t < cnt; t++ {
				if cur.Len() > 0 && r.Float64() < 0.3 {
					pts = append(pts, cur.Points[r.Intn(cur.Len())].Clone())
				} else {
					pts = append(pts, test.Points[next%test.Len()].Clone())
					next++
				}
			}
			first := cur.Len()
			kernel = kernel.Append(pts...)
			cur = cur.Append(pts...)
			ys := make([]int, len(pts))
			for t, p := range pts {
				ys[t] = p.Y
			}
			e.Add(kernel, first, ys)
		}

		got := e.Values()
		fresh, _ := build(cur, test, k, 0)
		want := fresh.Values()
		if len(got) != len(want) {
			t.Fatalf("step %d: maintained %d values, rebuild %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d (n=%d): sv[%d] maintained %v != rebuilt %v — dynamic path diverged",
					step, cur.Len(), i, got[i], want[i])
			}
		}
	}
}

// TestDynamicEqualsRebuildAcrossCompaction drives the estimator across an
// Append that compacts the kernel — deletions, then more points than the
// buffer has spare columns — with exact distance ties between points of
// different labels, so a slip in the renumbered ids or in their tie order
// changes values. The maintained values must equal a rebuild bit for bit
// after every step, at one worker and at several, and deletions after the
// compaction name points by their new ids.
func TestDynamicEqualsRebuildAcrossCompaction(t *testing.T) {
	pool := dataset.TwoGaussians(rng.New(19), 130, 4, 2.5)
	train, test := pool.Split(60.0 / 130) // m = 70 runs the columns in parallel
	const k = 3
	// twin returns p's features under the other label: a distance tie
	// whose order decides values.
	twin := func(p dataset.Point) dataset.Point {
		q := p.Clone()
		q.Y = 1 - q.Y
		return q
	}
	for _, workers := range []int{1, 3} {
		e, kernel := build(train, test, k, workers) // 60 + 15 + 4 = 79 columns
		cur := train.Clone()
		check := func(step string) {
			t.Helper()
			fresh, _ := build(cur, test, k, workers)
			got, want := e.Values(), fresh.Values()
			if len(got) != len(want) {
				t.Fatalf("workers=%d %s: maintained %d values, rebuild %d", workers, step, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d %s: sv[%d] maintained %v != rebuilt %v", workers, step, i, got[i], want[i])
				}
			}
		}
		remove := func(idxs ...int) {
			t.Helper()
			phys := make([]int32, len(idxs))
			for i, idx := range idxs {
				phys[i] = kernel.Phys(idx)
			}
			kernel = kernel.Remove(idxs...)
			cur = cur.Remove(idxs...)
			e.Delete(phys, kernel)
			check("remove")
		}
		add := func(pts ...dataset.Point) (renumbered bool) {
			t.Helper()
			prev, first := kernel, cur.Len()
			kernel = kernel.Append(pts...)
			cur = cur.Append(pts...)
			e.Add(kernel, first, labelsOf(dataset.New(pts)))
			check("add")
			return kernel.Renumbered(prev)
		}

		remove(0, 7, 8, 30, 59)
		var fill []dataset.Point
		for i := 0; i < 10; i++ {
			fill = append(fill, twin(cur.Points[i]))
		}
		for i := 0; i < 9; i++ {
			fill = append(fill, test.Points[i].Clone())
		}
		if add(fill...) {
			t.Fatalf("workers=%d: 19 points into 19 spare columns renumbered", workers)
		}
		remove(3, 40)
		if !add(twin(cur.Points[5]), twin(cur.Points[60]), cur.Points[6].Clone()) {
			t.Fatalf("workers=%d: the Append past capacity did not compact", workers)
		}
		if kernel.PhysExtent() != cur.Len() {
			t.Fatalf("workers=%d: PhysExtent %d after compaction, want the %d live columns", workers, kernel.PhysExtent(), cur.Len())
		}
		remove(1, cur.Len()-1, 20)
		if add(twin(cur.Points[2]), twin(cur.Points[cur.Len()-1])) {
			t.Fatalf("workers=%d: an Append into the compacted buffer's spare columns renumbered", workers)
		}
	}
}

// TestWorkerInvariance checks the bit-identity contract across worker
// counts, for the initial build and after maintenance.
func TestWorkerInvariance(t *testing.T) {
	pool := dataset.TwoGaussians(rng.New(11), 260, 8, 3)
	pool.Standardize()
	train, test := pool.Split(180.0 / 260) // m=80 ≥ the parallel threshold
	adds := make([]dataset.Point, 4)
	for i := range adds {
		adds[i] = test.Points[i].Clone()
	}

	var ref []float64
	for _, workers := range []int{1, 2, 3, 7} {
		e, kernel := build(train, test, 5, workers)
		kernel = kernel.Append(adds...)
		ys := make([]int, len(adds))
		for i, p := range adds {
			ys[i] = p.Y
		}
		e.Add(kernel, train.Len(), ys)
		kernel = kernel.Remove(0, 3)
		e.Delete([]int32{0, 3}, kernel)
		got := e.Values()
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: sv[%d] = %v, workers=1 got %v — parallelism changed bits", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestCloneIsolation verifies a mutated clone never disturbs its origin —
// the property the session's failure-atomicity relies on.
func TestCloneIsolation(t *testing.T) {
	pool := dataset.TwoGaussians(rng.New(3), 80, 4, 3)
	train, test := pool.Split(60.0 / 80)
	e, kernel := build(train, test, 5, 0)
	before := e.Values()

	c := e.Clone()
	k2 := kernel.Append(test.Points[0].Clone())
	c.Add(k2, train.Len(), []int{test.Points[0].Y})
	k3 := k2.Remove(1)
	c.Delete([]int32{kernel.Phys(1)}, k3)

	after := e.Values()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("sv[%d] changed from %v to %v after mutating a clone", i, before[i], after[i])
		}
	}
}

// TestEdgeShapes exercises the degenerate shapes: k larger than n, a
// single point, and an empty test set.
func TestEdgeShapes(t *testing.T) {
	pool := dataset.TwoGaussians(rng.New(5), 40, 3, 3)
	train, test := pool.Split(6.0 / 40)

	// k > n: the closed form still holds.
	e, _ := build(train, test, 50, 0)
	got := e.Values()
	want, err := core.KNNShapley(train, test, 50)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("k>n: sv[%d] = %g, oracle %g", i, got[i], want[i])
		}
	}

	// Single training point: its value is the full soft utility of {it}.
	one := dataset.New([]dataset.Point{train.Points[0].Clone()})
	one.Classes = train.Classes
	e1, _ := build(one, test, 5, 0)
	v := e1.Values()
	if len(v) != 1 {
		t.Fatalf("n=1: got %d values", len(v))
	}

	// Empty test set: all values zero, no panics.
	empty := dataset.New(nil)
	e0, _ := build(train, empty, 5, 0)
	for i, x := range e0.Values() {
		if x != 0 {
			t.Fatalf("m=0: sv[%d] = %v, want 0", i, x)
		}
	}

	// Deleting down to zero and adding back up must not panic.
	small := dataset.New([]dataset.Point{train.Points[0].Clone(), train.Points[1].Clone()})
	small.Classes = train.Classes
	es, ks := build(small, test, 5, 0)
	phys := []int32{ks.Phys(0), ks.Phys(1)}
	ks2 := ks.Remove(0, 1)
	es.Delete(phys, ks2)
	if n := len(es.Values()); n != 0 {
		t.Fatalf("deleted all: %d values", n)
	}
	ks3 := ks2.Append(train.Points[2].Clone())
	es.Add(ks3, 0, []int{train.Points[2].Y})
	if n := len(es.Values()); n != 1 {
		t.Fatalf("re-added one: %d values", n)
	}
}
