package utility

import (
	"testing"

	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/ml"
	"dynshap/internal/rng"
)

// gridData draws count points on a coarse 2-D grid, so many points share
// a position and their distances to every test point tie exactly.
func gridData(rnd *rng.Source, count int) *dataset.Dataset {
	pts := make([]dataset.Point, count)
	for i := range pts {
		pts[i] = dataset.Point{X: []float64{float64(rnd.Intn(3)) / 2, float64(rnd.Intn(3)) / 2}, Y: rnd.Intn(3)}
	}
	d := dataset.New(pts)
	d.Classes = 3
	return d
}

// The pivot-aware walk's contract: at every step of every permutation, the
// base column equals a scratch evaluation of the prefix and pivot j's column
// equals a scratch evaluation of the prefix with pivot j added, with ==.
// Both scoring rules and both distance sources run; K often exceeds the
// prefix (and sometimes the whole walk), some test sets are empty, and the
// grid data makes pivots tie with window members whose indices sort both
// above and below the pivot's — the cases the (distance, index) order
// decides.
func TestPivotPrefixMatchesScratch(t *testing.T) {
	rnd := rng.New(2024)
	var tiesBelow, tiesAbove int
	for trial := 0; trial < 200; trial++ {
		n := 2 + rnd.Intn(20)
		m := rnd.Intn(7) // 0: empty test set
		k := 1 + rnd.Intn(6)
		train, test := gridData(rnd, n), gridData(rnd, m)
		var tr ml.Trainer = ml.KNN{K: k}
		if trial%2 == 1 {
			tr = ml.SoftKNN{K: k}
		}
		var opts []Option
		if trial%4 >= 2 {
			opts = append(opts, WithoutKernel())
		}
		u := NewModelUtility(train, test, tr, opts...)

		order := rnd.PermN(n)
		np := 1 + rnd.Intn(min(n-1, 5))
		pivots, rest := order[:np], order[np:]
		for _, v := range pivots {
			for _, q := range rest {
				if train.Points[v].X[0] == train.Points[q].X[0] && train.Points[v].X[1] == train.Points[q].X[1] {
					if v < q {
						tiesBelow++
					} else {
						tiesAbove++
					}
				}
			}
		}

		ev := game.PivotPrefixOf(u, pivots)
		if ev == nil {
			t.Fatalf("trial %d: %T utility offers no pivot-aware evaluator", trial, tr)
		}
		ref := game.ScratchPrefix(u)
		stride := np + 1
		row := make([]float64, len(rest)*stride)
		for rep := 0; rep < 2; rep++ {
			perm := append([]int(nil), rest...)
			rnd.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			before := u.PrefixAdds()
			ev.Walk(perm, row)
			if got, want := u.PrefixAdds()-before, int64(len(perm)*stride); got != want {
				t.Fatalf("trial %d: walk counted %d prefix adds, want %d", trial, got, want)
			}
			for col := 0; col < stride; col++ {
				ref.Reset()
				if col > 0 {
					ref.Add(pivots[col-1])
				}
				for pos, p := range perm {
					want := ref.Add(p)
					if got := row[pos*stride+col]; got != want {
						t.Fatalf("trial %d (%T K=%d n=%d m=%d kernel=%v) rep %d column %d pos %d: walk %v, scratch %v",
							trial, tr, k, n, m, u.kernel != nil, rep, col, pos, got, want)
					}
				}
			}
		}
	}
	if tiesBelow == 0 || tiesAbove == 0 {
		t.Fatalf("fixture produced no pivot ties on one side: %d below, %d above", tiesBelow, tiesAbove)
	}
}
