package utility

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"dynshap/internal/bitset"
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

// The pivot-aware walks' contract, with ==. Walk: at every step of every
// permutation, the base column equals a scratch evaluation of the prefix
// and pivot j's column a scratch evaluation of the prefix with pivot j
// added. WalkNested: every position of every nested chain, from the
// chain's start on, equals a scratch walk of that chain, and the entries
// before the start stay untouched. Both scoring rules and both distance
// sources run; K often exceeds the prefix (and sometimes the whole walk),
// some test sets are empty, pivots land first, last and next to each
// other, and the grid data makes pivots tie with window members whose
// indices sort both above and below the pivot's, and with each other —
// the cases the (distance, index) order decides. The test also counts the
// window states the kernel's shortcuts split on, and fails if one never
// occurs: a Walk refresh skipped on a same-label swap, a test point
// holding two or more live arrived pivots, a lone live pivot retired, and
// a slot-0 chain opened after a higher-index pivot arrived.
func TestPivotPrefixMatchesScratch(t *testing.T) {
	rnd := rng.New(2024)
	var tiesBelow, tiesAbove, pivotTies, first, last, adjacent int
	var skipped, multiLive, soloRetired, lateSlot0 int
	for trial := 0; trial < 400; trial++ {
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
		np := 1 + rnd.Intn(min(n-1, 6))
		pivots, rest := order[:np], order[np:]
		samePlace := func(a, b int) bool {
			return train.Points[a].X[0] == train.Points[b].X[0] && train.Points[a].X[1] == train.Points[b].X[1]
		}
		for a, v := range pivots {
			for _, q := range rest {
				if samePlace(v, q) {
					if v < q {
						tiesBelow++
					} else {
						tiesAbove++
					}
				}
			}
			for _, w := range pivots[a+1:] {
				if samePlace(v, w) {
					pivotTies++
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
			skipped += skippedRefreshes(train, test, k, perm, pivots)
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

			final, starts, chains := nestedChains(rnd, rest, pivots)
			first += btoi(slices.Contains(pivots, final[0]))
			last += btoi(slices.Contains(pivots, final[n-1]))
			for pos := 1; pos < n; pos++ {
				if slices.Contains(pivots, final[pos-1]) && slices.Contains(pivots, final[pos]) {
					adjacent++
					break
				}
			}
			multi, retired := liveCases(train, test, k, final, pivots)
			multiLive += multi
			soloRetired += retired
			lateSlot0 += lateSlotZero(final, starts, pivots)
			nested := make([]float64, np*(n+1))
			for i := range nested {
				nested[i] = math.NaN()
			}
			before = u.PrefixAdds()
			ev.WalkNested(final, starts, nested)
			if got, want := u.PrefixAdds()-before, game.NestedPositions(n, np); got != want {
				t.Fatalf("trial %d: nested walk counted %d prefix adds, want %d", trial, got, want)
			}
			for j, chain := range chains {
				seg := nested[j*(n+1) : j*(n+1)+len(chain)+1]
				ref.Reset()
				want := u.Value(bitset.New(n))
				for pos := range seg {
					if pos > 0 {
						want = ref.Add(chain[pos-1])
					}
					got := seg[pos]
					if pos < starts[j] {
						if !math.IsNaN(got) {
							t.Fatalf("trial %d chain %d: wrote position %d before its start %d", trial, j, pos, starts[j])
						}
						continue
					}
					if got != want {
						t.Fatalf("trial %d (%T K=%d n=%d m=%d kernel=%v) rep %d chain %d (start %d) pos %d: nested walk %v, scratch %v",
							trial, tr, k, n, m, u.kernel != nil, rep, j, starts[j], pos, got, want)
					}
				}
			}
		}
	}
	if tiesBelow == 0 || tiesAbove == 0 || pivotTies == 0 {
		t.Fatalf("fixture produced too few ties: %d below, %d above a pivot, %d between pivots", tiesBelow, tiesAbove, pivotTies)
	}
	if first == 0 || last == 0 || adjacent == 0 {
		t.Fatalf("fixture placed no pivot somewhere: %d first, %d last, %d adjacent", first, last, adjacent)
	}
	if skipped == 0 || multiLive == 0 || soloRetired == 0 || lateSlot0 == 0 {
		t.Fatalf("fixture missed a case the kernel splits on: %d skipped refreshes, %d test points holding two or more live arrived pivots, %d lone live pivots retired, %d slot-0 chains opened after a higher pivot",
			skipped, multiLive, soloRetired, lateSlot0)
	}
	t.Logf("%d skipped refreshes, %d test points holding two or more live arrived pivots, %d lone live pivots retired, %d slot-0 chains opened after a higher pivot",
		skipped, multiLive, soloRetired, lateSlot0)
}

// The kernel's fast paths split on window states; the helpers below
// recount those states from scratch windows, so the test can show that
// each case occurred.

// windowTail returns the K-th nearest of members to x under (distance,
// index), and whether there are K members.
func windowTail(train *dataset.Dataset, x []float64, members []int, k int) (dist float64, idx int, full bool) {
	if len(members) < k {
		return 0, 0, false
	}
	type entry struct {
		d float64
		i int
	}
	w := make([]entry, len(members))
	for a, p := range members {
		w[a] = entry{dataset.Euclidean(x, train.Points[p].X), p}
	}
	slices.SortFunc(w, func(a, b entry) int {
		if a.d != b.d {
			return cmp.Compare(a.d, b.d)
		}
		return cmp.Compare(a.i, b.i)
	})
	return w[k-1].d, w[k-1].i, true
}

// sortsBefore reports whether training point p at distance d sorts before
// (dist, idx) under the (distance, index) order.
func sortsBefore(d float64, p int, dist float64, idx int) bool {
	return d < dist || (d == dist && p < idx)
}

// skippedRefreshes counts the steps of a Walk of perm at which a full
// window takes a member with its displaced tail's label and keeps its
// tail's label while a pivot still sorts before the tail: the refreshes
// Walk skips after the departures.
func skippedRefreshes(train, test *dataset.Dataset, k int, perm, pivots []int) int {
	count := 0
	for pos, p := range perm {
		for _, q := range test.Points {
			oldDist, oldIdx, full := windowTail(train, q.X, perm[:pos], k)
			if !full || !sortsBefore(dataset.Euclidean(q.X, train.Points[p].X), p, oldDist, oldIdx) {
				continue
			}
			newDist, newIdx, _ := windowTail(train, q.X, perm[:pos+1], k)
			y := train.Points[oldIdx].Y
			if train.Points[p].Y != y || train.Points[newIdx].Y != y {
				continue
			}
			for _, v := range pivots {
				if sortsBefore(dataset.Euclidean(q.X, train.Points[v].X), v, newDist, newIdx) {
					count++
					break
				}
			}
		}
	}
	return count
}

// liveCases replays a WalkNested of final over scratch windows. It counts
// the (position, test point) pairs holding two or more live arrived
// pivots — the merge path — and the base steps that retire a test point's
// only live pivot.
func liveCases(train, test *dataset.Dataset, k int, final, pivots []int) (multi, retired int) {
	var base, arrived []int
	prev := make([]int, test.Len())
	for _, p := range final {
		isPivot := slices.Contains(pivots, p)
		if isPivot {
			arrived = append(arrived, p)
		} else {
			base = append(base, p)
		}
		for t, q := range test.Points {
			tailDist, tailIdx, full := windowTail(train, q.X, base, k)
			live := 0
			for _, v := range arrived {
				if !full || sortsBefore(dataset.Euclidean(q.X, train.Points[v].X), v, tailDist, tailIdx) {
					live++
				}
			}
			if live >= 2 {
				multi++
			}
			if !isPivot && prev[t] == 1 && live == 0 {
				retired++
			}
			prev[t] = live
		}
	}
	return multi, retired
}

// lateSlotZero counts the chains that start at slot 0 yet open after a
// higher-index pivot has arrived, whose chain is open beside them.
func lateSlotZero(final, starts, pivots []int) int {
	count := 0
	for j, s := range starts {
		if s != 0 {
			continue
		}
		for _, v := range final[:slices.Index(final, pivots[j])] {
			if slices.Index(pivots, v) > j {
				count++
				break
			}
		}
	}
	return count
}

// nestedChains evolves a random order of base through the pivots' arrivals
// as the batched Pivot-s walk does: pivot j goes in at the slot drawn after
// pivot j−1. Slots favour the ends and the previous pivot's neighbours. It
// returns the final permutation, each pivot's slot in its own chain, and
// the chains.
func nestedChains(rnd *rng.Source, base, pivots []int) (final, starts []int, chains [][]int) {
	cur := append([]int(nil), base...)
	rnd.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
	slot, prev := rnd.Intn(len(cur)+1), -1
	for _, v := range pivots {
		switch c := rnd.Intn(5); {
		case c == 0:
			slot = 0
		case c == 1:
			slot = len(cur)
		case c == 2 && prev >= 0:
			slot = prev + rnd.Intn(2) // just before or just after the last pivot
		}
		cur = slices.Insert(slices.Clone(cur), slot, v)
		starts = append(starts, slot)
		chains = append(chains, cur)
		prev, slot = slot, rnd.Intn(len(cur)+1)
	}
	return cur, starts, chains
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
