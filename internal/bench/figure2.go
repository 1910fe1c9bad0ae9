package bench

import (
	"fmt"
	"sort"

	"dynshap/internal/core"
	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

// figureDeltaField reproduces Figure 2: how the Shapley values of the
// original points change when a new point arrives, as a function of their
// distance to it and label agreement. The paper renders this as a scatter
// over the feature plane; we report the same field binned by distance,
// split into same-label and different-label points — the structure
// ("same-label values drop, different-label values rise, both effects decay
// with distance") that motivates the KNN+ heuristic.
func (r *Runner) figureDeltaField() (*Table, error) {
	n := r.cfg.N
	seed := r.cfg.Seed + 31
	sc := r.irisScenario(n, seed)
	added := sc.extra[0]

	// Estimate ΔSV directly with the differential-marginal-contribution
	// sampler (the estimator behind Algorithm 5): unbiased for the change
	// and far lower variance than differencing two independent Monte Carlo
	// runs, so the field's structure is visible at moderate τ.
	tau := r.cfg.BenchTauFactor * n / 4
	uPlus := sc.util.Append(added)
	gPlus := game.NewCached(uPlus)
	zeros := make([]float64, n)
	delta, err := core.NewEngine(core.WithWorkers(1)).BatchDeltaAdd(gPlus, zeros, 1, tau, rng.New(seed+1))
	if err != nil {
		return nil, err
	}

	type obs struct {
		dist  float64
		delta float64
		same  bool
	}
	observations := make([]obs, n)
	for i := 0; i < n; i++ {
		observations[i] = obs{
			dist:  dataset.Euclidean(sc.train.Points[i].X, added.X),
			delta: delta[i],
			same:  sc.train.Points[i].Y == added.Y,
		}
	}
	sort.Slice(observations, func(i, j int) bool { return observations[i].dist < observations[j].dist })

	const bins = 4
	t := &Table{Columns: []string{"distance bin", "same-label mean ΔSV", "count", "diff-label mean ΔSV", "count"}}
	per := (n + bins - 1) / bins
	for b := 0; b < bins; b++ {
		lo := b * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		var sameVals, diffVals []float64
		for _, o := range observations[lo:hi] {
			if o.same {
				sameVals = append(sameVals, o.delta)
			} else {
				diffVals = append(diffVals, o.delta)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("[%.2f, %.2f]", observations[lo].dist, observations[hi-1].dist),
			sci(stat.Mean(sameVals)), fmt.Sprintf("%d", len(sameVals)),
			sci(stat.Mean(diffVals)), fmt.Sprintf("%d", len(diffVals)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("one point (label %d) added to n=%d Iris-like; ΔSV via differential-marginal-contribution sampling", added.Y, n),
		"expected shape: same-label ΔSV negative near the new point, different-label positive, both fading with distance")
	return t, nil
}
