package core

import (
	"fmt"

	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

// KNNAdd runs Algorithm 9 (heuristic KNN for additions): by the symmetry
// axiom, points with similar features earn similar values, so each added
// point is assigned the mean Shapley value of its k nearest original
// neighbours while the original points keep their values unchanged.
// train holds the original points (aligned with oldSV); the returned slice
// appends one value per added point.
func KNNAdd(oldSV []float64, train *dataset.Dataset, added []dataset.Point, k int) ([]float64, error) {
	n := len(oldSV)
	if train.Len() != n {
		return nil, fmt.Errorf("core: KNNAdd train has %d points, oldSV %d", train.Len(), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("core: KNNAdd needs a non-empty original dataset")
	}
	if k <= 0 {
		k = 5
	}
	out := make([]float64, n, n+len(added))
	copy(out, oldSV)
	for _, p := range added {
		neighbors := train.Nearest(p.X, k)
		avg := 0.0
		for _, nb := range neighbors {
			avg += oldSV[nb]
		}
		out = append(out, avg/float64(len(neighbors)))
	}
	return out, nil
}

// KNNDelete is the deletion variant of Algorithm 9 sketched in §VI: each
// deleted point's value is redistributed evenly over its k nearest
// surviving neighbours (preserving the balance axiom's total), and deleted
// entries are zeroed.
func KNNDelete(oldSV []float64, train *dataset.Dataset, deleted []int, k int) ([]float64, error) {
	n := len(oldSV)
	if train.Len() != n {
		return nil, fmt.Errorf("core: KNNDelete train has %d points, oldSV %d", train.Len(), n)
	}
	if k <= 0 {
		k = 5
	}
	gone := make(map[int]bool, len(deleted))
	for _, p := range deleted {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("core: KNNDelete point %d out of range [0,%d)", p, n)
		}
		gone[p] = true
	}
	if len(gone) == n {
		return make([]float64, n), nil
	}
	out := append([]float64(nil), oldSV...)
	for p := range gone {
		// Nearest surviving neighbours of the departing point.
		cands := train.Nearest(train.Points[p].X, k+len(gone))
		share := make([]int, 0, k)
		for _, c := range cands {
			if c != p && !gone[c] {
				share = append(share, c)
				if len(share) == k {
					break
				}
			}
		}
		if len(share) == 0 {
			continue
		}
		for _, c := range share {
			out[c] += oldSV[p] / float64(len(share))
		}
	}
	for p := range gone {
		out[p] = 0
	}
	return out, nil
}

// KNNPlusConfig parameterises Algorithm 10.
type KNNPlusConfig struct {
	// K is the neighbour count for assigning values to added points
	// (and Algorithm 9 compatibility). Zero selects 5.
	K int
	// CurveSamples is d in Algorithm 10: how many probe points have their
	// ΔSV measured to fit the similarity→change curves. Zero selects 8.
	CurveSamples int
	// CurveTau is the Monte Carlo sample size used for each probe
	// measurement. Zero selects 2·n.
	CurveTau int
	// Degree is the fitted polynomial's degree. Zero selects 2.
	Degree int
	// SubsampleSize caps the number of players the curve-measurement Monte
	// Carlo runs operate on. On large datasets measuring ΔSV on the full
	// game would cost more than plain MC (defeating the heuristic); probing
	// a subsample and rescaling keeps KNN+ orders of magnitude cheaper, as
	// in the paper's Tables XI–XIV. Zero selects min(n, 60).
	SubsampleSize int
}

func (c KNNPlusConfig) withDefaults(n int) KNNPlusConfig {
	if c.K <= 0 {
		c.K = 5
	}
	if c.CurveSamples <= 0 {
		c.CurveSamples = 8
	}
	if c.SubsampleSize <= 0 {
		c.SubsampleSize = 60
	}
	if c.SubsampleSize > n {
		c.SubsampleSize = n
	}
	if c.CurveTau <= 0 {
		c.CurveTau = 2 * c.SubsampleSize
	}
	if c.Degree <= 0 {
		c.Degree = 2
	}
	return c
}

// CurveModel holds the fitted per-label similarity→ΔSV functions of
// Algorithm 10 so they can be reused across several updates.
type CurveModel struct {
	coeffs  map[int][]float64
	maxDist map[int]float64
	// scale calibrates subsample-measured changes to the full game: Shapley
	// values (and their changes) shrink roughly like 1/n as the grand
	// coalition grows, so curves fitted on an s-player subsample are scaled
	// by s/n when applied to the n-player game.
	scale float64
}

// Eval returns the predicted Shapley change of a point at the given
// distance from a new/deleted point with the given label. Distances beyond
// the fitted range and unseen labels predict 0 (polynomials diverge when
// extrapolated).
func (cm *CurveModel) Eval(label int, dist float64) float64 {
	c, ok := cm.coeffs[label]
	if !ok || dist > cm.maxDist[label] {
		return 0
	}
	return cm.scale * stat.PolyEval(c, dist)
}

// Labels returns the labels for which a curve was fitted.
func (cm *CurveModel) Labels() []int {
	out := make([]int, 0, len(cm.coeffs))
	for l := range cm.coeffs {
		out = append(out, l)
	}
	return out
}

// FitCurves performs the measurement stage of Algorithm 10 (lines 5-8): it
// samples cfg.CurveSamples probe points, measures how the remaining players'
// Shapley values change when each probe is removed — the same quantity, with
// opposite sign conventions, that governs additions (Figure 2 of the paper)
// — and fits one polynomial per probe label mapping distance to change.
func FitCurves(g game.Game, train *dataset.Dataset, cfg KNNPlusConfig, r *rng.Source) (*CurveModel, error) {
	n := g.N()
	if train.Len() != n {
		return nil, fmt.Errorf("core: FitCurves train has %d points, game %d", train.Len(), n)
	}
	if n < 3 {
		return nil, fmt.Errorf("core: FitCurves needs ≥3 players, got %d", n)
	}
	cfg = cfg.withDefaults(n)
	// Measure on a subsample: restrict the game to `s` random players so the
	// probe Monte Carlo runs cost O(s²·τ) utility evaluations instead of
	// O(n²·τ). With s = n this is the paper's Algorithm 10 verbatim.
	s := cfg.SubsampleSize
	if cfg.CurveSamples > s {
		cfg.CurveSamples = s
	}
	sample := r.Sample(n, s)
	inSample := make(map[int]bool, s)
	for _, i := range sample {
		inSample[i] = true
	}
	var removed []int
	for i := 0; i < n; i++ {
		if !inSample[i] {
			removed = append(removed, i)
		}
	}
	base := game.Game(g)
	players := make([]int, n)
	for i := range players {
		players[i] = i
	}
	if len(removed) > 0 {
		rg := game.NewRestrict(g, removed...)
		base = rg
		players = rg.Keep()
	}
	// No stop rule is set, so each pass draws exactly CurveTau
	// permutations from r, and the draws after it are the same at any
	// worker count.
	mc := NewEngine(WithWorkers(1))
	baseSV := mc.MonteCarlo(base, cfg.CurveTau, r)
	probes := r.Sample(base.N(), cfg.CurveSamples)
	xsByLabel := map[int][]float64{}
	ysByLabel := map[int][]float64{}
	for _, t := range probes {
		sub := game.NewRestrict(base, t)
		subSV := mc.MonteCarlo(sub, cfg.CurveTau, r)
		probeOrig := players[t]
		label := train.Points[probeOrig].Y
		// Map restricted indices back to original players.
		keep := sub.Keep()
		for ri, bi := range keep {
			orig := players[bi]
			// ΔSV of `orig` caused by the probe's PRESENCE: with − without.
			d := baseSV[bi] - subSV[ri]
			xsByLabel[label] = append(xsByLabel[label], dataset.Euclidean(train.Points[probeOrig].X, train.Points[orig].X))
			ysByLabel[label] = append(ysByLabel[label], d)
		}
	}
	cm := &CurveModel{
		coeffs:  map[int][]float64{},
		maxDist: map[int]float64{},
		scale:   float64(base.N()) / float64(n),
	}
	for label, xs := range xsByLabel {
		c, err := stat.PolyFit(xs, ysByLabel[label], cfg.Degree)
		if err != nil {
			// Not enough distinct probes for this label; skip the curve —
			// Eval then predicts 0 change, degrading gracefully to KNN.
			continue
		}
		cm.coeffs[label] = c
		maxD := 0.0
		for _, x := range xs {
			if x > maxD {
				maxD = x
			}
		}
		cm.maxDist[label] = maxD
	}
	return cm, nil
}

// KNNPlusAdd runs Algorithm 10: fit (or reuse) the per-label ΔSV curves,
// shift every original player's value by the predicted effect of each added
// point, and assign each added point the mean value of its k nearest
// original neighbours. Pass a nil curves to fit them on the spot.
func KNNPlusAdd(g game.Game, train *dataset.Dataset, oldSV []float64, added []dataset.Point, curves *CurveModel, cfg KNNPlusConfig, r *rng.Source) ([]float64, error) {
	n := len(oldSV)
	if train.Len() != n {
		return nil, fmt.Errorf("core: KNNPlusAdd train has %d points, oldSV %d", train.Len(), n)
	}
	cfg = cfg.withDefaults(n)
	if curves == nil {
		var err error
		curves, err = FitCurves(g, train, cfg, r)
		if err != nil {
			return nil, err
		}
	}
	out := make([]float64, n, n+len(added))
	copy(out, oldSV)
	for _, p := range added {
		for j := 0; j < n; j++ {
			out[j] += curves.Eval(p.Y, dataset.Euclidean(p.X, train.Points[j].X))
		}
	}
	for _, p := range added {
		neighbors := train.Nearest(p.X, cfg.K)
		avg := 0.0
		for _, nb := range neighbors {
			avg += oldSV[nb]
		}
		out = append(out, avg/float64(len(neighbors)))
	}
	return out, nil
}

// KNNPlusDelete is the deletion variant of Algorithm 10 (§VI): every
// survivor's value moves by the negated predicted effect of each departing
// point's presence; deleted entries are zeroed.
func KNNPlusDelete(g game.Game, train *dataset.Dataset, oldSV []float64, deleted []int, curves *CurveModel, cfg KNNPlusConfig, r *rng.Source) ([]float64, error) {
	n := len(oldSV)
	if train.Len() != n {
		return nil, fmt.Errorf("core: KNNPlusDelete train has %d points, oldSV %d", train.Len(), n)
	}
	cfg = cfg.withDefaults(n)
	if curves == nil {
		var err error
		curves, err = FitCurves(g, train, cfg, r)
		if err != nil {
			return nil, err
		}
	}
	gone := make(map[int]bool, len(deleted))
	for _, p := range deleted {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("core: KNNPlusDelete point %d out of range [0,%d)", p, n)
		}
		gone[p] = true
	}
	out := append([]float64(nil), oldSV...)
	for p := range gone {
		for j := 0; j < n; j++ {
			if j == p || gone[j] {
				continue
			}
			// Removing p cancels the effect its presence had on j.
			out[j] -= curves.Eval(train.Points[p].Y, dataset.Euclidean(train.Points[p].X, train.Points[j].X))
		}
	}
	for p := range gone {
		out[p] = 0
	}
	return out, nil
}
