package core

import (
	"math"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// Tracker is an online Monte Carlo Shapley estimator with per-player
// convergence diagnostics. It runs the same permutation scan as
// Algorithm 1 but maintains running means and variances (Welford), so
// callers can sample until a target precision is met instead of fixing τ
// up front — the practical counterpart of the paper's (ϵ, δ) sample-size
// theorems, which bound τ a priori from the (often unknown) contribution
// range.
type Tracker struct {
	g      game.Game
	r      *rng.Source
	count  int
	mean   []float64
	m2     []float64
	perm   []int
	prefix bitset.Set
	empty  float64
}

// NewTracker creates a tracker over g driven by r.
func NewTracker(g game.Game, r *rng.Source) *Tracker {
	n := g.N()
	return &Tracker{
		g:      g,
		r:      r,
		mean:   make([]float64, n),
		m2:     make([]float64, n),
		perm:   make([]int, n),
		prefix: bitset.New(n),
		empty:  g.Value(bitset.New(n)),
	}
}

// Step samples one permutation and folds every player's marginal
// contribution into the running statistics.
func (t *Tracker) Step() {
	t.count++
	t.r.Perm(t.perm)
	t.prefix.Clear()
	prev := t.empty
	for _, p := range t.perm {
		t.prefix.Add(p)
		cur := t.g.Value(t.prefix)
		x := cur - prev
		d := x - t.mean[p]
		t.mean[p] += d / float64(t.count)
		t.m2[p] += d * (x - t.mean[p])
		prev = cur
	}
}

// Samples returns the number of permutations consumed so far.
func (t *Tracker) Samples() int { return t.count }

// Values returns the current Shapley estimates.
func (t *Tracker) Values() []float64 {
	return append([]float64(nil), t.mean...)
}

// StdErrs returns the per-player standard errors of the estimates
// (sample standard deviation / √τ), or +Inf before two samples exist.
func (t *Tracker) StdErrs() []float64 {
	out := make([]float64, len(t.mean))
	if t.count < 2 {
		for i := range out {
			out[i] = math.Inf(1)
		}
		return out
	}
	for i := range out {
		variance := t.m2[i] / float64(t.count-1)
		out[i] = math.Sqrt(variance / float64(t.count))
	}
	return out
}

// MaxStdErr returns the largest per-player standard error.
func (t *Tracker) MaxStdErr() float64 {
	max := 0.0
	for _, se := range t.StdErrs() {
		if se > max {
			max = se
		}
	}
	return max
}

// Converged reports whether every player's CLT-based confidence half-width
// z·stderr is within eps, where z is the standard-normal quantile for the
// two-sided confidence 1−delta. It is never true before minSamples
// permutations (default 30 when minSamples ≤ 0), since early variance
// estimates are unreliable.
func (t *Tracker) Converged(eps, delta float64, minSamples int) bool {
	if minSamples <= 0 {
		minSamples = 30
	}
	if t.count < minSamples {
		return false
	}
	z := normalQuantile(1 - delta/2)
	for _, se := range t.StdErrs() {
		if z*se > eps {
			return false
		}
	}
	return true
}

// RunUntil samples until Converged(eps, delta, minSamples) or maxSamples
// permutations, whichever comes first, and returns the estimates and the
// number of permutations consumed.
func (t *Tracker) RunUntil(eps, delta float64, minSamples, maxSamples int) ([]float64, int) {
	for !t.Converged(eps, delta, minSamples) && t.count < maxSamples {
		t.Step()
	}
	return t.Values(), t.count
}

// normalQuantile returns the standard normal quantile via the
// Beasley-Springer-Moro rational approximation (|error| < 1e-9 over
// p ∈ (1e-10, 1−1e-10)) — ample for stopping rules.
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("core: normalQuantile requires 0 < p < 1")
	}
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
