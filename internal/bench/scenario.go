package bench

import (
	"fmt"
	"time"

	"dynshap/internal/core"
	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/ml"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
	"dynshap/internal/utility"
)

// scenario is one experimental workload: an original training set under
// valuation, the test set defining the utility, and a pool of extra points
// available for additions.
type scenario struct {
	train *dataset.Dataset
	test  *dataset.Dataset
	extra []dataset.Point
	util  *utility.ModelUtility
}

// modelName returns the configured utility model's display name.
func (r *Runner) modelName() string {
	switch r.cfg.Model {
	case "nb":
		return "naive-Bayes"
	case "knn":
		return "k-NN"
	default:
		return "SVM"
	}
}

// trainer returns the configured utility model (default: the paper's SVM).
func (r *Runner) trainer() ml.Trainer {
	switch r.cfg.Model {
	case "nb":
		return ml.NaiveBayes{}
	case "knn":
		return ml.KNN{K: 5}
	default:
		return ml.SVM{Epochs: r.cfg.SVMEpochs}
	}
}

// irisScenario builds the paper's main workload: n Iris-like points valued
// under the configured utility model, standardised, with spare points for
// additions.
func (r *Runner) irisScenario(n int, seed uint64) *scenario {
	rnd := rng.New(seed)
	pool := dataset.IrisLike(rnd, n+r.cfg.TestSize+16)
	pool.Standardize()
	train := pool.Subset(seqInts(0, n))
	test := pool.Subset(seqInts(n, n+r.cfg.TestSize))
	extraSet := pool.Subset(seqInts(n+r.cfg.TestSize, pool.Len()))
	return &scenario{
		train: train,
		test:  test,
		extra: extraSet.Points,
		util:  utility.NewModelUtility(train, test, r.trainer()),
	}
}

// adultScenario builds the large-dataset workload of Tables XI–XIV: an
// Adult-like sample with 3 features under the SVM utility.
func (r *Runner) adultScenario(n int, seed uint64) *scenario {
	rnd := rng.New(seed)
	pool := dataset.AdultLike(rnd, n+r.cfg.TestSize+16)
	pool.Standardize()
	train := pool.Subset(seqInts(0, n))
	test := pool.Subset(seqInts(n, n+r.cfg.TestSize))
	extraSet := pool.Subset(seqInts(n+r.cfg.TestSize, pool.Len()))
	return &scenario{
		train: train,
		test:  test,
		extra: extraSet.Points,
		util:  utility.NewModelUtility(train, test, r.trainer()),
	}
}

func seqInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// measurement is one algorithm's result on one workload.
type measurement struct {
	name    string
	mse     float64
	seconds float64
	evals   int64 // cache misses = fresh utility evaluations (model trainings)
	// hits counts cache lookups served without a training; prefixAdds counts
	// incremental prefix evaluations (game.PrefixEvaluator.Add), which bypass
	// the cache entirely. Together the three counters show how an algorithm's
	// utility work splits between fresh, cached, and incremental evaluation.
	hits       int64
	prefixAdds int64
	na         bool // algorithm not applicable / skipped
	// mseSamples holds the per-trial MSEs behind the averaged mse, for the
	// paper's significance tests (§VII-A).
	mseSamples []float64
}

// initProducts bundles what one shared initialisation pass hands to the
// contenders: estimates, pivot state, deletion stores, and the warmed cache.
type initProducts struct {
	res   *core.InitResult
	cache *game.Cached
}

// initialize runs the shared preprocessing pass with the given τ, routed
// through the permutation engine under the configured worker budget. The engine is bit-identical to the serial pass for a
// fixed seed, so all downstream numbers are unchanged; its stats for the
// pass are kept on the Runner for the table notes.
func (r *Runner) initialize(sc *scenario, opt core.InitOptions, tau int, seed uint64) (*initProducts, error) {
	cache := game.NewCached(sc.util)
	engine := core.NewEngine(core.WithWorkers(r.cfg.Workers))
	res, err := engine.Initialize(cache, tau, opt, rng.New(seed))
	if err != nil {
		return nil, err
	}
	r.lastFill = engine.Stats()
	return &initProducts{res: res, cache: cache}, nil
}

// benchmarkAdd computes the reference Shapley values MCSV⁺ on the updated
// dataset with τ = BenchTauFactor·n, as the paper's §VII-B prescribes.
// Results are memoised per (size, additions, τ, seed): the τ_LSV sweep
// tables evaluate several configurations against one benchmark.
func (r *Runner) benchmarkAdd(sc *scenario, added []dataset.Point, tau int, seed uint64) []float64 {
	key := fmt.Sprintf("benchAdd/%d/%d/%d/%d", sc.util.N(), len(added), tau, seed)
	if sv, ok := r.benchMemo[key]; ok {
		return sv
	}
	uPlus := sc.util.Append(added...)
	g := game.NewCached(uPlus)
	sv := r.mcReference(g, tau, seed)
	r.benchMemo[key] = sv
	return sv
}

// mcReference is the paper's MCSV⁺ reference: Monte Carlo over tau
// permutations walked by the configured workers. Its values are the same
// at every worker count.
func (r *Runner) mcReference(g game.Game, tau int, seed uint64) []float64 {
	return core.NewEngine(core.WithWorkers(r.cfg.Workers)).MonteCarlo(g, tau, rng.New(seed))
}

// benchmarkDelete computes MCSV⁺ on the post-deletion dataset, returned in
// the ORIGINAL indexing with zeros at deleted points so contenders compare
// directly.
func (r *Runner) benchmarkDelete(sc *scenario, deleted []int, tau int, seed uint64) []float64 {
	g := game.NewCached(sc.util)
	restricted := game.NewRestrict(g, deleted...)
	sub := r.mcReference(restricted, tau, seed)
	out := make([]float64, sc.util.N())
	for ri, orig := range restricted.Keep() {
		out[orig] = sub[ri]
	}
	return out
}

// addAlgorithms are the contenders of the addition experiments, in the
// paper's column order.
var addAlgorithms = []string{"MC", "Base", "TMC", "Pivot-d", "Delta", "KNN", "KNN+"}

// deleteAlgorithms are the contenders of the deletion experiments.
var deleteAlgorithms = []string{"MC", "TMC", "YN-NN", "Delta", "KNN", "KNN+"}

// runAdd measures one contender adding the given points sequentially,
// starting from the shared initialisation products. It returns the updated
// values in N⁺ indexing plus cost measurements.
func (r *Runner) runAdd(name string, sc *scenario, prods *initProducts, added []dataset.Point, tau int, seed uint64) ([]float64, measurement, error) {
	rnd := rng.New(seed)
	m := measurement{name: name}
	// The sampled contenders walk on one goroutine, so the seconds rows
	// compare algorithms rather than worker counts.
	e := core.NewEngine(core.WithWorkers(1))

	// Every contender gets its own fork of the warmed cache so timing
	// reflects only the model trainings it newly causes.
	uPlus := sc.util.Append(added...)
	forked := prods.cache.Fork(sc.util)

	start := time.Now()
	var sv []float64
	var err error
	switch name {
	case "MC":
		sv = e.MonteCarlo(game.NewCachedShared(uPlus, forked), tau, rnd)
	case "TMC":
		sv = e.TruncatedMonteCarlo(game.NewCachedShared(uPlus, forked), tau, 1e-12, rnd)
	case "Base":
		sv = core.BaseAdd(prods.res.Pivot.SV, len(added))
	case "Pivot-s", "Pivot-d":
		st := prods.res.Pivot.Clone()
		cur := sc.util
		cache := forked
		for _, p := range added {
			next := cur.Append(p)
			g := game.NewCachedShared(next, cache)
			if name == "Pivot-s" {
				sv, err = e.BatchAddSame(st, g, 1, []*rng.Source{rnd})
			} else {
				sv, err = e.AddDifferent(st, g, tau, rnd)
			}
			if err != nil {
				return nil, m, err
			}
			cur = next
			cache = game.NewCachedShared(cur, cache)
		}
	case "Delta":
		sv = append([]float64(nil), prods.res.Pivot.SV...)
		cur := sc.util
		cache := forked
		for _, p := range added {
			next := cur.Append(p)
			g := game.NewCachedShared(next, cache)
			sv, err = e.BatchDeltaAdd(g, sv, 1, tau, rnd)
			if err != nil {
				return nil, m, err
			}
			cur = next
			cache = game.NewCachedShared(cur, cache)
		}
	case "KNN":
		sv, err = core.KNNAdd(prods.res.Pivot.SV, sc.train, added, 5)
		if err != nil {
			return nil, m, err
		}
	case "KNN+":
		g := game.NewCachedShared(sc.util, forked)
		sv, err = core.KNNPlusAdd(g, sc.train, prods.res.Pivot.SV, added, nil,
			core.KNNPlusConfig{K: 5}, rnd)
		if err != nil {
			return nil, m, err
		}
	default:
		m.na = true
		return nil, m, nil
	}
	m.seconds = time.Since(start).Seconds()
	hits, misses := forked.Stats()
	m.hits = hits
	m.evals = misses
	m.prefixAdds = forked.PrefixAdds()
	return sv, m, nil
}

// runDelete measures one contender deleting the given points, returning
// values in the ORIGINAL indexing with zeros at deleted points.
func (r *Runner) runDelete(name string, sc *scenario, prods *initProducts, deleted []int, tau int, seed uint64) ([]float64, measurement, error) {
	n := sc.train.Len()
	rnd := rng.New(seed)
	m := measurement{name: name}
	e := core.NewEngine(core.WithWorkers(1))
	forked := prods.cache.Fork(sc.util)
	g := game.Game(game.NewCachedShared(sc.util, forked))

	start := time.Now()
	var expanded []float64
	var err error
	switch name {
	case "MC", "TMC":
		restricted := game.NewRestrict(g, deleted...)
		var sub []float64
		if name == "TMC" {
			sub = e.TruncatedMonteCarlo(restricted, tau, 1e-12, rnd)
		} else {
			sub = e.MonteCarlo(restricted, tau, rnd)
		}
		expanded = make([]float64, n)
		for ri, orig := range restricted.Keep() {
			expanded[orig] = sub[ri]
		}
	case "YN-NN", "YNN-NNN":
		if len(deleted) == 1 {
			switch {
			case prods.res.Deletion != nil:
				expanded, err = prods.res.Deletion.Merge(deleted[0])
			case prods.res.Multi != nil && prods.res.Multi.D() == 1:
				// Large datasets use the candidate-restricted store: the
				// full n³ arrays would not fit in memory (DESIGN.md §4).
				expanded, err = prods.res.Multi.Merge(deleted[0])
			default:
				m.na = true
				return nil, m, nil
			}
		} else {
			if prods.res.Multi == nil {
				m.na = true
				return nil, m, nil
			}
			expanded, err = prods.res.Multi.Merge(deleted...)
		}
		if err != nil {
			return nil, m, err
		}
	case "Delta":
		expanded = append([]float64(nil), prods.res.Pivot.SV...)
		// Apply sequentially over the shrinking game, tracking indices.
		alive := seqInts(0, n)
		cur := expanded
		var gone []int
		rg := g
		e := core.NewEngine(core.WithWorkers(1))
		for _, orig := range deleted {
			ri := indexOf(alive, orig)
			cur, err = e.BatchDeltaDelete(rg, cur, []int{ri}, tau, rnd)
			if err != nil {
				return nil, m, err
			}
			cur = append(cur[:ri:ri], cur[ri+1:]...)
			alive = append(alive[:ri:ri], alive[ri+1:]...)
			gone = append(gone, orig)
			rg = game.NewRestrict(g, gone...)
		}
		expanded = make([]float64, n)
		for i, orig := range alive {
			expanded[orig] = cur[i]
		}
	case "KNN":
		expanded, err = core.KNNDelete(prods.res.Pivot.SV, sc.train, deleted, 5)
		if err != nil {
			return nil, m, err
		}
	case "KNN+":
		expanded, err = core.KNNPlusDelete(g, sc.train, prods.res.Pivot.SV, deleted, nil,
			core.KNNPlusConfig{K: 5}, rnd)
		if err != nil {
			return nil, m, err
		}
	default:
		m.na = true
		return nil, m, nil
	}
	m.seconds = time.Since(start).Seconds()
	hits, misses := forked.Stats()
	m.hits = hits
	m.evals = misses
	m.prefixAdds = forked.PrefixAdds()
	return expanded, m, nil
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// averageMeasurements merges per-trial measurements of the same algorithm.
func averageMeasurements(per [][]measurement) []measurement {
	if len(per) == 0 {
		return nil
	}
	out := make([]measurement, len(per[0]))
	copy(out, per[0])
	for i := range out {
		out[i].mse = 0
		out[i].seconds = 0
		out[i].evals = 0
		out[i].hits = 0
		out[i].prefixAdds = 0
	}
	for i := range out {
		out[i].mseSamples = nil
	}
	for _, trial := range per {
		for i, m := range trial {
			out[i].mse += m.mse / float64(len(per))
			out[i].seconds += m.seconds / float64(len(per))
			out[i].evals += m.evals / int64(len(per))
			out[i].hits += m.hits / int64(len(per))
			out[i].prefixAdds += m.prefixAdds / int64(len(per))
			out[i].na = out[i].na || m.na
			out[i].mseSamples = append(out[i].mseSamples, m.mse)
		}
	}
	return out
}

// pValuesVsMC runs Welch's t-test between each algorithm's per-trial MSEs
// and MC's, reproducing the significance statement of the paper's §VII-A
// ("all p-values are much smaller than 0.05"). It needs ≥2 trials per cell;
// algorithms without enough data are omitted.
func pValuesVsMC(ms []measurement) map[string]float64 {
	var mc *measurement
	for i := range ms {
		if ms[i].name == "MC" {
			mc = &ms[i]
			break
		}
	}
	if mc == nil || len(mc.mseSamples) < 2 {
		return nil
	}
	out := make(map[string]float64)
	for _, m := range ms {
		if m.name == "MC" || m.na || len(m.mseSamples) < 2 {
			continue
		}
		w, err := stat.WelchTTest(m.mseSamples, mc.mseSamples)
		if err != nil {
			continue
		}
		out[m.name] = w.P
	}
	return out
}

// mseVsBenchmark computes the paper's effectiveness metric.
func mseVsBenchmark(estimate, benchmark []float64) float64 {
	return stat.MSE(estimate, benchmark)
}
