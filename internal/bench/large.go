package bench

import (
	"fmt"
	"time"

	"dynshap/internal/core"
	"dynshap/internal/game"
	"dynshap/internal/rng"
)

// The large-dataset experiments (Tables XI–XIV) compare wall time on an
// Adult-derived workload with a FIXED τ (the paper uses τ = 100,
// τ_MC+ = 1000 on 10 000 points). MSEs are omitted exactly as in the paper:
// MC does not converge at such a small τ, so only cost is meaningful.
//
// The "MC+" column is the high-τ Monte Carlo benchmark run itself — the
// cost a broker would pay for a fully re-converged valuation.

// largeAddTable generates Tables XI (numAdd=1) and XII (numAdd=2).
func (r *Runner) largeAddTable(numAdd int) (*Table, error) {
	n := r.cfg.LargeN
	sc := r.adultScenario(n, r.cfg.Seed+11)
	added := sc.extra[:numAdd]
	algos := []string{"MC", "TMC", "Pivot-d", "Delta", "KNN", "KNN+"}

	prods, err := r.initialize(sc, core.InitOptions{}, r.cfg.LargeTau, r.cfg.Seed+12)
	if err != nil {
		return nil, err
	}

	cols := []string{"metric", "MC+", "MC", "TMC", "Pivot-d", "Delta", "KNN", "KNN+"}
	timeRow := make([]string, len(cols))
	evalRow := make([]string, len(cols))
	hitRow := make([]string, len(cols))
	addRow := make([]string, len(cols))
	timeRow[0], evalRow[0] = "seconds", "utility evals"
	hitRow[0], addRow[0] = "cache hits", "prefix adds"

	// MC+ column: the paper's high-τ from-scratch benchmark run.
	start := time.Now()
	uPlus := sc.util.Append(added...)
	benchCount := game.NewCounting(uPlus)
	benchCache := game.NewCached(benchCount)
	r.mcReference(benchCache, r.cfg.LargeBenchTau, r.cfg.Seed+13)
	timeRow[1] = secs(time.Since(start))
	evalRow[1] = fmt.Sprintf("%d", benchCount.Calls())
	benchHits, _ := benchCache.Stats()
	hitRow[1] = fmt.Sprintf("%d", benchHits)
	addRow[1] = fmt.Sprintf("%d", benchCache.PrefixAdds())

	for i, name := range algos {
		_, m, err := r.runAdd(name, sc, prods, added, r.cfg.LargeTau, r.cfg.Seed+14+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		timeRow[i+2] = fmt.Sprintf("%.4g", m.seconds)
		evalRow[i+2] = fmt.Sprintf("%d", m.evals)
		hitRow[i+2] = fmt.Sprintf("%d", m.hits)
		addRow[i+2] = fmt.Sprintf("%d", m.prefixAdds)
	}
	t := &Table{Columns: cols, Rows: [][]string{timeRow, evalRow, hitRow, addRow}}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Adult-like dataset, n=%d, fixed τ=%d, τ_MC+=%d (paper: n=10000, τ=100, τ_MC+=1000)",
			n, r.cfg.LargeTau, r.cfg.LargeBenchTau),
		"seconds; MSEs omitted as in the paper (MC does not converge at this τ)",
		"utility evals = cache misses (model trainings); prefix adds = incremental prefix evaluations, which bypass the cache")
	return t, nil
}

// largeDeleteTable generates Tables XIII (numDel=1) and XIV (numDel=2).
func (r *Runner) largeDeleteTable(numDel int) (*Table, error) {
	n := r.cfg.LargeN
	sc := r.adultScenario(n, r.cfg.Seed+21)
	cands := rng.New(r.cfg.Seed+22).Sample(n, numDel+4)
	deleted := cands[:numDel]

	ynnnName := "YN-NN"
	if numDel > 1 {
		ynnnName = "YNN-NNN"
	}
	algos := []string{"MC", "TMC", ynnnName, "Delta", "KNN", "KNN+"}

	// At large n the dense n³ YN-NN arrays exceed memory (n=1000 → 16 GB);
	// use the candidate-restricted store, as a broker with a known set of
	// revocable owners would (DESIGN.md §4).
	opt := core.InitOptions{MultiDelete: numDel, Candidates: cands}
	prods, err := r.initialize(sc, opt, r.cfg.LargeTau, r.cfg.Seed+23)
	if err != nil {
		return nil, err
	}

	cols := append([]string{"metric", "MC+"}, algos...)
	timeRow := make([]string, len(cols))
	evalRow := make([]string, len(cols))
	hitRow := make([]string, len(cols))
	addRow := make([]string, len(cols))
	timeRow[0], evalRow[0] = "seconds", "utility evals"
	hitRow[0], addRow[0] = "cache hits", "prefix adds"

	start := time.Now()
	benchCount := game.NewCounting(sc.util)
	benchCache := game.NewCached(benchCount)
	restricted := game.NewRestrict(benchCache, deleted...)
	r.mcReference(restricted, r.cfg.LargeBenchTau, r.cfg.Seed+24)
	timeRow[1] = secs(time.Since(start))
	evalRow[1] = fmt.Sprintf("%d", benchCount.Calls())
	benchHits, _ := benchCache.Stats()
	hitRow[1] = fmt.Sprintf("%d", benchHits)
	addRow[1] = fmt.Sprintf("%d", benchCache.PrefixAdds())

	for i, name := range algos {
		_, m, err := r.runDelete(name, sc, prods, deleted, r.cfg.LargeTau, r.cfg.Seed+25+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if m.na {
			timeRow[i+2], evalRow[i+2] = "N/A", "N/A"
			hitRow[i+2], addRow[i+2] = "N/A", "N/A"
		} else {
			timeRow[i+2] = fmt.Sprintf("%.4g", m.seconds)
			evalRow[i+2] = fmt.Sprintf("%d", m.evals)
			hitRow[i+2] = fmt.Sprintf("%d", m.hits)
			addRow[i+2] = fmt.Sprintf("%d", m.prefixAdds)
		}
	}
	t := &Table{Columns: cols, Rows: [][]string{timeRow, evalRow, hitRow, addRow}}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Adult-like dataset, n=%d, fixed τ=%d, τ_MC+=%d; YN-NN via candidate-restricted arrays (%d candidates)",
			n, r.cfg.LargeTau, r.cfg.LargeBenchTau, len(cands)),
		"seconds; MSEs omitted as in the paper")
	return t, nil
}

func (r *Runner) tableLargeAddOne() (*Table, error)    { return r.largeAddTable(1) }
func (r *Runner) tableLargeAddTwo() (*Table, error)    { return r.largeAddTable(2) }
func (r *Runner) tableLargeDeleteOne() (*Table, error) { return r.largeDeleteTable(1) }
func (r *Runner) tableLargeDeleteTwo() (*Table, error) { return r.largeDeleteTable(2) }
