package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/semivalue"
)

// The sequential full-walk references: one goroutine, one walk per
// permutation, marginals folded as they are priced. Engine.MonteCarlo,
// Engine.TruncatedMonteCarlo, Engine.Initialize, Engine.AddDifferent and
// the engine's preprocessing fills must match them bit for bit at every
// worker count.

// incremental reports whether walks run on the incremental path.
func (w *prefixWalker) incremental() bool { return w.ev != nil }

// MonteCarlo approximates Shapley values by permutation sampling
// (Algorithm 1): τ random permutations are scanned head to tail and each
// player is credited its marginal contribution; the estimate is the average.
func MonteCarlo(g game.Game, tau int, r *rng.Source) []float64 {
	n := g.N()
	sv := make([]float64, n)
	if n == 0 || tau <= 0 {
		return sv
	}
	perm := make([]int, n)
	w := newPrefixWalker(g)
	empty := g.Value(bitset.New(n))
	for k := 0; k < tau; k++ {
		r.Perm(perm)
		w.reset()
		prev := empty
		for _, p := range perm {
			cur := w.add(p)
			sv[p] += cur - prev
			prev = cur
		}
	}
	for i := range sv {
		sv[i] /= float64(tau)
	}
	return sv
}

// TruncatedMonteCarlo is Monte Carlo with Ghorbani–Zou truncation: once the
// prefix utility is within tol of the full-coalition utility, the remaining
// players of the permutation are credited zero marginal contribution,
// saving their model trainings. Following the paper's experimental setup
// (§VII-A), truncation is only allowed from position ⌈n/2⌉ onward.
func TruncatedMonteCarlo(g game.Game, tau int, tol float64, r *rng.Source) []float64 {
	n := g.N()
	sv := make([]float64, n)
	if n == 0 || tau <= 0 {
		return sv
	}
	perm := make([]int, n)
	w := newPrefixWalker(g)
	empty := g.Value(bitset.New(n))
	full := g.Value(bitset.Full(n))
	minPos := (n + 1) / 2
	for k := 0; k < tau; k++ {
		r.Perm(perm)
		w.reset()
		prev := empty
		for pos, p := range perm {
			if pos >= minPos && abs(full-prev) < tol {
				break // remaining marginals treated as zero
			}
			cur := w.add(p)
			sv[p] += cur - prev
			prev = cur
		}
	}
	for i := range sv {
		sv[i] /= float64(tau)
	}
	return sv
}

// MonteCarloSemivalues prices every weighting in ws with one permutation
// pass: τ walks are sampled exactly as MonteCarlo samples them, and each
// head folds the observed marginals with its own position weights. The
// Shapley head's fold multiplies by exactly 1.0, so its output is
// bit-identical to MonteCarlo for the same source. This is the serial
// reference implementation the engine's multi-head passes are tested
// against.
func MonteCarloSemivalues(g game.Game, ws []semivalue.Weighting, tau int, r *rng.Source) [][]float64 {
	n := g.N()
	out := make([][]float64, len(ws))
	for h := range out {
		out[h] = make([]float64, n)
	}
	if n == 0 || tau <= 0 || len(ws) == 0 {
		return out
	}
	hf := newHeadFold(ws, n)
	perm := make([]int, n)
	utilities := make([]float64, n)
	w := newPrefixWalker(g)
	uEmpty := g.Value(bitset.New(n))
	for k := 0; k < tau; k++ {
		r.Perm(perm)
		w.reset()
		for pos, p := range perm {
			utilities[pos] = w.add(p)
		}
		hf.foldWalk(perm, utilities, uEmpty, n)
	}
	return hf.finish(tau)
}

// pivotInit is the pivot state of Initialize: Algorithm 2's pass, with
// the permutations kept when keepPerms is set. Initialize fails only
// building a deletion store, and none is requested.
func pivotInit(g game.Game, tau int, keepPerms bool, r *rng.Source) *PivotState {
	res, _ := Initialize(g, tau, InitOptions{KeepPerms: keepPerms}, r)
	return res.Pivot
}

// AddDifferent runs Algorithm 4 (the pivot-based algorithm with different
// sampled permutations) step by step: tau2 fresh permutations of the
// updated game are sampled and only the suffix from the pivot's position
// onward is evaluated; RSV is estimated from these while LSV is inherited
// from the state. It drops any stored permutations.
func (st *PivotState) AddDifferent(gPlus game.Game, tau2 int, r *rng.Source) ([]float64, error) {
	n := st.N()
	if gPlus.N() != n+1 {
		return nil, fmt.Errorf("core: AddDifferent game has %d players, want %d", gPlus.N(), n+1)
	}
	if tau2 <= 0 {
		return nil, fmt.Errorf("core: AddDifferent requires tau2 > 0, got %d", tau2)
	}
	pivot := n
	m := n + 1
	rsv := make([]float64, m)
	dlsv := make([]float64, m)
	w := newPrefixWalker(gPlus)
	var uEmpty float64
	if w.incremental() {
		uEmpty = gPlus.Value(bitset.New(m))
	}
	perm := make([]int, m)
	for k := 0; k < tau2; k++ {
		r.Perm(perm)
		t := 0
		for pos, q := range perm {
			if q == pivot {
				t = pos
				break
			}
		}
		p := r.Intn(m + 1)
		w.reset()
		prev := w.advance(perm, t, uEmpty)
		for pos := t; pos < m; pos++ {
			q := perm[pos]
			cur := w.add(q)
			mc := cur - prev
			rsv[q] += mc
			if pos < p {
				dlsv[q] += mc
			}
			prev = cur
		}
	}
	sv := make([]float64, m)
	lsv := make([]float64, m)
	for i := 0; i < m; i++ {
		var l float64
		if i < n {
			l = st.LSV[i]
		}
		sv[i] = l + rsv[i]/float64(tau2)
		lsv[i] = 2.0/3.0*l + dlsv[i]/float64(tau2)
	}
	st.SV = sv
	st.LSV = lsv
	st.Tau = tau2
	st.perms = nil
	st.slots = nil
	return append([]float64(nil), sv...), nil
}

// Initialize runs one Monte Carlo pass of τ permutations over g and builds
// every requested structure from the same samples: Shapley estimates, the
// pivot state's LSV (Algorithm 2), and the YN-NN / YNN-NNN utility arrays
// (Algorithm 6). Sharing the pass matters because utility evaluations — one
// model training each — dominate the cost; the bookkeeping that
// distinguishes the algorithms is nearly free by comparison.
func Initialize(g game.Game, tau int, opt InitOptions, r *rng.Source) (*InitResult, error) {
	n := g.N()
	res := &InitResult{
		Pivot: &PivotState{
			SV:  make([]float64, n),
			LSV: make([]float64, n),
			Tau: tau,
		},
	}
	if opt.KeepPerms {
		res.Pivot.perms = make([][]int, 0, tau)
		res.Pivot.slots = make([]int, 0, tau)
	}
	if opt.TrackDeletions {
		ds, err := NewDeletionStoreWith(n, opt.Store)
		if err != nil {
			return nil, err
		}
		res.Deletion = ds
	}
	if opt.MultiDelete >= 1 {
		ms, err := NewMultiDeletionStoreWith(n, opt.MultiDelete, opt.Candidates, opt.Store)
		if err != nil {
			return nil, err
		}
		res.Multi = ms
	}
	if n == 0 || tau <= 0 {
		return res, nil
	}

	w := newPrefixWalker(g)
	uEmpty := g.Value(bitset.New(n))
	utilities := make([]float64, n)
	hf := newHeadFold(opt.Heads, n)
	st := res.Pivot
	for k := 0; k < tau; k++ {
		perm := r.PermN(n)
		t := r.Intn(n + 1)
		w.reset()
		prev := uEmpty
		for pos, p := range perm {
			cur := w.add(p)
			utilities[pos] = cur
			m := cur - prev
			st.SV[p] += m
			if pos < t {
				st.LSV[p] += m
			}
			prev = cur
		}
		if opt.KeepPerms {
			st.perms = append(st.perms, perm)
			st.slots = append(st.slots, t)
		}
		if res.Deletion != nil {
			res.Deletion.AccumulatePermutation(perm, utilities, uEmpty)
		}
		if res.Multi != nil {
			res.Multi.AccumulatePermutation(perm, utilities, uEmpty)
		}
		if hf != nil {
			hf.foldWalk(perm, utilities, uEmpty, n)
		}
	}
	if hf != nil {
		res.HeadValues = hf.finish(tau)
	}
	for i := 0; i < n; i++ {
		st.SV[i] /= float64(tau)
		st.LSV[i] /= float64(tau)
	}
	if res.Deletion != nil {
		res.Deletion.finishSampled()
	}
	if res.Multi != nil {
		res.Multi.finishSampled()
	}
	return res, nil
}

// AccumulatePermutation folds one permutation's prefix utilities into the
// sampled-mode arrays and Shapley sums (the loop body of Algorithm 6).
// utilities[pos] must hold U({perm[0..pos]}); uEmpty is U(∅).
func (ds *DeletionStore) AccumulatePermutation(perm []int, utilities []float64, uEmpty float64) {
	n := ds.n
	if len(perm) != n || len(utilities) != n {
		panic("core: AccumulatePermutation length mismatch")
	}
	prev := uEmpty
	for pos, pt := range perm {
		cur := utilities[pos]
		ds.SV[pt] += cur - prev
		prev = cur
	}
	ds.accumulateStripe(perm, utilities, uEmpty, nil, 0, n, n)
	ds.tau++
}

// AccumulatePermutation folds one permutation into the sampled-mode arrays.
// utilities[pos] must hold U({perm[0..pos]}); uEmpty is U(∅).
func (ms *MultiDeletionStore) AccumulatePermutation(perm []int, utilities []float64, uEmpty float64) {
	n := ms.n
	if len(perm) != n || len(utilities) != n {
		panic("core: AccumulatePermutation length mismatch")
	}
	aux := ms.newAux()
	ms.prepare(perm, aux, n)
	prev := uEmpty
	for p, pt := range perm {
		cur := utilities[p]
		ms.SV[pt] += cur - prev
		prev = cur
	}
	ms.accumulateStripe(perm, utilities, uEmpty, aux, 0, n, n)
	ms.tau++
}

// PreprocessDeletion runs Algorithm 6: Monte Carlo Shapley computation over
// g that simultaneously fills the YN/NN arrays. The extra work per
// permutation is O(n²) float additions — no additional utility evaluations.
func PreprocessDeletion(g game.Game, tau int, r *rng.Source) *DeletionStore {
	n := g.N()
	ds := NewDeletionStore(n)
	if n == 0 || tau <= 0 {
		return ds
	}
	w := newPrefixWalker(g)
	uEmpty := g.Value(bitset.New(n))
	utilities := make([]float64, n)
	perm := make([]int, n)
	for k := 0; k < tau; k++ {
		r.Perm(perm)
		w.reset()
		for pos, p := range perm {
			utilities[pos] = w.add(p)
		}
		ds.AccumulatePermutation(perm, utilities, uEmpty)
	}
	ds.finishSampled()
	return ds
}

// TestStripedFillSpeedup enforces the striped fill's speed bound: at
// n ≈ 100 the stripe-parallel YN-NN fill with ≥4 workers must beat the
// serial fill by at least 2×. The utility here is nearly free, so the
// timing isolates the O(n²·τ) accumulation work that striping divides.
// Skipped on machines without enough cores to honour the bound.
func TestStripedFillSpeedup(t *testing.T) {
	if p := runtime.GOMAXPROCS(0); p < 4 {
		t.Skipf("need at least 4 CPUs for the parallel fill bound, have %d", p)
	}
	const n, tau = 100, 400
	g := game.Func{Players: n, U: func(s bitset.Set) float64 {
		k := float64(s.Len())
		return k / (k + 3)
	}}
	e := NewEngine(WithWorkers(4))
	fillSerial := func() { PreprocessDeletion(g, tau, rng.New(11)) }
	fillStriped := func() { e.PreprocessDeletion(g, tau, rng.New(11)) }
	// Warm up once each (worker startup, cache effects), then time.
	fillSerial()
	fillStriped()
	const reps = 3
	startSerial := time.Now()
	for i := 0; i < reps; i++ {
		fillSerial()
	}
	serialSecs := time.Since(startSerial).Seconds()
	startStriped := time.Now()
	for i := 0; i < reps; i++ {
		fillStriped()
	}
	stripedSecs := time.Since(startStriped).Seconds()
	if stripedSecs*2 > serialSecs {
		t.Fatalf("striped fill only %.2f× faster than serial (striped %.4fs, serial %.4fs), want ≥2×",
			serialSecs/stripedSecs, stripedSecs, serialSecs)
	}
}

// PreprocessMultiDeletion runs the YNN-NNN fill: Monte Carlo Shapley
// computation over g that simultaneously populates the (d+2)-dimensional
// arrays for every d-subset of the candidates.
func PreprocessMultiDeletion(g game.Game, d int, candidates []int, tau int, r *rng.Source) (*MultiDeletionStore, error) {
	n := g.N()
	ms, err := NewMultiDeletionStore(n, d, candidates)
	if err != nil {
		return nil, err
	}
	if n == 0 || tau <= 0 {
		return ms, nil
	}
	w := newPrefixWalker(g)
	uEmpty := g.Value(bitset.New(n))
	utilities := make([]float64, n)
	perm := make([]int, n)
	for k := 0; k < tau; k++ {
		r.Perm(perm)
		w.reset()
		for pos, p := range perm {
			utilities[pos] = w.add(p)
		}
		ms.AccumulatePermutation(perm, utilities, uEmpty)
	}
	ms.finishSampled()
	return ms, nil
}

// PreprocessDeletionExact fills the arrays with the combinatorial sums of
// Definition 1 by complete enumeration (n ≤ MaxExactPlayers) and records
// exact Shapley values. Merge then applies Lemma 3 verbatim.
func PreprocessDeletionExact(g game.Game) *DeletionStore {
	n := g.N()
	if n > MaxExactPlayers {
		panic(fmt.Sprintf("core: PreprocessDeletionExact limited to %d players, got %d", MaxExactPlayers, n))
	}
	ds := NewDeletionStore(n)
	ds.exact = true
	ds.SV = Exact(g)
	s := bitset.New(n)
	size := 1 << uint(n)
	for mask := 0; mask < size; mask++ {
		s.Clear()
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Add(i)
			}
		}
		u := g.Value(s)
		k := popcount(mask)
		for i := 0; i < n; i++ {
			iIn := mask&(1<<uint(i)) != 0
			for j := 0; j < n; j++ {
				if mask&(1<<uint(j)) != 0 {
					continue // j must be excluded
				}
				if iIn {
					ds.ynB.add(ds.idx(i, j, k), u)
				} else if i != j {
					ds.nnB.add(ds.idx(i, j, k), u)
				}
			}
		}
	}
	return ds
}

// PreprocessMultiDeletionExact fills Definition-2 arrays by complete
// enumeration (n ≤ MaxExactPlayers).
func PreprocessMultiDeletionExact(g game.Game, d int, candidates []int) (*MultiDeletionStore, error) {
	n := g.N()
	if n > MaxExactPlayers {
		return nil, fmt.Errorf("core: exact multi-deletion limited to %d players, got %d", MaxExactPlayers, n)
	}
	ms, err := NewMultiDeletionStore(n, d, candidates)
	if err != nil {
		return nil, err
	}
	ms.exact = true
	ms.SV = Exact(g)
	s := bitset.New(n)
	size := 1 << uint(n)
	for mask := 0; mask < size; mask++ {
		s.Clear()
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s.Add(i)
			}
		}
		u := g.Value(s)
		k := popcount(mask)
		for t, tuple := range ms.tuples {
			excluded := true
			for _, m := range tuple {
				if mask&(1<<uint(m)) != 0 {
					excluded = false
					break
				}
			}
			if !excluded {
				continue
			}
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					ms.yB.add(ms.idx(i, t, k), u)
				} else if !contains(tuple, i) {
					ms.nnB.add(ms.idx(i, t, k), u)
				}
			}
		}
	}
	return ms, nil
}
