package core

import (
	"math"
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/rng"
	"dynshap/internal/stat"
)

// fillDeletionStore feeds tau synthetic permutation walks into ds. The
// (seed, umax) stream is a pure function of its arguments, so filling two
// stores with the same parameters gives them identical input — any output
// difference is then attributable to the storage backend alone.
func fillDeletionStore(ds *DeletionStore, tau int, seed uint64, umax float64) {
	n := ds.N()
	r := rng.New(seed)
	perm := make([]int, n)
	utilities := make([]float64, n)
	for k := 0; k < tau; k++ {
		r.Perm(perm)
		for pos := range utilities {
			utilities[pos] = umax * (2*r.Float64() - 1)
		}
		ds.AccumulatePermutation(perm, utilities, 0)
	}
	ds.finishSampled()
}

// fillMultiStore is fillDeletionStore for the YNN-NNN store.
func fillMultiStore(ms *MultiDeletionStore, tau int, seed uint64, umax float64) {
	n := ms.N()
	r := rng.New(seed)
	perm := make([]int, n)
	utilities := make([]float64, n)
	for k := 0; k < tau; k++ {
		r.Perm(perm)
		for pos := range utilities {
			utilities[pos] = umax * (2*r.Float64() - 1)
		}
		ms.AccumulatePermutation(perm, utilities, 0)
	}
	ms.finishSampled()
}

// storeMergeTolerance is the DESIGN.md §15 tolerance contract for the
// float32 backends: a sampled entry accumulates ≤ τ addends of magnitude
// ≤ umax in float32, so after the 1/τ scaling its rounding error is at most
// τ·ε32·umax; Merge combines n−1 entry pairs with coefficients n/(n−k)
// summing to n·H_{n−1} ≤ n·(ln n + 1), and its Neumaier-compensated float64
// reduction adds nothing at float32 scale. The factor 4 absorbs the
// coarseness of bounding Σ|addends| by τ·umax.
func storeMergeTolerance(n, tau int, umax float64) float64 {
	const eps32 = 1.0 / (1 << 24)
	harmonic := float64(n) * (math.Log(float64(n)) + 1)
	return 4 * 2 * harmonic * float64(tau) * eps32 * umax
}

// TestTiledStoreMemoryRatio pins the headline footprint claim: the tiled
// float32 backend stores the same logical arrays in ≤ 55% of the dense
// float64 backend's bytes — at the small full-store shape and at the
// benchmark's candidate-restricted n=1000 shape.
func TestTiledStoreMemoryRatio(t *testing.T) {
	dsDense := NewDeletionStore(96)
	dsTiled, err := NewDeletionStoreWith(96, StoreConfig{Kind: BackendTiled32})
	if err != nil {
		t.Fatal(err)
	}
	if got, max := dsTiled.MemoryBytes(), dsDense.MemoryBytes()*55/100; got > max {
		t.Errorf("tiled DeletionStore footprint %d B > 55%% of dense %d B", got, dsDense.MemoryBytes())
	}
	if dsTiled.HeapBytes() != dsTiled.MemoryBytes() {
		t.Errorf("tiled backend is in-memory: HeapBytes %d != MemoryBytes %d", dsTiled.HeapBytes(), dsTiled.MemoryBytes())
	}

	const n = 1000
	cands := rng.New(1).Sample(n, 8)
	msDense, err := NewMultiDeletionStoreWith(n, 1, cands, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	msTiled, err := NewMultiDeletionStoreWith(n, 1, cands, StoreConfig{Kind: BackendTiled32})
	if err != nil {
		t.Fatal(err)
	}
	if got, max := msTiled.MemoryBytes(), msDense.MemoryBytes()*55/100; got > max {
		t.Errorf("tiled MultiDeletionStore footprint %d B > 55%% of dense %d B", got, msDense.MemoryBytes())
	}
}

// TestStoreBackendRankCorrelation runs the real engine fill (striped, with
// the prefix walker) on dense and tiled backends over an additive game and
// checks the acceptance contract: Merge output within the documented
// tolerance and Spearman rank correlation ≥ 0.99 against float64.
func TestStoreBackendRankCorrelation(t *testing.T) {
	const n, tau = 64, 160
	w := make([]float64, n)
	r0 := rng.New(11)
	total := 0.0
	for i := range w {
		w[i] = r0.Float64()
		total += w[i]
	}
	g := game.Additive{Weights: w}
	e := NewEngine(WithWorkers(4))
	dense, err := e.PreprocessDeletionWith(g, tau, rng.New(42), StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := e.PreprocessDeletionWith(g, tau, rng.New(42), StoreConfig{Kind: BackendTiled32})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Backend() != BackendDense64 || tiled.Backend() != BackendTiled32 {
		t.Fatalf("backends = %v, %v", dense.Backend(), tiled.Backend())
	}
	tol := storeMergeTolerance(n, tau, total) // prefix utilities peak at the weight total
	for _, p := range []int{0, n / 2, n - 1} {
		dv, err := dense.Merge(p)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := tiled.Merge(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dv {
			if d := math.Abs(tv[i] - dv[i]); d > tol {
				t.Fatalf("Merge(%d)[%d]: tiled %v vs dense %v, |Δ|=%g > tolerance %g", p, i, tv[i], dv[i], d, tol)
			}
		}
		if rho := stat.Spearman(dv, tv); rho < 0.99 {
			t.Errorf("Merge(%d): Spearman(dense, tiled) = %v < 0.99", p, rho)
		}
	}
}

// TestFloat32StoreWorkerInvariance checks the tile-ownership design: row-
// aligned tiles give every entry exactly one writer adding in walk order,
// so the float32 fills are bit-identical at any worker count — the same
// guarantee the dense backend has always had.
func TestFloat32StoreWorkerInvariance(t *testing.T) {
	const n, tau = 33, 40
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i%7) + 0.25
	}
	g := game.Additive{Weights: w}
	for _, kind := range []BackendKind{BackendTiled32, BackendSpill32} {
		cfg := StoreConfig{Kind: kind}
		if kind == BackendSpill32 {
			cfg.SpillDir = t.TempDir()
		}
		serial, err := NewEngine(WithWorkers(1)).PreprocessDeletionWith(g, tau, rng.New(7), cfg)
		if err != nil {
			t.Fatal(err)
		}
		striped, err := NewEngine(WithWorkers(4), WithChunkSize(2)).PreprocessDeletionWith(g, tau, rng.New(7), cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertBitEqual(t, kind.String()+" SV", striped.SV, serial.SV)
		assertBitEqual(t, kind.String()+" YN", striped.ynB.export(), serial.ynB.export())
		assertBitEqual(t, kind.String()+" NN", striped.nnB.export(), serial.nnB.export())
		serial.Close()
		striped.Close()
	}
}

// TestSpillStoreMemorySmoke is the `make bench-mem` gate: a spill-backed
// store several MB in logical size must keep its heap-resident share under
// a fixed ceiling, flush cleanly, and merge bit-identically to the in-heap
// tiled backend (both accumulate in float32, so the mapping adds nothing).
func TestSpillStoreMemorySmoke(t *testing.T) {
	const n, tau = 256, 16
	cands := rng.New(3).Sample(n, 8)
	spill, err := NewMultiDeletionStoreWith(n, 1, cands, StoreConfig{Kind: BackendSpill32, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	if spill.Backend() != BackendSpill32 {
		t.Skip("spill backend unavailable on this platform (falls back to tiled32)")
	}
	fillMultiStore(spill, tau, 21, 1)
	if err := spill.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	const heapCeiling = 1 << 20 // 1 MiB of bookkeeping for a multi-MB store
	if spill.MemoryBytes() <= heapCeiling {
		t.Fatalf("store too small (%d B) to demonstrate spilling", spill.MemoryBytes())
	}
	if got := spill.HeapBytes(); got > heapCeiling {
		t.Errorf("spill store keeps %d B on heap, ceiling %d B", got, heapCeiling)
	}

	tiled, err := NewMultiDeletionStoreWith(n, 1, cands, StoreConfig{Kind: BackendTiled32})
	if err != nil {
		t.Fatal(err)
	}
	fillMultiStore(tiled, tau, 21, 1)
	want, err := tiled.Merge(cands[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := spill.Merge(cands[0])
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, "spill vs tiled Merge", got, want)
}

// diminishing is a symmetric game whose marginal contributions decay
// geometrically with coalition size — the diminishing-returns regime where
// stratified truncation's tail bias vanishes (U(S) = 1 − ρ^|S|).
type diminishing struct {
	n   int
	rho float64
}

func (g diminishing) N() int { return g.n }
func (g diminishing) Value(s bitset.Set) float64 {
	return 1 - math.Pow(g.rho, float64(s.Len()))
}

// TestTruncatedMonteCarloAccuracy checks the estimator contract: with
// truncation t, strata k ≤ t are unbiased, so on a diminishing-returns game
// the estimate lands within (ρ^t)/n + sampling noise of the closed form
// SV_i = (1 − ρ^n)/n.
func TestTruncatedMonteCarloAccuracy(t *testing.T) {
	const n, trunc, tau = 40, 12, 2000
	g := diminishing{n: n, rho: 0.5}
	e := NewEngine(WithWorkers(3), WithTruncation(trunc))
	sv := e.MonteCarlo(g, tau, rng.New(5))
	if got := e.Stats().Truncation; got != trunc {
		t.Fatalf("EngineStats.Truncation = %d, want %d", got, trunc)
	}
	exact := (1 - math.Pow(g.rho, float64(n))) / float64(n)
	for i, v := range sv {
		if d := math.Abs(v - exact); d > 0.008 {
			t.Errorf("sv[%d] = %v, exact %v, |Δ|=%g beyond noise+tail bound", i, v, exact, d)
		}
	}
}

// TestTruncationDeterminism: the truncated sampler is a pure function of
// the seed — identical across worker counts — and a truncation at or above
// n leaves the historic randomness stream untouched (bit-identical to an
// untruncated engine).
func TestTruncationDeterminism(t *testing.T) {
	const n, tau = 24, 50
	g := diminishing{n: n, rho: 0.6}
	a := NewEngine(WithWorkers(1), WithTruncation(10)).MonteCarlo(g, tau, rng.New(9))
	b := NewEngine(WithWorkers(4), WithChunkSize(3), WithTruncation(10)).MonteCarlo(g, tau, rng.New(9))
	assertBitEqual(t, "truncated MC across workers", b, a)

	plain := NewEngine().MonteCarlo(g, tau, rng.New(9))
	loose := NewEngine(WithTruncation(n+5)).MonteCarlo(g, tau, rng.New(9))
	assertBitEqual(t, "truncation ≥ n is the identity", loose, plain)
}

// TestTruncationKeepPermsError: retained permutations record full walks, so
// Initialize must refuse the combination rather than store biased prefixes.
func TestTruncationKeepPermsError(t *testing.T) {
	g := diminishing{n: 16, rho: 0.5}
	e := NewEngine(WithTruncation(4))
	if _, err := e.Initialize(g, 20, InitOptions{KeepPerms: true}, rng.New(1)); err == nil {
		t.Fatal("Initialize accepted KeepPerms with truncation; want error")
	}
}

// TestTruncatedStoreStrata: a truncated fill writes only strata k ≤ t of
// the YN array (k < t for NN); the tail strata stay exactly zero, which is
// what keeps Merge's per-k coefficients valid under truncation.
func TestTruncatedStoreStrata(t *testing.T) {
	const n, trunc, tau = 20, 6, 30
	g := diminishing{n: n, rho: 0.5}
	e := NewEngine(WithTruncation(trunc))
	ds, err := e.PreprocessDeletionWith(g, tau, rng.New(13), StoreConfig{Kind: BackendTiled32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := trunc + 1; k <= n; k++ {
				if v := ds.ynB.at(ds.idx(i, j, k)); v != 0 {
					t.Fatalf("YN[%d][%d][%d] = %v, want 0 beyond truncation depth %d", i, j, k, v, trunc)
				}
			}
			for k := trunc; k <= n; k++ {
				if v := ds.nnB.at(ds.idx(i, j, k)); v != 0 {
					t.Fatalf("NN[%d][%d][%d] = %v, want 0 beyond truncation depth %d", i, j, k, v, trunc)
				}
			}
		}
	}
}

// FuzzStoreBackendEquality fuzzes the backend contract over random fills:
// the dense float64 backend is exact-equality gated (bit-identical across
// repeated identical fills), and the tiled float32 backend merges within
// the documented storeMergeTolerance bound of dense.
func FuzzStoreBackendEquality(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(16))
	f.Add(uint64(99), uint8(3), uint8(1))
	f.Add(uint64(7), uint8(20), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, tauRaw uint8) {
		n := 2 + int(nRaw%23)     // 2..24 players
		tau := 1 + int(tauRaw%64) // 1..64 walks
		const umax = 2.0
		dense1 := NewDeletionStore(n)
		dense2 := NewDeletionStore(n)
		tiled, err := NewDeletionStoreWith(n, StoreConfig{Kind: BackendTiled32})
		if err != nil {
			t.Fatal(err)
		}
		fillDeletionStore(dense1, tau, seed, umax)
		fillDeletionStore(dense2, tau, seed, umax)
		fillDeletionStore(tiled, tau, seed, umax)
		tol := storeMergeTolerance(n, tau, umax)
		for p := 0; p < n; p++ {
			v1, err := dense1.Merge(p)
			if err != nil {
				t.Fatal(err)
			}
			v2, _ := dense2.Merge(p)
			vt, _ := tiled.Merge(p)
			for i := range v1 {
				if math.Float64bits(v1[i]) != math.Float64bits(v2[i]) {
					t.Fatalf("dense backend not exact: Merge(%d)[%d] = %v vs %v", p, i, v1[i], v2[i])
				}
				if d := math.Abs(vt[i] - v1[i]); d > tol {
					t.Fatalf("tiled Merge(%d)[%d] off by %g > tolerance %g (n=%d τ=%d)", p, i, d, tol, n, tau)
				}
			}
		}
	})
}

// benchFillMulti measures fill throughput and footprint of one backend at
// the candidate-restricted shape internal/bench uses for large n (the dense
// full YN-NN store at n=1000 would be 16 GB; a broker tracks a candidate
// pool). Footprints surface as benchmark metrics so `benchsnap` records and
// diffs them alongside ns/op.
func benchFillMulti(b *testing.B, n, numCand int, cfg StoreConfig) {
	cands := rng.New(1).Sample(n, numCand)
	ms, err := NewMultiDeletionStoreWith(n, 1, cands, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer ms.Close()
	r := rng.New(2)
	perm := make([]int, n)
	utilities := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Perm(perm)
		u := 0.0
		for pos, p := range perm {
			u += float64(p)
			utilities[pos] = u * 1e-6
		}
		ms.AccumulatePermutation(perm, utilities, 0)
	}
	b.StopTimer()
	b.ReportMetric(float64(ms.MemoryBytes()), "store-bytes")
	b.ReportMetric(float64(ms.HeapBytes()), "heap-bytes")
}

func BenchmarkDeletionStoreN1000(b *testing.B) {
	for _, kind := range []BackendKind{BackendDense64, BackendTiled32, BackendSpill32} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := StoreConfig{Kind: kind}
			if kind == BackendSpill32 {
				cfg.SpillDir = b.TempDir()
			}
			benchFillMulti(b, 1000, 8, cfg)
		})
	}
}

func BenchmarkDeletionStoreN2000(b *testing.B) {
	for _, kind := range []BackendKind{BackendTiled32, BackendSpill32} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := StoreConfig{Kind: kind}
			if kind == BackendSpill32 {
				cfg.SpillDir = b.TempDir()
			}
			benchFillMulti(b, 2000, 6, cfg)
		})
	}
}

func BenchmarkDeletionStoreN5000(b *testing.B) {
	b.Run(BackendSpill32.String(), func(b *testing.B) {
		benchFillMulti(b, 5000, 4, StoreConfig{Kind: BackendSpill32, SpillDir: b.TempDir()})
	})
}
