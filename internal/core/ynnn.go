package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"dynshap/internal/bitset"
	"dynshap/internal/game"
	"dynshap/internal/semivalue"
)

// DeletionStore is the YN-NN data structure (Algorithm 6 / Definition 1):
// two three-dimensional utility-sum arrays filled as a free by-product of
// computing Shapley values on the original dataset, from which the
// post-deletion Shapley value of every surviving player is recovered in
// O(n²) — without a single new utility evaluation.
//
//	YN[i][j][k] accumulates utilities of size-k coalitions containing i and
//	excluding j; NN[i][j][k] those excluding both i and j.
//
// Two fill semantics exist and are tracked by the exact flag:
//
//   - sampled (Algorithm 6): each permutation's prefix utilities are
//     accumulated and divided by τ. E[YN[i][j][k]] equals the Definition-1
//     sum scaled by (k−1)!(n−k)!/n!, so Merge uses the derived coefficient
//     n/(n−k). (The paper's Algorithm 7 prints (n−1)/(n−j); the corrected
//     coefficient is verified against full-enumeration recovery in the
//     tests.)
//   - exact (Definition 1): the arrays hold the combinatorial sums
//     themselves and Merge applies Lemma 3 verbatim.
type DeletionStore struct {
	// SV holds the Shapley estimates computed while filling (sampled mode).
	SV []float64

	n     int
	tau   int
	exact bool
	store StoreConfig
	// ynB/nnB are the storage backends: yn[i][j][k] for k in 0..n, nn
	// likewise; flat layout i*(n*(n+1)) + j*(n+1) + k.
	ynB, nnB storeBackend
	// yn, nn alias the dense float64 arrays when the store uses the
	// default dense backend (nil otherwise) — the fill and merge hot loops
	// take the direct-slice path through them, keeping the dense store
	// bit-identical to its pre-interface self.
	yn, nn []float64
}

// NewDeletionStore allocates an empty store for an n-player game on the
// default (exact, dense float64) backend.
func NewDeletionStore(n int) *DeletionStore {
	ds, err := NewDeletionStoreWith(n, StoreConfig{})
	if err != nil {
		panic(err) // dense allocation cannot fail with an error
	}
	return ds
}

// NewDeletionStoreWith allocates an empty store on the configured storage
// backend. Only BackendSpill32 can fail (scratch-file I/O).
func NewDeletionStoreWith(n int, cfg StoreConfig) (*DeletionStore, error) {
	ds := &DeletionStore{
		n:     n,
		SV:    make([]float64, n),
		store: cfg,
	}
	entries, rowLen := n*n*(n+1), n*(n+1)
	var err error
	if ds.ynB, err = newBackend(entries, rowLen, cfg); err != nil {
		return nil, err
	}
	if ds.nnB, err = newBackend(entries, rowLen, cfg); err != nil {
		ds.ynB.close()
		return nil, err
	}
	if d, ok := ds.ynB.(*dense64); ok {
		ds.yn = d.v
		ds.nn = ds.nnB.(*dense64).v
	}
	return ds, nil
}

// N returns the number of players the store covers.
func (ds *DeletionStore) N() int { return ds.n }

// Tau returns the number of permutations accumulated (sampled mode).
func (ds *DeletionStore) Tau() int { return ds.tau }

// Backend identifies the storage backend holding the arrays.
func (ds *DeletionStore) Backend() BackendKind { return ds.ynB.backendKind() }

// MemoryBytes returns the logical footprint of the two utility arrays —
// the quantity the paper's Table IX reports. For the spill backend this is
// file bytes, not RAM; see HeapBytes.
func (ds *DeletionStore) MemoryBytes() int64 {
	return ds.ynB.logicalBytes() + ds.nnB.logicalBytes()
}

// HeapBytes returns the heap-resident share of the arrays: equal to
// MemoryBytes for the in-memory backends, bookkeeping-only for spill.
func (ds *DeletionStore) HeapBytes() int64 {
	return ds.ynB.heapBytes() + ds.nnB.heapBytes()
}

// Flush writes dirty tiles to stable storage (spill backend; no-op for the
// in-memory backends).
func (ds *DeletionStore) Flush() error {
	if err := ds.ynB.flush(); err != nil {
		return err
	}
	return ds.nnB.flush()
}

// Close releases non-heap resources (the spill backend's mapping and
// scratch file). The store must not be used afterwards. In-memory stores
// need no Close; spill stores are also closed by a GC finalizer, so Close
// is an optimisation for deterministic cleanup, not a correctness duty.
func (ds *DeletionStore) Close() error {
	if err := ds.ynB.close(); err != nil {
		return err
	}
	return ds.nnB.close()
}

func (ds *DeletionStore) idx(i, j, k int) int {
	return (i*ds.n+j)*(ds.n+1) + k
}

// newAux implements stripeTarget; the YN-NN fill needs no per-permutation
// metadata.
func (ds *DeletionStore) newAux() []int { return nil }

// prepare implements stripeTarget: a walk of length w costs
// Σ_{pos<w} 2·(n−pos) array updates.
func (ds *DeletionStore) prepare(perm []int, aux []int, walk int) int64 {
	n := int64(ds.n)
	w := int64(walk)
	return w * (2*n - w + 1)
}

// accumulateStripe folds one permutation into the rows lo ≤ i < hi of the
// arrays — the stripe owned by one engine worker. Row i receives its
// additions in permutation-walk order regardless of how [0, n) is split
// into stripes, so the striped fill is bit-identical to the serial one —
// for every backend, since each entry still has exactly one writer adding
// in walk order. SV and τ are left to the producer. Only the first walk
// positions carry valid utilities (walk < n under truncation).
func (ds *DeletionStore) accumulateStripe(perm []int, utilities []float64, uEmpty float64, aux []int, lo, hi, walk int) {
	n := ds.n
	if yn, nn := ds.yn, ds.nn; yn != nil {
		// Dense fast path: direct slice arithmetic, the historic loop.
		prev := uEmpty
		for pos := 0; pos < walk; pos++ {
			pt := perm[pos]
			cur := utilities[pos]
			if pt >= lo && pt < hi {
				// Every player at a later position is absent from both prefixes.
				for j := pos; j < n; j++ {
					q := perm[j]
					yn[(pt*n+q)*(n+1)+pos+1] += cur
					nn[(pt*n+q)*(n+1)+pos] += prev
				}
			}
			prev = cur
		}
		return
	}
	prev := uEmpty
	for pos := 0; pos < walk; pos++ {
		pt := perm[pos]
		cur := utilities[pos]
		if pt >= lo && pt < hi {
			for j := pos; j < n; j++ {
				q := perm[j]
				ds.ynB.add(ds.idx(pt, q, pos+1), cur)
				ds.nnB.add(ds.idx(pt, q, pos), prev)
			}
		}
		prev = cur
	}
}

// finishSampled converts accumulated sums into averages.
func (ds *DeletionStore) finishSampled() {
	inv := 1 / float64(ds.tau)
	if ds.yn != nil {
		// Dense fast path: the historic interleaved loop, bit-identical.
		for i := range ds.yn {
			ds.yn[i] *= inv
			ds.nn[i] *= inv
		}
	} else {
		ds.ynB.scale(inv)
		ds.nnB.scale(inv)
	}
	for i := range ds.SV {
		ds.SV[i] *= inv
	}
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

// mergeParallelWork is the row-sweep size (entries read) below which a
// parallel Merge is not worth the goroutine fan-out.
const mergeParallelWork = 1 << 15

// mergeWorkers picks the recovery parallelism for a sweep over `work`
// array entries.
func mergeWorkers(work int) int {
	if work < mergeParallelWork {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// parallelRows splits [0, n) into `workers` contiguous stripes and runs f
// on each concurrently. f(lo, hi) must touch only rows in its stripe.
func parallelRows(n, workers int, f func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Merge runs Algorithm 7: it derives the post-deletion Shapley values of
// every surviving player after removing player p, purely from the stored
// arrays. The returned slice has n entries with out[p] = 0. The row sweep
// is parallelised over i for large stores; each out[i] is accumulated in
// ascending-k order by exactly one goroutine, so the result is
// bit-identical at every worker count.
func (ds *DeletionStore) Merge(p int) ([]float64, error) {
	return ds.mergeWith(p, mergeWorkers(ds.n*ds.n))
}

// mergeWith is Merge with an explicit worker count (exposed for tests).
func (ds *DeletionStore) mergeWith(p, workers int) ([]float64, error) {
	n := ds.n
	if p < 0 || p >= n {
		return nil, fmt.Errorf("core: Merge point %d out of range [0,%d)", p, n)
	}
	out := make([]float64, n)
	if n == 1 {
		return out, nil
	}
	// Per-k coefficients, shared across rows; computed by the same
	// recurrences — and applied with the same operations (divide for
	// exact, multiply for sampled) — as the historic k-outer loop, so each
	// out[i] sees bit-identical arithmetic in the same ascending-k order.
	coef := make([]float64, n)
	if ds.exact {
		// Lemma 3: SV⁻_i = 1/(n−1) Σ_k (YN[i][p][k] − NN[i][p][k−1]) / C(n−2, k−1).
		binom := 1.0 // C(n−2, 0)
		for k := 1; k <= n-1; k++ {
			coef[k] = binom
			binom = binom * float64(n-1-k) / float64(k) // C(n−2, k)
		}
	} else {
		// Sampled semantics: coefficient n/(n−k) (see type comment).
		for k := 1; k <= n-1; k++ {
			coef[k] = float64(n) / float64(n-k)
		}
	}
	parallelRows(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == p {
				continue
			}
			if ds.yn != nil {
				// Dense fast path: the historic plain accumulation, so the
				// default backend stays bit-identical to pre-interface output.
				acc := 0.0
				base := (i*n + p) * (n + 1)
				for k := 1; k <= n-1; k++ {
					d := ds.yn[base+k] - ds.nn[base+k-1]
					if ds.exact {
						acc += d / coef[k]
					} else {
						acc += d * coef[k]
					}
				}
				if ds.exact {
					acc /= float64(n - 1)
				}
				out[i] = acc
				continue
			}
			// Float32 backends: Neumaier-compensated reduction, so the merge
			// adds no error beyond the storage rounding (DESIGN.md §15).
			var acc neumaierSum
			base := (i*n + p) * (n + 1)
			for k := 1; k <= n-1; k++ {
				d := ds.ynB.at(base+k) - ds.nnB.at(base+k-1)
				if ds.exact {
					acc.add(d / coef[k])
				} else {
					acc.add(d * coef[k])
				}
			}
			v := acc.value()
			if ds.exact {
				v /= float64(n - 1)
			}
			out[i] = v
		}
	})
	return out, nil
}

// MergeSemivalue derives the post-deletion values of a LINEAR semivalue
// head from the same stored arrays Merge reads: the YN−NN difference
// isolates the survivor game's strata, so any untransformed weighting can
// re-price them (semivalue.MergeCoeffs). Absolute-transform heads are
// rejected — |·| does not distribute over the stored sums. The Shapley
// weighting is NOT routed through Merge: its coefficients are the same
// values the historic loop derives, but applied as multiplications, so
// use Merge when bit-compatibility with pre-semivalue output matters.
func (ds *DeletionStore) MergeSemivalue(p int, w semivalue.Weighting) ([]float64, error) {
	return ds.mergeSemivalueWith(p, w, mergeWorkers(ds.n*ds.n))
}

// mergeSemivalueWith is MergeSemivalue with an explicit worker count.
func (ds *DeletionStore) mergeSemivalueWith(p int, w semivalue.Weighting, workers int) ([]float64, error) {
	n := ds.n
	if p < 0 || p >= n {
		return nil, fmt.Errorf("core: MergeSemivalue point %d out of range [0,%d)", p, n)
	}
	if w.Abs() {
		return nil, fmt.Errorf("core: MergeSemivalue cannot recover %v from the deletion store (absolute transform)", w)
	}
	out := make([]float64, n)
	if n == 1 {
		return out, nil
	}
	coef := w.MergeCoeffs(n, ds.exact)
	parallelRows(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i == p {
				continue
			}
			if ds.yn != nil {
				acc := 0.0
				base := (i*n + p) * (n + 1)
				for k := 1; k <= n-1; k++ {
					acc += (ds.yn[base+k] - ds.nn[base+k-1]) * coef[k]
				}
				out[i] = acc
				continue
			}
			var acc neumaierSum
			base := (i*n + p) * (n + 1)
			for k := 1; k <= n-1; k++ {
				acc.add((ds.ynB.at(base+k) - ds.nnB.at(base+k-1)) * coef[k])
			}
			out[i] = acc.value()
		}
	})
	return out, nil
}

// MultiDeletionStore is the YNN-NNN generalisation (Definition 2 / Lemma 4)
// for deleting d points at once: the arrays gain one axis per potential
// deleted point. Materialising them for all C(n, d) tuples is O(n^{d+2})
// space, so the store is built over an explicit candidate set — the points
// that may leave (a realistic broker knows which owners are revocable; the
// paper's experiments delete from a fixed pool).
type MultiDeletionStore struct {
	// SV holds the Shapley estimates computed while filling (sampled mode).
	SV []float64

	n          int
	d          int
	tau        int
	exact      bool
	store      StoreConfig
	candidates []int
	candSlot   []int // player -> position in candidates, -1 if not a candidate
	tuples     [][]int
	// yB/nnB are the storage backends: y[i][t][k], nn[i][t][k] flat
	// (i*len(tuples)+t)*(n+1)+k. y and nn alias the dense float64 arrays
	// when the default backend is in use (nil otherwise); the fill and
	// merge hot loops go through them directly.
	yB, nnB storeBackend
	y, nn   []float64
}

// tupleIndex locates a sorted tuple of player indices by binary search
// over the lexicographically ordered tuple table (the enumeration order of
// NewMultiDeletionStore). Allocation-free, unlike the string keys it
// replaced. Returns -1 when the tuple is not covered.
func (ms *MultiDeletionStore) tupleIndex(sorted []int) int {
	lo := sort.Search(len(ms.tuples), func(t int) bool {
		return !lessIntSlice(ms.tuples[t], sorted)
	})
	if lo < len(ms.tuples) && equalIntSlice(ms.tuples[lo], sorted) {
		return lo
	}
	return -1
}

// lessIntSlice is lexicographic < over equal-length int slices.
func lessIntSlice(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func equalIntSlice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NewMultiDeletionStore allocates a store for deleting exactly d of the
// candidate players from an n-player game, on the dense default backend.
func NewMultiDeletionStore(n, d int, candidates []int) (*MultiDeletionStore, error) {
	return NewMultiDeletionStoreWith(n, d, candidates, StoreConfig{})
}

// NewMultiDeletionStoreWith is NewMultiDeletionStore with an explicit
// storage backend.
func NewMultiDeletionStoreWith(n, d int, candidates []int, cfg StoreConfig) (*MultiDeletionStore, error) {
	if d < 1 {
		return nil, fmt.Errorf("core: multi-deletion needs d ≥ 1, got %d", d)
	}
	if len(candidates) < d {
		return nil, fmt.Errorf("core: %d candidates cannot cover d = %d deletions", len(candidates), d)
	}
	seen := map[int]bool{}
	cands := append([]int(nil), candidates...)
	sort.Ints(cands)
	for _, c := range cands {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("core: candidate %d out of range [0,%d)", c, n)
		}
		if seen[c] {
			return nil, fmt.Errorf("core: duplicate candidate %d", c)
		}
		seen[c] = true
	}
	ms := &MultiDeletionStore{
		n:          n,
		d:          d,
		store:      cfg,
		candidates: cands,
		candSlot:   make([]int, n),
		SV:         make([]float64, n),
	}
	for i := range ms.candSlot {
		ms.candSlot[i] = -1
	}
	for i, c := range cands {
		ms.candSlot[c] = i
	}
	// Enumerate all d-subsets of the candidates, in lexicographic order —
	// the sort invariant tupleIndex's binary search relies on.
	comb := make([]int, d)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == d {
			t := make([]int, d)
			for i, ci := range comb {
				t[i] = cands[ci]
			}
			ms.tuples = append(ms.tuples, t)
			return
		}
		for c := start; c <= len(cands)-(d-depth); c++ {
			comb[depth] = c
			rec(c+1, depth+1)
		}
	}
	rec(0, 0)
	// Rows (the striping unit) are the first axis i: rowLen entries each,
	// so row-aligned tiles keep every tile single-writer under the engine's
	// stripe workers.
	rowLen := len(ms.tuples) * (n + 1)
	entries := n * rowLen
	var err error
	if ms.yB, err = newBackend(entries, rowLen, cfg); err != nil {
		return nil, err
	}
	if ms.nnB, err = newBackend(entries, rowLen, cfg); err != nil {
		ms.yB.close()
		return nil, err
	}
	if db, ok := ms.yB.(*dense64); ok {
		ms.y = db.v
	}
	if db, ok := ms.nnB.(*dense64); ok {
		ms.nn = db.v
	}
	return ms, nil
}

// N returns the number of players the store covers.
func (ms *MultiDeletionStore) N() int { return ms.n }

// D returns the number of simultaneous deletions the store supports.
func (ms *MultiDeletionStore) D() int { return ms.d }

// Candidates returns the deletable players (sorted).
func (ms *MultiDeletionStore) Candidates() []int {
	return append([]int(nil), ms.candidates...)
}

// Backend reports which storage implementation holds the utility arrays.
func (ms *MultiDeletionStore) Backend() BackendKind { return ms.yB.backendKind() }

// MemoryBytes returns the logical footprint of the two utility arrays
// (heap or spill file).
func (ms *MultiDeletionStore) MemoryBytes() int64 {
	return ms.yB.logicalBytes() + ms.nnB.logicalBytes()
}

// HeapBytes returns the RAM-resident share of MemoryBytes — what the
// process cannot evict. Equal to MemoryBytes for the in-memory backends;
// near zero for the spill backend.
func (ms *MultiDeletionStore) HeapBytes() int64 {
	return ms.yB.heapBytes() + ms.nnB.heapBytes()
}

// Flush writes dirty tiles back to stable storage (no-op for the
// in-memory backends).
func (ms *MultiDeletionStore) Flush() error {
	if err := ms.yB.flush(); err != nil {
		return err
	}
	return ms.nnB.flush()
}

// Close releases non-heap resources (the spill backend's mmap and scratch
// file). The store must not be used afterwards.
func (ms *MultiDeletionStore) Close() error {
	err := ms.yB.close()
	if e := ms.nnB.close(); err == nil {
		err = e
	}
	return err
}

func (ms *MultiDeletionStore) idx(i, t, k int) int {
	return (i*len(ms.tuples)+t)*(ms.n+1) + k
}

// newAux implements stripeTarget: one permutation's metadata is the
// position of every candidate followed by the earliest position of every
// tuple.
func (ms *MultiDeletionStore) newAux() []int {
	return make([]int, len(ms.candidates)+len(ms.tuples))
}

// prepare implements stripeTarget: it fills aux with candidate positions
// and per-tuple minima and returns the permutation's update count
// (2·Σ_t min(minPos[t], walk), one y and one nn write for every position
// preceding each tuple's first member, capped at the truncation depth).
func (ms *MultiDeletionStore) prepare(perm []int, aux []int, walk int) int64 {
	nc := len(ms.candidates)
	candPos := aux[:nc]
	minPos := aux[nc:]
	for p, pt := range perm {
		if s := ms.candSlot[pt]; s >= 0 {
			candPos[s] = p
		}
	}
	var updates int64
	for t, tuple := range ms.tuples {
		// minPos[t] = earliest position of any member of tuple t.
		m := ms.n
		for _, member := range tuple {
			if p := candPos[ms.candSlot[member]]; p < m {
				m = p
			}
		}
		minPos[t] = m
		if m > walk {
			m = walk
		}
		updates += int64(m)
	}
	return 2 * updates
}

// accumulateStripe folds one permutation into the rows lo ≤ i < hi of the
// arrays (SV and τ are left to the producer), visiting only the first walk
// positions. Row i receives its additions in permutation-walk order
// regardless of striping, so the striped fill is bit-identical to the
// serial one on every backend.
func (ms *MultiDeletionStore) accumulateStripe(perm []int, utilities []float64, uEmpty float64, aux []int, lo, hi, walk int) {
	minPos := aux[len(ms.candidates):]
	if ms.y != nil {
		// Dense fast path: direct slice writes, the historic hot loop.
		prev := uEmpty
		for p, pt := range perm {
			if p >= walk {
				break
			}
			cur := utilities[p]
			if pt >= lo && pt < hi {
				for t := range ms.tuples {
					// All tuple members strictly after position p ⇒ the prefix
					// excludes the whole tuple (and pt ∉ tuple, since pt is at p).
					if minPos[t] > p {
						ms.y[ms.idx(pt, t, p+1)] += cur
						ms.nn[ms.idx(pt, t, p)] += prev
					}
				}
			}
			prev = cur
		}
		return
	}
	prev := uEmpty
	for p, pt := range perm {
		if p >= walk {
			break
		}
		cur := utilities[p]
		if pt >= lo && pt < hi {
			for t := range ms.tuples {
				if minPos[t] > p {
					ms.yB.add(ms.idx(pt, t, p+1), cur)
					ms.nnB.add(ms.idx(pt, t, p), prev)
				}
			}
		}
		prev = cur
	}
}

// finishSampled converts accumulated sums into averages.
func (ms *MultiDeletionStore) finishSampled() {
	inv := 1 / float64(ms.tau)
	if ms.y != nil {
		// Historic interleaved loop, kept verbatim for bit-identity.
		for i := range ms.y {
			ms.y[i] *= inv
			ms.nn[i] *= inv
		}
	} else {
		ms.yB.scale(inv)
		ms.nnB.scale(inv)
	}
	for i := range ms.SV {
		ms.SV[i] *= inv
	}
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

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Merge derives the post-deletion Shapley values after removing exactly the
// given points, which must form one of the prepared d-subsets of the
// candidate set. The returned slice has n entries, zero at deleted points.
// The row sweep is parallelised over i for large stores; each out[i] is
// accumulated in ascending-k order by exactly one goroutine, so the result
// is bit-identical at every worker count.
func (ms *MultiDeletionStore) Merge(points ...int) ([]float64, error) {
	return ms.mergeWith(mergeWorkers(ms.n*(ms.n-ms.d+1)), points...)
}

// mergeWith is Merge with an explicit worker count (exposed for tests).
func (ms *MultiDeletionStore) mergeWith(workers int, points ...int) ([]float64, error) {
	if len(points) != ms.d {
		return nil, fmt.Errorf("core: Merge got %d points, store prepared for d = %d", len(points), ms.d)
	}
	sorted := append([]int(nil), points...)
	sort.Ints(sorted)
	t := ms.tupleIndex(sorted)
	if t < 0 {
		return nil, fmt.Errorf("core: tuple %v not covered by candidate set %v", sorted, ms.candidates)
	}
	n, d := ms.n, ms.d
	out := make([]float64, n)
	// Per-k coefficients shared across rows, computed by the historic
	// recurrences and applied with the historic operations (divide for
	// exact, multiply for sampled).
	coef := make([]float64, n-d+1)
	if ms.exact {
		// Lemma 4: SV⁻_i = 1/(n−d) Σ_k (Y[i][t][k] − N[i][t][k−1]) / C(n−d−1, k−1).
		binom := 1.0
		for k := 1; k <= n-d; k++ {
			coef[k] = binom
			binom = binom * float64(n-d-k) / float64(k)
		}
	} else {
		// Sampled semantics: coef(k) = Π_{j<k} (n−j)/(n−d−j), the d-point
		// generalisation of the n/(n−k) coefficient (see DESIGN.md §3).
		c := 1.0
		for k := 1; k <= n-d; k++ {
			c *= float64(n-k+1) / float64(n-d-k+1)
			coef[k] = c
		}
	}
	parallelRows(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if contains(sorted, i) {
				continue
			}
			if ms.y != nil {
				// Dense fast path: the historic plain accumulation, kept
				// verbatim for bit-identity with the pre-interface store.
				acc := 0.0
				base := ms.idx(i, t, 0)
				for k := 1; k <= n-d; k++ {
					dv := ms.y[base+k] - ms.nn[base+k-1]
					if ms.exact {
						acc += dv / coef[k]
					} else {
						acc += dv * coef[k]
					}
				}
				if ms.exact {
					acc /= float64(n - d)
				}
				out[i] = acc
				continue
			}
			// float32 backends: compensated float64 reduction so the only
			// error left is the storage rounding itself.
			var acc neumaierSum
			base := ms.idx(i, t, 0)
			for k := 1; k <= n-d; k++ {
				dv := ms.yB.at(base+k) - ms.nnB.at(base+k-1)
				if ms.exact {
					acc.add(dv / coef[k])
				} else {
					acc.add(dv * coef[k])
				}
			}
			v := acc.value()
			if ms.exact {
				v /= float64(n - d)
			}
			out[i] = v
		}
	})
	return out, nil
}
