// Package exact implements the closed-form exact k-NN Shapley estimator of
// Jia et al. ("Efficient task-specific data valuation for nearest neighbor
// algorithms", VLDB 2019) over the session's precomputed distance kernel —
// and makes it *dynamic*: the per-test-point sorted neighbour orders are
// maintained incrementally under insertions and deletions, so an update
// costs O(m·(log n + affected ranks)) order maintenance plus one O(m·n)
// deterministic reduction, instead of any permutation walk.
//
// # The recurrence, in suffix-recomputable form
//
// For one test point t with the training points sorted by distance
// (0-based rank r, 1-based position i = r+1), Jia et al.'s Theorem 1 gives
//
//	s_{α_n} = 1[y_{α_n}=y_t]/max(n,k)
//	s_{α_i} = s_{α_{i+1}} + (1[y_{α_i}=y_t] − 1[y_{α_{i+1}}=y_t])/k · min(k,i)/i
//
// (the base term is usually quoted as 1[·]/n, which assumes n ≥ k; the
// max(n,k) form is the one that matches the soft utility for every n)
//
// The backward recurrence itself cannot be reused incrementally — its base
// term 1[·]/n changes globally whenever n does. The estimator therefore
// stores the telescoped prefix form: the pairwise differences
//
//	d_i = (1[y_{α_i}=y_t] − 1[y_{α_{i+1}}=y_t])/k · min(k,i)/i
//
// depend only on positions i, i+1, and the prefix sums
//
//	t[0] = 0,  t[r] = t[r−1] + d_r          (so t[r] = s_{α_1} − s_{α_{r+1}})
//	s_{α_1} = 1[y_{α_n}=y_t]/max(n,k) + t[n−1]
//	s_{α_{r+1}} = s_{α_1} − t[r]
//
// An insertion or deletion at rank r leaves every d before it — and
// therefore the t prefix up to r — bit-identical, so the estimator
// recomputes t only from r on ("affected ranks") and reads the same
// floating-point results a from-scratch rebuild would produce. That
// invariant is what makes the dynamic path EXACTLY equal — not merely
// close — to recomputation, and it is enforced by tests after every update
// of a long soak sequence.
//
// # Tie order and physical column ids
//
// Orders store the kernel's physical column ids (see DistanceKernel.Phys):
// within any view, ascending physical id is ascending logical index, so a
// stable sort by distance equals a sort by (distance, physical id).
// Binary insertion places a new point after every equal distance — its
// physical id exceeds all existing ones — reproducing the stable sort;
// deletions remove entries without renumbering anything. Labels live in an
// array indexed by physical id, so no maintained state needs remapping
// when logical indices shift. Ids change only when an Append reallocates
// the kernel, which compacts its live columns (DistanceKernel.Renumbered);
// Add then maps orders and labels through the renumbering before it
// inserts. The map is increasing, so every order keeps its ranks and its
// tie order, and the state stays equal to a rebuild.
//
// # Determinism and parallelism
//
// Maintenance is parallel over test columns (each column's state is
// independent) and the value reduction sums each point's per-test
// contributions in ascending test order — both bit-identical at any worker
// count, matching the engine contract.
package exact

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"dynshap/internal/dataset"
)

// Estimator maintains exact k-NN Shapley values over a distance kernel.
// It is a cache in the versioned-store sense: every field is reproducible
// from the kernel and the labels, so snapshots never persist it — Resume
// and ReplayTo rebuild it deterministically. Not safe for concurrent use:
// the session hands one instance from state to state under its writer
// lock, and readers never touch it. Clone before mutating an instance
// something else still reads.
type Estimator struct {
	k       int
	m       int // test points
	workers int
	kernel  *dataset.DistanceKernel

	// testLab[j] is test point j's label; physLab[p] the label of the
	// training point backing physical column p (tombstoned columns keep
	// their label until a renumbering drops them).
	testLab []int32
	physLab []int32

	// orders[j] lists live physical column ids by ascending (distance to
	// test j, physical id) — the stable-sorted neighbour order. tvals[j]
	// holds the prefix sums t above, index-aligned with orders[j]; s1[j]
	// is s_{α_1}, the nearest neighbour's per-test Shapley value.
	orders [][]int32
	tvals  [][]float64
	s1     []float64

	// w[i] is 1/k · min(k,i)/i, the factor d_i applies to its label
	// difference, for every position i < len(w); w[0] is unused. It only
	// grows, before the column goroutines start, so they read it freely.
	w []float64

	// sv caches the reduced values by logical index; dirty marks it stale
	// after maintenance. acc is the reduction's accumulator, indexed by
	// physical id.
	sv    []float64
	acc   []float64
	dirty bool
}

// New builds the estimator from scratch: one stable sort per test column,
// O(m·n log n) total — the only time the full sort runs. trainLabels is
// logical-indexed and must align with kernel's columns; testLabels with
// its rows. k must be ≥ 1.
func New(kernel *dataset.DistanceKernel, trainLabels, testLabels []int, k, workers int) *Estimator {
	n := kernel.Cols()
	m := kernel.Rows()
	e := &Estimator{
		k:       k,
		m:       m,
		workers: workers,
		kernel:  kernel,
		testLab: make([]int32, m),
		physLab: make([]int32, kernel.PhysExtent()),
		orders:  make([][]int32, m),
		tvals:   make([][]float64, m),
		s1:      make([]float64, m),
		dirty:   true,
	}
	for j, y := range testLabels {
		e.testLab[j] = int32(y)
	}
	for i := 0; i < n; i++ {
		e.physLab[kernel.Phys(i)] = int32(trainLabels[i])
	}
	e.growWeights(n)
	e.parallel(m, func(lo, hi int) {
		sc := newSortScratch(n)
		for j := lo; j < hi; j++ {
			e.buildColumn(j, sc)
		}
	})
	return e
}

// rankKey pairs one training point's distance to a test point — as the IEEE
// bit pattern of the float64, which orders identically to the numeric value
// for the non-negative distances the kernel produces — with its logical
// index. Sorting by (bits, idx) equals a stable sort by distance: ties keep
// ascending logical order, which is ascending physical id.
type rankKey struct {
	bits uint64
	idx  int32
}

// keyLess orders rankKeys by (bits, idx) — the insertion sort's order.
func keyLess(a, b rankKey) bool {
	return a.bits < b.bits || (a.bits == b.bits && a.idx < b.idx)
}

// insertionSort sorts keys by (bits, idx) in place.
func insertionSort(keys []rankKey) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// sortScratch holds the swap buffer, the bucket ids and counts, and the
// byte histograms one goroutine reuses across the columns it builds.
type sortScratch struct {
	keys   []rankKey
	buf    []rankKey
	bucket []int32
	count  []int32
	hist   [8][256]int32
}

func newSortScratch(n int) *sortScratch {
	return &sortScratch{
		keys:   make([]rankKey, n),
		buf:    make([]rankKey, n),
		bucket: make([]int32, n),
		count:  make([]int32, n+1),
	}
}

// sortKeys sorts sc.keys[:n], which arrive in ascending idx order, by
// (bits, idx). Short columns use insertion sort; longer ones bucketSort,
// or radixSort when the distances bunch too tightly for buckets. Returns
// the sorted slice, which is sc.keys or sc.buf.
func sortKeys(sc *sortScratch, n int) []rankKey {
	keys := sc.keys[:n]
	if n <= 32 {
		insertionSort(keys)
		return keys
	}
	if sorted, ok := bucketSort(sc, n); ok {
		return sorted
	}
	return radixSort(sc, n)
}

// bucketSort spreads the keys over n equal-width buckets between the
// column's nearest and farthest distance, stably, then finishes with one
// insertion sort — about 2.5× faster than radixSort on the spread-out
// distances of a standardized column, where buckets hold a key or two.
// The buckets only bound the insertion sort's work: (d−lo)·scale is
// monotone in d, so no inversion crosses a bucket, and the result is the
// (bits, idx) order whatever the buckets hold. It declines (ok = false)
// when Σ count² over the buckets exceeds 8n, which caps the insertion
// sort at O(n) moves, and when a bit pattern is not a finite non-negative
// float, whose bit order would not match its numeric order.
func bucketSort(sc *sortScratch, n int) (sorted []rankKey, ok bool) {
	keys := sc.keys[:n]
	lo, hi := keys[0].bits, keys[0].bits
	for _, k := range keys[1:] {
		lo = min(lo, k.bits)
		hi = max(hi, k.bits)
	}
	if hi >= math.Float64bits(math.Inf(1)) { // +Inf, NaN or a sign bit
		return nil, false
	}
	if lo == hi {
		return keys, true // one distance: ascending idx is the order
	}
	flo := math.Float64frombits(lo)
	scale := float64(n) / (math.Float64frombits(hi) - flo)
	if scale > math.MaxFloat64 {
		return nil, false
	}
	count := sc.count[:n+1]
	clear(count)
	for i := range keys {
		b := min(int((math.Float64frombits(keys[i].bits)-flo)*scale), n-1)
		sc.bucket[i] = int32(b)
		count[b+1]++
	}
	work := 0
	for b := 1; b <= n; b++ {
		work += int(count[b]) * int(count[b])
		count[b] += count[b-1] // count[b] becomes bucket b's first slot
	}
	if work > 8*n {
		return nil, false
	}
	out := sc.buf[:n]
	for i := range keys {
		b := sc.bucket[i]
		out[count[b]] = keys[i]
		count[b]++
	}
	insertionSort(out)
	return out, true
}

// radixSort sorts keys by (bits, idx) with an LSD radix sort over the
// eight bytes of bits. Each pass is stable and the input arrives in
// ascending idx order, so equal distances keep ascending idx without idx
// ever entering a key — no comparisons at all, unlike the generic sort
// whose per-comparison indirect call dominated New's profile. Passes whose
// byte is constant across the column (the high exponent bytes, after
// standardization) are skipped.
func radixSort(sc *sortScratch, n int) []rankKey {
	keys := sc.keys[:n]
	for p := range sc.hist {
		clear(sc.hist[p][:])
	}
	// One counting pass fills all eight histograms; the byte multiset per
	// position is permutation-invariant, so they stay valid for every pass.
	for i := range keys {
		b := keys[i].bits
		for p := 0; p < 8; p++ {
			sc.hist[p][(b>>(8*p))&0xff]++
		}
	}
	probe := keys[0].bits
	src, dst := keys, sc.buf[:n]
	for p := 0; p < 8; p++ {
		h := &sc.hist[p]
		if h[(probe>>(8*p))&0xff] == int32(n) {
			continue // every key shares this byte — nothing to move
		}
		// Exclusive prefix sum: h[c] becomes the first slot for byte c.
		start := int32(0)
		for c := 0; c < 256; c++ {
			cnt := h[c]
			h[c] = start
			start += cnt
		}
		for i := range src {
			c := (src[i].bits >> (8 * p)) & 0xff
			dst[h[c]] = src[i]
			h[c]++
		}
		src, dst = dst, src
	}
	return src
}

// buildColumn sorts test column j from scratch and seeds its recurrence.
func (e *Estimator) buildColumn(j int, sc *sortScratch) {
	n := e.kernel.Cols()
	keys := sc.keys[:n]
	for i := 0; i < n; i++ {
		keys[i] = rankKey{bits: math.Float64bits(e.kernel.At(i, j)), idx: int32(i)}
	}
	sorted := sortKeys(sc, n)
	ord := make([]int32, n, n+n/4+4)
	for r := range sorted {
		ord[r] = e.kernel.Phys(int(sorted[r].idx))
	}
	e.orders[j] = ord
	e.tvals[j] = make([]float64, n, cap(ord))
	e.recompute(j, 0)
}

// recompute refills tvals[j] from index max(from,1) on and refreshes
// s1[j]. Entries before from are untouched — the suffix-reuse invariant.
func (e *Estimator) recompute(j, from int) {
	ord := e.orders[j]
	t := e.tvals[j]
	n := len(ord)
	if n == 0 {
		e.s1[j] = 0
		return
	}
	ty := e.testLab[j]
	if from < 1 {
		t[0] = 0
		from = 1
	}
	// acc carries t[i−1] and mi the match at rank i−1, so each rank's label
	// is read once; the sum is the recurrence's, term for term.
	from = min(from, n)
	w := e.w
	acc, mi := t[from-1], e.match(ord[from-1], ty)
	for i := from; i < n; i++ {
		// d_i for the 1-based position pair (i, i+1): ranks i−1 and i. The
		// conversion keeps the product a rounded term of its own: Go may
		// fuse x*y + z into one FMA on some platforms, which would change
		// the sum's bits.
		mi1 := e.match(ord[i], ty)
		acc += float64((mi - mi1) * w[i])
		t[i] = acc
		mi = mi1
	}
	// Base term: the farthest point enters the k-window only while the
	// coalition holds fewer than k others, so its value is
	// 1[match]/k · min(k,n)/n — which is 1[match]/max(n,k) in both regimes
	// (the familiar 1[match]/n only once n ≥ k).
	den := max(float64(n), float64(e.k))
	e.s1[j] = e.match(ord[n-1], ty)/den + t[n-1]
}

// growWeights extends w to cover every position below n. Each entry is
// 1/k · min(k,i)/i with the operations in that order, and the label
// difference it multiplies is always +1, −1 or +0: negation is exact and
// +0 stays +0, so each product has the bits of the recurrence's term
// difference/k · min(k,i)/i without its two divisions per rank.
func (e *Estimator) growWeights(n int) {
	if len(e.w) == 0 {
		e.w = append(e.w, 0)
	}
	kf := float64(e.k)
	for i := len(e.w); i < n; i++ {
		fi := float64(i)
		e.w = append(e.w, 1/kf*min(kf, fi)/fi)
	}
}

// match is 1 when the point at physical column p has label ty, else 0. It
// selects without a branch: along a column the labels look random, so a
// branch would mispredict at about every other rank.
func (e *Estimator) match(p, ty int32) float64 {
	m := 0
	if e.physLab[p] == ty {
		m = 1
	}
	return float64(m)
}

// Add registers the points appended to the kernel at logical indices
// first..first+len(labels)−1. kernel must be derived from the receiver's
// view by Appends alone; when they compacted the buffer, the maintained
// ids are renumbered first. Each column binary-inserts the new points and
// recomputes only the affected rank suffix.
func (e *Estimator) Add(kernel *dataset.DistanceKernel, first int, labels []int) {
	if kernel.Renumbered(e.kernel) {
		e.renumber(kernel)
	}
	e.kernel = kernel
	for len(e.physLab) < kernel.PhysExtent() {
		e.physLab = append(e.physLab, 0)
	}
	phys := make([]int32, len(labels))
	for t, y := range labels {
		p := kernel.Phys(first + t)
		phys[t] = p
		e.physLab[p] = int32(y)
	}
	e.growWeights(kernel.Cols())
	e.parallel(e.m, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			e.addColumn(j, phys)
		}
	})
	e.dirty = true
}

// renumber moves the maintained ids from e.kernel's numbering to kernel's,
// mapping each live column's id to the id kernel gives the same logical
// index. The map preserves order, so orders keep their ranks and tvals
// and s1 hold as they are; acc is dropped for reduce to size afresh.
func (e *Estimator) renumber(kernel *dataset.DistanceKernel) {
	old := e.kernel
	ren := make([]int32, old.PhysExtent())
	lab := make([]int32, kernel.PhysExtent())
	for i := 0; i < old.Cols(); i++ {
		p, q := old.Phys(i), kernel.Phys(i)
		ren[p] = q
		lab[q] = e.physLab[p]
	}
	e.physLab = lab
	e.acc = nil
	e.parallel(e.m, func(lo, hi int) {
		for _, ord := range e.orders[lo:hi] {
			for r, p := range ord {
				ord[r] = ren[p]
			}
		}
	})
}

func (e *Estimator) addColumn(j int, phys []int32) {
	ord := e.orders[j]
	t := e.tvals[j]
	minR := len(ord) + len(phys)
	for _, p := range phys {
		d := e.kernel.AtPhys(p, j)
		// Upper bound: first rank strictly farther than d. The new point's
		// physical id exceeds every existing one, so landing after all
		// equal distances reproduces the stable sort's tie order.
		r := sort.Search(len(ord), func(i int) bool { return e.kernel.AtPhys(ord[i], j) > d })
		ord = append(ord, 0)
		copy(ord[r+1:], ord[r:])
		ord[r] = p
		t = append(t, 0)
		if r < minR {
			minR = r
		}
	}
	e.orders[j] = ord
	e.tvals[j] = t
	e.recompute(j, minR)
}

// Delete unregisters the training points backing the given physical
// columns (obtained via Phys on the PRE-delete view). kernel must be the
// post-delete view. Each column locates the doomed ranks by binary search
// on their (still readable) distances, compacts the order in one pass
// from the first affected rank, and recomputes the suffix.
func (e *Estimator) Delete(removed []int32, kernel *dataset.DistanceKernel) {
	e.kernel = kernel
	e.parallel(e.m, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			e.deleteColumn(j, removed)
		}
	})
	e.dirty = true
}

func (e *Estimator) deleteColumn(j int, removed []int32) {
	ord := e.orders[j]
	minR := len(ord)
	for _, q := range removed {
		d := e.kernel.AtPhys(q, j)
		r := sort.Search(len(ord), func(i int) bool { return e.kernel.AtPhys(ord[i], j) >= d })
		for ord[r] != q {
			r++ // walk the (rare) ties sharing the distance
		}
		copy(ord[r:], ord[r+1:])
		ord = ord[:len(ord)-1]
		if r < minR {
			minR = r
		}
	}
	e.orders[j] = ord
	e.tvals[j] = e.tvals[j][:len(ord)]
	e.recompute(j, minR)
}

// Values returns a copy of the exact Shapley values, logical-indexed to
// match the kernel's current columns, reducing the maintained per-column
// state first if an update left it stale.
func (e *Estimator) Values() []float64 {
	if e.dirty {
		e.reduce()
		e.dirty = false
	}
	return append([]float64(nil), e.sv...)
}

// reduce averages the per-test per-point values into sv. It walks the
// columns in ascending test order, adding each point's contribution into
// acc at its physical id, so every point sums its m contributions in one
// fixed order whatever the worker count — and because the reduction always
// runs in full over maintained state that equals the from-scratch state,
// the published values are exactly the from-scratch values. It runs on one
// goroutine: the column-parallel scatter into an n·m buffer and
// point-parallel gather it replaced (same order, same bits) measured
// slower at every size tried, n·m from 1.6·10⁴ to 10⁶ on two cores, when
// every session write cloned the estimator and so allocated that buffer
// afresh.
func (e *Estimator) reduce() {
	n := e.kernel.Cols()
	if cap(e.sv) < n {
		e.sv = make([]float64, n)
	}
	e.sv = e.sv[:n]
	if e.m == 0 {
		clear(e.sv)
		return
	}
	p := e.kernel.PhysExtent()
	if cap(e.acc) < p {
		e.acc = make([]float64, p)
	}
	acc := e.acc[:p]
	clear(acc)
	for j, ord := range e.orders {
		t, s1 := e.tvals[j], e.s1[j]
		for r, q := range ord {
			acc[q] += s1 - t[r]
		}
	}
	inv := 1 / float64(e.m)
	for i := range e.sv {
		e.sv[i] = acc[e.kernel.Phys(i)] * inv
	}
}

// Clone returns a deep copy sharing only immutable data (the kernel view
// and test labels), so the copy can be mutated while something else keeps
// reading the original.
func (e *Estimator) Clone() *Estimator {
	c := *e
	c.physLab = append([]int32(nil), e.physLab...)
	c.w = append([]float64(nil), e.w...)
	c.s1 = append([]float64(nil), e.s1...)
	c.sv = append([]float64(nil), e.sv...)
	c.acc = nil
	c.orders = make([][]int32, e.m)
	c.tvals = make([][]float64, e.m)
	for j := range e.orders {
		n := len(e.orders[j])
		c.orders[j] = append(make([]int32, 0, n+n/4+4), e.orders[j]...)
		c.tvals[j] = append(make([]float64, 0, cap(c.orders[j])), e.tvals[j]...)
	}
	return &c
}

// N returns the number of training points currently maintained.
func (e *Estimator) N() int { return e.kernel.Cols() }

// K returns the neighbour count the values are exact for.
func (e *Estimator) K() int { return e.k }

// M returns the number of test points.
func (e *Estimator) M() int { return e.m }

// MemoryBytes reports the estimator's own heap footprint (the kernel is
// accounted separately by its owner).
func (e *Estimator) MemoryBytes() int64 {
	var b int64
	for j := range e.orders {
		b += int64(cap(e.orders[j]))*4 + int64(cap(e.tvals[j]))*8
	}
	return b + int64(len(e.physLab))*4 + int64(len(e.testLab))*4 +
		int64(cap(e.s1))*8 + int64(cap(e.sv))*8 + int64(cap(e.acc))*8 +
		int64(cap(e.w))*8
}

// parallel splits [0,n) into contiguous blocks across the estimator's
// workers. Every block writes disjoint state, so scheduling never affects
// results. Small inputs run serially — goroutine startup would dominate.
func (e *Estimator) parallel(n int, f func(lo, hi int)) {
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n < 64 {
		workers = 1
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
