package dataset

import (
	"runtime"
	"sync"
)

// DistanceKernel is the precomputed m×n matrix of Euclidean distances
// between a fixed test set (m rows, one per test point) and a training set
// (n columns, one per training point). Every entry is exactly
// Euclidean(test[j].X, train[i].X) — the same call, in the same argument
// order, as the scratch evaluation path — so evaluators reading the kernel
// produce bit-identical results to ones recomputing distances on demand.
//
// Storage is train-point-major: the distances from training point i to all
// m test points occupy one contiguous m-float block. That orientation
// serves both hot paths at once — the k-NN utility's window kernel
// (knnPivot.add, behind every prefix walk) takes a fixed training point
// across every test point (a unit-stride read of one block), and appending
// a training point writes exactly one new block, O(m), without touching
// existing columns. A cols indirection maps logical training
// indices to physical blocks so Remove is pure masking: drop entries from
// cols, never move a float.
//
// Kernels are persistent values in the same sense as Dataset: Append and
// Remove return new views and never mutate columns the receiver exposes.
// Views derived from a common ancestor share the physical buffer; a
// claim counter (kernelShare) arbitrates which Append may fill trailing
// spare capacity in place and which must reallocate, so branched derived
// utilities (a pivot's N⁺ built alongside the base, say) stay safe.
type DistanceKernel struct {
	m    int      // test rows per column
	test *Dataset // referenced, not cloned: distances for appended columns come from it
	cols []int32  // logical training index -> physical column
	data []float64
	phys int // physical columns this view may read (prefix of data)
	// workers is the fill parallelism Appends inherit from construction
	// (≤0 means GOMAXPROCS); batched appends split their new columns
	// across this many goroutines exactly as the initial fill does.
	workers int

	share *kernelShare
}

// kernelShare tracks, per physical buffer, how many columns any view has
// claimed. An Append extends in place only when its view's phys equals the
// claimed count (it is the frontier view) and spare capacity remains;
// otherwise it reallocates. Claimed columns are written exactly once,
// before the new view escapes, so concurrent readers of sibling views
// never observe a partially filled column they can reach.
type kernelShare struct {
	mu      sync.Mutex
	claimed int
}

// NewDistanceKernel builds the full m×n kernel for the given test and
// training sets. The fill is embarrassingly parallel — each worker computes
// a contiguous block of columns — and therefore bit-identical at any worker
// count: every entry is one independent Euclidean call whose result does
// not depend on fill order. workers ≤ 0 means GOMAXPROCS. The kernel keeps
// a reference to test (callers hand it an already-private clone) so that
// appended columns use the exact same feature vectors.
func NewDistanceKernel(test, train *Dataset, workers int) *DistanceKernel {
	m, n := test.Len(), train.Len()
	capCols := n + n/4 + 4 // spare columns so early Appends skip reallocation
	k := &DistanceKernel{
		m:       m,
		test:    test,
		cols:    make([]int32, n),
		data:    make([]float64, capCols*m),
		phys:    n,
		workers: workers,
		share:   &kernelShare{claimed: n},
	}
	for i := range k.cols {
		k.cols[i] = int32(i)
	}
	k.fill(train.Points, 0, workers)
	return k
}

// fill computes the columns for points into physical columns
// base..base+len(points)-1, split across workers in contiguous blocks.
func (k *DistanceKernel) fill(points []Point, base, workers int) {
	n := len(points)
	if n == 0 || k.m == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Below ~128k flops (entries × (dims+1)) the goroutine startup
	// outweighs the fill itself.
	if n*k.m*(len(k.test.Points[0].X)+1) < 1<<17 {
		workers = 1
	}
	if workers == 1 {
		k.fillBlock(points, base, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			k.fillBlock(points, base, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// fillBlock fills physical columns base+lo..base+hi-1 from points[lo:hi].
func (k *DistanceKernel) fillBlock(points []Point, base, lo, hi int) {
	for i := lo; i < hi; i++ {
		col := k.data[(base+i)*k.m : (base+i+1)*k.m]
		px := points[i].X
		for j := range k.test.Points {
			col[j] = Euclidean(k.test.Points[j].X, px)
		}
	}
}

// Rows returns m, the number of test points.
func (k *DistanceKernel) Rows() int { return k.m }

// Cols returns the number of training points the view currently maps.
func (k *DistanceKernel) Cols() int { return len(k.cols) }

// Col returns the contiguous distances from training point i to every test
// point: Col(i)[j] == Euclidean(test[j].X, train[i].X). The slice aliases
// the kernel's storage and must not be written.
func (k *DistanceKernel) Col(i int) []float64 {
	c := int(k.cols[i]) * k.m
	return k.data[c : c+k.m : c+k.m]
}

// At returns the distance between training point i and test point j.
func (k *DistanceKernel) At(i, j int) float64 {
	return k.data[int(k.cols[i])*k.m+j]
}

// Phys returns the physical column id backing logical training index i.
// Physical ids are assigned in append order, never reused and never moved,
// so they are stable names for training points across the logical-index
// shifts Remove causes. Within any view the mapping is strictly
// increasing: Append claims fresh ids past every existing one and Remove
// preserves order — so ascending physical id IS ascending logical index,
// which is what lets the exact estimator keep tie-order with a stable
// sort while indexing its state by physical id.
func (k *DistanceKernel) Phys(i int) int32 { return k.cols[i] }

// PhysExtent returns the number of physical columns the view may address:
// every id returned by Phys is < PhysExtent. Masked (removed) columns
// count — their storage stays resident and readable.
func (k *DistanceKernel) PhysExtent() int { return k.phys }

// AtPhys returns the distance between the physical column p and test
// point j — the same entry At reads through the logical map. It stays
// valid for masked columns, so state keyed by physical id can keep
// reading distances of points that left the logical view.
func (k *DistanceKernel) AtPhys(p int32, j int) float64 {
	return k.data[int(p)*k.m+j]
}

// Append returns a view extended with one column per point, computed
// against the kernel's test set — O(m·d) per point, independent of n. The
// receiver is unchanged. The new columns land in the shared buffer's spare
// capacity when this view is the buffer's frontier (the common sequential
// Add flow); a branched Append reallocates its own buffer instead. Batched
// appends fill their columns with the same parallel blocked fill as
// construction (single-point appends stay serial — the fill gates on size).
func (k *DistanceKernel) Append(points ...Point) *DistanceKernel {
	need := len(points)
	nk := &DistanceKernel{m: k.m, test: k.test, workers: k.workers}
	nk.cols = make([]int32, len(k.cols), len(k.cols)+need)
	copy(nk.cols, k.cols)
	if need == 0 {
		nk.data, nk.phys, nk.share = k.data, k.phys, k.share
		return nk
	}
	k.share.mu.Lock()
	inPlace := k.share.claimed == k.phys && (k.phys+need)*k.m <= len(k.data)
	if inPlace {
		k.share.claimed += need
	}
	k.share.mu.Unlock()
	if inPlace {
		nk.data = k.data
		nk.share = k.share
	} else {
		capCols := k.phys + need
		capCols += capCols/4 + 4
		nk.data = make([]float64, capCols*k.m)
		copy(nk.data, k.data[:k.phys*k.m])
		nk.share = &kernelShare{claimed: k.phys + need}
	}
	base := k.phys
	nk.fill(points, base, nk.workers)
	for t := 0; t < need; t++ {
		nk.cols = append(nk.cols, int32(base+t))
	}
	nk.phys = base + need
	return nk
}

// Remove returns a view without the columns for the given logical training
// indices. No distances are recomputed or moved — the surviving cols
// entries keep pointing at their physical blocks, and remaining logical
// indices shift down exactly as Dataset.Remove shifts points. Masked
// columns stay allocated until every view sharing the buffer is dropped.
func (k *DistanceKernel) Remove(indices ...int) *DistanceKernel {
	gone := make(map[int]bool, len(indices))
	for _, i := range indices {
		gone[i] = true
	}
	nk := &DistanceKernel{m: k.m, test: k.test, data: k.data, phys: k.phys, workers: k.workers, share: k.share}
	nk.cols = make([]int32, 0, len(k.cols)-len(gone))
	for i, c := range k.cols {
		if !gone[i] {
			nk.cols = append(nk.cols, c)
		}
	}
	return nk
}

// MemoryBytes reports the heap footprint of the view: the shared physical
// buffer (counted in full — masked and spare columns included, since they
// stay resident as long as this view does) plus the column map.
func (k *DistanceKernel) MemoryBytes() int64 {
	return int64(len(k.data))*8 + int64(len(k.cols))*4
}
