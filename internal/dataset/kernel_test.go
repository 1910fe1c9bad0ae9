package dataset

import (
	"math"
	"sync"
	"testing"

	"dynshap/internal/rng"
)

func randomSets(seed uint64, m, n, dim int) (test, train *Dataset) {
	r := rng.New(seed)
	mk := func(count int) *Dataset {
		pts := make([]Point, count)
		for i := range pts {
			x := make([]float64, dim)
			for j := range x {
				x[j] = r.NormFloat64()
			}
			pts[i] = Point{X: x, Y: r.Intn(3)}
		}
		d := New(pts)
		d.Classes = 3
		return d
	}
	return mk(m), mk(n)
}

func checkKernel(t *testing.T, k *DistanceKernel, test, train *Dataset) {
	t.Helper()
	if k.Rows() != test.Len() || k.Cols() != train.Len() {
		t.Fatalf("kernel is %d×%d, want %d×%d", k.Rows(), k.Cols(), test.Len(), train.Len())
	}
	for i := range train.Points {
		col := k.Col(i)
		for j := range test.Points {
			want := Euclidean(test.Points[j].X, train.Points[i].X)
			if col[j] != want {
				t.Fatalf("Col(%d)[%d] = %v, want %v", i, j, col[j], want)
			}
			if got := k.At(i, j); got != want {
				t.Fatalf("At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestDistanceKernelMatchesEuclidean(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		for _, shape := range [][2]int{{1, 1}, {7, 13}, {20, 50}, {33, 97}} {
			test, train := randomSets(11, shape[0], shape[1], 4)
			k := NewDistanceKernel(test, train, workers)
			checkKernel(t, k, test, train)
		}
	}
}

func TestDistanceKernelLargeParallelFill(t *testing.T) {
	// Big enough to cross the serial-fill threshold so the worker split runs.
	test, train := randomSets(5, 60, 600, 6)
	serial := NewDistanceKernel(test, train, 1)
	parallel := NewDistanceKernel(test, train, 4)
	for i := 0; i < train.Len(); i++ {
		for j := 0; j < test.Len(); j++ {
			if serial.At(i, j) != parallel.At(i, j) {
				t.Fatalf("fill differs at (%d,%d): serial %v parallel %v", i, j, serial.At(i, j), parallel.At(i, j))
			}
		}
	}
	checkKernel(t, parallel, test, train)
}

func TestDistanceKernelAppend(t *testing.T) {
	test, full := randomSets(7, 9, 24, 4)
	base := New(full.Points[:20])
	base.Classes = full.Classes
	k := NewDistanceKernel(test, base, 1)
	k2 := k.Append(full.Points[20:]...)
	checkKernel(t, k2, test, full)
	// The receiver is a still-valid view of the smaller set.
	checkKernel(t, k, test, base)
}

func TestDistanceKernelAppendGrowth(t *testing.T) {
	test, train := randomSets(13, 6, 5, 3)
	k := NewDistanceKernel(test, train, 1)
	cur := train
	for step := 0; step < 30; step++ {
		_, extra := randomSets(uint64(100+step), 0, 1, 3)
		cur = cur.Append(extra.Points...)
		k = k.Append(extra.Points...)
	}
	checkKernel(t, k, test, cur)
}

func TestDistanceKernelBatchAppendParallel(t *testing.T) {
	// A batched append big enough to cross the serial-fill gate must fill
	// its new columns in parallel yet stay bit-identical to the serial
	// append and to a fresh full build, at every worker count.
	test, full := randomSets(61, 80, 700, 6)
	base := New(full.Points[:200])
	base.Classes = full.Classes
	batch := full.Points[200:]
	want := NewDistanceKernel(test, full, 1)
	for _, workers := range []int{0, 1, 2, 4, 8} {
		k := NewDistanceKernel(test, base, workers).Append(batch...)
		if k.Rows() != want.Rows() || k.Cols() != want.Cols() {
			t.Fatalf("workers=%d: kernel is %d×%d, want %d×%d", workers, k.Rows(), k.Cols(), want.Rows(), want.Cols())
		}
		for i := 0; i < want.Cols(); i++ {
			for j := 0; j < want.Rows(); j++ {
				if k.At(i, j) != want.At(i, j) {
					t.Fatalf("workers=%d: At(%d,%d) = %v, want %v", workers, i, j, k.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestDistanceKernelBranchedAppend(t *testing.T) {
	test, train := randomSets(3, 8, 10, 4)
	_, extras := randomSets(99, 0, 3, 4)
	base := NewDistanceKernel(test, train, 1)

	// Two appends branch off the same base: the first claims spare capacity
	// in place, the second must reallocate. Both must read correctly, and
	// the base must be unaffected.
	k1 := base.Append(extras.Points[0])
	k2 := base.Append(extras.Points[1], extras.Points[2])
	checkKernel(t, k1, test, train.Append(extras.Points[0]))
	checkKernel(t, k2, test, train.Append(extras.Points[1], extras.Points[2]))
	checkKernel(t, base, test, train)

	// Chaining off a branch keeps working.
	k3 := k1.Append(extras.Points[2])
	checkKernel(t, k3, test, train.Append(extras.Points[0], extras.Points[2]))
}

func TestDistanceKernelRemove(t *testing.T) {
	test, train := randomSets(17, 10, 15, 4)
	k := NewDistanceKernel(test, train, 1)
	for _, gone := range [][]int{{0}, {14}, {3, 7, 11}, {0, 1, 2, 3, 4}} {
		kr := k.Remove(gone...)
		checkKernel(t, kr, test, train.Remove(gone...))
	}
	// Remove then append: appended columns slot in after the survivors.
	_, extra := randomSets(23, 0, 2, 4)
	kr := k.Remove(2, 5).Append(extra.Points...)
	checkKernel(t, kr, test, train.Remove(2, 5).Append(extra.Points...))
	checkKernel(t, k, test, train)
}

func TestDistanceKernelEmptySets(t *testing.T) {
	test, train := randomSets(29, 0, 4, 3)
	k := NewDistanceKernel(test, train, 2)
	if k.Rows() != 0 || k.Cols() != 4 {
		t.Fatalf("empty-test kernel is %d×%d, want 0×4", k.Rows(), k.Cols())
	}
	_, extra := randomSets(31, 0, 1, 3)
	k = k.Append(extra.Points...).Remove(0, 2)
	if k.Cols() != 3 {
		t.Fatalf("after append+remove Cols = %d, want 3", k.Cols())
	}

	testOnly, empty := randomSets(37, 5, 0, 3)
	k2 := NewDistanceKernel(testOnly, empty, 2)
	if k2.Cols() != 0 {
		t.Fatalf("empty-train kernel has %d cols", k2.Cols())
	}
	_, one := randomSets(41, 0, 1, 3)
	k2 = k2.Append(one.Points...)
	checkKernel(t, k2, testOnly, empty.Append(one.Points...))
}

func TestDistanceKernelMemoryBytes(t *testing.T) {
	test, train := randomSets(43, 12, 30, 4)
	k := NewDistanceKernel(test, train, 1)
	if got := k.MemoryBytes(); got < int64(12*30*8) {
		t.Fatalf("MemoryBytes = %d, want at least %d for the 12×30 matrix", got, 12*30*8)
	}
	// Masking frees nothing: the physical buffer stays shared.
	if kr := k.Remove(0, 1, 2); kr.MemoryBytes() >= k.MemoryBytes() {
		// Only the 4-byte cols entries shrink; the float buffer is intact.
		t.Fatalf("Remove changed the float buffer footprint: %d -> %d", k.MemoryBytes(), kr.MemoryBytes())
	}
}

func TestNearestWithMatchesNearest(t *testing.T) {
	_, train := randomSets(47, 0, 40, 4)
	// Duplicate a few points so distance ties exercise the index tiebreak.
	train = train.Append(train.Points[3], train.Points[17], train.Points[3])
	queries, _ := randomSets(53, 10, 0, 4)
	var s NearestScratch
	for _, q := range queries.Points {
		for _, k := range []int{0, 1, 3, 5, 40, 100} {
			want := train.Nearest(q.X, k)
			got := train.NearestWith(&s, q.X, k)
			if len(want) != len(got) {
				t.Fatalf("k=%d: len %d vs %d", k, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("k=%d: index %d differs: %d vs %d", k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDistanceKernelCompactingAppend: an Append that outgrows the buffer
// after removals copies only the live columns, bit for bit and in logical
// order, ahead of the new ones — ids 0, 1, … and PhysExtent live + new —
// and reports the renumbering; Removes and in-place Appends keep every id.
func TestDistanceKernelCompactingAppend(t *testing.T) {
	test, train := randomSets(59, 7, 20, 4)
	_, extra := randomSets(67, 0, 40, 4)
	k := NewDistanceKernel(test, train, 1) // capacity 20 + 5 + 4 = 29 columns
	cur := train
	kr := k.Remove(0, 3, 4, 11, 19)
	cur = cur.Remove(0, 3, 4, 11, 19)
	if kr.Renumbered(k) || kr.PhysExtent() != 20 || kr.Phys(0) != 1 {
		t.Fatalf("Remove renumbered: Renumbered %v, PhysExtent %d, Phys(0) %d",
			kr.Renumbered(k), kr.PhysExtent(), kr.Phys(0))
	}
	// 9 more columns fill the buffer in place; ids stay as they were.
	kf := kr.Append(extra.Points[:9]...)
	cur = cur.Append(extra.Points[:9]...)
	if kf.Renumbered(kr) || kf.PhysExtent() != 29 || kf.Phys(0) != 1 {
		t.Fatalf("in-place Append renumbered: Renumbered %v, PhysExtent %d, Phys(0) %d",
			kf.Renumbered(kr), kf.PhysExtent(), kf.Phys(0))
	}
	checkKernel(t, kf, test, cur)
	// Three more do not fit: the copy keeps the 24 live columns only.
	kc := kf.Append(extra.Points[9:12]...)
	next := cur.Append(extra.Points[9:12]...)
	if !kc.Renumbered(kf) || !kc.Renumbered(kr) {
		t.Fatal("compacting Append not reported as a renumbering")
	}
	if live := cur.Len(); kc.PhysExtent() != live+3 {
		t.Fatalf("PhysExtent after compaction = %d, want live %d + 3", kc.PhysExtent(), live)
	}
	for i := 0; i < kc.Cols(); i++ {
		if kc.Phys(i) != int32(i) {
			t.Fatalf("Phys(%d) = %d after compaction, want %d", i, kc.Phys(i), i)
		}
	}
	for i := 0; i < kf.Cols(); i++ {
		a, b := kf.Col(i), kc.Col(i)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("column %d row %d moved from %v to %v", i, j, a[j], b[j])
			}
		}
	}
	checkKernel(t, kc, test, next)
	// The old views still read their own buffer.
	checkKernel(t, kf, test, cur)
	checkKernel(t, k, test, train)
	if got, want := kc.MemoryBytes(), int64((27+27/4+4)*7*8+27*4); got != want {
		t.Fatalf("MemoryBytes after compaction = %d, want %d", got, want)
	}
	// The compacted buffer is the next frontier: Appends extend it in place.
	if ka := kc.Append(extra.Points[12]); ka.Renumbered(kc) || ka.Phys(27) != 27 {
		t.Fatalf("Append after compaction: Renumbered %v, Phys(27) %d", ka.Renumbered(kc), ka.Phys(27))
	}
	// A branched Append reallocates, so it compacts too.
	if kb := kr.Append(extra.Points[30]); !kb.Renumbered(kr) || kb.PhysExtent() != 16 {
		t.Fatalf("branched Append: Renumbered %v, PhysExtent %d, want true and 16", kb.Renumbered(kr), kb.PhysExtent())
	}
}

// TestDistanceKernelConcurrentAppends: goroutines append different points
// to one masked view at once while others read it. One Append may claim
// the spare columns in place; the rest reallocate and compact, reading the
// shared buffer as they copy. Every view must read its own set exactly.
// Run under -race (make test).
func TestDistanceKernelConcurrentAppends(t *testing.T) {
	test, train := randomSets(71, 9, 30, 4)
	_, extra := randomSets(73, 0, 24, 4)
	base := NewDistanceKernel(test, train, 1).Remove(1, 2, 17)
	live := train.Remove(1, 2, 17)
	const branches = 6
	views := make([]*DistanceKernel, branches)
	var wg sync.WaitGroup
	for b := 0; b < branches; b++ {
		wg.Add(2)
		go func(b int) {
			defer wg.Done()
			views[b] = base.Append(extra.Points[4*b : 4*b+4]...)
		}(b)
		go func() {
			defer wg.Done()
			for i := 0; i < base.Cols(); i++ {
				_ = base.At(i, i%base.Rows())
			}
		}()
	}
	wg.Wait()
	compacted := 0
	for b, v := range views {
		checkKernel(t, v, test, live.Append(extra.Points[4*b:4*b+4]...))
		if v.Renumbered(base) {
			compacted++
		}
	}
	if compacted != branches-1 {
		t.Fatalf("%d of %d branched Appends reallocated, want all but the one that claimed the spare columns", compacted, branches)
	}
	checkKernel(t, base, test, live)
}
