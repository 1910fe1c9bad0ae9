package utility

import (
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/ml"
	"dynshap/internal/rng"
)

// kernelPair builds the same KNN workload twice: once with the distance
// kernel (the default) and once forced down the scratch path. Every test
// in this file asserts the two arms agree with ==, no tolerance — the
// kernel's bit-identity contract.
func kernelPair(t *testing.T, n, testSize, k int, seed uint64, dup int) (withKernel, scratch *ModelUtility) {
	t.Helper()
	rnd := rng.New(seed)
	pool := dataset.IrisLike(rnd, n+testSize)
	pool.Standardize()
	train, test := pool.Split(float64(n) / float64(n+testSize))
	// Duplicate points create exact distance ties, stressing the
	// (distance, index) tiebreak both arms must share.
	for i := 0; i < dup && train.Len() > 0; i++ {
		train = train.Append(train.Points[rnd.Intn(train.Len())])
	}
	withKernel = NewModelUtility(train, test, ml.KNN{K: k})
	scratch = NewModelUtility(train, test, ml.KNN{K: k}, WithoutKernel())
	if withKernel.kernel == nil {
		t.Fatal("default KNN utility built no kernel")
	}
	if scratch.kernel != nil {
		t.Fatal("WithoutKernel still built a kernel")
	}
	return withKernel, scratch
}

// TestKernelValueMatchesScratchExactly: random coalitions, random k,
// duplicated points — kernel Value must equal scratch Value bit-for-bit.
func TestKernelValueMatchesScratchExactly(t *testing.T) {
	rnd := rng.New(42)
	for trial := 0; trial < 25; trial++ {
		baseN := 6 + rnd.Intn(20)
		dup := rnd.Intn(5)
		k := 1 + rnd.Intn(8)
		u, us := kernelPair(t, baseN, 8+rnd.Intn(15), k, uint64(500+trial), dup)
		n := u.N()
		for rep := 0; rep < 15; rep++ {
			s := bitset.New(n)
			for i := 0; i < n; i++ {
				if rnd.Intn(2) == 0 {
					s.Add(i)
				}
			}
			if got, want := u.Value(s), us.Value(s); got != want {
				t.Fatalf("trial %d rep %d k=%d |S|=%d: kernel %v, scratch %v",
					trial, rep, k, s.Len(), got, want)
			}
		}
	}
}

// The kernel-backed prefix evaluator and the scratch prefix evaluator must
// produce identical sequences, and both must match scratch Values.
func TestKernelPrefixMatchesScratchExactly(t *testing.T) {
	rnd := rng.New(77)
	for trial := 0; trial < 10; trial++ {
		u, us := kernelPair(t, 10+rnd.Intn(15), 10, 1+rnd.Intn(7), uint64(900+trial), 3)
		n := u.N()
		ev := game.PrefixEvaluatorOf(u)
		evs := game.PrefixEvaluatorOf(us)
		for rep := 0; rep < 3; rep++ {
			perm := rnd.PermN(n)
			prefix := bitset.New(n)
			ev.Reset()
			evs.Reset()
			for pos, p := range perm {
				prefix.Add(p)
				got := ev.Add(p)
				noKernel := evs.Add(p)
				want := us.Value(prefix)
				if got != noKernel || got != want {
					t.Fatalf("trial %d rep %d pos %d: kernel prefix %v, scratch prefix %v, scratch value %v",
						trial, rep, pos, got, noKernel, want)
				}
			}
		}
	}
}

// Append/Remove chains must keep the masked/extended kernel bit-identical
// to a scratch utility over the same mutated dataset — the property that
// lets Session updates never rebuild the kernel.
func TestKernelAppendRemoveChainsMatchScratch(t *testing.T) {
	rnd := rng.New(1234)
	for trial := 0; trial < 8; trial++ {
		u, us := kernelPair(t, 12+rnd.Intn(10), 10, 1+rnd.Intn(6), uint64(300+trial), 2)
		check := func(step string) {
			t.Helper()
			n := u.N()
			if n != us.N() {
				t.Fatalf("trial %d %s: N mismatch %d vs %d", trial, step, n, us.N())
			}
			ev := game.PrefixEvaluatorOf(u)
			perm := rnd.PermN(n)
			prefix := bitset.New(n)
			ev.Reset()
			for _, p := range perm {
				prefix.Add(p)
				if got, want := ev.Add(p), us.Value(prefix); got != want {
					t.Fatalf("trial %d %s: prefix %v, scratch %v", trial, step, got, want)
				}
			}
			for rep := 0; rep < 5; rep++ {
				s := bitset.New(n)
				for i := 0; i < n; i++ {
					if rnd.Intn(3) > 0 {
						s.Add(i)
					}
				}
				if got, want := u.Value(s), us.Value(s); got != want {
					t.Fatalf("trial %d %s: kernel %v, scratch %v", trial, step, got, want)
				}
			}
		}
		for step := 0; step < 6; step++ {
			if rnd.Intn(2) == 0 || u.N() < 6 {
				// Append, sometimes duplicating an existing point.
				var p dataset.Point
				if rnd.Intn(2) == 0 {
					p = u.train.Points[rnd.Intn(u.N())].Clone()
				} else {
					p = dataset.Point{X: []float64{rnd.NormFloat64(), rnd.NormFloat64(), rnd.NormFloat64(), rnd.NormFloat64()}, Y: rnd.Intn(3)}
				}
				u = u.Append(p)
				us = us.Append(p)
				check("append")
			} else {
				gone := []int{rnd.Intn(u.N())}
				if u.N() > 8 {
					gone = append(gone, 0, u.N()-1)
				}
				u = u.Remove(gone...)
				us = us.Remove(gone...)
				check("remove")
			}
		}
	}
}

// Branched derivations off one base utility (the pivot algorithms build
// N⁺ views that may be abandoned) must not disturb each other.
func TestKernelBranchedDerivationsIndependent(t *testing.T) {
	u, us := kernelPair(t, 15, 10, 3, 8, 2)
	extra := dataset.Point{X: []float64{1, 2, 3, 4}, Y: 1}
	other := dataset.Point{X: []float64{-1, 0, 1, 0}, Y: 2}

	a := u.Append(extra)
	b := u.Append(other) // second branch off the same base
	sa, sb := us.Append(extra), us.Append(other)

	rnd := rng.New(17)
	for _, pair := range []struct{ got, want *ModelUtility }{{a, sa}, {b, sb}, {u, us}} {
		n := pair.got.N()
		for rep := 0; rep < 10; rep++ {
			s := bitset.New(n)
			for i := 0; i < n; i++ {
				if rnd.Intn(2) == 0 {
					s.Add(i)
				}
			}
			if got, want := pair.got.Value(s), pair.want.Value(s); got != want {
				t.Fatalf("branched utility diverged: %v vs %v", got, want)
			}
		}
	}
}

func TestKernelMemoryBytes(t *testing.T) {
	u, us := kernelPair(t, 20, 10, 3, 5, 0)
	if got := u.KernelMemoryBytes(); got < 20*10*8 {
		t.Fatalf("KernelMemoryBytes = %d, want ≥ %d", got, 20*10*8)
	}
	if got := us.KernelMemoryBytes(); got != 0 {
		t.Fatalf("scratch utility reports %d kernel bytes, want 0", got)
	}
	if got := NewModelUtility(u.Train(), u.Test(), ml.NaiveBayes{}).KernelMemoryBytes(); got != 0 {
		t.Fatalf("non-KNN utility reports %d kernel bytes, want 0", got)
	}
}

// TestKernelCompactionMatchesScratch: removals followed by an Append that
// outgrows the kernel's buffer compact it — the live columns are copied
// and renumbered — and Value and every whole walk must still equal the
// scratch utility bit for bit, for the hard and the soft k-NN utility.
func TestKernelCompactionMatchesScratch(t *testing.T) {
	rnd := rng.New(4321)
	for trial := 0; trial < 8; trial++ {
		k := 1 + rnd.Intn(5)
		u, us := kernelPair(t, 16, 9, k, uint64(700+trial), 3)
		if trial%2 == 1 {
			u = NewModelUtility(u.Train(), u.Test(), ml.SoftKNN{K: k})
			us = NewModelUtility(us.Train(), us.Test(), ml.SoftKNN{K: k}, WithoutKernel())
		}
		check := func(step string) {
			t.Helper()
			n := u.N()
			for rep := 0; rep < 10; rep++ {
				s := bitset.New(n)
				for i := 0; i < n; i++ {
					if rnd.Intn(2) == 0 {
						s.Add(i)
					}
				}
				if got, want := u.Value(s), us.Value(s); got != want {
					t.Fatalf("trial %d %s: Value %v, scratch %v", trial, step, got, want)
				}
			}
			final := rnd.PermN(n)
			pivots := final[n-2:]
			for _, pv := range [][]int{nil, pivots} {
				perm := final[:n-len(pv)]
				got := make([]float64, len(perm)*(len(pv)+1))
				want := make([]float64, len(got))
				game.PivotPrefixOf(u, pv).Walk(perm, got)
				game.PivotPrefixOf(us, pv).Walk(perm, want)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d %s: %d-pivot walk row[%d] %v, scratch %v", trial, step, len(pv), i, got[i], want[i])
					}
				}
			}
			// Nested chains over the same players: pivot 0 at a random
			// place among the others, pivot 1 at the end.
			at := rnd.Intn(n - 1)
			nested := append(append(append([]int(nil), final[:at]...), pivots[0]), final[at:n-2]...)
			nested = append(nested, pivots[1])
			starts := []int{at, n - 1}
			got := make([]float64, 2*(n+1))
			want := make([]float64, len(got))
			game.PivotPrefixOf(u, pivots).WalkNested(nested, starts, got)
			game.PivotPrefixOf(us, pivots).WalkNested(nested, starts, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: nested walk row[%d] %v, scratch %v", trial, step, i, got[i], want[i])
				}
			}
		}
		extra := func(cnt int) []dataset.Point {
			pts := make([]dataset.Point, cnt)
			for i := range pts {
				if rnd.Intn(3) == 0 {
					pts[i] = u.Train().Points[rnd.Intn(u.N())].Clone() // a distance tie
				} else {
					pts[i] = dataset.Point{X: []float64{rnd.NormFloat64(), rnd.NormFloat64(), rnd.NormFloat64(), rnd.NormFloat64()}, Y: rnd.Intn(3)}
				}
			}
			return pts
		}
		// 19 columns in a 27-column buffer: mask four, then append twelve.
		gone := []int{0, 5, 6, 18}
		u, us = u.Remove(gone...), us.Remove(gone...)
		check("remove")
		prev := u.kernel
		pts := extra(12)
		u, us = u.Append(pts...), us.Append(pts...)
		if !u.kernel.Renumbered(prev) || u.kernel.PhysExtent() != u.N() {
			t.Fatalf("trial %d: the Append did not compact (PhysExtent %d, n %d)", trial, u.kernel.PhysExtent(), u.N())
		}
		check("compacting append")
		u, us = u.Remove(2, 20), us.Remove(2, 20)
		pts = extra(2)
		u, us = u.Append(pts...), us.Append(pts...)
		check("append after compaction")
	}
}
