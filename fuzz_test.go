package dynshap_test

import (
	"bytes"
	"testing"

	"dynshap"
	"dynshap/internal/bitset"
	"dynshap/internal/core"
	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/ml"
	"dynshap/internal/rng"
	"dynshap/internal/utility"
)

// FuzzReadSnapshot asserts the snapshot parser never panics and that
// accepted snapshots resume into consistent sessions. Seeds run as regular
// tests; use `go test -fuzz FuzzReadSnapshot .` for guided exploration.
func FuzzReadSnapshot(f *testing.F) {
	f.Add([]byte(`{"format":1,"train":[],"test":[],"classes":0,"samples":10}`))
	f.Add([]byte(`{"format":1,"train":[{"X":[1,2],"Y":0}],"test":[{"X":[0,0],"Y":0}],"classes":1,"values":[0.5],"samples":5}`))
	f.Add([]byte(`{"format":3}`))
	f.Add([]byte(`{"format":2,"train":[],"test":[],"classes":0,"samples":10}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"format":1,"train":[],"values":[1]}`))
	f.Add([]byte(`{"format":1,"train":[{"X":null,"Y":-3}],"test":[],"samples":-1}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		sn, err := dynshap.ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if len(sn.Values) != 0 && len(sn.Values) != len(sn.Train) {
			t.Fatalf("parser accepted inconsistent snapshot: %d values, %d points",
				len(sn.Values), len(sn.Train))
		}
		// Accepted snapshots must serialise back without error.
		var buf bytes.Buffer
		if _, err := sn.WriteTo(&buf); err != nil {
			t.Fatalf("accepted snapshot failed to serialise: %v", err)
		}
	})
}

// gridDataset draws count labelled points (3 classes) with coordinates on
// a coarse grid, so distance ties between points are likely, not just the
// ones duplicated points make.
func gridDataset(r *rng.Source, count, dim int) *dataset.Dataset {
	pts := make([]dataset.Point, count)
	for i := range pts {
		x := make([]float64, dim)
		for j := range x {
			x[j] = float64(r.Intn(7)) / 2
		}
		pts[i] = dataset.Point{X: x, Y: r.Intn(3)}
	}
	d := dataset.New(pts)
	d.Classes = 3
	return d
}

// FuzzKernelScratchEquality asserts the distance kernel's bit-identity
// contract on fuzzer-chosen workloads: a kernel-backed ModelUtility must
// equal a scratch one with ==, no tolerance, on random datasets and
// coalitions — including duplicated training points, whose exact distance
// ties stress the (distance, index) tiebreak — through Value calls, prefix
// walks, and Append/Remove derivation. Seeds run as regular tests; use
// `go test -fuzz FuzzKernelScratchEquality .` for guided exploration.
func FuzzKernelScratchEquality(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(6), uint8(4), uint8(3), uint8(2))
	f.Add(uint64(42), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(7), uint8(23), uint8(11), uint8(7), uint8(8), uint8(5))
	f.Add(uint64(99), uint8(5), uint8(0), uint8(2), uint8(4), uint8(3)) // empty test set
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw, dimRaw, kRaw, dupRaw uint8) {
		n := 1 + int(nRaw)%24
		m := int(mRaw) % 12
		dim := 1 + int(dimRaw)%8
		k := 1 + int(kRaw)%8
		dup := int(dupRaw) % 6

		r := rng.New(seed)
		mk := func(count int) *dataset.Dataset { return gridDataset(r, count, dim) }
		train, test := mk(n), mk(m)
		for i := 0; i < dup; i++ {
			train = train.Append(train.Points[r.Intn(train.Len())])
		}
		n = train.Len()

		u := utility.NewModelUtility(train, test, ml.KNN{K: k})
		us := utility.NewModelUtility(train, test, ml.KNN{K: k}, utility.WithoutKernel())

		compare := func(stage string, a, b *utility.ModelUtility) {
			t.Helper()
			nn := a.N()
			for rep := 0; rep < 6; rep++ {
				s := bitset.New(nn)
				for i := 0; i < nn; i++ {
					if r.Intn(2) == 0 {
						s.Add(i)
					}
				}
				if got, want := a.Value(s), b.Value(s); got != want {
					t.Fatalf("%s: kernel Value %v, scratch Value %v (|S|=%d)", stage, got, want, s.Len())
				}
			}
			ev := game.PrefixEvaluatorOf(a)
			perm := r.PermN(nn)
			prefix := bitset.New(nn)
			ev.Reset()
			for _, p := range perm {
				prefix.Add(p)
				if got, want := ev.Add(p), b.Value(prefix); got != want {
					t.Fatalf("%s: kernel prefix %v, scratch Value %v", stage, got, want)
				}
			}
		}
		compare("base", u, us)

		extra := mk(2)
		u2, us2 := u.Append(extra.Points...), us.Append(extra.Points...)
		compare("append", u2, us2)

		gone := []int{r.Intn(u2.N())}
		u3, us3 := u2.Remove(gone...), us2.Remove(gone...)
		if u3.N() > 0 {
			compare("remove", u3, us3)
		}
	})
}

// FuzzKNNWalkRoutes asserts that the k-NN utility's three evaluation
// routes agree bit for bit at every position of a walk: the zero-pivot
// whole walk the engine's full-walk passes make, the step view's Add and
// scratch Value calls. The fuzzer picks small hard-vote and soft games, on
// the kernel or without it (knnMode), with grid coordinates and duplicated
// points for distance ties, empty test sets and K above n; each walks
// random permutations of the game and of random Restrict subsets of it.
// Seeds run as regular tests; use `go test -fuzz FuzzKNNWalkRoutes .` for
// guided exploration.
func FuzzKNNWalkRoutes(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(6), uint8(2), uint8(2), uint8(0))
	f.Add(uint64(7), uint8(23), uint8(11), uint8(7), uint8(5), uint8(1))
	f.Add(uint64(42), uint8(3), uint8(4), uint8(7), uint8(0), uint8(2))
	f.Add(uint64(99), uint8(5), uint8(0), uint8(2), uint8(3), uint8(3)) // empty test set
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw, kRaw, dupRaw, mode uint8) {
		n := 1 + int(nRaw)%24
		m := int(mRaw) % 12
		k := 1 + int(kRaw)%8
		r := rng.New(seed)
		train, test := gridDataset(r, n, 3), gridDataset(r, m, 3)
		for i := 0; i < int(dupRaw)%6; i++ {
			train = train.Append(train.Points[r.Intn(train.Len())])
		}
		tr, opts := knnMode(mode, k)
		u := utility.NewModelUtility(train, test, tr, opts...)

		for rep := 0; rep < 4; rep++ {
			var g game.Game = u
			if rep > 0 {
				var removed []int
				for i := 0; i < u.N(); i++ {
					if r.Intn(3) == 0 {
						removed = append(removed, i)
					}
				}
				g = game.NewRestrict(u, removed...)
			}
			walk, step := game.PivotPrefixOf(g, nil), game.PrefixEvaluatorOf(g)
			if walk == nil || step == nil {
				t.Fatalf("rep %d: %T lost a k-NN evaluator", rep, g)
			}
			perm := r.PermN(g.N())
			row := make([]float64, len(perm))
			walk.Walk(perm, row)
			step.Reset()
			prefix := bitset.New(g.N())
			for pos, p := range perm {
				prefix.Add(p)
				want := g.Value(prefix)
				if got := step.Add(p); got != want {
					t.Fatalf("rep %d pos %d (mode %d, K=%d, m=%d): step view %v, scratch %v", rep, pos, mode%4, k, m, got, want)
				}
				if got := row[pos]; got != want {
					t.Fatalf("rep %d pos %d (mode %d, K=%d, m=%d): whole walk %v, scratch %v", rep, pos, mode%4, k, m, got, want)
				}
			}
		}
	})
}

// FuzzExactKNNEquality asserts the exact k-NN estimator's two core
// contracts on fuzzer-chosen workloads: (1) against brute-force
// enumeration of the soft k-NN game's 2ⁿ coalitions at small n, the
// closed form is exact to 1e-12; (2) after a random sequence of session
// Adds and Deletes, the dynamically maintained values EXACTLY equal (==,
// no tolerance) a from-scratch session over the same points. Grid
// coordinates and duplicated points make exact distance ties common, so
// the stable tie order is stressed, not dodged. Seeds run as regular
// tests; use `go test -fuzz FuzzExactKNNEquality .` for guided
// exploration.
func FuzzExactKNNEquality(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(4), uint8(3), uint8(4))
	f.Add(uint64(7), uint8(8), uint8(1), uint8(1), uint8(6))
	f.Add(uint64(42), uint8(3), uint8(0), uint8(5), uint8(2)) // empty test set
	f.Add(uint64(99), uint8(5), uint8(7), uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw, kRaw, stepsRaw uint8) {
		n := 1 + int(nRaw)%8
		m := int(mRaw) % 8
		k := 1 + int(kRaw)%6
		steps := int(stepsRaw) % 8

		r := rng.New(seed)
		mk := func(count int) *dataset.Dataset {
			pts := make([]dataset.Point, count)
			for i := range pts {
				x := make([]float64, 2)
				for j := range x {
					x[j] = float64(r.Intn(5)) / 2
				}
				pts[i] = dataset.Point{X: x, Y: r.Intn(3)}
			}
			d := dataset.New(pts)
			d.Classes = 3
			return d
		}
		train, test := mk(n), mk(m)

		check := func(stage string, s *dynshap.Session) {
			t.Helper()
			got := s.Values()
			cur := s.Data()
			// Enumeration ground truth (n stays ≤ 10, so 2ⁿ is cheap).
			want := dynshap.ExactShapley(dynshap.SoftKNNGame(cur, test, k))
			for i := range want {
				if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
					t.Fatalf("%s: sv[%d] = %v, enumeration %v (n=%d m=%d k=%d)", stage, i, got[i], want[i], cur.Len(), m, k)
				}
			}
			// From-scratch session: bitwise equality.
			fresh := dynshap.NewSession(cur, test, dynshap.SoftKNNClassifier{K: k}, dynshap.WithSeed(seed))
			if err := fresh.Init(); err != nil {
				t.Fatalf("%s: fresh init: %v", stage, err)
			}
			for i, w := range fresh.Values() {
				if got[i] != w {
					t.Fatalf("%s: sv[%d] maintained %v != from-scratch %v", stage, i, got[i], w)
				}
			}
		}

		s := dynshap.NewSession(train, test, dynshap.SoftKNNClassifier{K: k}, dynshap.WithSeed(seed))
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		check("init", s)
		for step := 0; step < steps; step++ {
			if s.N() >= 2 && (s.N() >= 10 || r.Intn(2) == 0) {
				if _, err := s.Delete([]int{r.Intn(s.N())}, dynshap.AlgoAuto); err != nil {
					t.Fatalf("step %d: delete: %v", step, err)
				}
			} else {
				var p dataset.Point
				if s.N() > 0 && r.Intn(3) == 0 {
					p = s.Data().Points[r.Intn(s.N())].Clone() // exact tie
				} else {
					p = mk(1).Points[0]
				}
				if _, err := s.Add([]dynshap.Point{p}, dynshap.AlgoAuto); err != nil {
					t.Fatalf("step %d: add: %v", step, err)
				}
			}
			check("step", s)
		}
	})
}

// FuzzSemivalueHeadEquality asserts the multi-head accumulator's
// bit-identity contract on fuzzer-chosen workloads: a pass pricing four
// semivalue heads (Shapley plus Banzhaf, Beta(4,1), Absolute Shapley) must
// return EXACTLY (==, no tolerance) the Shapley values of a single-head
// pass over the same permutation stream, at every worker count — the extra
// heads are producer-side bookkeeping that consumes no randomness and adds
// no arithmetic to the Shapley path. The heads themselves must also be
// worker-count invariant. Seeds run as regular tests; use
// `go test -fuzz FuzzSemivalueHeadEquality .` for guided exploration.
func FuzzSemivalueHeadEquality(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(20), uint8(1))
	f.Add(uint64(7), uint8(15), uint8(9), uint8(3))
	f.Add(uint64(42), uint8(2), uint8(0), uint8(7))
	f.Add(uint64(99), uint8(23), uint8(14), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, tauRaw, wRaw uint8) {
		n := 2 + int(nRaw)%20
		tau := 1 + int(tauRaw)%25
		workers := 1 + int(wRaw)%6

		r := rng.New(seed)
		mk := func(count int) *dataset.Dataset { return gridDataset(r, count, 3) }
		train, test := mk(n), mk(1+r.Intn(8))
		u := utility.NewModelUtility(train, test, ml.KNN{K: 1 + r.Intn(4)})
		heads := []dynshap.Semivalue{dynshap.Banzhaf(), dynshap.Beta(4, 1), dynshap.AbsoluteShapley()}

		plain := core.NewEngine(core.WithWorkers(workers))
		multi := core.NewEngine(core.WithWorkers(workers), core.WithSemivalues(heads...))
		want := plain.MonteCarlo(u, tau, rng.New(seed+1))
		got := multi.MonteCarlo(u, tau, rng.New(seed+1))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("4-head Shapley[%d] = %v, single-head %v (n=%d τ=%d workers=%d)",
					i, got[i], want[i], n, tau, workers)
			}
		}

		// The extra heads must not depend on the worker count either.
		ref := core.NewEngine(core.WithWorkers(1), core.WithSemivalues(heads...))
		ref.MonteCarlo(u, tau, rng.New(seed+1))
		rh, mh := ref.HeadValues(), multi.HeadValues()
		if len(rh) != len(heads) || len(mh) != len(heads) {
			t.Fatalf("head counts: serial %d, striped %d, want %d", len(rh), len(mh), len(heads))
		}
		for h := range heads {
			for i := range rh[h] {
				if mh[h][i] != rh[h][i] {
					t.Fatalf("head %v[%d] = %v at %d workers, %v serial",
						heads[h], i, mh[h][i], workers, rh[h][i])
				}
			}
		}
	})
}

// knnMode maps a fuzz byte to one of the four k-NN utilities the batched
// walks must handle: bit 0 picks the soft scoring rule over the hard vote,
// bit 1 the Euclidean distance source over the precomputed kernel.
func knnMode(mode uint8, k int) (ml.Trainer, []utility.Option) {
	var tr ml.Trainer = ml.KNN{K: k}
	if mode&1 != 0 {
		tr = ml.SoftKNN{K: k}
	}
	var opts []utility.Option
	if mode&2 != 0 {
		opts = append(opts, utility.WithoutKernel())
	}
	return tr, opts
}
