package core

import (
	"testing"

	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/ml"
	"dynshap/internal/rng"
	"dynshap/internal/utility"
)

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

// FuzzBatchSequentialEquality asserts the batched update walks' bit-identity
// contract on fuzzer-chosen workloads: for random bases, batch sizes, τ
// budgets, and worker counts, the engine's one-pass batched walks must
// equal their per-point sequential references with ==, no tolerance — the
// delta form against k independent fixed-base walks sharing the permutation
// stream, the pivot form against k successive AddSame calls (including the
// evolved LSV state), and Pivot-d on the first pending point against its
// step-by-step reference (values, LSV and τ). mode picks the scoring rule
// and distance source (knnMode), so the delta form's fused k-NN walk is
// pinned under both rules and both sources. Seeds run as regular tests; use
// `go test -fuzz FuzzBatchSequentialEquality ./internal/core/` for guided
// exploration.
func FuzzBatchSequentialEquality(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(2), uint8(20), uint8(1), uint8(0))
	f.Add(uint64(7), uint8(15), uint8(4), uint8(9), uint8(3), uint8(0))
	f.Add(uint64(42), uint8(2), uint8(0), uint8(0), uint8(7), uint8(0))
	f.Add(uint64(99), uint8(23), uint8(5), uint8(14), uint8(15), uint8(0))
	f.Add(uint64(5), uint8(12), uint8(5), uint8(11), uint8(1), uint8(1))
	f.Add(uint64(6), uint8(9), uint8(3), uint8(17), uint8(2), uint8(2))
	f.Add(uint64(8), uint8(19), uint8(4), uint8(6), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw, tauRaw, wRaw, mode uint8) {
		n := 2 + int(nRaw)%20
		k := 1 + int(kRaw)%6
		tau := 1 + int(tauRaw)%25
		workers := 1 + int(wRaw)%6

		r := rng.New(seed)
		mk := func(count int) *dataset.Dataset { return gridDataset(r, count, 3) }
		train, test := mk(n), mk(1+r.Intn(8))
		tr, opts := knnMode(mode, 1+r.Intn(4))
		u := utility.NewModelUtility(train, test, tr, opts...)
		added := mk(k).Points
		uPlus := u.Append(added...)

		oldSV := make([]float64, n)
		for i := range oldSV {
			oldSV[i] = r.NormFloat64() / 8
		}

		same := func(stage string, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d values, want %d", stage, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: value %d is %v, want %v (n=%d k=%d τ=%d workers=%d mode=%d)",
						stage, i, got[i], want[i], n, k, tau, workers, mode%4)
				}
			}
		}

		e := NewEngine(WithWorkers(workers))
		want, err := BatchDeltaAddSeq(uPlus, oldSV, k, tau, rng.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.BatchDeltaAdd(uPlus, oldSV, k, tau, rng.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		same("delta", got, want)

		res, err := NewEngine(WithWorkers(1)).Initialize(u, tau, InitOptions{KeepPerms: true}, rng.New(seed+2))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Pivot
		sources := func() []*rng.Source {
			sr := rng.New(seed + 3)
			out := make([]*rng.Source, k)
			for i := range out {
				out[i] = sr.Split()
			}
			return out
		}
		ref := st.Clone()
		wantP, err := BatchAddSameSeq(ref, uPlus, k, sources())
		if err != nil {
			t.Fatal(err)
		}
		cl := st.Clone()
		gotP, err := e.BatchAddSame(cl, uPlus, k, sources())
		if err != nil {
			t.Fatal(err)
		}
		same("pivot SV", gotP, wantP)
		same("pivot LSV", cl.LSV, ref.LSV)

		// Pivot-d on the first pending point: fresh permutations, the
		// state's LSV inherited, its stored permutations dropped.
		uOne := u.Append(added[0])
		refD := st.Clone()
		wantD, err := refD.AddDifferent(uOne, tau, rng.New(seed+4))
		if err != nil {
			t.Fatal(err)
		}
		clD := st.Clone()
		gotD, err := e.AddDifferent(clD, uOne, tau, rng.New(seed+4))
		if err != nil {
			t.Fatal(err)
		}
		same("pivot-d SV", gotD, wantD)
		same("pivot-d LSV", clD.LSV, refD.LSV)
		if clD.Tau != refD.Tau || clD.HasPermutations() {
			t.Fatalf("pivot-d state: τ = %d (reference %d), stored permutations %v", clD.Tau, refD.Tau, clD.HasPermutations())
		}
	})
}

// FuzzBatchDeleteSequentialEquality asserts the batched DELETION walks'
// bit-identity contract on fuzzer-chosen workloads: for random bases,
// departing sets, τ budgets, and worker counts, the engine's one-pass
// batched deletions must equal their sequential references with ==, no
// tolerance — the delta form against per-point with-chains over the shared
// common-survivor stream, the pivot form against k successive DeleteSame
// calls (including the evolved permutations, slots, and LSV state). mode
// picks the scoring rule and distance source (knnMode), as in
// FuzzBatchSequentialEquality. Seeds run as regular tests; use
// `go test -fuzz FuzzBatchDeleteSequentialEquality ./internal/core/` for
// guided exploration.
func FuzzBatchDeleteSequentialEquality(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(2), uint8(20), uint8(1), uint8(0))
	f.Add(uint64(7), uint8(15), uint8(4), uint8(9), uint8(3), uint8(0))
	f.Add(uint64(42), uint8(3), uint8(0), uint8(0), uint8(7), uint8(0))
	f.Add(uint64(99), uint8(23), uint8(5), uint8(14), uint8(15), uint8(0))
	f.Add(uint64(5), uint8(12), uint8(5), uint8(11), uint8(1), uint8(1))
	f.Add(uint64(6), uint8(9), uint8(3), uint8(17), uint8(2), uint8(2))
	f.Add(uint64(8), uint8(19), uint8(4), uint8(6), uint8(4), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw, tauRaw, wRaw, mode uint8) {
		n := 3 + int(nRaw)%20
		k := 1 + int(kRaw)%6
		if k >= n {
			k = n - 1
		}
		tau := 1 + int(tauRaw)%25
		workers := 1 + int(wRaw)%6

		r := rng.New(seed)
		mk := func(count int) *dataset.Dataset { return gridDataset(r, count, 3) }
		train, test := mk(n), mk(1+r.Intn(8))
		tr, opts := knnMode(mode, 1+r.Intn(4))
		u := utility.NewModelUtility(train, test, tr, opts...)

		// A fuzzer-chosen departing set: k distinct indices in [0, n).
		points := r.PermN(n)[:k]

		oldSV := make([]float64, n)
		for i := range oldSV {
			oldSV[i] = r.NormFloat64() / 8
		}

		same := func(stage string, got, want []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d values, want %d", stage, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: value %d is %v, want %v (n=%d k=%d τ=%d workers=%d mode=%d points=%v)",
						stage, i, got[i], want[i], n, k, tau, workers, mode%4, points)
				}
			}
		}

		e := NewEngine(WithWorkers(workers))
		want, err := BatchDeltaDeleteSeq(u, oldSV, points, tau, rng.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.BatchDeltaDelete(u, oldSV, points, tau, rng.New(seed+1))
		if err != nil {
			t.Fatal(err)
		}
		same("delta", got, want)

		res, err := NewEngine(WithWorkers(1)).Initialize(u, tau, InitOptions{KeepPerms: true}, rng.New(seed+2))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Pivot
		gMinus := game.NewRestrict(u, points...)
		ref := st.Clone()
		wantP, err := BatchDeleteSameSeq(ref, u, points)
		if err != nil {
			t.Fatal(err)
		}
		cl := st.Clone()
		gotP, err := e.BatchDeleteSame(cl, gMinus, points)
		if err != nil {
			t.Fatal(err)
		}
		same("pivot SV", gotP, wantP)
		same("pivot LSV", cl.LSV, ref.LSV)
		// The evolved permutations themselves are compared in
		// batch_delete_test.go; SV + LSV equality here pins the walk they
		// produced.
	})
}
