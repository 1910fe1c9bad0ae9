package dynshap_test

import (
	"testing"

	"dynshap"
)

// TestSessionKernelBitIdentity is the end-to-end bit-identity gate for the
// distance kernel: two sessions differing only in WithoutDistanceKernel —
// at several worker counts — must publish identical Shapley values through
// an Init / Add / Delete / mixed-update lifecycle. Exact float equality,
// no tolerance: the kernel is an evaluation shortcut, never a numerical
// approximation.
func TestSessionKernelBitIdentity(t *testing.T) {
	data := dynshap.IrisLike(70, 19)
	train, test := data.Split(0.6)
	extra := dynshap.IrisLike(8, 23)

	for _, workers := range []int{1, 4} {
		run := func(opts ...dynshap.Option) [][]float64 {
			t.Helper()
			opts = append(opts,
				dynshap.WithSamples(120),
				dynshap.WithSeed(11),
				dynshap.WithWorkers(workers),
				dynshap.WithKeepPermutations(),
			)
			s := dynshap.NewSession(train, test, dynshap.KNNClassifier{K: 3}, opts...)
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			var got [][]float64
			snap := func(sv []float64, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, sv)
			}
			snap(s.Values(), nil)
			snap(s.Add(extra.Points[:1], dynshap.AlgoPivotSame))
			snap(s.Add(extra.Points[1:2], dynshap.AlgoDelta))
			snap(s.Delete([]int{2, 9}, dynshap.AlgoDelta))
			snap(s.Delete([]int{0}, dynshap.AlgoKNN))
			snap(s.Delete([]int{5}, dynshap.AlgoMonteCarlo))
			return got
		}

		withKernel := run()
		scratch := run(dynshap.WithoutDistanceKernel())
		if len(withKernel) != len(scratch) {
			t.Fatalf("workers=%d: %d vs %d snapshots", workers, len(withKernel), len(scratch))
		}
		for step := range withKernel {
			if len(withKernel[step]) != len(scratch[step]) {
				t.Fatalf("workers=%d step %d: length %d vs %d",
					workers, step, len(withKernel[step]), len(scratch[step]))
			}
			for i := range withKernel[step] {
				if withKernel[step][i] != scratch[step][i] {
					t.Fatalf("workers=%d step %d point %d: kernel %v, scratch %v",
						workers, step, i, withKernel[step][i], scratch[step][i])
				}
			}
		}
	}
}

// The session must report the kernel footprint after every publish, and
// report zero when the kernel is disabled or the trainer is not KNN.
func TestSessionReportsKernelBytes(t *testing.T) {
	data := dynshap.IrisLike(60, 29)
	train, test := data.Split(0.5)

	s := dynshap.NewSession(train, test, dynshap.KNNClassifier{K: 3}, dynshap.WithSamples(60))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if got := s.EngineStats().KernelBytes; got < int64(train.Len()*test.Len()*8) {
		t.Fatalf("KernelBytes = %d, want at least the %d-byte matrix",
			got, train.Len()*test.Len()*8)
	}
	// The footprint survives a delete (masked, not rebuilt)...
	if _, err := s.Delete([]int{1}, dynshap.AlgoDelta); err != nil {
		t.Fatal(err)
	}
	if got := s.EngineStats().KernelBytes; got < int64((train.Len()-1)*test.Len()*8) {
		t.Fatalf("KernelBytes after delete = %d, unexpectedly small", got)
	}

	off := dynshap.NewSession(train, test, dynshap.KNNClassifier{K: 3},
		dynshap.WithSamples(60), dynshap.WithoutDistanceKernel())
	if err := off.Init(); err != nil {
		t.Fatal(err)
	}
	if got := off.EngineStats().KernelBytes; got != 0 {
		t.Fatalf("WithoutDistanceKernel still reports %d kernel bytes", got)
	}

	nb := dynshap.NewSession(train, test, dynshap.NaiveBayes{}, dynshap.WithSamples(40))
	if err := nb.Init(); err != nil {
		t.Fatal(err)
	}
	if got := nb.EngineStats().KernelBytes; got != 0 {
		t.Fatalf("NaiveBayes session reports %d kernel bytes", got)
	}
}

// A snapshot round-trip must preserve the kernel-disabled configuration.
func TestSnapshotPersistsKernelDisabled(t *testing.T) {
	data := dynshap.IrisLike(40, 37)
	train, test := data.Split(0.5)
	s := dynshap.NewSession(train, test, dynshap.KNNClassifier{K: 3},
		dynshap.WithSamples(40), dynshap.WithoutDistanceKernel())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	resumed, err := s.Snapshot().Resume(dynshap.KNNClassifier{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := resumed.EngineStats().KernelBytes; got != 0 {
		t.Fatalf("resumed session rebuilt a kernel (%d bytes) despite WithoutDistanceKernel", got)
	}
}

// TestSessionKernelChurnBound holds the distance kernel to the live
// training set under long churn: n = 200 training points and m = 50 test
// points, then 2,000 pairs of one single-point add and one delete, so n
// never moves. A delete only masks its column; the masked columns are
// reclaimed when an Append reallocates. Kept for the whole history, they
// would grow the kernel to about 1 MB here, against the 80 KB the live set
// needs. The exact arm runs AlgoAuto on a soft k-NN session, which takes
// the closed-form path and so must carry the estimator's column ids across
// every compaction; it ends by checking its values against a from-scratch
// session bit for bit. The sampled arm walks permutations on the kernel.
// `make bench-mem` runs this test.
func TestSessionKernelChurnBound(t *testing.T) {
	const (
		n     = 200
		m     = 50
		pairs = 2000
		bound = 2 * n * m * 8
	)
	train, test := dynshap.IrisLike(n+m, 31).Split(float64(n) / float64(n+m))
	extra := dynshap.IrisLike(pairs, 37)
	arms := []struct {
		name    string
		trainer dynshap.Trainer
		opts    []dynshap.Option
	}{
		{"exact", dynshap.SoftKNNClassifier{K: 5}, nil},
		{"sampled", dynshap.KNNClassifier{K: 5},
			[]dynshap.Option{dynshap.WithSamples(8), dynshap.WithUpdateSamples(2)}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			s := dynshap.NewSession(train, test, arm.trainer, append(arm.opts, dynshap.WithSeed(3))...)
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			peak := s.EngineStats().KernelBytes
			for i := 0; i < pairs; i++ {
				if _, err := s.Add(extra.Points[i:i+1], dynshap.AlgoAuto); err != nil {
					t.Fatalf("pair %d add: %v", i, err)
				}
				peak = max(peak, s.EngineStats().KernelBytes)
				if _, err := s.Delete([]int{37 * i % n}, dynshap.AlgoAuto); err != nil {
					t.Fatalf("pair %d delete: %v", i, err)
				}
			}
			got := s.EngineStats().KernelBytes
			t.Logf("KernelBytes after %d add/delete pairs: %d (peak %d, bound %d)", pairs, got, peak, bound)
			if got > bound || peak > bound {
				t.Fatalf("KernelBytes %d (peak %d) after %d add/delete pairs at n = %d, m = %d; want ≤ %d",
					got, peak, pairs, n, m, bound)
			}
			if arm.name != "exact" {
				return
			}
			fresh := dynshap.NewSession(s.Data(), test, arm.trainer, dynshap.WithSeed(3))
			if err := fresh.Init(); err != nil {
				t.Fatal(err)
			}
			want, vals := fresh.Values(), s.Values()
			for i := range want {
				if vals[i] != want[i] {
					t.Fatalf("after churn sv[%d] = %v, from-scratch %v", i, vals[i], want[i])
				}
			}
		})
	}
}
