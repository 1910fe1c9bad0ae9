package dynshap

import (
	"bytes"
	"math"
	"testing"
)

// fourHeadSet is the canonical multi-head configuration the refactor
// prices in one pass: the three extra heads plus (implicitly) Shapley.
func fourHeadSet() []Semivalue {
	return []Semivalue{Banzhaf(), Beta(4, 1), AbsoluteShapley()}
}

func bitEqualF(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d differs: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// The acceptance soak: a default Shapley-only session and a session
// carrying three extra semivalue heads must publish bit-identical Shapley
// values through Init, delta/batch/recompute adds, delta and recompute
// deletes, snapshot/Resume, and ReplayTo — at multiple worker counts. The
// heads are pure bookkeeping over the same walks; they consume no
// randomness and never perturb the Shapley accumulation.
func TestSessionHeadsShapleyBitIdenticalSoak(t *testing.T) {
	for _, workers := range []int{1, 3} {
		train, test := fixture(t, 10)
		opts := []Option{WithSamples(80), WithUpdateSamples(50), WithSeed(11), WithWorkers(workers)}
		plain := NewSession(train, test, KNNClassifier{K: 3}, opts...)
		multi := NewSession(train, test, KNNClassifier{K: 3},
			append(append([]Option(nil), opts...), WithSemivalues(fourHeadSet()...))...)

		check := func(step string) {
			t.Helper()
			bitEqualF(t, step, multi.Values(), plain.Values())
		}
		if err := plain.Init(); err != nil {
			t.Fatal(err)
		}
		if err := multi.Init(); err != nil {
			t.Fatal(err)
		}
		check("init")

		extra := IrisLike(8, 99)
		extra.Standardize()
		step := func(name string, f func(s *Session) error) {
			t.Helper()
			if err := f(plain); err != nil {
				t.Fatalf("%s (plain): %v", name, err)
			}
			if err := f(multi); err != nil {
				t.Fatalf("%s (multi): %v", name, err)
			}
			check(name)
		}
		step("delta add", func(s *Session) error {
			_, err := s.Add(extra.Points[:1], AlgoDelta)
			return err
		})
		step("batch delta add", func(s *Session) error {
			_, err := s.Add(extra.Points[1:4], AlgoDeltaBatch)
			return err
		})
		step("delta delete", func(s *Session) error {
			_, err := s.Delete([]int{2}, AlgoDelta)
			return err
		})
		step("mc add", func(s *Session) error {
			_, err := s.Add(extra.Points[4:5], AlgoMonteCarlo)
			return err
		})
		step("tmc delete", func(s *Session) error {
			_, err := s.Delete([]int{0, 3}, AlgoTruncatedMC)
			return err
		})

		// Snapshot / Resume: the resumed sessions must agree bit for bit.
		var pb, mb bytes.Buffer
		if _, err := plain.Snapshot().WriteTo(&pb); err != nil {
			t.Fatal(err)
		}
		if _, err := multi.Snapshot().WriteTo(&mb); err != nil {
			t.Fatal(err)
		}
		psn, err := ReadSnapshot(&pb)
		if err != nil {
			t.Fatal(err)
		}
		msn, err := ReadSnapshot(&mb)
		if err != nil {
			t.Fatal(err)
		}
		pres, err := psn.Resume(KNNClassifier{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		mres, err := msn.Resume(KNNClassifier{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		bitEqualF(t, "resume", mres.Values(), pres.Values())
		bitEqualF(t, "resume vs live", mres.Values(), multi.Values())

		// ReplayTo: both journals replay to the same final Shapley values.
		prep, err := plain.ReplayTo(plain.Version())
		if err != nil {
			t.Fatal(err)
		}
		mrep, err := multi.ReplayTo(multi.Version())
		if err != nil {
			t.Fatal(err)
		}
		bitEqualF(t, "replay", mrep.Values(), prep.Values())
		bitEqualF(t, "replay vs live", mrep.Values(), multi.Values())
	}
}

// Head values themselves must be deterministic and worker-count invariant:
// same seed, different worker counts, bit-identical heads after every kind
// of update.
func TestSessionHeadsWorkerInvariance(t *testing.T) {
	heads := fourHeadSet()
	var ref [][]float64
	for wi, workers := range []int{1, 2, 5} {
		s := newTestSession(t, 9, WithWorkers(workers), WithUpdateSamples(40), WithSemivalues(heads...))
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		extra := IrisLike(4, 5)
		extra.Standardize()
		if _, err := s.Add(extra.Points[:2], AlgoDeltaBatch); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delete([]int{1}, AlgoDelta); err != nil {
			t.Fatal(err)
		}
		cur := make([][]float64, len(heads))
		for h, w := range heads {
			vals, err := s.ValuesFor(w)
			if err != nil {
				t.Fatal(err)
			}
			cur[h] = vals
		}
		if wi == 0 {
			ref = cur
			continue
		}
		for h, w := range heads {
			bitEqualF(t, "workers="+itoa(workers)+" head "+w.String(), cur[h], ref[h])
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Beta(1,1) is the Shapley weighting in Beta clothing: its head must track
// the native Shapley output through sampled passes AND through the YN-NN
// linear-head merge, up to floating-point table construction.
func TestSessionBetaOneOneTracksShapley(t *testing.T) {
	s := newTestSession(t, 10, WithTrackDeletions(), WithUpdateSamples(40),
		WithSemivalues(Beta(1, 1), Banzhaf()))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	close := func(step string) {
		t.Helper()
		beta, err := s.ValuesFor(Beta(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		sv := s.Values()
		if len(beta) != len(sv) {
			t.Fatalf("%s: len %d vs %d", step, len(beta), len(sv))
		}
		for i := range sv {
			if math.Abs(beta[i]-sv[i]) > 1e-9 {
				t.Fatalf("%s: Beta(1,1)[%d] = %v, Shapley = %v", step, i, beta[i], sv[i])
			}
		}
	}
	close("init")
	// Exact YN-NN deletion: the Shapley output uses the historic merge, the
	// Beta(1,1) head the generalized coefficient sweep over the same arrays.
	if _, err := s.Delete([]int{3}, AlgoYNNN); err != nil {
		t.Fatal(err)
	}
	close("ynnn delete")
	extra := IrisLike(2, 17)
	extra.Standardize()
	if _, err := s.Add(extra.Points[:1], AlgoDelta); err != nil {
		t.Fatal(err)
	}
	close("delta add")
}

// Sampled heads must agree with exact enumeration on a small game within
// the sampling tolerance.
func TestSessionHeadsMatchExactSmall(t *testing.T) {
	train, test := fixture(t, 8)
	heads := fourHeadSet()
	s := NewSession(train, test, KNNClassifier{K: 3},
		WithSamples(4000), WithSeed(5), WithSemivalues(heads...))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	g := ModelGame(train, test, KNNClassifier{K: 3})
	for _, w := range heads {
		got, err := s.ValuesFor(w)
		if err != nil {
			t.Fatal(err)
		}
		want := ExactSemivalue(g, w)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.06 {
				t.Fatalf("head %v entry %d: sampled %v vs exact %v", w, i, got[i], want[i])
			}
		}
	}
	// The Shapley head through the same session is exactly Values().
	sv, err := s.ValuesFor(Shapley())
	if err != nil {
		t.Fatal(err)
	}
	bitEqualF(t, "ValuesFor(Shapley)", sv, s.Values())
}

// The read API: Shapley always answers, configured heads answer after
// Init, anything else is an error; RankFor/TopKFor ride on ValuesFor.
func TestSessionValuesForAPI(t *testing.T) {
	s := newTestSession(t, 8, WithSemivalues(Banzhaf(), Banzhaf(), Shapley()))
	// Duplicates collapse, Shapley is normalised out.
	if got := s.Semivalues(); len(got) != 1 || !got[0].Linear() || got[0].String() != "banzhaf" {
		t.Fatalf("Semivalues() = %v", got)
	}
	if v, err := s.ValuesFor(Banzhaf()); err != nil || v != nil {
		t.Fatalf("pre-init ValuesFor = %v, %v", v, err)
	}
	if _, err := s.ValuesFor(Beta(4, 1)); err == nil {
		t.Fatal("ValuesFor accepted an unconfigured head")
	}
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	bz, err := s.ValuesFor(Banzhaf())
	if err != nil {
		t.Fatal(err)
	}
	if len(bz) != 8 {
		t.Fatalf("len(banzhaf) = %d", len(bz))
	}
	ranked, err := s.RankFor(Banzhaf())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 8 {
		t.Fatalf("len(RankFor) = %d", len(ranked))
	}
	top, err := s.TopKFor(3, Banzhaf())
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || top[0] != ranked[0].Index {
		t.Fatalf("TopKFor = %v, ranked[0] = %v", top, ranked[0])
	}
}

// Shapley-specific algorithms must refuse to run when heads are
// configured instead of silently letting them go stale.
func TestSessionHeadsRejectShapleyOnlyAlgos(t *testing.T) {
	s := newTestSession(t, 8, WithKeepPermutations(), WithTrackDeletions(),
		WithSemivalues(Banzhaf(), AbsoluteShapley()))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	pt := []Point{{X: []float64{0, 0, 0, 0}, Y: 0}}
	for _, algo := range []Algorithm{AlgoPivotSame, AlgoPivotSameBatch, AlgoBase, AlgoKNN} {
		if _, err := s.Add(pt, algo); err == nil {
			t.Fatalf("Add(%v) succeeded with heads configured", algo)
		}
	}
	// The |·| head disqualifies even the single-point YN-NN merge.
	if _, err := s.Delete([]int{0}, AlgoYNNN); err == nil {
		t.Fatal("Delete(YN-NN) succeeded with an absolute head configured")
	}
	if _, err := s.Delete([]int{0}, AlgoKNN); err == nil {
		t.Fatal("Delete(KNN) succeeded with heads configured")
	}
}

// Snapshot/Resume must persist and restore every head, and ReplayTo must
// rebuild them bit for bit from the journal alone.
func TestSessionHeadsResumeAndReplay(t *testing.T) {
	heads := fourHeadSet()
	s := newTestSession(t, 9, WithUpdateSamples(40), WithSemivalues(heads...))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	extra := IrisLike(3, 23)
	extra.Standardize()
	if _, err := s.Add(extra.Points[:2], AlgoDeltaBatch); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete([]int{4}, AlgoDelta); err != nil {
		t.Fatal(err)
	}

	// The add journaled a per-head attribution for both appended points.
	hist := s.History()
	add := hist[len(hist)-2]
	if add.Op != "add" || len(add.HeadValues) != len(heads) {
		t.Fatalf("add record HeadValues = %v", add.HeadValues)
	}
	for _, w := range heads {
		if got := add.HeadValues[w.String()]; len(got) != 2 {
			t.Fatalf("head %v attribution = %v, want 2 entries", w, got)
		}
	}

	var buf bytes.Buffer
	sn := s.Snapshot()
	if len(sn.Heads) != len(heads) {
		t.Fatalf("snapshot Heads = %d entries, want %d", len(sn.Heads), len(heads))
	}
	if sn.Config == nil || len(sn.Config.Semivalues) != len(heads) {
		t.Fatal("snapshot config lost the semivalue list")
	}
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Resume(KNNClassifier{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.ReplayTo(s.Version())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range heads {
		live, err := s.ValuesFor(w)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := res.ValuesFor(w)
		if err != nil {
			t.Fatal(err)
		}
		bitEqualF(t, "resumed head "+w.String(), resumed, live)
		replayed, err := rep.ValuesFor(w)
		if err != nil {
			t.Fatal(err)
		}
		bitEqualF(t, "replayed head "+w.String(), replayed, live)
	}
}

// AlgoAuto must keep working with heads configured: the planner routes
// around the Shapley-only paths and the update still maintains every head.
func TestSessionHeadsAutoRouting(t *testing.T) {
	s := newTestSession(t, 10, WithTrackDeletions(), WithUpdateSamples(40),
		WithSemivalues(Banzhaf(), Beta(4, 1)))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	// Fresh linear-only heads: Auto should still take the YN-NN merge.
	if _, err := s.Delete([]int{2}, AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, err := s.At(s.Version())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != AlgoYNNN.String() {
		t.Fatalf("auto delete chose %s, want YN-NN (linear heads keep the merge)", rec.Algo)
	}
	bz, err := s.ValuesFor(Banzhaf())
	if err != nil {
		t.Fatal(err)
	}
	if len(bz) != 9 {
		t.Fatalf("banzhaf head has %d entries after delete, want 9", len(bz))
	}
	extra := IrisLike(2, 31)
	extra.Standardize()
	if _, err := s.Add(extra.Points[:1], AlgoAuto); err != nil {
		t.Fatal(err)
	}
	bz, err = s.ValuesFor(Banzhaf())
	if err != nil {
		t.Fatal(err)
	}
	if len(bz) != 10 {
		t.Fatalf("banzhaf head has %d entries after add, want 10", len(bz))
	}
}

// A SoftKNN session with heads must skip the exact fast path (it is
// Shapley-only), say so in the trace, and still fill every head.
func TestSessionHeadsSkipExactKNNFastPath(t *testing.T) {
	train, test := fixture(t, 10)
	s := NewSession(train, test, SoftKNNClassifier{K: 3},
		WithSamples(200), WithSeed(4), WithSemivalues(Banzhaf()))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	rec, err := s.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != AlgoMonteCarlo.String() {
		t.Fatalf("init with heads ran %s, want a sampled pass", rec.Algo)
	}
	if rec.Permutations == 0 {
		t.Fatal("init with heads issued no permutations")
	}
	bz, err := s.ValuesFor(Banzhaf())
	if err != nil {
		t.Fatal(err)
	}
	if len(bz) != 10 {
		t.Fatalf("banzhaf head has %d entries", len(bz))
	}
	// Explicit exact-KNN updates are refused while heads are configured.
	if _, err := s.Add(train.Points[:1], AlgoExactKNN); err == nil {
		t.Fatal("AlgoExactKNN add succeeded with heads configured")
	}
}

// Deleting a head-carrying session down to zero points under AlgoDelta
// ends in the single-point pass's every-player case, which must hand back
// zeroed heads beside the zeroed values — one point at a time and in one
// request.
func TestSessionHeadsDeleteToEmpty(t *testing.T) {
	const n = 5
	for _, oneByOne := range []bool{true, false} {
		s := newTestSession(t, n, WithSemivalues(Banzhaf()), WithUpdateSamples(20))
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		steps := [][]int{{0, 1, 2, 3, 4}}
		if oneByOne {
			steps = [][]int{{4}, {0}, {1}, {0}, {0}}
		}
		left := n
		for _, idx := range steps {
			sv, err := s.Delete(idx, AlgoDelta)
			if err != nil {
				t.Fatalf("oneByOne=%v: Delete(%v): %v", oneByOne, idx, err)
			}
			left -= len(idx)
			hv, err := s.ValuesFor(Banzhaf())
			if err != nil {
				t.Fatal(err)
			}
			if len(sv) != left || len(hv) != left {
				t.Fatalf("oneByOne=%v: %d values and %d Banzhaf values left, want %d", oneByOne, len(sv), len(hv), left)
			}
		}
	}
}
