package dynshap

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The batch pipeline's session-level contracts: AlgoPivotSameBatch is
// bit-identical to the sequential per-point AlgoPivotSame loop (same op
// seed, same RNG splits); AlgoDeltaBatch is deterministic and worker-count
// invariant, and collapses to AlgoDelta at k = 1; AlgoAuto routes
// multi-point adds onto the batch paths; and journal, replay, and
// snapshots carry batched updates faithfully.

func batchTestPoints(k, dim int) []Point {
	pts := make([]Point, k)
	for j := range pts {
		x := make([]float64, dim)
		for i := range x {
			x[i] = 0.25*float64(i+1) - 0.1*float64(j+1)
		}
		pts[j] = Point{X: x, Y: j % 3}
	}
	return pts
}

// A Pivot-s-batch add equals the same points added one at a time with
// AlgoPivotSame, at every worker count.
func TestSessionBatchPivotMatchesSequential(t *testing.T) {
	const n, k = 14, 5
	pts := batchTestPoints(k, 4)
	for workers := 1; workers <= 3; workers++ {
		seqS := newTestSession(t, n, WithKeepPermutations(), WithWorkers(workers))
		batchS := newTestSession(t, n, WithKeepPermutations(), WithWorkers(workers))
		if err := seqS.Init(); err != nil {
			t.Fatal(err)
		}
		if err := batchS.Init(); err != nil {
			t.Fatal(err)
		}
		want, err := seqS.Add(pts, AlgoPivotSame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batchS.Add(pts, AlgoPivotSameBatch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batched pivot add diverged from sequential:\n got %v\nwant %v", workers, got, want)
		}
		// The journal attributes a value to each point of the batch, matching
		// the tail of the published values.
		rec, err := batchS.At(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.BatchValues) != k {
			t.Fatalf("journal BatchValues has %d entries, want %d", len(rec.BatchValues), k)
		}
		if !reflect.DeepEqual(rec.BatchValues, got[n:]) {
			t.Fatalf("BatchValues %v != value tail %v", rec.BatchValues, got[n:])
		}
		// Sequential records no attribution.
		seqRec, err := seqS.At(2)
		if err != nil {
			t.Fatal(err)
		}
		if seqRec.BatchValues != nil {
			t.Fatalf("sequential add recorded BatchValues %v", seqRec.BatchValues)
		}
	}
}

// A Delta-batch window on a k-NN session walks each permutation once for
// the shared chain and all k points, so it serves (k+1) utilities per
// walked position — the points' own U({v}) come from the Value calls that
// price them — and the session's counter, exact when the walk returns,
// matches the journal record at every worker count. Single-point Delta
// updates run the same walk at k = 1.
func TestSessionBatchDeltaPrefixAddAccounting(t *testing.T) {
	const n, k, tau = 14, 4, 25
	pts := batchTestPoints(k, 4)
	indices := []int{3, 11, 0, 7}
	for _, workers := range []int{1, 2, 3} {
		s := newTestSession(t, n, WithWorkers(workers), WithUpdateSamples(tau))
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			op   string
			run  func() error
			want int64
		}{
			{"add", func() error { _, err := s.Add(pts, AlgoDeltaBatch); return err }, (k + 1) * n * tau},
			{"delete", func() error { _, err := s.Delete(indices, AlgoDeltaBatch); return err }, int64((k + 1) * (n + k - len(indices)) * tau)},
			// Single-point Delta is the k = 1 walk: 2·n per permutation
			// on the n-player base, the pivot's seed included in neither.
			{"single add", func() error { _, err := s.Add(pts[:1], AlgoDelta); return err }, 2 * n * tau},
			{"single delete", func() error { _, err := s.Delete([]int{5}, AlgoDelta); return err }, 2 * n * tau},
		} {
			before := s.PrefixAdds()
			if err := w.run(); err != nil {
				t.Fatal(err)
			}
			got := s.PrefixAdds() - before
			rec, err := s.At(s.Version())
			if err != nil {
				t.Fatal(err)
			}
			if got != w.want || rec.PrefixAdds != w.want {
				t.Fatalf("workers=%d %s window: counted %d prefix adds, journaled %d, want %d",
					workers, w.op, got, rec.PrefixAdds, w.want)
			}
		}
	}
}

// Pivot windows on stored permutations serve one utility per position of
// every walked chain, whether the utility walks the nested chains of a
// Pivot-s-batch add in one pass or one at a time: τ·Σ_j (n+j+1) for k
// points added to n players, τ·(n+1) for one point, and τ·(survivors) for
// a Pivot-s-batch delete's one walk of each evolved permutation. The
// counter matches the journal at every worker count.
func TestSessionPivotPrefixAddAccounting(t *testing.T) {
	const n, k, tau = 14, 4, 25
	pts := batchTestPoints(k, 4)
	indices := []int{3, 11, 0, 7}
	for _, workers := range []int{1, 2, 3} {
		s := newTestSession(t, n, WithWorkers(workers), WithKeepPermutations(), WithSamples(tau))
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		nested := 0
		for j := 0; j < k; j++ {
			nested += n + j + 1
		}
		for _, w := range []struct {
			op   string
			run  func() error
			want int64
		}{
			{"batch add", func() error { _, err := s.Add(pts, AlgoPivotSameBatch); return err }, int64(tau * nested)},
			{"single add", func() error { _, err := s.Add(pts[:1], AlgoPivotSame); return err }, tau * (n + k + 1)},
			{"batch delete", func() error { _, err := s.Delete(indices, AlgoPivotSameBatch); return err }, int64(tau * (n + k + 1 - len(indices)))},
		} {
			before := s.PrefixAdds()
			if err := w.run(); err != nil {
				t.Fatal(err)
			}
			got := s.PrefixAdds() - before
			rec, err := s.At(s.Version())
			if err != nil {
				t.Fatal(err)
			}
			if rec.Algo != AlgoPivotSame.String() && rec.Algo != AlgoPivotSameBatch.String() {
				t.Fatalf("workers=%d %s window ran %s, want a Pivot-s family walk", workers, w.op, rec.Algo)
			}
			if got != w.want || rec.PrefixAdds != w.want {
				t.Fatalf("workers=%d %s window: counted %d prefix adds, journaled %d, want %d",
					workers, w.op, got, rec.PrefixAdds, w.want)
			}
		}
	}
}

func TestSessionBatchDeltaWorkerInvariantAndK1(t *testing.T) {
	const n, k = 14, 4
	pts := batchTestPoints(k, 4)
	var ref []float64
	for _, workers := range []int{1, 2, 4} {
		s := newTestSession(t, n, WithWorkers(workers))
		if err := s.Init(); err != nil {
			t.Fatal(err)
		}
		got, err := s.Add(pts, AlgoDeltaBatch)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: batched delta add diverged:\n got %v\nwant %v", workers, got, ref)
		}
	}

	// At k = 1 the batched walk IS the delta walk.
	one := batchTestPoints(1, 4)
	sd := newTestSession(t, n)
	sb := newTestSession(t, n)
	if err := sd.Init(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Init(); err != nil {
		t.Fatal(err)
	}
	want, err := sd.Add(one, AlgoDelta)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sb.Add(one, AlgoDeltaBatch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k=1 batched delta != AlgoDelta:\n got %v\nwant %v", got, want)
	}
}

func TestSessionAutoRoutesBatches(t *testing.T) {
	const n, k = 16, 4
	pts := batchTestPoints(k, 4)

	// Without retained artifacts a multi-point add takes the batched delta
	// walk.
	s := newTestSession(t, n)
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(pts, AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, err := s.At(2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != AlgoDeltaBatch.String() {
		t.Fatalf("auto resolved %q, want %q", rec.Algo, AlgoDeltaBatch)
	}
	if rec.Requested != AlgoAuto.String() {
		t.Fatalf("Requested = %q, want %q", rec.Requested, AlgoAuto)
	}
	if !strings.Contains(strings.Join(rec.Decision, " "), "batch") {
		t.Fatalf("decision trace should mention batching: %v", rec.Decision)
	}

	// With retained permutations the batch rides the stored-perm pass.
	sp := newTestSession(t, n, WithKeepPermutations())
	if err := sp.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Add(pts, AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, err = sp.At(2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != AlgoPivotSameBatch.String() {
		t.Fatalf("auto with perms resolved %q, want %q", rec.Algo, AlgoPivotSameBatch)
	}

	// Single-point adds keep their sequential algorithms.
	if _, err := s.Add(batchTestPoints(1, 4), AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, err = s.At(3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != AlgoDelta.String() {
		t.Fatalf("auto for k=1 resolved %q, want %q", rec.Algo, AlgoDelta)
	}
}

// TestSnapshotFormat2BatchRoundTrip is the batch pipeline's durability
// contract: a journal containing batched adds survives a format-2
// snapshot, and Resume + ReplayTo reproduce the recorded values at EVERY
// version bit for bit.
func TestSnapshotFormat2BatchRoundTrip(t *testing.T) {
	const n = 12
	s := newTestSession(t, n, WithKeepPermutations())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	history := map[int][]float64{1: s.Values()}
	// Version 2: a batched pivot add (auto-routed). Version 3: a delete
	// (drops the pivot). Version 4: a batched delta add (auto-routed).
	if _, err := s.Add(batchTestPoints(3, 4), AlgoAuto); err != nil {
		t.Fatal(err)
	}
	history[2] = s.Values()
	if _, err := s.Delete([]int{1}, AlgoDelta); err != nil {
		t.Fatal(err)
	}
	history[3] = s.Values()
	if _, err := s.Add(batchTestPoints(2, 4), AlgoAuto); err != nil {
		t.Fatal(err)
	}
	history[4] = s.Values()
	for _, v := range []int{2, 4} {
		rec, err := s.At(v)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(rec.Algo, "batch") {
			t.Fatalf("version %d ran %q, expected a batch algorithm", v, rec.Algo)
		}
	}

	var buf bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sn, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sn.Resume(KNNClassifier{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Values(), s.Values()) {
		t.Fatalf("resumed values diverged:\n got %v\nwant %v", r.Values(), s.Values())
	}
	for v := 1; v <= 4; v++ {
		rep, err := r.ReplayTo(v)
		if err != nil {
			t.Fatalf("ReplayTo(%d): %v", v, err)
		}
		if !reflect.DeepEqual(rep.Values(), history[v]) {
			t.Fatalf("replayed version %d diverged:\n got %v\nwant %v", v, rep.Values(), history[v])
		}
		// Batched entries keep their per-point attribution through the
		// snapshot and replay.
		rec, err := rep.At(v)
		if v == 2 || v == 4 {
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.BatchValues) == 0 {
				t.Fatalf("version %d lost BatchValues through snapshot+replay", v)
			}
		}
	}
}
