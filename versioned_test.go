package dynshap

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedClassifier is the trivial model gatedTrainer produces.
type gatedClassifier struct{}

func (gatedClassifier) Predict([]float64) int { return 0 }

// gatedTrainer fits instantly until armed; once armed, every Fit call
// blocks until release is closed (signalling entered on the first one).
// It stands in for a deliberately slow model so tests can hold an update
// mid-flight while probing the session's read paths.
type gatedTrainer struct {
	armed   sync.Mutex // guards gate flips against concurrent Fit calls
	gate    bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGatedTrainer() *gatedTrainer {
	return &gatedTrainer{
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (g *gatedTrainer) arm() {
	g.armed.Lock()
	g.gate = true
	g.armed.Unlock()
}

func (g *gatedTrainer) Fit(train *Dataset) Classifier {
	g.armed.Lock()
	blocked := g.gate
	g.armed.Unlock()
	if blocked {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return gatedClassifier{}
}

// TestReadsDoNotBlockBehindUpdate holds an Add inside a model training and
// asserts every read path still returns the previous published version.
// Under the old single-mutex session this test deadlines: Values() would
// queue behind the update's lock for as long as the training runs. Run
// with -race, it also exercises the reader/writer memory safety of the
// versioned store (including the formerly racy CacheStats).
func TestReadsDoNotBlockBehindUpdate(t *testing.T) {
	train, test := fixture(t, 8)
	tr := newGatedTrainer()
	s := NewSession(train, test, tr, WithSamples(40), WithSeed(5))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	before := s.Values()
	version := s.Version()

	tr.arm()
	addDone := make(chan error, 1)
	go func() {
		_, err := s.Add([]Point{{X: []float64{0, 0, 0, 0}, Y: 0}}, AlgoMonteCarlo)
		addDone <- err
	}()
	select {
	case <-tr.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("update never reached the trainer")
	}

	// The update is now parked inside Fit, holding the writer lock. Every
	// read must complete against the last published state.
	reads := make(chan struct{})
	go func() {
		defer close(reads)
		if got := s.Values(); !reflect.DeepEqual(got, before) {
			t.Errorf("mid-update Values = %v, want pre-update %v", got, before)
		}
		if got := s.Version(); got != version {
			t.Errorf("mid-update Version = %d, want %d", got, version)
		}
		if got := s.N(); got != 8 {
			t.Errorf("mid-update N = %d, want 8", got)
		}
		if sn := s.Snapshot(); len(sn.Train) != 8 || !reflect.DeepEqual(sn.Values, before) {
			t.Errorf("mid-update Snapshot: %d points, values %v", len(sn.Train), sn.Values)
		}
		if r := s.Rank(); len(r) != 8 {
			t.Errorf("mid-update Rank has %d entries", len(r))
		}
		if k := s.TopK(3); len(k) != 3 {
			t.Errorf("mid-update TopK(3) = %v", k)
		}
		s.CacheStats()
		s.EngineStats()
		s.ModelTrainings()
		s.PrefixAdds()
		if h := s.History(); len(h) != 1 {
			t.Errorf("mid-update History has %d entries, want 1", len(h))
		}
	}()
	select {
	case <-reads:
	case <-time.After(10 * time.Second):
		t.Fatal("reads blocked behind the in-flight update")
	}
	select {
	case err := <-addDone:
		t.Fatalf("Add returned (%v) before the trainer was released", err)
	default:
	}

	close(tr.release)
	if err := <-addDone; err != nil {
		t.Fatal(err)
	}
	if got := s.Version(); got != version+1 {
		t.Fatalf("post-update Version = %d, want %d", got, version+1)
	}
	if got := s.N(); got != 9 {
		t.Fatalf("post-update N = %d, want 9", got)
	}
}

// TestReplayToReproducesEveryVersion drives a session through init, both
// addition families, and a deletion, then checks ReplayTo returns
// bit-identical value vectors at every recorded version.
func TestReplayToReproducesEveryVersion(t *testing.T) {
	s := newTestSession(t, 10,
		WithKeepPermutations(), WithTrackDeletions(), WithUpdateSamples(80))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	extra := IrisLike(4, 99)
	extra.Standardize()
	if _, err := s.Add(extra.Points[:1], AlgoPivotSame); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(extra.Points[1:2], AlgoDelta); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete([]int{2}, AlgoDelta); err != nil {
		t.Fatal(err)
	}

	want := map[int][]float64{}
	for v := 1; v <= s.Version(); v++ {
		rec, err := s.At(v)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Version != v {
			t.Fatalf("At(%d).Version = %d", v, rec.Version)
		}
		rep, err := s.ReplayTo(v)
		if err != nil {
			t.Fatalf("ReplayTo(%d): %v", v, err)
		}
		want[v] = rep.Values()
		if rep.Version() != v {
			t.Fatalf("ReplayTo(%d).Version() = %d", v, rep.Version())
		}
	}
	// The final replayed version must equal the live session bit for bit.
	if !reflect.DeepEqual(want[s.Version()], s.Values()) {
		t.Fatalf("replayed head %v != live values %v", want[s.Version()], s.Values())
	}
	// Replaying twice is pure: identical vectors again, at every version.
	for v := 1; v <= s.Version(); v++ {
		rep, err := s.ReplayTo(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Values(), want[v]) {
			t.Fatalf("second replay of version %d diverged", v)
		}
	}
	// Version 0 is the uninitialised base.
	rep, err := s.ReplayTo(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Values() != nil || rep.Version() != 0 {
		t.Fatalf("ReplayTo(0): values %v, version %d", rep.Values(), rep.Version())
	}
	if _, err := s.ReplayTo(s.Version() + 1); err == nil {
		t.Fatal("ReplayTo past the journal head should fail")
	}
}

// TestAlgoAutoResolution checks the planner's headline behaviours end to
// end: exact YN-NN merge while the arrays are fresh, delta once they are
// stale, pivot replay for additions with retained permutations — each
// visible in History with the decision trace.
func TestAlgoAutoResolution(t *testing.T) {
	s := newTestSession(t, 10, WithKeepPermutations(), WithTrackDeletions())
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}

	// Fresh arrays: Auto must resolve the first deletion exactly.
	autoSV, err := s.Delete([]int{3}, AlgoAuto)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.At(s.Version())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requested != "Auto" || rec.Algo != "YN-NN" {
		t.Fatalf("fresh delete journaled as %q→%q, want Auto→YN-NN", rec.Requested, rec.Algo)
	}
	if len(rec.Decision) == 0 || !strings.Contains(strings.Join(rec.Decision, " "), "fresh") {
		t.Fatalf("missing decision trace: %v", rec.Decision)
	}
	if rec.Trainings != 0 {
		t.Fatalf("exact merge cost %d trainings", rec.Trainings)
	}
	// Cross-check exactness against an explicit AlgoYNNN run on a twin.
	twin := newTestSession(t, 10, WithKeepPermutations(), WithTrackDeletions())
	if err := twin.Init(); err != nil {
		t.Fatal(err)
	}
	exactSV, err := twin.Delete([]int{3}, AlgoYNNN)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(autoSV, exactSV) {
		t.Fatalf("Auto's exact merge %v != explicit YN-NN %v", autoSV, exactSV)
	}

	// A later deletion has no arrays left at all (deletes drop them): Auto
	// must fall back to delta, not error.
	if _, err := s.Delete([]int{1}, AlgoAuto); err != nil {
		t.Fatalf("Auto without arrays: %v (explicit YN-NN would give ErrStaleStores)", err)
	}
	rec, err = s.At(s.Version())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != "Delta" {
		t.Fatalf("delete without arrays resolved to %q, want Delta", rec.Algo)
	}

	// An addition stales the arrays without dropping them: Auto's trace
	// must call the staleness out before falling back.
	stale := newTestSession(t, 10, WithTrackDeletions())
	if err := stale.Init(); err != nil {
		t.Fatal(err)
	}
	pt0 := Point{X: []float64{0.1, -0.2, 0.3, 0}, Y: 1}
	if _, err := stale.Add([]Point{pt0}, AlgoDelta); err != nil {
		t.Fatal(err)
	}
	if _, err := stale.Delete([]int{1}, AlgoAuto); err != nil {
		t.Fatalf("Auto on stale stores: %v", err)
	}
	rec, err = stale.At(stale.Version())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != "Delta" {
		t.Fatalf("stale delete resolved to %q, want Delta", rec.Algo)
	}
	if !strings.Contains(strings.Join(rec.Decision, " "), "stale") {
		t.Fatalf("trace should explain the staleness fallback: %v", rec.Decision)
	}
	// The explicit path still enforces the paper's precondition.
	if _, err := stale.Delete([]int{0}, AlgoYNNN); err != ErrStaleStores {
		t.Fatalf("explicit YN-NN on stale stores: %v, want ErrStaleStores", err)
	}

	// Additions with retained permutations: pivot replay.
	add := newTestSession(t, 10, WithKeepPermutations())
	if err := add.Init(); err != nil {
		t.Fatal(err)
	}
	pt := Point{X: []float64{0.1, -0.2, 0.3, 0}, Y: 1}
	if _, err := add.Add([]Point{pt}, AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, err = add.At(add.Version())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != "Pivot-s" {
		t.Fatalf("add with retained perms resolved to %q, want Pivot-s", rec.Algo)
	}
	// Without permutations the planner prefers delta.
	noPerms := newTestSession(t, 10)
	if err := noPerms.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := noPerms.Add([]Point{pt}, AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, err = noPerms.At(noPerms.Version())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != "Delta" {
		t.Fatalf("add without perms resolved to %q, want Delta", rec.Algo)
	}
}

// TestAlgoAutoMultiDelete checks Auto uses the YNN-NNN arrays for covered
// candidate tuples and falls back for uncovered ones.
func TestAlgoAutoMultiDelete(t *testing.T) {
	s := newTestSession(t, 8, WithTrackDeletions(), WithMultiDelete(2, []int{1, 3, 5}))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete([]int{5, 1}, AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, err := s.At(s.Version())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != "YN-NN" {
		t.Fatalf("covered tuple resolved to %q, want YN-NN", rec.Algo)
	}

	s2 := newTestSession(t, 8, WithTrackDeletions(), WithMultiDelete(2, []int{1, 3, 5}))
	if err := s2.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Delete([]int{0, 2}, AlgoAuto); err != nil {
		t.Fatal(err)
	}
	rec, err = s2.At(s2.Version())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Algo != "Delta-batch" {
		t.Fatalf("uncovered tuple resolved to %q, want Delta-batch", rec.Algo)
	}
	if !strings.Contains(strings.Join(rec.Decision, " "), "candidate") {
		t.Fatalf("trace should explain the coverage miss: %v", rec.Decision)
	}
}

// TestSnapshotFormat1Compat loads a hand-written format-1 document — the
// schema earlier releases produced — and checks it resumes into a working,
// replayable session.
func TestSnapshotFormat1Compat(t *testing.T) {
	v1 := `{
	  "format": 1,
	  "train": [
	    {"X": [0.1, 0.2], "Y": 0},
	    {"X": [0.9, 0.8], "Y": 1},
	    {"X": [0.2, 0.1], "Y": 0}
	  ],
	  "test": [
	    {"X": [0.15, 0.25], "Y": 0},
	    {"X": [0.85, 0.75], "Y": 1}
	  ],
	  "classes": 2,
	  "values": [0.25, 0.5, 0.25],
	  "samples": 60
	}`
	sn, err := ReadSnapshot(bytes.NewBufferString(v1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sn.Resume(KNNClassifier{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Values(), []float64{0.25, 0.5, 0.25}) {
		t.Fatalf("resumed values = %v", s.Values())
	}
	if s.Version() != 0 || len(s.History()) != 0 {
		t.Fatalf("format-1 resume: version %d, %d history entries", s.Version(), len(s.History()))
	}
	// The resume point is replayable as version 0.
	rep, err := s.ReplayTo(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Values(), s.Values()) {
		t.Fatalf("ReplayTo(0) after v1 resume = %v", rep.Values())
	}
	// And the session accepts updates, journaling from version 1.
	if _, err := s.Delete([]int{2}, AlgoAuto); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 || len(s.History()) != 1 {
		t.Fatalf("post-update: version %d, %d history entries", s.Version(), len(s.History()))
	}
}

// TestSnapshotFormat2RoundTrip checks the new format persists what v1
// dropped — the journal and the session configuration, multi-delete
// candidates included — and that Resume restores all of it.
func TestSnapshotFormat2RoundTrip(t *testing.T) {
	train, test := fixture(t, 8)
	s := NewSession(train, test, KNNClassifier{K: 3},
		WithSamples(240), WithSeed(3), WithHeuristicK(3),
		WithTrackDeletions(), WithMultiDelete(2, []int{0, 1, 2}),
		WithWorkers(2), WithTargetError(0.05, 0.1))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add([]Point{{X: []float64{0, 0, 0, 0}, Y: 0}}, AlgoDelta); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sn, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Format != 2 || sn.Version != 2 {
		t.Fatalf("snapshot format %d version %d, want 2/2", sn.Format, sn.Version)
	}
	if sn.Config == nil || sn.Config.MultiDelete != 2 || !reflect.DeepEqual(sn.Config.Candidates, []int{0, 1, 2}) {
		t.Fatalf("config lost in serialisation: %+v", sn.Config)
	}
	if sn.Journal == nil || len(sn.Journal.Entries) != 2 {
		t.Fatalf("journal lost in serialisation: %+v", sn.Journal)
	}

	r, err := sn.Resume(KNNClassifier{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 2 {
		t.Fatalf("resumed version = %d, want 2", r.Version())
	}
	if !reflect.DeepEqual(r.Values(), s.Values()) {
		t.Fatalf("resumed values %v != original %v", r.Values(), s.Values())
	}
	if len(r.History()) != 2 {
		t.Fatalf("resumed history has %d entries, want 2", len(r.History()))
	}
	// The journal survives: historical versions replay on the resumed side.
	rep, err := r.ReplayTo(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version() != 1 || len(rep.Values()) != 8 {
		t.Fatalf("replay on resumed session: version %d, %d values", rep.Version(), len(rep.Values()))
	}
	// The multi-delete candidate set survives: after a Refresh, an exact
	// two-point candidate deletion works — with format 1 this configuration
	// was silently dropped and the same call failed.
	if err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Delete([]int{0, 2}, AlgoYNNN); err != nil {
		t.Fatalf("multi-delete after resume+refresh: %v", err)
	}
	// The next journal version continues from the resumed head.
	if r.Version() != 4 {
		t.Fatalf("version after refresh+delete = %d, want 4", r.Version())
	}
}

// TestUndoViaReplay checks the documented undo idiom: ReplayTo(v−1)
// produces the pre-update session.
func TestUndoViaReplay(t *testing.T) {
	s := newTestSession(t, 8, WithUpdateSamples(60))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	before := s.Values()
	if _, err := s.Delete([]int{4}, AlgoDelta); err != nil {
		t.Fatal(err)
	}
	undone, err := s.ReplayTo(s.Version() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(undone.Values(), before) {
		t.Fatalf("undo values %v != pre-delete %v", undone.Values(), before)
	}
	if undone.N() != 8 {
		t.Fatalf("undo N = %d, want 8", undone.N())
	}
}

// TestParseAlgorithm checks the name round-trip the journal and CLI rely on.
func TestParseAlgorithm(t *testing.T) {
	for a := AlgoMonteCarlo; a <= AlgoAuto; a++ {
		got, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, want %v", a.String(), got, a)
		}
	}
	if _, err := ParseAlgorithm("nonsense"); err == nil {
		t.Fatal("unknown name should fail")
	}
}

// TestFailedUpdatesLeaveExactSessionUntouched interleaves failing requests
// with exact adds and deletes. The exact estimator passes from version to
// version without a copy, so a failure that touched it would show in every
// later version. After every step the published values must equal, bit for
// bit, a twin's that never saw the failures, and the estimator's values a
// from-scratch session's over the same data. The 3-point Delta add
// appends point by point, while the estimator takes all three in one fold
// at the commit point.
func TestFailedUpdatesLeaveExactSessionUntouched(t *testing.T) {
	train, test := fixture(t, 40)
	extra := IrisLike(20, 71)
	extra.Standardize()
	const k = 3
	opts := []Option{WithSeed(4), WithUpdateSamples(30)}
	s := NewSession(train, test, SoftKNNClassifier{K: k}, opts...)
	twin := NewSession(train, test, SoftKNNClassifier{K: k}, opts...)
	for _, x := range []*Session{s, twin} {
		if err := x.Init(); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	add := func(cnt int, algo Algorithm) func(*Session) error {
		pts := extra.Points[next : next+cnt]
		next += cnt
		return func(x *Session) error { _, err := x.Add(pts, algo); return err }
	}
	del := func(idx []int, algo Algorithm) func(*Session) error {
		return func(x *Session) error { _, err := x.Delete(idx, algo); return err }
	}
	steps := []struct {
		name  string
		do    func(*Session) error
		fails bool
	}{
		{"exact add of 2", add(2, AlgoExactKNN), false},
		{"add with AlgoYNNN", add(1, AlgoYNNN), true},
		{"exact delete of 2", del([]int{3, 17}, AlgoExactKNN), false},
		{"Pivot-s add without stored permutations", add(2, AlgoPivotSame), true},
		{"Delta add of 3", add(3, AlgoDelta), false},
		{"delete out of range", del([]int{0, 1000}, AlgoExactKNN), true},
		{"exact add of 1", add(1, AlgoExactKNN), false},
		{"delete with a duplicate index", del([]int{5, 5}, AlgoExactKNN), true},
		{"exact delete of 1", del([]int{8}, AlgoExactKNN), false},
		{"YN-NN delete without WithTrackDeletions", del([]int{2}, AlgoYNNN), true},
		{"exact add of 3", add(3, AlgoExactKNN), false},
		{"Pivot-s add without stored permutations, again", add(1, AlgoPivotSame), true},
		{"exact delete of 3", del([]int{0, 9, 30}, AlgoExactKNN), false},
	}
	exactPublished := true // the published values are the estimator's
	for _, step := range steps {
		version, records := s.Version(), len(s.History())
		err := step.do(s)
		switch {
		case step.fails && err == nil:
			t.Fatalf("%s: succeeded, want an error", step.name)
		case step.fails && (s.Version() != version || len(s.History()) != records):
			t.Fatalf("%s: failed update moved the session to version %d with %d records", step.name, s.Version(), len(s.History()))
		case !step.fails && err != nil:
			t.Fatalf("%s: %v", step.name, err)
		case !step.fails:
			if err := step.do(twin); err != nil {
				t.Fatalf("%s on the twin: %v", step.name, err)
			}
			exactPublished = s.History()[len(s.History())-1].Algo == AlgoExactKNN.String()
		}
		bitEqualF(t, step.name+": published values vs the twin's", s.Values(), twin.Values())
		fresh := NewSession(s.Data(), test, SoftKNNClassifier{K: k}, opts...)
		if err := fresh.Init(); err != nil {
			t.Fatal(err)
		}
		bitEqualF(t, step.name+": estimator vs from scratch", s.state.Load().exact.Values(), fresh.Values())
		if exactPublished {
			bitEqualF(t, step.name+": published values vs from scratch", s.Values(), fresh.Values())
		}
	}
}

// TestSnapshotMatchesItsVersionUnderWrites takes snapshots while a writer
// updates the session. Every snapshot must be one published version: its
// journal ends at its Version, Resume lands on that version with its
// Values bit for bit, and replaying its journal reproduces those values.
func TestSnapshotMatchesItsVersionUnderWrites(t *testing.T) {
	train, test := fixture(t, 30)
	s := NewSession(train, test, SoftKNNClassifier{K: 3}, WithSeed(5))
	if err := s.Init(); err != nil {
		t.Fatal(err)
	}
	var finished atomic.Bool
	writeErr := make(chan error, 1)
	writerDone := make(chan struct{})
	defer func() { <-writerDone }()
	go func() {
		defer close(writerDone)
		defer finished.Store(true)
		for i, p := range batchTestPoints(200, 4) {
			if _, err := s.Add([]Point{p}, AlgoExactKNN); err != nil {
				writeErr <- err
				return
			}
			if i%2 == 1 {
				if _, err := s.Delete([]int{i % 5}, AlgoExactKNN); err != nil {
					writeErr <- err
					return
				}
			}
		}
	}()
	for i := 0; !finished.Load(); i++ {
		sn := s.Snapshot()
		entries := sn.Journal.Entries
		if last := entries[len(entries)-1].Version; last != sn.Version {
			t.Fatalf("snapshot %d: version %d, journal ends at %d", i, sn.Version, last)
		}
		r, err := sn.Resume(SoftKNNClassifier{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if r.Version() != sn.Version || !slices.Equal(r.Values(), sn.Values) {
			t.Fatalf("snapshot %d (version %d): resumed at version %d with other values", i, sn.Version, r.Version())
		}
		if i%8 != 0 {
			continue // replays are the slow check: sample them
		}
		rep, err := r.ReplayTo(sn.Version)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rep.Values(), sn.Values) {
			t.Fatalf("snapshot %d (version %d): its journal replays to other values", i, sn.Version)
		}
	}
	select {
	case err := <-writeErr:
		t.Fatal(err)
	default:
	}
}

// publishedRead is one reader's look at a published version: Data() and
// Values() as the public API returns them, and the version's own training
// set, which the state shares with its utility instead of copying it.
type publishedRead struct {
	version int
	data    *Dataset
	values  []float64
	shared  *Dataset
}

// readPublished reads Data() and Values() from one published version; ok
// is false when a write landed between the reads.
func readPublished(s *Session) (r publishedRead, ok bool) {
	before := s.View()
	data := s.Data()
	if s.View().Version() != before.Version() {
		return publishedRead{}, false
	}
	return publishedRead{before.Version(), data, before.Values(), before.st.train()}, true
}

func sameDataset(a, b *Dataset) bool {
	if a.Classes != b.Classes || a.Len() != b.Len() {
		return false
	}
	for i, p := range a.Points {
		if p.Y != b.Points[i].Y || !slices.Equal(p.X, b.Points[i].X) {
			return false
		}
	}
	return true
}

// A version's training set is shared by its state and its utility, and
// each write derives the successor's from it. Readers racing writes on
// every algorithm family must still see each version as it was
// published: Data() and Values() equal to what the writer saw right after
// that version's write, and the shared training set unchanged by every
// later write.
func TestPublishedTrainingSetsStayPutUnderWrites(t *testing.T) {
	extra := IrisLike(16, 99)
	extra.Standardize()
	pts := extra.Points
	type write struct {
		algo    Algorithm
		add     []Point
		indices []int
	}
	hard := func(opts ...Option) *Session {
		return newTestSession(t, 12, append([]Option{WithUpdateSamples(20)}, opts...)...)
	}
	soft := func() *Session {
		train, test := fixture(t, 12)
		return NewSession(train, test, SoftKNNClassifier{K: 3}, WithSeed(5))
	}
	for _, tc := range []struct {
		name   string
		s      *Session
		writes []write
	}{
		{"pivot", hard(WithKeepPermutations()), []write{
			{algo: AlgoPivotSame, add: pts[0:1]},
			{algo: AlgoPivotSameBatch, add: pts[1:3]},
			{algo: AlgoPivotSameBatch, indices: []int{1, 2}},
			{algo: AlgoPivotDifferent, add: pts[3:4]},
		}},
		{"sampled", hard(), []write{
			{algo: AlgoDelta, add: pts[4:5]},
			{algo: AlgoDeltaBatch, add: pts[5:7]},
			{algo: AlgoBase, add: pts[7:8]},
			{algo: AlgoMonteCarlo, add: pts[8:9]},
			{algo: AlgoTruncatedMC, add: pts[9:10]},
			{algo: AlgoDelta, indices: []int{0}},
			{algo: AlgoDeltaBatch, indices: []int{1, 2}},
			{algo: AlgoMonteCarlo, indices: []int{3}},
			{algo: AlgoTruncatedMC, indices: []int{4}},
		}},
		{"heuristic", hard(), []write{
			{algo: AlgoKNN, add: pts[10:11]},
			{algo: AlgoKNNPlus, add: pts[11:12]},
			{algo: AlgoKNN, indices: []int{0}},
			{algo: AlgoKNNPlus, indices: []int{1}},
		}},
		{"ynnn", hard(WithTrackDeletions()), []write{
			{algo: AlgoYNNN, indices: []int{3}},
		}},
		{"exact", soft(), []write{
			{algo: AlgoExactKNN, add: pts[12:14]},
			{algo: AlgoExactKNN, indices: []int{0, 5}},
			{algo: AlgoExactKNN, add: pts[14:15]},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			want := map[int]publishedRead{}
			record := func() {
				v := s.View()
				want[v.Version()] = publishedRead{version: v.Version(), data: s.Data(), values: v.Values()}
			}
			record()

			var done atomic.Bool
			var wg sync.WaitGroup
			seen := make([]map[int]publishedRead, 2)
			for i := range seen {
				seen[i] = map[int]publishedRead{}
				wg.Add(1)
				go func(seen map[int]publishedRead) {
					defer wg.Done()
					for !done.Load() {
						r, ok := readPublished(s)
						if !ok {
							continue
						}
						first, ok := seen[r.version]
						if !ok {
							seen[r.version] = r
						} else if !sameDataset(r.data, first.data) || !slices.Equal(r.values, first.values) {
							t.Errorf("version %d read two ways", r.version)
							return
						}
					}
				}(seen[i])
			}
			func() {
				defer wg.Wait()
				defer done.Store(true)
				for _, w := range tc.writes {
					var err error
					if w.add != nil {
						_, err = s.Add(w.add, w.algo)
					} else {
						_, err = s.Delete(w.indices, w.algo)
					}
					if err != nil {
						t.Fatalf("%v write: %v", w.algo, err)
					}
					record()
				}
			}()
			if len(want) != len(tc.writes)+1 {
				t.Fatalf("%d versions recorded for %d writes", len(want), len(tc.writes))
			}
			for _, reads := range seen {
				for v, r := range reads {
					w := want[v]
					if !sameDataset(r.data, w.data) || !slices.Equal(r.values, w.values) {
						t.Errorf("version %d: a concurrent read differs from the published version", v)
					}
					if !sameDataset(r.shared, w.data) {
						t.Errorf("version %d: its training set changed after publication", v)
					}
				}
			}
		})
	}
}
