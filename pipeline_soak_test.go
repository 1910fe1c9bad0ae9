package dynshap

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSoakConcurrentPipeline is the pipeline's race/soak gate: N writers
// hammer SubmitAdd while M readers spin on the versioned store and a
// replayer periodically reconstructs the session from its own journal
// mid-traffic. It asserts the two invariants the async API promises:
//
//  1. Reads are always coherent — a reader never observes a value vector
//     whose length falls outside what any published version could hold.
//  2. The final store is bit-identical to a fresh session replaying the
//     journal: whatever window boundaries timing produced, the executed
//     (operation, inputs) sequence fully determines the state.
//
// Run under -race this also proves the coalescer/store handoff is
// data-race free.
func TestSoakConcurrentPipeline(t *testing.T) {
	const (
		n          = 24
		numWriters = 6
		addsPer    = 6
		numReaders = 3
	)
	s := newTestSession(t, n, WithUpdateSamples(40), WithKeepPermutations(),
		WithCoalescing(4, time.Millisecond))
	if err := s.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	baseN := s.N()

	var wg sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, numWriters+numReaders+1)

	pts := batchTestPoints(numWriters*addsPer, 4)
	for w := 0; w < numWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < addsPer; i++ {
				h := s.SubmitAdd(pts[w*addsPer+i])
				if _, err := h.Wait(); err != nil {
					errs <- fmt.Errorf("writer %d add %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	var readerWG sync.WaitGroup
	for r := 0; r < numReaders; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for !done.Load() {
				vals := s.Values()
				if len(vals) < baseN || len(vals) > baseN+numWriters*addsPer {
					errs <- fmt.Errorf("reader observed %d values outside [%d, %d]",
						len(vals), baseN, baseN+numWriters*addsPer)
					return
				}
				_ = s.Rank()
				_ = s.TopK(3)
			}
		}()
	}

	// Replayer: periodically reconstruct the session's current version
	// from the journal while updates are still landing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			time.Sleep(2 * time.Millisecond)
			v := s.Version()
			rs, err := s.ReplayTo(v)
			if err != nil {
				errs <- fmt.Errorf("mid-traffic ReplayTo(%d): %w", v, err)
				return
			}
			if got := rs.Version(); got != v {
				errs <- fmt.Errorf("mid-traffic replay version %d, want %d", got, v)
				return
			}
		}
	}()

	wg.Wait()
	// One delete barrier through the same pipeline for coverage.
	if _, err := s.SubmitDelete([]int{0}).Wait(); err != nil {
		t.Fatalf("SubmitDelete: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	done.Store(true)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := s.N(); got != baseN+numWriters*addsPer-1 {
		t.Fatalf("final N = %d, want %d", got, baseN+numWriters*addsPer-1)
	}

	// The bit-identity gate: a fresh session replaying the journal must
	// land on exactly the published state.
	replayed, err := s.ReplayTo(s.Version())
	if err != nil {
		t.Fatalf("final ReplayTo: %v", err)
	}
	if !reflect.DeepEqual(replayed.Values(), s.Values()) {
		t.Fatal("replayed values diverge from the live store")
	}
	if replayed.N() != s.N() || replayed.Version() != s.Version() {
		t.Fatalf("replayed shape (n=%d v=%d) != live (n=%d v=%d)",
			replayed.N(), replayed.Version(), s.N(), s.Version())
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSoakChurnPipeline is the delete-window soak: writers mix SubmitAdd
// and SubmitDelete (so the coalescer alternates add windows, delete
// windows, and the barriers between them), readers spin on the versioned
// store, and a replayer reconstructs the session from its own journal
// mid-traffic. The final state must be bit-identical to a fresh replay of
// the journal — whatever window shapes and add↔delete transitions timing
// produced, the executed (operation, inputs) sequence fully determines
// the state. Run under -race this also proves the delete-window merge and
// remap are data-race free.
func TestSoakChurnPipeline(t *testing.T) {
	const (
		n          = 24
		numWriters = 6
		addsPer    = 6
		delsPer    = 2
		numReaders = 2
	)
	s := newTestSession(t, n, WithUpdateSamples(40),
		WithCoalescing(4, time.Millisecond))
	if err := s.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	baseN := s.N()

	var wg sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, numWriters+numReaders+1)

	pts := batchTestPoints(numWriters*addsPer, 4)
	for w := 0; w < numWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dels := 0
			for i := 0; i < addsPer; i++ {
				h := s.SubmitAdd(pts[w*addsPer+i])
				if _, err := h.Wait(); err != nil {
					errs <- fmt.Errorf("writer %d add %d: %w", w, i, err)
					return
				}
				// Every third add, a delete: indices name submission-time
				// state, and index 0 is valid against any non-empty state
				// whatever the open window holds.
				if i%3 == 2 && dels < delsPer {
					dels++
					if _, err := s.SubmitDelete([]int{0}).Wait(); err != nil {
						errs <- fmt.Errorf("writer %d delete: %w", w, err)
						return
					}
				}
			}
		}(w)
	}

	lo := baseN - numWriters*delsPer
	hi := baseN + numWriters*addsPer
	var readerWG sync.WaitGroup
	for r := 0; r < numReaders; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for !done.Load() {
				vals := s.Values()
				if len(vals) < lo || len(vals) > hi {
					errs <- fmt.Errorf("reader observed %d values outside [%d, %d]",
						len(vals), lo, hi)
					return
				}
				_ = s.Rank()
				_ = s.TopK(3)
			}
		}()
	}

	// Replayer: periodically reconstruct the session's current version
	// from the journal while adds AND deletes are still landing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			time.Sleep(2 * time.Millisecond)
			v := s.Version()
			rs, err := s.ReplayTo(v)
			if err != nil {
				errs <- fmt.Errorf("mid-traffic ReplayTo(%d): %w", v, err)
				return
			}
			if got := rs.Version(); got != v {
				errs <- fmt.Errorf("mid-traffic replay version %d, want %d", got, v)
				return
			}
		}
	}()

	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	done.Store(true)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := s.N(); got != baseN+numWriters*(addsPer-delsPer) {
		t.Fatalf("final N = %d, want %d", got, baseN+numWriters*(addsPer-delsPer))
	}

	// The bit-identity gate: a fresh session replaying the journal must
	// land on exactly the published state, coalesced delete windows and
	// their remapped indices included.
	replayed, err := s.ReplayTo(s.Version())
	if err != nil {
		t.Fatalf("final ReplayTo: %v", err)
	}
	if !reflect.DeepEqual(replayed.Values(), s.Values()) {
		t.Fatal("replayed values diverge from the live store")
	}
	if replayed.N() != s.N() || replayed.Version() != s.Version() {
		t.Fatalf("replayed shape (n=%d v=%d) != live (n=%d v=%d)",
			replayed.N(), replayed.Version(), s.N(), s.Version())
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSoakExactPipeline is the exact path's race/soak gate. Writers mix
// SubmitAdd and SubmitDelete on a soft k-NN session, so every window runs
// the closed form on the one estimator each version hands to the next,
// while readers spin on Values, TopK, History and Snapshot and one replay
// rebuilds the session mid-traffic. The final values must equal a fresh
// replay of the journal bit for bit, and the closed form over the final
// data to 1e-12. Run under -race it also proves that no reader touches the
// estimator the writer mutates.
func TestSoakExactPipeline(t *testing.T) {
	const (
		n          = 40
		k          = 3
		numWriters = 4
		addsPer    = 20
		delsPer    = 6
		numReaders = 2
	)
	train, test := fixture(t, n)
	s := NewSession(train, test, SoftKNNClassifier{K: k}, WithSeed(5),
		WithCoalescing(4, time.Millisecond))
	if err := s.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	baseN := s.N()

	var wg sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, numWriters+numReaders+1)

	// halfway closes once writer 0 is half done, or has stopped early; the
	// replay waits for it.
	halfway := make(chan struct{})
	var half sync.Once
	reachHalfway := func() { half.Do(func() { close(halfway) }) }
	pts := batchTestPoints(numWriters*addsPer, 4)
	for w := 0; w < numWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 0 {
				defer reachHalfway()
			}
			dels := 0
			for i := 0; i < addsPer; i++ {
				if w == 0 && i == addsPer/2 {
					reachHalfway()
				}
				if _, err := s.SubmitAdd(pts[w*addsPer+i]).Wait(); err != nil {
					errs <- fmt.Errorf("writer %d add %d: %w", w, i, err)
					return
				}
				// Indices name submission-time state; concurrent deletes
				// of index 0 share a window, and the coalescer remaps them.
				if i%3 == 1 && dels < delsPer {
					dels++
					if _, err := s.SubmitDelete([]int{0}).Wait(); err != nil {
						errs <- fmt.Errorf("writer %d delete: %w", w, err)
						return
					}
				}
			}
		}(w)
	}

	lo := baseN - numWriters*delsPer
	hi := baseN + numWriters*addsPer
	var readerWG sync.WaitGroup
	for r := 0; r < numReaders; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for !done.Load() {
				if vals := s.Values(); len(vals) < lo || len(vals) > hi {
					errs <- fmt.Errorf("reader observed %d values outside [%d, %d]", len(vals), lo, hi)
					return
				}
				_ = s.TopK(3)
				_ = s.History()
				if sn := s.Snapshot(); len(sn.Values) != len(sn.Train) {
					errs <- fmt.Errorf("snapshot holds %d values for %d points", len(sn.Values), len(sn.Train))
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-halfway
		v := s.Version()
		rs, err := s.ReplayTo(v)
		if err != nil {
			errs <- fmt.Errorf("mid-traffic ReplayTo(%d): %w", v, err)
			return
		}
		if got := rs.Version(); got != v {
			errs <- fmt.Errorf("mid-traffic replay version %d, want %d", got, v)
		}
	}()

	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	done.Store(true)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := s.N(); got != baseN+numWriters*(addsPer-delsPer) {
		t.Fatalf("final N = %d, want %d", got, baseN+numWriters*(addsPer-delsPer))
	}
	replayed, err := s.ReplayTo(s.Version())
	if err != nil {
		t.Fatalf("final ReplayTo: %v", err)
	}
	bitEqualF(t, "replayed vs live", replayed.Values(), s.Values())
	want, err := KNNShapley(s.Data(), test, k)
	if err != nil {
		t.Fatalf("KNNShapley: %v", err)
	}
	got := s.Values()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("sv[%d] = %v, closed form %v", i, got[i], want[i])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
