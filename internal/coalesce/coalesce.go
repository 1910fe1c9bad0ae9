// Package coalesce turns a stream of single-point updates into
// size/time-bounded windows fed to the session's batched walks.
//
// The paper's delta-based algorithms make each update cheap, but a session
// still serialises writers: under concurrent traffic every caller pays a
// full permutation pass for one point, and the batched walks' ~2× win
// (one pass prices k insertions) is unreachable. The coalescer is the
// admission-control primitive that unlocks it: writers submit updates and
// receive a future; a single drainer goroutine closes a window when it
// holds MaxBatch points or MaxDelay has elapsed since the window opened —
// whichever comes first — and executes the whole window as ONE batched
// update. Every future then resolves with its point's per-point
// attribution from that window's journal record.
//
// Determinism: the drainer is the only goroutine that executes updates,
// and it executes them strictly in admitted order (the order submissions
// leave the queue). Window BOUNDARIES depend on timing — how many points
// happened to be queued when a window closed — but the executed sequence
// of (operation, inputs) is recorded in the session journal, so any run is
// bit-identically reproducible by replaying its journal. For the
// stored-permutation path the guarantee is stronger: BatchAddSame is
// bit-identical to single-point Pivot-s in admitted order, so the final state
// does not depend on where the window boundaries fell at all.
//
// Deletes coalesce too: consecutive delete submissions share a delete
// window executed as ONE batched removal, exactly as consecutive adds
// share an add window. Only the TRANSITION between kinds is a barrier — an
// add arriving at an open delete window (or a delete at an open add
// window) closes it first, so every submission still executes against the
// state all earlier submissions produced. Delete indices are interpreted
// against that submission-time state; inside a delete window each later
// submission's indices are remapped past the slots its window predecessors
// vacated, so the merged removal deletes exactly the points every caller
// named (see SubmitDelete).
package coalesce

import (
	"errors"
	"sort"
	"sync"
	"time"

	"dynshap/internal/dataset"
)

// ErrClosed is returned by submissions admitted after Close.
var ErrClosed = errors.New("coalesce: submit queue closed")

// Batch is an executor's report for one executed window: the state version
// it produced, the algorithm that ran, the player count before the window
// applied, and each admitted point's attributed value in admitted order —
// for adds the appended points' values, for deletes the departing points'
// pre-delete values (index-aligned with the merged indices ExecDelete
// received).
type Batch struct {
	Version int
	Algo    string
	Base    int
	Values  []float64
}

// Executor applies closed windows to the underlying store. ExecAdd
// receives an add window's points in admitted order; ExecDelete receives a
// delete window's merged indices (pre-window numbering) as one batched
// removal. Both run on the drainer goroutine, one at a time.
type Executor interface {
	ExecAdd(points []dataset.Point) (Batch, error)
	ExecDelete(indices []int) (Batch, error)
}

// Result is what a resolved future reports back to its submitter.
type Result struct {
	// Version is the state version the window produced.
	Version int
	// Algo is the algorithm that executed the window.
	Algo string
	// Window is how many submissions shared the executed window.
	Window int
	// Index is the submitted point's index in the post-window numbering
	// (adds; −1 for deletes).
	Index int
	// Value is the submission's attribution from the window's journal
	// record: the added point's value, or the summed pre-delete value of
	// the submission's departing points (0 when the executed path does not
	// attribute removals).
	Value float64
}

// Handle is the future a submission returns. It resolves exactly once,
// when the submission's window has executed (or failed).
type Handle struct {
	done chan struct{}
	res  Result
	err  error
}

func newHandle() *Handle { return &Handle{done: make(chan struct{})} }

// Done returns a channel closed when the handle has resolved.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the submission's window has executed and returns its
// result (or the window's error).
func (h *Handle) Wait() (Result, error) {
	<-h.done
	return h.res, h.err
}

func (h *Handle) resolve(res Result) {
	h.res = res
	close(h.done)
}

func (h *Handle) fail(err error) {
	h.err = err
	close(h.done)
}

// Config bounds a window: it closes at MaxBatch admitted points or
// MaxDelay after the window opened, whichever comes first.
type Config struct {
	// MaxBatch is the window's point capacity k (values < 1 mean 1, which
	// disables coalescing: every add executes alone).
	MaxBatch int
	// MaxDelay is the longest an open window waits for more points before
	// executing anyway (≤ 0: never wait — the window executes as soon as
	// the queue is momentarily empty).
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue; submissions past it block
	// (closed-loop backpressure). Values < 1 select a default of 1024.
	QueueDepth int
}

func (c Config) normalized() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 1
	}
	if c.MaxDelay < 0 {
		c.MaxDelay = 0
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1024
	}
	return c
}

type subKind int

const (
	subAdd subKind = iota
	subDelete
	subFlush
	subStop
)

type submission struct {
	kind    subKind
	point   dataset.Point
	indices []int
	h       *Handle
	flushed chan struct{}
}

// points is how many training points the submission admits into a window —
// the unit MaxBatch bounds.
func (sub *submission) points() int {
	if sub.kind == subDelete {
		return len(sub.indices)
	}
	return 1
}

// Coalescer is the admission queue plus its drainer goroutine. Construct
// with New; Close stops the drainer after executing everything admitted.
type Coalescer struct {
	exec Executor
	cfg  Config
	// subs is the admission queue. It carries pointers, so its buffer
	// costs QueueDepth words up front, not QueueDepth submissions.
	subs chan *submission

	mu      sync.RWMutex
	closed  bool
	stopped chan struct{}

	// pts is the drainer's window scratch: the point-slice header handed
	// to ExecAdd, reused across windows. Safe because the drainer executes
	// one window at a time and executors do not retain the slice (the
	// session copies what it keeps); the Point values inside are the
	// per-submission clones, never reused.
	pts []dataset.Point
}

// New starts a coalescer draining into exec under cfg's window bounds.
func New(exec Executor, cfg Config) *Coalescer {
	c := &Coalescer{
		exec:    exec,
		cfg:     cfg.normalized(),
		stopped: make(chan struct{}),
	}
	c.subs = make(chan *submission, c.cfg.QueueDepth)
	go c.run()
	return c
}

// SubmitAdd admits one point and returns its future. The point is executed
// inside the window it lands in, in admitted order; the handle resolves
// with the window's version and the point's attributed value.
func (c *Coalescer) SubmitAdd(p dataset.Point) *Handle {
	return c.submit(&submission{kind: subAdd, point: p.Clone(), h: newHandle()})
}

// SubmitDelete admits a deletion and returns its future. Indices are
// interpreted against the SUBMISSION-TIME state — the state after every
// previously admitted update has applied — exactly as if the caller had
// run a synchronous Delete at its place in the admitted order.
//
// Consecutive deletions coalesce: an open delete window absorbs the
// submission, and when the window closes (at MaxBatch total indices or
// MaxDelay) every admitted removal executes as ONE batched delete. Because
// earlier submissions in the window shift the numbering later callers
// observed, each submission's indices are remapped past the slots its
// window predecessors vacated before the merged removal runs — the merged
// window deletes exactly the points every caller named. An add submission
// closes an open delete window (and vice versa); only that kind transition
// is a barrier. A window fails as a unit: one submission's out-of-range
// index fails every future sharing its window.
func (c *Coalescer) SubmitDelete(indices []int) *Handle {
	return c.submit(&submission{
		kind:    subDelete,
		indices: append([]int(nil), indices...),
		h:       newHandle(),
	})
}

func (c *Coalescer) submit(sub *submission) *Handle {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		sub.h.fail(ErrClosed)
		return sub.h
	}
	c.subs <- sub
	return sub.h
}

// Flush blocks until every submission admitted before the call has
// executed. On a closed coalescer it returns immediately (Close already
// drained everything).
func (c *Coalescer) Flush() error {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil
	}
	flushed := make(chan struct{})
	c.subs <- &submission{kind: subFlush, flushed: flushed}
	c.mu.RUnlock()
	<-flushed
	return nil
}

// Close executes everything already admitted, stops the drainer, and fails
// later submissions with ErrClosed. Safe to call more than once.
func (c *Coalescer) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.stopped
		return nil
	}
	c.closed = true
	// Send the stop token while still holding the write lock: no reader
	// can be mid-send (submit holds the read lock across its send), so the
	// token is guaranteed to be the queue's last element.
	c.subs <- &submission{kind: subStop}
	c.mu.Unlock()
	<-c.stopped
	return nil
}

// run is the drainer: the single goroutine that owns window state and
// executes every admitted update in order.
func (c *Coalescer) run() {
	defer close(c.stopped)
	var window []*submission
	// winKind is the open window's kind (meaningful while len(window) > 0);
	// winPoints is how many training points it has admitted — the unit
	// MaxBatch bounds (an add is one point, a delete submission carries
	// len(indices) of them).
	var winKind subKind
	var winPoints int
	var timer *time.Timer
	var timerC <-chan time.Time
	disarm := func() {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
	}
	closeWindow := func() {
		disarm()
		if len(window) == 0 {
			return
		}
		if winKind == subDelete {
			c.execDeleteWindow(window)
		} else {
			c.execWindow(window)
		}
		window = window[:0]
		winPoints = 0
	}
	// admit appends an add/delete submission to the open window, closing it
	// first when the kinds differ — the add↔delete transition is the only
	// barrier left in the pipeline.
	admit := func(sub *submission) {
		if len(window) > 0 && winKind != sub.kind {
			closeWindow()
		}
		winKind = sub.kind
		window = append(window, sub)
		winPoints += sub.points()
	}
	// barrier handles the control submissions. Callers close the open
	// window first. Returns true when the drainer should stop.
	barrier := func(sub *submission) bool {
		switch sub.kind {
		case subFlush:
			close(sub.flushed)
		case subStop:
			return true
		}
		return false
	}
	for {
		select {
		case sub := <-c.subs:
			if sub.kind != subAdd && sub.kind != subDelete {
				closeWindow()
				if barrier(sub) {
					return
				}
				continue
			}
			admit(sub)
			// Greedily absorb whatever is already queued, up to capacity:
			// under load the window fills from the backlog without paying
			// the MaxDelay latency. A kind transition mid-backlog closes
			// the open window inside admit and keeps filling the new one.
		greedy:
			for winPoints < c.cfg.MaxBatch {
				select {
				case sub2 := <-c.subs:
					if sub2.kind == subAdd || sub2.kind == subDelete {
						admit(sub2)
						continue
					}
					closeWindow()
					if barrier(sub2) {
						return
					}
				default:
					break greedy
				}
			}
			switch {
			case winPoints >= c.cfg.MaxBatch:
				closeWindow()
			case c.cfg.MaxDelay <= 0:
				// Never wait: the queue is momentarily empty, execute now.
				closeWindow()
			case timerC == nil && len(window) > 0:
				timer = time.NewTimer(c.cfg.MaxDelay)
				timerC = timer.C
			}
		case <-timerC:
			timer, timerC = nil, nil
			closeWindow()
		}
	}
}

// execWindow runs one closed window through the executor and resolves its
// futures with their per-point attribution.
func (c *Coalescer) execWindow(window []*submission) {
	pts := c.pts[:0]
	for _, sub := range window {
		pts = append(pts, sub.point)
	}
	c.pts = pts
	b, err := c.exec.ExecAdd(pts)
	if err != nil {
		for _, sub := range window {
			sub.h.fail(err)
		}
		return
	}
	for i, sub := range window {
		res := Result{
			Version: b.Version,
			Algo:    b.Algo,
			Window:  len(window),
			Index:   b.Base + i,
		}
		if i < len(b.Values) {
			res.Value = b.Values[i]
		}
		sub.h.resolve(res)
	}
}

// execDeleteWindow merges one closed delete window into a single batched
// removal. Every submission named its indices against the state it
// observed at submission time — i.e. after each earlier submission in the
// window applied — so later submissions' indices are remapped to the
// window's PRE-delete numbering before the merged ExecDelete runs: a
// sorted set of already-doomed original slots shifts each index past the
// positions its predecessors vacated. The merged removal therefore deletes
// exactly the points every caller named, and executing it as one batch is
// bit-reproducible from the journal like any other recorded update.
func (c *Coalescer) execDeleteWindow(window []*submission) {
	var doomed []int // pre-window indices already claimed, ascending
	merged := make([]int, 0, len(window))
	for _, sub := range window {
		// All of one submission's indices were named against the SAME
		// observed state, so they are remapped against the doomed set as it
		// stood when the submission arrived — only then do they join it.
		at := len(merged)
		for _, idx := range sub.indices {
			orig := idx
			for _, d := range doomed {
				if d > orig {
					break
				}
				orig++
			}
			merged = append(merged, orig)
		}
		for _, orig := range merged[at:] {
			pos := sort.SearchInts(doomed, orig)
			doomed = append(doomed, 0)
			copy(doomed[pos+1:], doomed[pos:])
			doomed[pos] = orig
		}
	}
	b, err := c.exec.ExecDelete(merged)
	if err != nil {
		for _, sub := range window {
			sub.h.fail(err)
		}
		return
	}
	at := 0
	for _, sub := range window {
		res := Result{Version: b.Version, Algo: b.Algo, Window: len(window), Index: -1}
		for j := 0; j < len(sub.indices) && at+j < len(b.Values); j++ {
			res.Value += b.Values[at+j]
		}
		at += len(sub.indices)
		sub.h.resolve(res)
	}
}
