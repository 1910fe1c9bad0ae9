package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; a shadow-replay span's Parent is the window span it replays.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// laneSpan is a span as a lane stores it: the name is an index into the
// lane's names, so the buffer holds no pointers and the garbage collector
// never scans it. A traced serve run records hundreds of thousands of
// spans beside a writer that collects garbage every few requests.
type laneSpan struct {
	id, parent, req, start, end int64
	name                        int
}

// tracer keeps a run's spans in memory until the run ends. Each goroutine
// records into its own lane, so recording takes no lock; lanes are merged
// when the run writes its spans. A nil tracer (untraced run) records
// nothing, so the measured code calls it unconditionally.
type tracer struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	lanes []*lane
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// id reserves a span or request identifier (0 when untraced).
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// lane returns a new single-goroutine span buffer.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{t: t}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// all returns every recorded span. Call it after the recording goroutines
// have finished.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.lanes {
		for _, s := range l.spans {
			out = append(out, span{ID: s.id, Parent: s.parent, Req: s.req, Name: l.names[s.name], Start: s.start, End: s.end})
		}
	}
	return out
}

func (t *tracer) len() int { return len(t.all()) }

// write stores the spans as one JSON document.
func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.all()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// lane is one goroutine's span buffer.
type lane struct {
	t     *tracer
	names []string
	spans []laneSpan
}

// reqID reserves a request identifier (0 when untraced).
func (l *lane) reqID() int64 {
	if l == nil {
		return 0
	}
	return l.t.id()
}

// record stores a finished span under a reserved id (0 reserves a new
// one) and returns the id. A span outside any request (req 0) is a
// request of its own.
func (l *lane) record(id, parent, req int64, name string, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	if id == 0 {
		id = l.t.id()
	}
	if req == 0 {
		req = id
	}
	ni := slices.Index(l.names, name)
	if ni < 0 {
		ni = len(l.names)
		l.names = append(l.names, name)
	}
	l.spans = append(l.spans, laneSpan{
		id: id, parent: parent, req: req, name: ni,
		start: start.Sub(l.t.base).Nanoseconds(), end: end.Sub(l.t.base).Nanoseconds(),
	})
	return id
}

// timed runs f and records it as a span.
func (l *lane) timed(parent, req int64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	l.record(0, parent, req, name, start, end)
	return end.Sub(start)
}

// durations returns the durations in milliseconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}
