package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dynshap"
	"dynshap/internal/serve"
)

const (
	serveName    = "softknn-exact-serve"
	serveSession = "bench"
	softK        = 5
	// exactTol is how far the served values may sit from the closed form.
	exactTol = 1e-12
	// Tail percentiles: writes number in the thousands per run and reads
	// in the tens of thousands.
	writeTailPct = 99
	readTailPct  = 99.9
)

// serveSize fixes the serve workload's inputs and per-round counts.
type serveSize struct {
	n, m int
	// writes per round, alternating add and remove.
	writes    int
	setups    int
	minRounds int
}

func defaultServeSize() serveSize {
	return serveSize{n: 1000, m: 250, writes: 400, setups: 2, minRounds: 6}
}

// serveInputs are the serve workload's generated inputs: the create body
// and every write request body, in order.
type serveInputs struct {
	train, test *dynshap.Dataset
	create      []byte
	pool        []dynshap.Point
	removes     []int
	writes      [][]byte
}

type wirePoint struct {
	X []float64 `json:"x"`
	Y int       `json:"y"`
}

func wire(ps []dynshap.Point) []wirePoint {
	out := make([]wirePoint, len(ps))
	for i, p := range ps {
		out[i] = wirePoint{X: p.X, Y: p.Y}
	}
	return out
}

func makeServeInputs(seed uint64, sz serveSize) (serveInputs, error) {
	d := dynshap.IrisLike(sz.n+sz.m, seed)
	train, test := d.Split(float64(sz.n) / float64(sz.n+sz.m))
	in := serveInputs{train: train, test: test}
	create, err := json.Marshal(map[string]any{
		"name": serveSession, "train": wire(train.Points), "test": wire(test.Points),
		"model": "softknn", "knn_k": softK, "seed": seed, "coalesce_batch": 1,
	})
	if err != nil {
		return in, err
	}
	in.create = create
	in.pool = dynshap.IrisLike((sz.writes+1)/2, seed^poolSalt).Points
	r := rand.New(rand.NewPCG(seed, poolSalt))
	live := sz.n
	for i := 0; i < sz.writes; i++ {
		var b []byte
		if i%2 == 0 {
			b, err = json.Marshal(wirePoint{X: in.pool[i/2].X, Y: in.pool[i/2].Y})
			live++
		} else {
			idx := r.IntN(live)
			in.removes = append(in.removes, idx)
			b, err = json.Marshal(map[string][]int{"indices": {idx}})
			live--
		}
		if err != nil {
			return in, err
		}
		in.writes = append(in.writes, b)
	}
	return in, nil
}

// finalData is the training set after every write, kept by the benchmark
// itself for the closed-form check.
func (in serveInputs) finalData() *dynshap.Dataset {
	pts := append([]dynshap.Point(nil), in.train.Points...)
	for i := range in.writes {
		if i%2 == 0 {
			pts = append(pts, in.pool[i/2])
		} else {
			idx := in.removes[i/2]
			pts = append(pts[:idx:idx], pts[idx+1:]...)
		}
	}
	return dynshap.NewDataset(pts)
}

// call runs one request through the handler in-process and times only the
// handler.
func call(h http.Handler, method, target string, body []byte) (*httptest.ResponseRecorder, time.Time, time.Time) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec, start, time.Now()
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

const sessionPath = "/v1/sessions/" + serveSession

// serveRound is one round's measurements and outputs.
type serveRound struct {
	setup                  []float64 // seconds
	add, del, values, topk []float64 // ms
	writeMS                []float64 // every write's latency in journal order, ms
	writeSec               float64
	points                 int
	attempted, failed      int
	heapMB, restoreS       float64
	last                   []byte // the last /values body served before the restart
	final                  []float64
	hist                   []dynshap.UpdateRecord
	writeSpan, writeReq    []int64
	snapshot, tail         []byte // persisted files before the restart (traced)
	restartErr, versionErr error
}

// newServer builds a server on a fresh data directory and creates the
// benchmark's session, returning once /values answers.
func newServer(dir string, in serveInputs) (*serve.Server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	sv, err := serve.New(serve.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	if rec, _, _ := call(sv, http.MethodPost, "/v1/sessions", in.create); rec.Code != http.StatusCreated {
		sv.Close()
		return nil, fmt.Errorf("create session: HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
	if rec, _, _ := call(sv, http.MethodGet, sessionPath+"/values", nil); rec.Code != http.StatusOK {
		sv.Close()
		return nil, fmt.Errorf("first read: HTTP %d", rec.Code)
	}
	return sv, nil
}

// serveRoundRun creates the session, runs one closed-loop writer beside
// one closed-loop reader, then restarts the server on the same directory
// without closing it first, as after a crash.
func serveRoundRun(sz serveSize, in serveInputs, scratch string, tr *tracer, keepFiles bool) (*serveRound, error) {
	baseMB := liveHeapMB()
	rd := &serveRound{}
	var sv *serve.Server
	var dir string
	for i := 0; i < sz.setups; i++ {
		if sv != nil {
			if err := sv.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(scratch, fmt.Sprintf("serve-%d", i))
		setupLane := tr.lane()
		start := time.Now()
		var err error
		sv, err = newServer(dir, in)
		end := time.Now()
		if err != nil {
			return nil, err
		}
		setupLane.record(0, 0, setupLane.reqID(), "setup", start, end)
		rd.setup = append(rd.setup, end.Sub(start).Seconds())
	}
	defer os.RemoveAll(dir)
	if err := errors.Join(serveTraffic(in, dir, sv, tr, keepFiles, rd, baseMB), sv.Close()); err != nil {
		return nil, err
	}
	return rd, nil
}

// serveTraffic runs a round's writes and reads against the created
// server, then its crash-style restart, filling rd.
func serveTraffic(in serveInputs, dir string, sv *serve.Server, tr *tracer, keepFiles bool, rd *serveRound, baseMB float64) error {
	var done atomic.Bool
	var wg sync.WaitGroup
	var readAttempted, readFailed int
	wg.Add(1)
	go func() {
		defer wg.Done()
		rl := tr.lane()
		for i := 0; !done.Load(); i++ {
			target, name := sessionPath+"/values", "http.values"
			if i%2 == 1 {
				target, name = sessionPath+"/topk?k=10", "http.topk"
			}
			rec, start, end := call(sv, http.MethodGet, target, nil)
			readAttempted++
			if rec.Code >= 300 {
				readFailed++
			}
			rl.record(0, 0, rl.reqID(), name, start, end)
			if i%2 == 0 {
				rd.values = append(rd.values, msBetween(start, end))
			} else {
				rd.topk = append(rd.topk, msBetween(start, end))
			}
		}
	}()
	wl := tr.lane()
	writeStart := time.Now()
	for i, body := range in.writes {
		target, name := sessionPath+"/add", "http.add"
		if i%2 == 1 {
			target, name = sessionPath+"/remove", "http.remove"
		}
		rec, start, end := call(sv, http.MethodPost, target, body)
		rd.attempted++
		if rec.Code >= 300 {
			rd.failed++
		}
		req := wl.reqID()
		rd.writeSpan = append(rd.writeSpan, wl.record(0, 0, req, name, start, end))
		rd.writeReq = append(rd.writeReq, req)
		rd.writeMS = append(rd.writeMS, msBetween(start, end))
		if i%2 == 0 {
			rd.add = append(rd.add, msBetween(start, end))
		} else {
			rd.del = append(rd.del, msBetween(start, end))
		}
	}
	rd.writeSec = elapsedSince(writeStart)
	done.Store(true)
	wg.Wait()
	rd.attempted += readAttempted
	rd.failed += readFailed
	rd.points = len(in.writes)
	rd.heapMB = liveHeapMB() - baseMB

	rec, _, _ := call(sv, http.MethodGet, sessionPath+"/values", nil)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("final read: HTTP %d", rec.Code)
	}
	rd.last = rec.Body.Bytes()
	var body struct {
		Version int       `json:"version"`
		Values  []float64 `json:"values"`
	}
	if err := json.Unmarshal(rd.last, &body); err != nil {
		return fmt.Errorf("final read: %w", err)
	}
	rd.final = body.Values
	if want := 1 + len(in.writes); body.Version != want {
		rd.versionErr = fmt.Errorf("final version %d, want %d (init + %d writes)", body.Version, want, len(in.writes))
	}
	rec, _, _ = call(sv, http.MethodGet, sessionPath+"/history", nil)
	var hist struct {
		History []dynshap.UpdateRecord `json:"history"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	rd.hist = hist.History
	if keepFiles {
		var err error
		if rd.snapshot, err = os.ReadFile(filepath.Join(dir, serveSession+".snap.json")); err != nil {
			return err
		}
		if rd.tail, err = os.ReadFile(filepath.Join(dir, serveSession+".journal.jsonl")); err != nil {
			return err
		}
	}

	// Crash-style restart: the first server is still open.
	rl := tr.lane()
	start := time.Now()
	sv2, err := serve.New(serve.Config{DataDir: dir})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	rec, _, end := call(sv2, http.MethodGet, sessionPath+"/values", nil)
	rl.record(0, 0, rl.reqID(), "restore", start, end)
	rd.restoreS = end.Sub(start).Seconds()
	if rec.Code != http.StatusOK {
		rd.restartErr = fmt.Errorf("read after restart: HTTP %d", rec.Code)
	} else if !bytes.Equal(rec.Body.Bytes(), rd.last) {
		rd.restartErr = errors.New("/values after the restart differs from the last response served before it")
	}
	return sv2.Close()
}

func runServe(sz serveSize, o options, tr *tracer) (*report, error) {
	in, err := makeServeInputs(o.seed, sz)
	if err != nil {
		return nil, err
	}
	var (
		first                        *serveRound
		measured                     []*serveRound
		shapeErr, restartErr, detErr error
		round                        int
	)
	n, err := rounds(o, sz.minRounds, func(keep bool) error {
		rd, err := serveRoundRun(sz, in, o.scratch, tr, tr != nil && keep && len(measured) == 0)
		if err != nil {
			return err
		}
		if first == nil {
			first = rd
		}
		if err := windowShape(rd.hist, 1, dynshap.AlgoExactKNN.String(), len(in.writes)); err != nil && shapeErr == nil {
			shapeErr = fmt.Errorf("round %d: %w", round, err)
		}
		if err := errors.Join(rd.restartErr, rd.versionErr); err != nil && restartErr == nil {
			restartErr = fmt.Errorf("round %d: %w", round, err)
		}
		if !bytes.Equal(rd.last, first.last) && detErr == nil {
			detErr = fmt.Errorf("round %d final /values differ from round 0's", round)
		}
		round++
		if keep {
			// Only the first measured round's journal feeds the traced
			// replay; later rounds keep their timings alone.
			if len(measured) > 0 && tr == nil {
				rd.last, rd.final, rd.hist = nil, nil, nil
			}
			measured = append(measured, rd)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"n=%d train, m=%d test, SoftKNN K=%d; %d rounds × (%d setups + %d writes beside 1 reader + 1 crash restart) after 1 warm-up round; coalesce_batch=1",
		sz.n, sz.m, softK, n, sz.setups, sz.writes))
	var setup, add, del, values, topk, heap, restore, perRoundAdd []float64
	points, writeSec := 0, 0.0
	for _, rd := range measured {
		setup = append(setup, rd.setup...)
		add = append(add, rd.add...)
		del = append(del, rd.del...)
		values = append(values, rd.values...)
		topk = append(topk, rd.topk...)
		heap = append(heap, rd.heapMB)
		restore = append(restore, rd.restoreS)
		perRoundAdd = append(perRoundAdd, percentile(rd.add, 50))
		points += rd.points
		writeSec += rd.writeSec
		rep.Attempted += rd.attempted
		rep.Failed += rd.failed
	}
	latency := func(name string, xs []float64, pct float64, what string) {
		t := tailOf(xs, pct)
		rep.add(name+"_p50_ms", "ms", percentile(xs, 50), fmt.Sprintf("p50 of %d %s", len(xs), what))
		rep.add(name+"_tail_ms", "ms", t.Value, t.String())
	}
	rep.add("setup_s", "s", median(setup), fmt.Sprintf("median of %d builds (serve.New + create, until /values answers)", len(setup)))
	latency("add", add, writeTailPct, "add requests")
	latency("del", del, writeTailPct, "remove requests")
	rep.add("update_pts_per_s", "1/s", float64(points)/writeSec, fmt.Sprintf("%d points in %.3f s of write phase", points, writeSec))
	rep.add("heap_mb", "MB", median(heap), fmt.Sprintf("median of %d rounds: live heap growth over the round, after GC", len(heap)))
	latency("values", values, readTailPct, "GET /values")
	latency("topk", topk, readTailPct, "GET /topk?k=10")
	rep.add("restore_s", "s", median(restore), fmt.Sprintf("median of %d crash restarts (serve.New until /values answers)", len(restore)))
	rep.add("ok_frac", "frac", okFrac(rep.Attempted, rep.Failed), fmt.Sprintf("%d of %d requests answered below HTTP 300", rep.Attempted-rep.Failed, rep.Attempted))
	rep.Notes = append(rep.Notes, fmt.Sprintf("per-round add p50 spread (IQR/median over %d rounds): %.4f", len(measured), spread(perRoundAdd)))

	rep.check("requests", failures(rep.Failed, rep.Attempted))
	exactVals, err := dynshap.KNNShapley(in.finalData(), in.test, softK)
	if err != nil {
		return nil, err
	}
	rep.check("exact-values", within(first.final, exactVals, exactTol))
	rep.check("window-shape", shapeErr)
	rep.check("crash-restart", restartErr)
	rep.check("determinism", detErr)
	if tr != nil {
		if err := serveLayers(rep, sz, in, o, measured, tr); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// within reports whether got matches want entry by entry within tol.
func within(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	worst, at := 0.0, 0
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > worst || math.IsNaN(d) {
			worst, at = d, i
		}
	}
	if worst > tol || math.IsNaN(worst) {
		return fmt.Errorf("value %d differs from the closed form by %g (tolerance %g)", at, worst, tol)
	}
	return nil
}
