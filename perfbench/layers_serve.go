package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dynshap"
	"dynshap/internal/coalesce"
	"dynshap/internal/dataset"
	"dynshap/internal/exact"
	"dynshap/internal/plan"
	"dynshap/internal/utility"
)

// exactShadow replays the serve session's journal through the exact
// estimator's public functions, holding the state the session holds: the
// soft k-NN utility (whose distance kernel the estimator reads) and the
// estimator itself, cloned before every update as the session does.
type exactShadow struct {
	train, test *dataset.Dataset
	util        *utility.ModelUtility
	est         *exact.Estimator
	vals        []float64
}

func labelsOf(ps []dataset.Point) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.Y
	}
	return out
}

func (sh *exactShadow) build(l *lane, parent, req int64) error {
	sh.util = utility.NewModelUtility(sh.train, sh.test, dynshap.SoftKNNClassifier{K: softK}, utility.WithWorkers(0))
	kernel, k, ok := sh.util.ExactKNNState()
	if !ok {
		return errors.New("soft k-NN utility offers no exact state")
	}
	l.timed(parent, req, "exact.New", func() {
		sh.est = exact.New(kernel, labelsOf(sh.train.Points), labelsOf(sh.test.Points), k, 0)
	})
	sh.vals = sh.est.Values()
	return nil
}

// apply mirrors one journaled write and returns the planner's choice.
func (sh *exactShadow) apply(l *lane, parent, req int64, u dynshap.UpdateRecord) (plan.Choice, error) {
	op, count := plan.OpAdd, len(u.Points)
	if u.Op == "delete" {
		op, count = plan.OpDelete, len(u.Indices)
	}
	var dec plan.Decision
	l.timed(parent, req, "plan.Plan", func() {
		dec = plan.Plan(plan.Request{Op: op, Count: count, Indices: u.Indices, Coalesced: true},
			plan.Artifacts{N: sh.train.Len(), ExactKNN: true, TestPoints: sh.test.Len()},
			plan.Budget{UpdateTau: 20 * sh.train.Len()})
	})
	var next *utility.ModelUtility
	var removed []int32
	if op == plan.OpAdd {
		l.timed(parent, req, "utility.Append", func() { next = sh.util.Append(u.Points...) })
	} else {
		kernel, _, _ := sh.util.ExactKNNState()
		for _, i := range u.Indices {
			removed = append(removed, kernel.Phys(i))
		}
		l.timed(parent, req, "utility.Remove", func() { next = sh.util.Remove(u.Indices...) })
	}
	l.timed(parent, req, "exact.Clone", func() { sh.est = sh.est.Clone() })
	kernel, _, ok := next.ExactKNNState()
	if !ok {
		return dec.Choice, errors.New("derived utility lost its kernel")
	}
	if op == plan.OpAdd {
		first := sh.train.Len()
		l.timed(parent, req, "exact.Add", func() { sh.est.Add(kernel, first, labelsOf(u.Points)) })
		sh.train = sh.train.Append(u.Points...)
	} else {
		l.timed(parent, req, "exact.Delete", func() { sh.est.Delete(removed, kernel) })
		sh.train = sh.train.Remove(u.Indices...)
	}
	sh.util = next
	l.timed(parent, req, "exact.Values", func() { sh.vals = sh.est.Values() })
	return dec.Choice, nil
}

// serveLayers fills a traced serve report's per-layer metrics from the
// request spans, the journal, and shadow replays of the first measured
// round: the exact estimator's functions, and the session's restart path
// (LoadSnapshot, Resume, ApplyRecord) on copies of the persisted files.
func serveLayers(rep *report, sz serveSize, in serveInputs, o options, measured []*serveRound, tr *tracer) error {
	rd := measured[0]
	recs := writeRecords(rd.hist)
	if len(recs) != len(rd.writeSpan) {
		return fmt.Errorf("shadow: %d journaled writes for %d write spans", len(recs), len(rd.writeSpan))
	}
	l := tr.lane()
	sh := &exactShadow{train: in.train, test: in.test}
	if err := sh.build(l, 0, l.reqID()); err != nil {
		return err
	}
	var routeErr error
	for i, u := range recs {
		choice, err := sh.apply(l, rd.writeSpan[i], rd.writeReq[i], u)
		if err != nil {
			return fmt.Errorf("shadow version %d: %w", u.Version, err)
		}
		if choice.String() != u.Algo && routeErr == nil {
			routeErr = fmt.Errorf("version %d: planner replay chose %s, journal ran %s", u.Version, choice, u.Algo)
		}
	}
	rep.check("shadow-routing", routeErr)
	var bitsErr error
	if !sameBits(sh.vals, rd.final) {
		bitsErr = errors.New("shadow estimator's final values differ from the served ones")
	}
	rep.check("shadow-values", bitsErr)

	// The session's restart path on copies of the files the server held
	// before its crash-style restart.
	dir := filepath.Join(o.scratch, "serve-shadow")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "bench.snap.json")
	if err := os.WriteFile(snapPath, rd.snapshot, 0o644); err != nil {
		return err
	}
	var s *dynshap.Session
	var err error
	resumeMS := msOf(l.timed(0, 0, "session.Resume", func() {
		var sn *dynshap.Snapshot
		if sn, err = dynshap.LoadSnapshot(snapPath); err == nil {
			s, err = sn.Resume(dynshap.SoftKNNClassifier{K: softK})
		}
	}))
	if err != nil {
		return fmt.Errorf("shadow resume: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(rd.tail))
	for i := 0; dec.More(); i++ {
		var u dynshap.UpdateRecord
		if err := dec.Decode(&u); err != nil {
			return fmt.Errorf("journal tail: %w", err)
		}
		var parent, req int64
		if i < len(rd.writeSpan) {
			parent, req = rd.writeSpan[i], rd.writeReq[i]
		}
		l.timed(parent, req, "session.ApplyRecord", func() { err = s.ApplyRecord(u) })
		if err != nil {
			return fmt.Errorf("shadow ApplyRecord version %d: %w", u.Version, err)
		}
	}
	var replayErr error
	if !sameBits(s.Values(), rd.final) {
		replayErr = errors.New("resumed session's replayed values differ from the served ones")
	}
	rep.check("shadow-restart", replayErr)
	var valuesUS, topkUS []float64
	for i := 0; i < probeReps; i++ {
		valuesUS = append(valuesUS, 1e3*msOf(l.timed(0, 0, "session.Values", func() { s.Values() })))
		topkUS = append(topkUS, 1e3*msOf(l.timed(0, 0, "session.TopK", func() { s.TopK(10) })))
	}
	var snap bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&snap); err != nil {
		return err
	}

	// The same single-point windows through a no-op coalescer.
	c := coalesce.New(&nopExecutor{n: sz.n}, coalesce.Config{MaxBatch: 1, MaxDelay: dynshap.DefaultCoalesceDelay})
	for i, u := range recs {
		var pts []dataset.Point
		var dels []int
		if u.Op == "add" {
			pts = u.Points
		} else {
			dels = in.removes[i/2 : i/2+1]
		}
		l.timed(rd.writeSpan[i], rd.writeReq[i], "coalesce.Window", func() { err = coalesceOverhead(c, pts, dels) })
		if err != nil {
			return fmt.Errorf("no-op coalescer: %w", err)
		}
	}
	if err := c.Close(); err != nil {
		return err
	}
	sizes, err := encodeRecords(l, recs, rd.writeSpan, rd.writeReq)
	if err != nil {
		return err
	}

	spans := tr.all()
	p50 := func(name string) float64 { return percentile(durations(spans, name), 50) }
	var traced []dynshap.UpdateRecord
	var selfMS []float64
	for _, m := range measured {
		ws := writeRecords(m.hist)
		traced = append(traced, ws...)
		for i, u := range ws {
			selfMS = append(selfMS, m.writeMS[i]-u.Seconds*1e3)
		}
	}
	perms, prefix, trainings, points, algoMS := recordMeans(traced)
	note := fmt.Sprintf("journal, %d writes of %d rounds", len(traced), len(measured))
	shadowNote := fmt.Sprintf("shadow replay, p50 of %d writes", len(recs))
	valuesUSp50, topkUSp50 := percentile(valuesUS, 50), percentile(topkUS, 50)

	for _, name := range []string{"core.init_ms", "core.add_walk_ms", "core.del_walk_ms"} {
		rep.layer(name, 0, "")
	}
	rep.layer("core.perms_per_window", perms, note)
	rep.layer("utility.prefix_adds_per_window", prefix, note)
	rep.layer("utility.trainings_per_window", trainings, note)
	rep.layer("utility.prefix_add_ns", prefixAddNS(sh.util, o.seed), fmt.Sprintf("p50 of 200 %d-step Prefixer walks", sh.util.N()))
	rep.layer("utility.derive_ms", percentile(append(durations(spans, "utility.Append"), durations(spans, "utility.Remove")...), 50), shadowNote+" (Append/Remove)")
	rep.layer("utility.kernel_mb", float64(sh.util.KernelMemoryBytes())/1e6, "final utility's distance kernel")
	rep.layer("exact.build_ms", p50("exact.New"), "shadow exact.New on the base data")
	rep.layer("exact.clone_ms", p50("exact.Clone"), shadowNote)
	rep.layer("exact.add_ms", p50("exact.Add"), shadowNote)
	rep.layer("exact.delete_ms", p50("exact.Delete"), shadowNote)
	rep.layer("exact.values_ms", p50("exact.Values"), shadowNote)
	rep.layer("exact.mb", float64(sh.est.MemoryBytes())/1e6, "final estimator")
	rep.layer("session.algo_ms", algoMS, "mean journal Seconds, "+note)
	rep.layer("session.self_ms", 0, "")
	rep.layer("session.values_us", valuesUSp50, fmt.Sprintf("p50 of %d Session.Values calls on the resumed session", len(valuesUS)))
	rep.layer("session.topk_us", topkUSp50, fmt.Sprintf("p50 of %d Session.TopK(10) calls on the resumed session", len(topkUS)))
	rep.layer("session.resume_ms", resumeMS, "LoadSnapshot+Resume of the pre-restart snapshot")
	rep.layer("session.replay_ms", p50("session.ApplyRecord"), fmt.Sprintf("p50 ApplyRecord over %d tail records", len(durations(spans, "session.ApplyRecord"))))
	rep.layer("plan.decide_us", 1e3*p50("plan.Plan"), shadowNote)
	windowCounts(rep, recs)
	rep.layer("coalesce.window_points", points, note)
	rep.layer("coalesce.overhead_us", 1e3*p50("coalesce.Window"), "p50 of the same writes through a no-op Executor")
	rep.layer("journal.encode_us", 1e3*p50("journal.Encode"), fmt.Sprintf("p50 of %d record encodes", len(sizes)))
	rep.layer("journal.record_bytes", mean(sizes), "mean encoded write record")
	rep.layer("journal.tail_mb", float64(len(rd.tail))/1e6, "journal tail file before the restart")
	rep.layer("journal.snapshot_mb", float64(snap.Len())/1e6, "snapshot of the final state")
	rep.layer("serve.values_self_us", 1e3*p50("http.values")-valuesUSp50, "p50 GET /values span − session.values_us")
	rep.layer("serve.topk_self_us", 1e3*p50("http.topk")-topkUSp50, "p50 GET /topk span − session.topk_us")
	rep.layer("serve.write_self_ms", percentile(selfMS, 50), "p50 of write request − its journal Seconds, "+note)
	return nil
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
