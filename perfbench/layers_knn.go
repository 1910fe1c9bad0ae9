package main

import (
	"errors"
	"fmt"

	"dynshap"
	"dynshap/internal/coalesce"
	"dynshap/internal/core"
	"dynshap/internal/dataset"
	"dynshap/internal/game"
	"dynshap/internal/plan"
	"dynshap/internal/rng"
	"dynshap/internal/utility"
)

// knnShadow replays a knn session's journal through the layers' public
// functions — utility derivation, planning, the engine's batched walks —
// holding the same state the session holds, so each call does exactly the
// work the session's call did and can be timed on its own.
type knnShadow struct {
	seed        uint64
	tau         int
	keepPerms   bool
	test, train *dataset.Dataset
	util        *utility.ModelUtility
	cache       *game.Cached
	engine      *core.Engine
	pivot       *core.PivotState
	sv          []float64
	storesFresh bool
}

// shadowWindow is what replaying one journal record cost.
type shadowWindow struct {
	choice     plan.Choice
	prefixAdds int64
}

func (sh *knnShadow) artifacts() plan.Artifacts {
	return plan.Artifacts{
		N:           sh.train.Len(),
		TestPoints:  sh.test.Len(),
		StoresFresh: sh.storesFresh,
		Pivot:       sh.pivot,
	}
}

// init mirrors Session.Init: the utility over the base data, a cache over
// it, and one Engine.Initialize pass with the version-1 randomness.
func (sh *knnShadow) init(l *lane, parent, req int64) (shadowWindow, error) {
	sh.util = utility.NewModelUtility(sh.train, sh.test, dynshap.KNNClassifier{K: knnK}, utility.WithWorkers(0))
	sh.cache = game.NewCached(sh.util)
	sh.engine = core.NewEngine(core.WithWorkers(0))
	r := rng.NewStream(sh.seed, 1)
	var (
		res *core.InitResult
		err error
	)
	l.timed(parent, req, "core.Engine.Initialize", func() {
		res, err = sh.engine.Initialize(sh.cache, sh.tau, core.InitOptions{KeepPerms: sh.keepPerms}, r.Split())
	})
	if err != nil {
		return shadowWindow{}, err
	}
	sh.pivot, sh.sv, sh.storesFresh = res.Pivot, res.SV(), true
	return shadowWindow{choice: plan.ChoiceMonteCarlo, prefixAdds: sh.util.PrefixAdds()}, nil
}

// add mirrors one coalesced add window.
func (sh *knnShadow) add(l *lane, parent, req int64, version int, points []dataset.Point) (shadowWindow, error) {
	var dec plan.Decision
	l.timed(parent, req, "plan.Plan", func() {
		dec = plan.Plan(plan.Request{Op: plan.OpAdd, Count: len(points), Coalesced: true}, sh.artifacts(), plan.Budget{UpdateTau: updateTau})
	})
	r := rng.NewStream(sh.seed, uint64(version))
	before := sh.util.PrefixAdds()
	var uPlus *utility.ModelUtility
	l.timed(parent, req, "utility.Append", func() { uPlus = sh.util.Append(points...) })
	gPlus := game.NewCachedShared(uPlus, sh.cache)
	var (
		sv  []float64
		err error
	)
	switch dec.Choice {
	case plan.ChoiceDeltaBatch:
		l.timed(parent, req, "core.BatchDeltaAdd", func() {
			sv, err = sh.engine.BatchDeltaAdd(gPlus, sh.sv, len(points), updateTau, r.Split())
		})
	case plan.ChoicePivotBatch:
		sh.pivot = sh.pivot.Clone()
		rs := make([]*rng.Source, len(points))
		for i := range rs {
			rs[i] = r.Split()
		}
		l.timed(parent, req, "core.BatchAddSame", func() {
			sv, err = sh.engine.BatchAddSame(sh.pivot, gPlus, len(points), rs)
		})
	default:
		err = fmt.Errorf("planner chose %v for an add window", dec.Choice)
	}
	if err != nil {
		return shadowWindow{}, err
	}
	w := shadowWindow{choice: dec.Choice, prefixAdds: sh.util.PrefixAdds() - before + uPlus.PrefixAdds()}
	sh.train = sh.train.Append(points...)
	sh.util = uPlus
	sh.cache = game.NewCachedShared(uPlus, sh.cache)
	sh.sv = sv
	sh.storesFresh = false
	return w, nil
}

// remove mirrors one coalesced delete window (indices in the pre-window
// numbering, as journaled).
func (sh *knnShadow) remove(l *lane, parent, req int64, version int, indices []int) (shadowWindow, error) {
	var dec plan.Decision
	l.timed(parent, req, "plan.Plan", func() {
		dec = plan.Plan(plan.Request{Op: plan.OpDelete, Count: len(indices), Indices: indices, Coalesced: true}, sh.artifacts(), plan.Budget{UpdateTau: updateTau})
	})
	r := rng.NewStream(sh.seed, uint64(version))
	before := sh.util.PrefixAdds()
	gone := make(map[int]bool, len(indices))
	for _, i := range indices {
		gone[i] = true
	}
	var (
		survivors []float64
		err       error
	)
	switch dec.Choice {
	case plan.ChoiceDeltaDeleteBatch:
		var out []float64
		l.timed(parent, req, "core.BatchDeltaDelete", func() {
			out, err = sh.engine.BatchDeltaDelete(sh.cache, sh.sv, indices, updateTau, r.Split())
		})
		for i, v := range out {
			if !gone[i] {
				survivors = append(survivors, v)
			}
		}
		sh.pivot = nil
	case plan.ChoicePivotDeleteBatch:
		sh.pivot = sh.pivot.Clone()
		rg := game.NewRestrict(sh.cache, indices...)
		l.timed(parent, req, "core.BatchDeleteSame", func() {
			survivors, err = sh.engine.BatchDeleteSame(sh.pivot, rg, indices)
		})
	default:
		err = fmt.Errorf("planner chose %v for a delete window", dec.Choice)
	}
	if err != nil {
		return shadowWindow{}, err
	}
	w := shadowWindow{choice: dec.Choice, prefixAdds: sh.util.PrefixAdds() - before}
	var uMinus *utility.ModelUtility
	l.timed(parent, req, "utility.Remove", func() { uMinus = sh.util.Remove(indices...) })
	sh.train = sh.train.Remove(indices...)
	sh.util = uMinus
	sh.cache = game.NewCached(uMinus)
	sh.sv = survivors
	sh.storesFresh = false
	return w, nil
}

// knnLayers fills a traced knn report's per-layer metrics: journal fields
// of every traced round, and a shadow replay of the first measured round.
func knnLayers(rep *report, spec knnSpec, sz knnSize, in knnInputs, o options, measured []*knnRound, probe *knnProbe, l *lane) error {
	rd := measured[0]
	recs := writeRecords(rd.hist)
	if len(recs) != len(rd.windowSpan) {
		return fmt.Errorf("shadow: %d journaled windows for %d window spans", len(recs), len(rd.windowSpan))
	}
	tau := spec.initTau
	if tau == 0 {
		tau = 20 * sz.n
	}
	sh := &knnShadow{seed: o.seed, tau: tau, keepPerms: spec.keepPerms, train: in.train, test: in.test}
	initW, err := sh.init(l, 0, l.reqID())
	if err != nil {
		return fmt.Errorf("shadow init: %w", err)
	}
	var prefixErr error
	if want := rd.hist[0].PrefixAdds; initW.prefixAdds != want {
		prefixErr = fmt.Errorf("init: shadow %d prefix adds, journal %d", initW.prefixAdds, want)
	}
	var routeErr error
	for i, u := range recs {
		var w shadowWindow
		if u.Op == "add" {
			w, err = sh.add(l, rd.windowSpan[i], rd.windowReq[i], u.Version, u.Points)
		} else {
			w, err = sh.remove(l, rd.windowSpan[i], rd.windowReq[i], u.Version, u.Indices)
		}
		if err != nil {
			return fmt.Errorf("shadow version %d: %w", u.Version, err)
		}
		if w.prefixAdds != u.PrefixAdds && prefixErr == nil {
			prefixErr = fmt.Errorf("version %d: shadow %d prefix adds, journal %d", u.Version, w.prefixAdds, u.PrefixAdds)
		}
		if w.choice.String() != u.Algo && routeErr == nil {
			routeErr = fmt.Errorf("version %d: planner replay chose %s, journal ran %s", u.Version, w.choice, u.Algo)
		}
	}
	rep.check("shadow-prefix-adds", prefixErr)
	rep.check("shadow-routing", routeErr)
	var bitsErr error
	if !sameBits(sh.sv, rd.final) {
		bitsErr = errors.New("shadow replay's final values differ from the session's")
	}
	rep.check("shadow-values", bitsErr)

	// The same bursts through a no-op coalescer.
	c := coalesce.New(&nopExecutor{n: sz.n}, coalesce.Config{MaxBatch: sz.burst, MaxDelay: windowDelay})
	next := 0
	for i := range recs {
		var pts []dataset.Point
		var dels []int
		if i%2 == 0 {
			pts = in.pool[next : next+sz.burst]
			next += sz.burst
		} else {
			dels = in.dels[i/2]
		}
		l.timed(rd.windowSpan[i], rd.windowReq[i], "coalesce.Window", func() { err = coalesceOverhead(c, pts, dels) })
		if err != nil {
			return fmt.Errorf("no-op coalescer: %w", err)
		}
	}
	if err := c.Close(); err != nil {
		return err
	}
	sizes, err := encodeRecords(l, recs, rd.windowSpan, rd.windowReq)
	if err != nil {
		return err
	}

	spans := l.t.all()
	p50 := func(name string) float64 { return percentile(durations(spans, name), 50) }
	addWalk, delWalk := "core.BatchDeltaAdd", "core.BatchDeltaDelete"
	if spec.keepPerms {
		addWalk, delWalk = "core.BatchAddSame", "core.BatchDeleteSame"
	}
	var traced []dynshap.UpdateRecord
	var selfMS []float64
	for _, m := range measured {
		ws := writeRecords(m.hist)
		traced = append(traced, ws...)
		for i, u := range ws {
			selfMS = append(selfMS, m.windowMS[i]-u.Seconds*1e3)
		}
	}
	perms, prefix, trainings, points, algoMS := recordMeans(traced)
	note := fmt.Sprintf("journal, %d windows of %d rounds", len(traced), len(measured))
	shadowNote := fmt.Sprintf("shadow replay, p50 of %d windows", len(recs))

	rep.layer("core.init_ms", p50("core.Engine.Initialize"), fmt.Sprintf("shadow Engine.Initialize, τ=%d", tau))
	rep.layer("core.add_walk_ms", p50(addWalk), shadowNote+" ("+addWalk+")")
	rep.layer("core.del_walk_ms", p50(delWalk), shadowNote+" ("+delWalk+")")
	rep.layer("core.perms_per_window", perms, note)
	rep.layer("utility.prefix_adds_per_window", prefix, note)
	rep.layer("utility.trainings_per_window", trainings, note)
	rep.layer("utility.prefix_add_ns", prefixAddNS(sh.util, o.seed), fmt.Sprintf("p50 of 200 %d-step Prefixer walks", sh.util.N()))
	rep.layer("utility.derive_ms", percentile(append(durations(spans, "utility.Append"), durations(spans, "utility.Remove")...), 50), shadowNote+" (Append/Remove)")
	rep.layer("utility.kernel_mb", float64(sh.util.KernelMemoryBytes())/1e6, "final utility's distance kernel")
	for _, name := range []string{"exact.build_ms", "exact.clone_ms", "exact.add_ms", "exact.delete_ms", "exact.values_ms", "exact.mb"} {
		rep.layer(name, 0, "")
	}
	rep.layer("session.algo_ms", algoMS, "mean journal Seconds, "+note)
	rep.layer("session.self_ms", percentile(selfMS, 50), "p50 of window latency − journal Seconds, "+note)
	rep.layer("session.values_us", percentile(probe.valuesUS, 50), fmt.Sprintf("p50 of %d Session.Values calls", len(probe.valuesUS)))
	rep.layer("session.topk_us", percentile(probe.topkUS, 50), fmt.Sprintf("p50 of %d Session.TopK(10) calls", len(probe.topkUS)))
	rep.layer("session.resume_ms", probe.resumeMS, "LoadSnapshot+Resume of the final state")
	rep.layer("session.replay_ms", 0, "")
	rep.layer("plan.decide_us", 1e3*p50("plan.Plan"), shadowNote)
	windowCounts(rep, recs)
	rep.layer("coalesce.window_points", points, note)
	rep.layer("coalesce.overhead_us", 1e3*p50("coalesce.Window"), "p50 of the same bursts through a no-op Executor")
	rep.layer("journal.encode_us", 1e3*p50("journal.Encode"), fmt.Sprintf("p50 of %d record encodes", len(sizes)))
	rep.layer("journal.record_bytes", mean(sizes), "mean encoded write record")
	rep.layer("journal.tail_mb", mean(sizes)*float64(len(sizes))/1e6, "one round's write records as a journal tail would hold them")
	rep.layer("journal.snapshot_mb", float64(probe.snapshotBytes)/1e6, "snapshot of the final state")
	for _, name := range []string{"serve.values_self_us", "serve.topk_self_us", "serve.write_self_ms"} {
		rep.layer(name, 0, "")
	}
	return nil
}
