package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"dynshap"
)

// knnSpec is one of the two sampled churn workloads: the same traffic on a
// hard-vote k-NN session, with or without stored permutations.
type knnSpec struct {
	name      string
	keepPerms bool
	// initTau is the initial pass's permutation count (0: the library
	// default of 20·n).
	initTau int
	// algo is the batch family every add and delete window must route to.
	algo string
}

var (
	knnDelta = knnSpec{name: "knn-delta-churn", algo: dynshap.AlgoDeltaBatch.String()}
	knnPivot = knnSpec{name: "knn-pivot-churn", keepPerms: true, initTau: 200, algo: dynshap.AlgoPivotSameBatch.String()}
)

const (
	knnK       = 3
	updateTau  = 100
	knnTailPct = 90
	// windowDelay is the coalescer's timer bound on the knn sessions: far
	// longer than any burst, so every window closes on size.
	windowDelay = time.Hour
	// refSalt separates the reference pass's seed from the workload's.
	refSalt = 0x9e3779b97f4a7c15
	// poolSalt separates the held-out pool's seed from the data's.
	poolSalt = 0x5851f42d4c957f2d
)

// knnSize fixes a knn workload's inputs and per-round operation counts.
type knnSize struct {
	n, m, burst, pairs int
	// setups is how many times each round builds its session; setup_s is
	// the median over every build of every measured round.
	setups int
	// minRounds guarantees enough windows beyond the tail percentile.
	minRounds int
	refTau    int
}

func defaultKNNSize(spec knnSpec) knnSize {
	sz := knnSize{n: 200, m: 50, burst: 16, pairs: 24, setups: 3, minRounds: 5, refTau: 20000}
	if spec.keepPerms {
		// Setup is ~10 ms here; more builds per round steady its median.
		sz.setups = 10
	}
	return sz
}

// knnInputs are a knn workload's generated inputs; every round replays
// them exactly.
type knnInputs struct {
	train, test *dynshap.Dataset
	// pool holds the points added, burst by burst.
	pool []dynshap.Point
	// dels holds each delete burst's indices, each valid against the state
	// its predecessors in the burst leave behind.
	dels [][]int
}

func makeKNNInputs(seed uint64, sz knnSize) knnInputs {
	d := dynshap.IrisLike(sz.n+sz.m, seed)
	train, test := d.Split(float64(sz.n) / float64(sz.n+sz.m))
	in := knnInputs{train: train, test: test}
	in.pool = dynshap.IrisLike(sz.pairs*sz.burst, seed^poolSalt).Points
	r := rand.New(rand.NewPCG(seed, poolSalt))
	for p := 0; p < sz.pairs; p++ {
		burst := make([]int, sz.burst)
		for i := range burst {
			burst[i] = r.IntN(sz.n + sz.burst - i)
		}
		in.dels = append(in.dels, burst)
	}
	return in
}

func (spec knnSpec) options(seed uint64, sz knnSize) []dynshap.Option {
	opts := []dynshap.Option{
		dynshap.WithSeed(seed),
		dynshap.WithUpdateSamples(updateTau),
		dynshap.WithCoalescing(sz.burst, windowDelay),
	}
	if spec.initTau > 0 {
		opts = append(opts, dynshap.WithSamples(spec.initTau))
	}
	if spec.keepPerms {
		opts = append(opts, dynshap.WithKeepPermutations())
	}
	return opts
}

// knnRound is one round's measurements and outputs.
type knnRound struct {
	setup     []float64 // seconds per build
	add, del  []float64 // window latencies, ms
	windowMS  []float64 // every window's latency in journal order, ms
	writeSec  float64
	points    int
	attempted int
	failed    int
	heapMB    float64
	final     []float64
	data      *dynshap.Dataset
	hist      []dynshap.UpdateRecord
	// windowSpan and windowReq identify each window's span (traced runs).
	windowSpan, windowReq []int64
}

// knnRoundRun builds the session and drives the churn traffic through it:
// one goroutine submits a burst of adds, waits for every future, then a
// burst of deletes, and waits again. probe, when set, runs against the
// live session after the write phase.
func knnRoundRun(spec knnSpec, sz knnSize, in knnInputs, seed uint64, l *lane, probe func(*dynshap.Session) error) (*knnRound, error) {
	baseMB := liveHeapMB()
	rd := &knnRound{}
	var s *dynshap.Session
	for i := 0; i < sz.setups; i++ {
		start := time.Now()
		s = dynshap.NewSession(in.train, in.test, dynshap.KNNClassifier{K: knnK}, spec.options(seed, sz)...)
		err := s.Init()
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("init: %w", err)
		}
		l.record(0, 0, 0, "setup", start, end)
		rd.setup = append(rd.setup, end.Sub(start).Seconds())
	}

	handles := make([]*dynshap.UpdateHandle, sz.burst)
	wait := func(name string, start time.Time) float64 {
		for _, h := range handles {
			rd.attempted++
			if _, err := h.Wait(); err != nil {
				rd.failed++
			}
		}
		end := time.Now()
		req := l.reqID()
		rd.windowSpan = append(rd.windowSpan, l.record(0, 0, req, name, start, end))
		rd.windowReq = append(rd.windowReq, req)
		ms := float64(end.Sub(start).Nanoseconds()) / 1e6
		rd.windowMS = append(rd.windowMS, ms)
		return ms
	}
	writeStart := time.Now()
	next := 0
	for p := 0; p < sz.pairs; p++ {
		start := time.Now()
		for i := range handles {
			handles[i] = s.SubmitAdd(in.pool[next])
			next++
		}
		rd.add = append(rd.add, wait("window.add", start))
		start = time.Now()
		for i, idx := range in.dels[p] {
			handles[i] = s.SubmitDelete([]int{idx})
		}
		rd.del = append(rd.del, wait("window.delete", start))
	}
	rd.writeSec = elapsedSince(writeStart)
	rd.points = 2 * sz.pairs * sz.burst
	rd.heapMB = liveHeapMB() - baseMB

	rd.final = s.Values()
	rd.data = s.Data()
	rd.hist = s.History()
	if probe != nil {
		if err := probe(s); err != nil {
			return nil, errors.Join(err, s.Close())
		}
	}
	return rd, s.Close()
}

func runKNN(spec knnSpec, sz knnSize, o options, tr *tracer) (*report, error) {
	in := makeKNNInputs(o.seed, sz)
	l := tr.lane()
	var (
		first    *knnRound
		measured []*knnRound
		probes   *knnProbe
		shapeErr error
		detErr   error
		round    int
	)
	n, err := rounds(o, sz.minRounds, func(keep bool) error {
		var probe func(*dynshap.Session) error
		if tr != nil && keep && probes == nil {
			probes = &knnProbe{}
			probe = func(s *dynshap.Session) error { return probes.run(s, o.scratch) }
		}
		rd, err := knnRoundRun(spec, sz, in, o.seed, l, probe)
		if err != nil {
			return err
		}
		if first == nil {
			first = rd
		}
		if err := windowShape(rd.hist, sz.burst, spec.algo, 2*sz.pairs); err != nil && shapeErr == nil {
			shapeErr = fmt.Errorf("round %d: %w", round, err)
		}
		if !sameBits(rd.final, first.final) && detErr == nil {
			detErr = fmt.Errorf("round %d final values differ from round 0's", round)
		}
		round++
		if keep {
			// Only the first measured round's journal feeds the traced
			// replay; later rounds keep their timings alone.
			if len(measured) > 0 && tr == nil {
				rd.final, rd.data, rd.hist = nil, nil, nil
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
		"n=%d train, m=%d test, K=%d; %d rounds × (%d setups + %d add/delete burst pairs of %d) after 1 warm-up round; τ_init=%s, τ_update=%d",
		sz.n, sz.m, knnK, n, sz.setups, sz.pairs, sz.burst, tauName(spec, sz), updateTau))
	var setup, add, del, heap, perRoundAdd, perRoundDel []float64
	points, writeSec := 0, 0.0
	for _, rd := range measured {
		setup = append(setup, rd.setup...)
		add = append(add, rd.add...)
		del = append(del, rd.del...)
		heap = append(heap, rd.heapMB)
		perRoundAdd = append(perRoundAdd, percentile(rd.add, 50))
		perRoundDel = append(perRoundDel, percentile(rd.del, 50))
		points += rd.points
		writeSec += rd.writeSec
		rep.Attempted += rd.attempted
		rep.Failed += rd.failed
	}
	addTail, delTail := tailOf(add, knnTailPct), tailOf(del, knnTailPct)
	rep.add("setup_s", "s", median(setup), fmt.Sprintf("median of %d builds (NewSession+Init)", len(setup)))
	rep.add("add_p50_ms", "ms", percentile(add, 50), fmt.Sprintf("p50 of %d add windows", len(add)))
	rep.add("add_tail_ms", "ms", addTail.Value, addTail.String())
	rep.add("del_p50_ms", "ms", percentile(del, 50), fmt.Sprintf("p50 of %d delete windows", len(del)))
	rep.add("del_tail_ms", "ms", delTail.Value, delTail.String())
	rep.add("update_pts_per_s", "1/s", float64(points)/writeSec, fmt.Sprintf("%d points in %.3f s of write phase", points, writeSec))
	rep.add("heap_mb", "MB", median(heap), fmt.Sprintf("median of %d rounds: live heap growth over the round, after GC", len(heap)))
	rep.add("ok_frac", "frac", okFrac(rep.Attempted, rep.Failed), fmt.Sprintf("%d of %d futures resolved without error", rep.Attempted-rep.Failed, rep.Attempted))
	rep.Notes = append(rep.Notes, fmt.Sprintf("per-round p50 spread (IQR/median over %d rounds): add %.4f, delete %.4f; add p50s %.1f",
		len(measured), spread(perRoundAdd), spread(perRoundDel), perRoundAdd))

	// sv_rmse: every round ends on the same data and values (the
	// determinism check), so one reference pass serves them all.
	ref := dynshap.NewSession(first.data, in.test, dynshap.KNNClassifier{K: knnK},
		dynshap.WithSamples(sz.refTau), dynshap.WithSeed(o.seed^refSalt))
	if err := ref.Init(); err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	rep.add("sv_rmse", "utility", rmse(first.final, ref.Values()),
		fmt.Sprintf("final values vs a τ=%d Monte Carlo reference on the final %d points (repeats exactly per seed)", sz.refTau, first.data.Len()))

	rep.check("futures", failures(rep.Failed, rep.Attempted))
	rep.check("window-shape", shapeErr)
	rep.check("determinism", detErr)
	rep.check("values-finite", finite(first.final))

	if tr != nil {
		if err := knnLayers(rep, spec, sz, in, o, measured, probes, l); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func tauName(spec knnSpec, sz knnSize) string {
	if spec.initTau > 0 {
		return fmt.Sprint(spec.initTau)
	}
	return fmt.Sprintf("20·n=%d", 20*sz.n)
}

// windowShape checks that a journal holds exactly the expected write
// windows after its init record: want of them, each of exactly burst
// points, each routed to algo. A split or merged window means the run
// measured a different workload than the one it names.
func windowShape(hist []dynshap.UpdateRecord, burst int, algo string, want int) error {
	windows := 0
	for _, u := range hist {
		var size int
		switch u.Op {
		case "init":
			continue
		case "add":
			size = len(u.Points)
		case "delete":
			size = len(u.Indices)
		default:
			return fmt.Errorf("version %d: unexpected %q record", u.Version, u.Op)
		}
		windows++
		if size != burst {
			return fmt.Errorf("version %d: %s window of %d points, want %d", u.Version, u.Op, size, burst)
		}
		if u.Algo != algo {
			return fmt.Errorf("version %d: %s window routed to %s, want %s", u.Version, u.Op, u.Algo, algo)
		}
	}
	if windows != want {
		return fmt.Errorf("%d write windows journaled, want %d", windows, want)
	}
	return nil
}

func okFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

func failures(failed, attempted int) error {
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	if attempted == 0 {
		return errors.New("no operations attempted")
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func finite(xs []float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("value %d is %v", i, x)
		}
	}
	return nil
}

// knnProbe times session-level reads and the snapshot round trip on one
// measured round's live session (traced runs only).
type knnProbe struct {
	valuesUS, topkUS []float64
	resumeMS         float64
	snapshotBytes    int64
}

const probeReps = 200

func (p *knnProbe) run(s *dynshap.Session, scratch string) error {
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		s.Values()
		mid := time.Now()
		s.TopK(10)
		end := time.Now()
		p.valuesUS = append(p.valuesUS, float64(mid.Sub(start).Nanoseconds())/1e3)
		p.topkUS = append(p.topkUS, float64(end.Sub(mid).Nanoseconds())/1e3)
	}
	path := filepath.Join(scratch, "knn-probe.snap.json")
	if err := s.Snapshot().Save(path); err != nil {
		return err
	}
	defer os.Remove(path)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.snapshotBytes = fi.Size()
	start := time.Now()
	sn, err := dynshap.LoadSnapshot(path)
	if err != nil {
		return err
	}
	s2, err := sn.Resume(dynshap.KNNClassifier{K: knnK})
	if err != nil {
		return err
	}
	p.resumeMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if !sameBits(s2.Values(), s.Values()) {
		return errors.New("resumed snapshot values differ from the live session's")
	}
	return s2.Close()
}
