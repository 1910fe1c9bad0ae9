// Command loadgen drives mixed add/delete/read traffic against the
// coalescing write pipeline and reports what a serving operator cares
// about: sustained update throughput, p50/p99 update latency, and read
// throughput — the numbers that make the ROADMAP's "heavy traffic from
// many contributors" claim measurable.
//
// Closed-loop workers submit one update, wait for its window to execute,
// and submit the next; readers spin on the latest published values, which
// never block behind an open window. By default the harness runs
// in-process against a Session (the pipeline under test, no HTTP noise);
// with -addr it targets a running dynshapd over HTTP instead.
//
// Results are written in the benchsnap JSON schema (internal/benchfmt),
// so `benchsnap diff old.json new.json` gates load regressions exactly
// like micro-benchmarks: add-ops/s, del-ops/s and read-ops/s are rates (a
// DROP fails), p50-ns/p99-ns/del-p50-ns/del-p99-ns are latencies (a RISE
// fails). Delete latency is reported separately because the mixed-churn
// arm exists to gate it: deletes used to be coalescer barriers, and the
// delete-window pipeline is supposed to move delete p99, not add p50.
//
// Usage:
//
//	loadgen -duration 2s -n 200 -writers 8 -o loadgen.json
//	loadgen -compare -min-speedup 2.0    # k=16 window vs coalescing off
//	loadgen -deletes 0.25 -compare       # mixed churn; delete-window p99 vs barrier-per-delete
//	loadgen -addr localhost:8089         # drive a running dynshapd
//	loadgen -algo exact -deletes 0.25    # exact soft k-NN windows, no sampling
//
// -compare runs two arms over the same workload — the configured window
// size, then window 1 (coalescing disabled) — and reports the throughput
// ratio; -min-speedup exits non-zero below the bar.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynshap"
	"dynshap/internal/benchfmt"
)

type config struct {
	addr          string
	n             int
	samples       int
	updateSamples int
	seed          uint64
	writers       int
	readers       int
	duration      time.Duration
	totalAdds     int
	batch         int
	delay         time.Duration
	deleteEvery   int
	deletes       float64
	algo          string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "dynshapd address (host:port); empty runs in-process")
	flag.IntVar(&cfg.n, "n", 200, "initial training-set size")
	flag.IntVar(&cfg.samples, "samples", 200, "permutation samples for the initial computation")
	flag.IntVar(&cfg.updateSamples, "update-samples", 100, "permutation samples per update")
	flag.Uint64Var(&cfg.seed, "seed", 9, "RNG seed")
	flag.IntVar(&cfg.writers, "writers", 8, "closed-loop writer goroutines")
	flag.IntVar(&cfg.readers, "readers", 2, "reader goroutines spinning on Values")
	flag.DurationVar(&cfg.duration, "duration", 2*time.Second, "measurement window per arm (ignored when -adds is set)")
	flag.IntVar(&cfg.totalAdds, "adds", 0, "run each arm for exactly this many adds instead of a time window — compared arms then execute the identical workload over the identical dataset-growth schedule")
	flag.IntVar(&cfg.batch, "batch", 16, "coalescing window size k")
	flag.DurationVar(&cfg.delay, "delay", 2*time.Millisecond, "coalescing window max delay t")
	flag.IntVar(&cfg.deleteEvery, "delete-every", 0, "each writer submits a delete every N adds (0: adds only)")
	flag.Float64Var(&cfg.deletes, "deletes", 0, "mixed-churn arm: fraction of write submissions that are deletes (0-1); concurrent deletes coalesce into delete windows, so only add↔delete transitions are barriers")
	flag.StringVar(&cfg.algo, "algo", "delta", "batch family the planner routes windows to: delta (shared no-pivot chain, best amortisation), pivot (stored permutations, bit-identical to sequential Pivot-s) or exact (soft k-NN closed form, no permutations)")
	out := flag.String("o", "", "write results as a benchsnap JSON snapshot")
	compare := flag.Bool("compare", false, "also run with coalescing disabled (window 1) and report the speedup")
	minSpeedup := flag.Float64("min-speedup", 0, "with -compare: exit non-zero if coalesced/uncoalesced add throughput is below this ratio")
	flag.Parse()

	snap := benchfmt.Snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	res, err := runArm(cfg)
	if err != nil {
		fatal(err)
	}
	report(cfg, res)
	snap.Benchmarks = append(snap.Benchmarks, entryFor(cfg, res))

	if *compare {
		solo := cfg
		solo.batch = 1
		soloRes, err := runArm(solo)
		if err != nil {
			fatal(err)
		}
		report(solo, soloRes)
		snap.Benchmarks = append(snap.Benchmarks, entryFor(solo, soloRes))
		speedup := res.addRate() / soloRes.addRate()
		fmt.Printf("coalescing speedup (k=%d vs k=1): %.2fx add throughput\n", cfg.batch, speedup)
		if res.deletes > 0 && soloRes.deletes > 0 {
			// The k=1 arm IS the barrier-per-delete baseline: every delete
			// executes as its own window. The ratio of its delete p99 to the
			// windowed arm's is the latency the delete coalescer removes.
			if windowed, solo := res.delPercentile(0.99), soloRes.delPercentile(0.99); windowed > 0 {
				fmt.Printf("delete-window p99 improvement (k=%d vs barrier-per-delete): %.2fx (%s -> %s)\n",
					cfg.batch, float64(solo)/float64(windowed),
					solo.Round(time.Microsecond), windowed.Round(time.Microsecond))
			}
		}
		if *minSpeedup > 0 && speedup < *minSpeedup {
			fatal(fmt.Errorf("speedup %.2fx below required %.2fx", speedup, *minSpeedup))
		}
	}

	if *out != "" {
		if err := snap.Save(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d result(s) to %s\n", len(snap.Benchmarks), *out)
	}
}

// target abstracts where the traffic lands: an in-process Session or a
// dynshapd session over HTTP.
type target interface {
	add(p dynshap.Point) error
	del(indices []int) error
	read() error
	close() error
}

// result aggregates one arm's measurements. Add and delete latencies are
// kept apart: a churn arm's delete p99 is the number the delete-window
// coalescer is supposed to move, and folding it into the add distribution
// would hide exactly that.
type result struct {
	adds    int
	deletes int
	reads   int64
	lat     []time.Duration // one sample per completed add, sorted on return
	delLat  []time.Duration // one sample per completed delete, sorted on return
	elapsed time.Duration
}

func (r result) addRate() float64 { return float64(r.adds) / r.elapsed.Seconds() }
func (r result) delRate() float64 { return float64(r.deletes) / r.elapsed.Seconds() }

func (r result) percentile(p float64) time.Duration    { return percentileOf(r.lat, p) }
func (r result) delPercentile(p float64) time.Duration { return percentileOf(r.delLat, p) }

func percentileOf(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	return lat[int(p*float64(len(lat)-1))]
}

func runArm(cfg config) (result, error) {
	tgt, err := newTarget(cfg)
	if err != nil {
		return result{}, err
	}
	defer tgt.close()

	// The points every writer draws from: same pool for every arm, so the
	// compared workloads are identical.
	pool := dynshap.IrisLike(4096, cfg.seed+1).Points
	var next uint64

	var stop atomic.Bool
	var claimed int64
	var writers, readers sync.WaitGroup
	writerLat := make([][]time.Duration, cfg.writers)
	writerDelLat := make([][]time.Duration, cfg.writers)
	writerAdds := make([]int, cfg.writers)
	writerDels := make([]int, cfg.writers)
	writerErr := make([]error, cfg.writers)
	var reads int64

	start := time.Now()
	for w := 0; w < cfg.writers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			sinceDelete := 0
			ops, dels := 0, 0
			for !stop.Load() {
				// The mixed-churn arm: keep this writer's delete share at
				// cfg.deletes by interleaving deletes deterministically.
				// Concurrent writers in a delete run land in ONE delete
				// window; deleting index 0 is valid against any non-empty
				// submission-time state, and the coalescer remaps it.
				if cfg.deletes > 0 && float64(dels+1) <= cfg.deletes*float64(ops+1) {
					t0 := time.Now()
					if err := tgt.del([]int{0}); err != nil {
						writerErr[w] = err
						return
					}
					writerDelLat[w] = append(writerDelLat[w], time.Since(t0))
					writerDels[w]++
					ops++
					dels++
					continue
				}
				if cfg.totalAdds > 0 && atomic.AddInt64(&claimed, 1) > int64(cfg.totalAdds) {
					return
				}
				p := pool[int(atomic.AddUint64(&next, 1))%len(pool)]
				t0 := time.Now()
				if err := tgt.add(p); err != nil {
					writerErr[w] = err
					return
				}
				writerLat[w] = append(writerLat[w], time.Since(t0))
				writerAdds[w]++
				ops++
				sinceDelete++
				if cfg.deleteEvery > 0 && sinceDelete >= cfg.deleteEvery {
					sinceDelete = 0
					t0 := time.Now()
					if err := tgt.del([]int{0}); err != nil {
						writerErr[w] = err
						return
					}
					writerDelLat[w] = append(writerDelLat[w], time.Since(t0))
					writerDels[w]++
				}
			}
		}(w)
	}
	for r := 0; r < cfg.readers; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				if err := tgt.read(); err != nil {
					return
				}
				atomic.AddInt64(&reads, 1)
				// Yield so a spinning reader cannot starve the drainer on
				// small machines; reads stay non-blocking either way.
				runtime.Gosched()
			}
		}()
	}

	if cfg.totalAdds > 0 {
		writers.Wait()
	} else {
		time.Sleep(cfg.duration)
		stop.Store(true)
		writers.Wait()
	}
	elapsed := time.Since(start)
	stop.Store(true)
	readers.Wait()

	res := result{reads: reads, elapsed: elapsed}
	for w := 0; w < cfg.writers; w++ {
		if writerErr[w] != nil {
			return result{}, fmt.Errorf("writer %d: %w", w, writerErr[w])
		}
		res.adds += writerAdds[w]
		res.deletes += writerDels[w]
		res.lat = append(res.lat, writerLat[w]...)
		res.delLat = append(res.delLat, writerDelLat[w]...)
	}
	if res.adds == 0 {
		return result{}, fmt.Errorf("no updates completed in %s — raise -duration", cfg.duration)
	}
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	sort.Slice(res.delLat, func(i, j int) bool { return res.delLat[i] < res.delLat[j] })
	return res, nil
}

func entryFor(cfg config, res result) benchfmt.Entry {
	// Mixed-churn arms get their own benchmark name — their add latencies
	// are not comparable to an adds-only run, and benchsnap diff matches
	// entries by name.
	kind := "Add"
	if cfg.deletes > 0 {
		kind = "Churn"
	}
	e := benchfmt.Entry{
		Name:       fmt.Sprintf("Loadgen%s%sK%dN%d", kind, cases(cfg.algo), cfg.batch, cfg.n),
		Iterations: int64(res.adds + res.deletes),
		Metrics: map[string]float64{
			"add-ops/s":  res.addRate(),
			"read-ops/s": float64(res.reads) / res.elapsed.Seconds(),
			"p50-ns":     float64(res.percentile(0.50)),
			"p99-ns":     float64(res.percentile(0.99)),
		},
	}
	if res.deletes > 0 {
		// Delete latency is its own distribution: del-ops/s is a rate (a
		// drop fails benchsnap diff), del-p50/p99-ns are latencies (a rise
		// fails) — the delete-window gate the ISSUE's churn arm exists for.
		e.Metrics["del-ops/s"] = res.delRate()
		e.Metrics["del-p50-ns"] = float64(res.delPercentile(0.50))
		e.Metrics["del-p99-ns"] = float64(res.delPercentile(0.99))
	}
	return e
}

// cases upper-cases the algo family's first letter for the benchmark name
// ("delta" → "Delta"), keeping names in benchsnap's Benchmark style.
func cases(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if 'a' <= b[0] && b[0] <= 'z' {
		b[0] -= 'a' - 'A'
	}
	return string(b)
}

func report(cfg config, res result) {
	fmt.Printf("k=%-3d n=%d writers=%d readers=%d %s: %d adds (%.1f ops/s), p50 %s, p99 %s, %d reads (%.0f ops/s)\n",
		cfg.batch, cfg.n, cfg.writers, cfg.readers, res.elapsed.Round(time.Millisecond),
		res.adds, res.addRate(),
		res.percentile(0.50).Round(time.Microsecond), res.percentile(0.99).Round(time.Microsecond),
		res.reads, float64(res.reads)/res.elapsed.Seconds())
	if res.deletes > 0 {
		fmt.Printf("        deletes: %d (%.1f ops/s), del-p50 %s, del-p99 %s\n",
			res.deletes, res.delRate(),
			res.delPercentile(0.50).Round(time.Microsecond), res.delPercentile(0.99).Round(time.Microsecond))
	}
}

// --- in-process target ---

type sessionTarget struct{ s *dynshap.Session }

func newTarget(cfg config) (target, error) {
	if cfg.addr != "" {
		return newHTTPTarget(cfg)
	}
	train, test := dynshap.IrisLike(cfg.n+cfg.n/4, cfg.seed).Split(0.8)
	opts := []dynshap.Option{
		dynshap.WithSamples(cfg.samples),
		dynshap.WithUpdateSamples(cfg.updateSamples),
		dynshap.WithSeed(cfg.seed),
		dynshap.WithCoalescing(cfg.batch, cfg.delay),
	}
	var trainer dynshap.Trainer = dynshap.KNNClassifier{K: 3}
	switch cfg.algo {
	case "delta":
		// No stored permutations: the planner routes multi-point windows to
		// the delta batch walk, whose shared no-pivot chain makes the
		// marginal cost of an extra window point one differential
		// evaluation instead of a whole pass.
	case "pivot":
		opts = append(opts, dynshap.WithKeepPermutations())
	case "exact":
		// The soft utility has a closed form: the planner routes every
		// window to the maintained exact estimator.
		trainer = dynshap.SoftKNNClassifier{K: 3}
	default:
		return nil, fmt.Errorf("unknown -algo %q (want delta, pivot or exact)", cfg.algo)
	}
	s := dynshap.NewSession(train, test, trainer, opts...)
	if err := s.Init(); err != nil {
		return nil, err
	}
	return &sessionTarget{s: s}, nil
}

func (t *sessionTarget) add(p dynshap.Point) error {
	_, err := t.s.SubmitAdd(p).Wait()
	return err
}

func (t *sessionTarget) del(indices []int) error {
	_, err := t.s.SubmitDelete(indices).Wait()
	return err
}

func (t *sessionTarget) read() error {
	t.s.Values()
	return nil
}

func (t *sessionTarget) close() error { return t.s.Close() }

// --- HTTP target (a running dynshapd) ---

type httpTarget struct {
	base   string
	name   string
	client *http.Client
}

func newHTTPTarget(cfg config) (target, error) {
	model := "knn"
	if cfg.algo == "exact" {
		model = "softknn"
	}
	t := &httpTarget{
		base:   "http://" + cfg.addr,
		name:   fmt.Sprintf("loadgen-k%d-%d", cfg.batch, time.Now().UnixNano()),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	body := map[string]any{
		"name":              t.name,
		"synthetic":         map[string]any{"kind": "iris", "total": cfg.n + cfg.n/4, "seed": cfg.seed},
		"model":             model,
		"knn_k":             3,
		"samples":           cfg.samples,
		"update_samples":    cfg.updateSamples,
		"seed":              cfg.seed,
		"keep_permutations": cfg.algo == "pivot",
		"coalesce_batch":    cfg.batch,
		"coalesce_delay_ms": int(cfg.delay / time.Millisecond),
	}
	return t, t.post("/v1/sessions", body)
}

func (t *httpTarget) post(path string, body any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, e.Error)
	}
	return nil
}

func (t *httpTarget) add(p dynshap.Point) error {
	return t.post("/v1/sessions/"+t.name+"/add", map[string]any{"x": p.X, "y": p.Y})
}

func (t *httpTarget) del(indices []int) error {
	return t.post("/v1/sessions/"+t.name+"/remove", map[string]any{"indices": indices})
}

func (t *httpTarget) read() error {
	resp, err := t.client.Get(t.base + "/v1/sessions/" + t.name + "/values")
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

func (t *httpTarget) close() error {
	req, err := http.NewRequest(http.MethodDelete, t.base+"/v1/sessions/"+t.name, nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
