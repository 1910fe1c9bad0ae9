// Command perfbench is the repository's benchmark. It drives the dynshap
// library through its public entry points on three workloads — sampled
// Delta-batch churn, stored-permutation Pivot-s-batch churn, and exact
// soft k-NN serving through the HTTP handler — checks every output it can
// verify, and prints the end-to-end metrics by name with their units.
// With --trace 1 it also runs a traced pass and a shadow replay of the
// recorded windows against each layer's public functions, and prints the
// per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Run it from the repository root through run.sh, which
// builds it from source:
//
//	bash perfbench/run.sh --workload knn-delta-churn --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named figure a run reports.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// Note records where the figure came from (sample count, tail rank).
	Note string
}

// check is one correctness verdict.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// report is what one workload measurement returns.
type report struct {
	E2E       []metric
	Layers    []metric
	Checks    []check
	Attempted int
	Failed    int
	// Traced holds a traced run's end-to-end figures, printed beside the
	// untraced ones in E2E.
	Traced []metric
	// Notes are extra human-readable lines (per-round spread, sizes).
	Notes []string
}

func (r *report) add(name, unit string, v float64, note string) {
	r.E2E = append(r.E2E, metric{Name: name, Unit: unit, Value: v, Note: note})
}

func (r *report) layer(name string, v float64, note string) {
	r.Layers = append(r.Layers, metric{Name: name, Unit: layerUnit(name), Value: v, Note: note})
}

func (r *report) check(name string, err error) {
	c := check{Name: name, OK: err == nil, Detail: "ok"}
	if err != nil {
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.E2E {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// gatedE2E are the end-to-end metrics every workload reports, in
// BENCHMARK.json order; they form the result line of an untraced run.
// Workload-specific end-to-end metrics are printed above that line.
var gatedE2E = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"add_p50_ms", "ms"},
	{"add_tail_ms", "ms"},
	{"del_p50_ms", "ms"},
	{"del_tail_ms", "ms"},
	{"update_pts_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// layerMetrics are the per-layer metrics of a traced run, in
// BENCHMARK.json order. A layer that does no work on a workload reports 0
// there and is printed as absent.
var layerMetrics = []struct{ Name, Unit string }{
	{"core.init_ms", "ms"},
	{"core.add_walk_ms", "ms"},
	{"core.del_walk_ms", "ms"},
	{"core.perms_per_window", "count"},
	{"utility.prefix_adds_per_window", "count"},
	{"utility.trainings_per_window", "count"},
	{"utility.prefix_add_ns", "ns"},
	{"utility.derive_ms", "ms"},
	{"utility.kernel_mb", "MB"},
	{"exact.build_ms", "ms"},
	{"exact.clone_ms", "ms"},
	{"exact.add_ms", "ms"},
	{"exact.delete_ms", "ms"},
	{"exact.values_ms", "ms"},
	{"exact.mb", "MB"},
	{"session.algo_ms", "ms"},
	{"session.self_ms", "ms"},
	{"session.values_us", "us"},
	{"session.topk_us", "us"},
	{"session.resume_ms", "ms"},
	{"session.replay_ms", "ms"},
	{"plan.decide_us", "us"},
	{"plan.windows.delta_batch", "count"},
	{"plan.windows.pivot_batch", "count"},
	{"plan.windows.exact", "count"},
	{"coalesce.window_points", "count"},
	{"coalesce.overhead_us", "us"},
	{"journal.encode_us", "us"},
	{"journal.record_bytes", "bytes"},
	{"journal.tail_mb", "MB"},
	{"journal.snapshot_mb", "MB"},
	{"serve.values_self_us", "us"},
	{"serve.topk_self_us", "us"},
	{"serve.write_self_ms", "ms"},
}

func layerUnit(name string) string {
	for _, m := range layerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    uint64
	seconds float64
	scratch string // directory for data dirs and snapshot files
}

// workload is one benchmark workload: a measurement that reports
// end-to-end metrics, and (traced) the same plus per-layer metrics.
type workload struct {
	name string
	why  string
	run  func(o options, tr *tracer) (*report, error)
}

func workloads() []workload {
	return []workload{
		{
			name: knnDelta.name,
			why:  "sampled Delta-batch walks: 16-point add and delete windows priced by internal/core over internal/utility prefix evaluation",
			run:  func(o options, tr *tracer) (*report, error) { return runKNN(knnDelta, defaultKNNSize(knnDelta), o, tr) },
		},
		{
			name: knnPivot.name,
			why:  "the same traffic on stored permutations (Pivot-s-batch): the same layers used the other way round",
			run:  func(o options, tr *tracer) (*report, error) { return runKNN(knnPivot, defaultKNNSize(knnPivot), o, tr) },
		},
		{
			name: serveName,
			why:  "exact soft k-NN values served over the HTTP handler: internal/exact, copy-on-write, JSON, journal tail and crash restart",
			run:  func(o options, tr *tracer) (*report, error) { return runServe(defaultServeSize(), o, tr) },
		},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measured time per workload; whole rounds run until it is spent")
	trace := fs.Int("trace", 0, "1: also run a traced pass and print per-layer metrics")
	spreadFile := fs.String("spread", "", "print each metric's median and quartile spread over the result lines in this file, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spreadFile != "" {
		return printSpread(*spreadFile, out)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var todo []workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		names := []string{"all"}
		for _, w := range workloads() {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown --workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	scratch := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o := options{seed: *seed, seconds: *seconds, scratch: dir}

	fmt.Fprintf(out, "# perfbench seed=%d seconds=%g trace=%d GOMAXPROCS=%d nproc=%d %s/%s %s\n",
		o.seed, o.seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
	result := resultLine{Correct: true, Metrics: map[string]resultMetric{}}
	for _, w := range todo {
		fmt.Fprintf(out, "\n== %s: %s\n", w.name, w.why)
		rep, err := measure(w, o, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(out, rep)
		prefix := ""
		if len(todo) > 1 {
			prefix = w.name + "/"
		}
		result.merge(rep, prefix, *trace == 1)
	}
	b, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	return nil
}

// measure runs one workload untraced and, for a traced run, once more with
// spans on and the shadow replay; the traced report prints both runs'
// end-to-end figures side by side, so their difference is the tracing
// overhead.
func measure(w workload, o options, traced bool) (*report, error) {
	plain, err := w.run(o, nil)
	if err != nil || !traced {
		return plain, err
	}
	tr := newTracer()
	rep, err := w.run(o, tr)
	if err != nil {
		return nil, err
	}
	rep.Traced, rep.E2E = rep.E2E, plain.E2E
	for i, n := range plain.Notes {
		plain.Notes[i] = "untraced: " + n
	}
	rep.Notes = append(plain.Notes, rep.Notes...)
	for _, c := range plain.Checks {
		rep.Checks = append(rep.Checks, check{Name: "untraced " + c.Name, OK: c.OK, Detail: c.Detail})
	}
	rep.Attempted += plain.Attempted
	rep.Failed += plain.Failed
	spansPath := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := tr.write(spansPath, w.name, o.seed); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans written to %s", tr.len(), spansPath))
	return rep, nil
}

// resultLine is the run's final output line.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// merge folds one workload's report into the result line: the gated
// end-to-end metrics for an untraced run, every per-layer metric for a
// traced one. A metric that could not be measured fails the run.
func (res *resultLine) merge(rep *report, prefix string, traced bool) {
	res.Correct = res.Correct && rep.correct()
	res.Attempted += rep.Attempted
	res.Failed += rep.Failed
	want, have := gatedE2E, rep.E2E
	if traced {
		want, have = layerMetrics, rep.Layers
	}
	for _, w := range want {
		v, ok := 0.0, false
		for _, m := range have {
			if m.Name == w.Name {
				v, ok = m.Value, true
			}
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[prefix+w.Name] = resultMetric{Value: v, Unit: w.Unit}
	}
}

func printReport(out io.Writer, rep *report) {
	for _, n := range rep.Notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	fmt.Fprintln(out, "end-to-end:")
	for _, m := range rep.E2E {
		fmt.Fprintf(out, "  %-20s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	if len(rep.Traced) > 0 {
		fmt.Fprintln(out, "tracing overhead (same seed; traced − untraced):")
		for _, t := range rep.Traced {
			u, _ := rep.get(t.Name)
			fmt.Fprintf(out, "  %-20s untraced %12.6g  traced %12.6g %-6s %+7.2f%%\n",
				t.Name, u.Value, t.Value, t.Unit, 100*(t.Value-u.Value)/u.Value)
		}
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintln(out, "per-layer:")
		for _, m := range rep.Layers {
			if m.Value == 0 && m.Note == "" {
				fmt.Fprintf(out, "  %-32s %14s %-6s (no work on this workload; reported as 0)\n", m.Name, "absent", m.Unit)
				continue
			}
			fmt.Fprintf(out, "  %-32s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
	for _, c := range rep.Checks {
		verdict := "PASS"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(out, "check %-22s %s %s\n", c.Name, verdict, c.Detail)
	}
}

// printSpread reads result lines (one JSON object per line, as the last
// line of each run prints) and reports, per metric, the median and the
// interquartile range as a share of the median.
func printSpread(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	vals := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r resultLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		q1, q2, q3 := quartiles(vals[k])
		fmt.Fprintf(out, "%-40s n=%-3d median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%.4f\n",
			k, len(vals[k]), q2, q1, q3, (q3-q1)/q2)
	}
	return nil
}

// elapsedSince is the seconds elapsed since t.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }

// liveHeapMB collects garbage and returns the live heap in MB (10^6
// bytes). Rounds report the growth over the heap they started with, so
// what earlier rounds left behind does not count.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// rounds runs one warm-up round, whose timings are discarded, then
// measured rounds until the measured time is spent and at least min have
// run. Every round is the same fixed sequence of operations.
func rounds(o options, min int, round func(measured bool) error) (int, error) {
	if err := round(false); err != nil {
		return 0, err
	}
	start := time.Now()
	n := 0
	for n < min || elapsedSince(start) < o.seconds {
		if err := round(true); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
