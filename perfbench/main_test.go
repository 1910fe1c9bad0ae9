package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"dynshap"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: helpers must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(10), 50, 5},
		{seq(10), 90, 9},
		{seq(10), 91, 10},
		{seq(10), 100, 10},
		{seq(10), 1, 1},
		{seq(100), 99, 99},
		{[]float64{7}, 50, 7},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %g) = %g, want %g", len(c.xs), c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailCountsSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{100, 95, 95, 5},
		{100, 90, 90, 10},
		{1200, 99, 1188, 12},
		{21781, 99.9, 21760, 21},
		{1, 99, 1, 0},
	} {
		got := tailOf(seq(c.n), c.p)
		if got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("tailOf(%d, p%g) = %+v, want value %g with %d beyond", c.n, c.p, got, c.value, c.beyond)
		}
	}
	if s := tailOf(seq(100), 95).String(); s != "p95 of 100, 5 beyond" {
		t.Errorf("tail string %q", s)
	}
}

// TestQuartilesMatchPython pins the quartile helper to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.7, 1.05, 0.95, 1.2, 0.8, 1.15}, [3]float64{0.875, 1.025, 1.1625}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{0.9, 1.1, 1.0, 1.3, 0.7, 1.05, 0.95, 1.2, 0.8, 1.15}); math.Abs(got-(1.1625-0.875)/1.025) > 1e-12 {
		t.Errorf("spread = %g", got)
	}
}

func TestMedianInterpolatesEvenCounts(t *testing.T) {
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median(1..4) = %g, want 2.5", got)
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median(1..5) = %g, want 3", got)
	}
}

func window(version int, op, algo string, k int) dynshap.UpdateRecord {
	u := dynshap.UpdateRecord{Version: version, Op: op, Algo: algo}
	for i := 0; i < k; i++ {
		if op == "add" {
			u.Points = append(u.Points, dynshap.Point{X: []float64{float64(i)}})
		} else {
			u.Indices = append(u.Indices, i)
		}
	}
	return u
}

func TestWindowShape(t *testing.T) {
	const algo = "Delta-batch"
	good := []dynshap.UpdateRecord{
		{Version: 1, Op: "init", Algo: "MC"},
		window(2, "add", algo, 16),
		window(3, "delete", algo, 16),
	}
	if err := windowShape(good, 16, algo, 2); err != nil {
		t.Fatalf("well-formed journal rejected: %v", err)
	}
	for name, c := range map[string]struct {
		hist []dynshap.UpdateRecord
		want string
	}{
		"split window": {append(good[:2:2], window(3, "delete", algo, 9), window(4, "delete", algo, 7)), "delete window of 9 points"},
		"wrong family": {append(good[:2:2], window(3, "delete", "MC", 16)), "routed to MC"},
		"missing":      {good[:2], "1 write windows journaled, want 2"},
		"unknown op":   {append(good[:2:2], dynshap.UpdateRecord{Version: 3, Op: "refresh"}), `unexpected "refresh"`},
	} {
		err := windowShape(c.hist, 16, algo, 2)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(cfg.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(cfg.Workloads), len(ws))
	}
	for i, w := range ws {
		if cfg.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, cfg.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []named, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, gatedE2E)
	check("per_layer", cfg.PerLayer, layerMetrics)
}

func TestResultLineFailsOnMissingMetric(t *testing.T) {
	rep := &report{Attempted: 3}
	rep.add("setup_s", "s", 1.5, "")
	var res resultLine
	res.Correct, res.Metrics = true, map[string]resultMetric{}
	res.merge(rep, "", false)
	if res.Correct {
		t.Error("a run missing gated metrics must not be correct")
	}
	if res.Metrics["setup_s"].Value != 1.5 || len(res.Metrics) != len(gatedE2E) {
		t.Errorf("metrics %v", res.Metrics)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "all", "--trace", "2"},
		{"--workload", "all", "--seconds", "0"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// smoke runs a workload traced at a tiny size and requires every check to
// pass and every per-layer metric to be reported.
func smoke(t *testing.T, run func(o options, tr *tracer) (*report, error)) *report {
	t.Helper()
	o := options{seed: 3, seconds: 1e-3, scratch: t.TempDir()}
	rep, err := run(o, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
	}
	res := resultLine{Correct: true, Metrics: map[string]resultMetric{}}
	res.merge(rep, "", false)
	if !res.Correct {
		t.Errorf("untraced result line incomplete: %v", res.Metrics)
	}
	got := map[string]bool{}
	for _, m := range rep.Layers {
		got[m.Name] = true
	}
	for _, m := range layerMetrics {
		if !got[m.Name] {
			t.Errorf("per-layer metric %s not reported", m.Name)
		}
	}
	return rep
}

func layerValue(rep *report, name string) float64 {
	for _, m := range rep.Layers {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

func tinyKNN() knnSize {
	return knnSize{n: 40, m: 10, burst: 4, pairs: 2, setups: 1, minRounds: 1, refTau: 400}
}

func TestSmokeKNNDelta(t *testing.T) {
	rep := smoke(t, func(o options, tr *tracer) (*report, error) { return runKNN(knnDelta, tinyKNN(), o, tr) })
	if got := layerValue(rep, "plan.windows.delta_batch"); got != 4 {
		t.Errorf("delta-batch windows = %g, want 4", got)
	}
	if got := layerValue(rep, "exact.build_ms"); got != 0 {
		t.Errorf("exact layer did work on a knn workload: %g", got)
	}
}

func TestSmokeKNNPivot(t *testing.T) {
	rep := smoke(t, func(o options, tr *tracer) (*report, error) { return runKNN(knnPivot, tinyKNN(), o, tr) })
	if got := layerValue(rep, "plan.windows.pivot_batch"); got != 4 {
		t.Errorf("pivot-batch windows = %g, want 4", got)
	}
}

func TestSmokeServe(t *testing.T) {
	sz := serveSize{n: 60, m: 20, writes: 6, setups: 1, minRounds: 1}
	rep := smoke(t, func(o options, tr *tracer) (*report, error) { return runServe(sz, o, tr) })
	if got := layerValue(rep, "core.perms_per_window"); got != 0 {
		t.Errorf("core.perms_per_window = %g on the exact path, want 0", got)
	}
	if got := layerValue(rep, "plan.windows.exact"); got != 6 {
		t.Errorf("exact windows = %g, want 6", got)
	}
}
