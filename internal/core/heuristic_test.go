package core

import (
	"math"
	"testing"

	"dynshap/internal/bitset"
	"dynshap/internal/dataset"
	"dynshap/internal/rng"
)

func heuristicFixture() (*dataset.Dataset, []float64) {
	// Two tight clusters; SVs chosen so cluster membership is visible.
	pts := []dataset.Point{
		{X: []float64{0, 0}, Y: 0},
		{X: []float64{0.1, 0}, Y: 0},
		{X: []float64{0, 0.1}, Y: 0},
		{X: []float64{5, 5}, Y: 1},
		{X: []float64{5.1, 5}, Y: 1},
		{X: []float64{5, 5.1}, Y: 1},
	}
	sv := []float64{0.10, 0.12, 0.11, 0.30, 0.28, 0.32}
	return dataset.New(pts), sv
}

func TestKNNAddAssignsNeighborhoodMean(t *testing.T) {
	train, sv := heuristicFixture()
	added := []dataset.Point{{X: []float64{0.05, 0.05}, Y: 0}}
	got, err := KNNAdd(sv, train, added, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("len = %d", len(got))
	}
	// Original values unchanged.
	for i := 0; i < 6; i++ {
		if got[i] != sv[i] {
			t.Fatalf("original SV %d changed", i)
		}
	}
	want := (0.10 + 0.12 + 0.11) / 3
	if math.Abs(got[6]-want) > 1e-12 {
		t.Fatalf("new SV = %v, want %v (mean of cluster 0)", got[6], want)
	}
}

func TestKNNAddMultiplePoints(t *testing.T) {
	train, sv := heuristicFixture()
	added := []dataset.Point{
		{X: []float64{0, 0}, Y: 0},
		{X: []float64{5, 5}, Y: 1},
	}
	got, err := KNNAdd(sv, train, added, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[6] >= got[7] {
		t.Fatalf("cluster-0 addition (%v) should be valued below cluster-1 addition (%v)", got[6], got[7])
	}
}

func TestKNNAddValidation(t *testing.T) {
	train, sv := heuristicFixture()
	if _, err := KNNAdd(sv[:3], train, nil, 3); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := KNNAdd(nil, dataset.New(nil), nil, 3); err == nil {
		t.Fatal("empty original should fail")
	}
}

func TestKNNDeletePreservesTotal(t *testing.T) {
	train, sv := heuristicFixture()
	got, err := KNNDelete(sv, train, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("deleted entry = %v", got[0])
	}
	var before, after float64
	for _, v := range sv {
		before += v
	}
	for _, v := range got {
		after += v
	}
	if math.Abs(before-after) > 1e-12 {
		t.Fatalf("total changed: %v → %v", before, after)
	}
	// The redistribution must land on the deleted point's own cluster.
	if got[1] <= sv[1] || got[2] <= sv[2] {
		t.Fatal("neighbours did not inherit the deleted value")
	}
	if got[3] != sv[3] {
		t.Fatal("far points should be untouched")
	}
}

func TestKNNDeleteSkipsOtherDeleted(t *testing.T) {
	train, sv := heuristicFixture()
	got, err := KNNDelete(sv, train, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 {
		t.Fatal("deleted entries nonzero")
	}
	// Point 2 is the only survivor in cluster 0; with k=2 the shares spill
	// into cluster 1, but nothing may flow into deleted points.
	var total float64
	for _, v := range got {
		total += v
	}
	var before float64
	for _, v := range sv {
		before += v
	}
	if math.Abs(total-before) > 1e-12 {
		t.Fatal("total not preserved with multiple deletions")
	}
}

func TestKNNDeleteAllPoints(t *testing.T) {
	train, sv := heuristicFixture()
	got, err := KNNDelete(sv, train, []int{0, 1, 2, 3, 4, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("entry %d = %v after deleting everything", i, v)
		}
	}
}

func TestKNNDeleteValidation(t *testing.T) {
	train, sv := heuristicFixture()
	if _, err := KNNDelete(sv, train, []int{9}, 2); err == nil {
		t.Fatal("out-of-range deletion should fail")
	}
	if _, err := KNNDelete(sv[:2], train, []int{0}, 2); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

// distGame is a game over clustered points where a probe point's presence
// shifts every other player's value by a linear function of distance —
// exactly the structure KNN+ fits.
type distGame struct {
	train *dataset.Dataset
}

func (g distGame) N() int { return g.train.Len() }

func (g distGame) Value(s bitset.Set) float64 {
	// Utility: Σ_{i∈S} base(i) − 0.02·Σ_{i<j∈S} max(0, 1 − dist(i,j)),
	// i.e. nearby points are partially redundant.
	members := s.Indices()
	v := 0.1 * float64(len(members))
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			d := dataset.Euclidean(g.train.Points[members[a]].X, g.train.Points[members[b]].X)
			if d < 1 {
				v -= 0.02 * (1 - d)
			}
		}
	}
	return v
}

func knnPlusFixture() (*dataset.Dataset, distGame) {
	r := rng.New(77)
	pts := make([]dataset.Point, 14)
	for i := range pts {
		pts[i] = dataset.Point{X: []float64{r.Float64() * 2, r.Float64() * 2}, Y: i % 2}
	}
	train := dataset.New(pts)
	return train, distGame{train: train}
}

func TestFitCurvesDetectsRedundancyDecay(t *testing.T) {
	train, g := knnPlusFixture()
	cfg := KNNPlusConfig{CurveSamples: 8, CurveTau: 400, Degree: 2}
	cm, err := FitCurves(g, train, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Labels()) == 0 {
		t.Fatal("no curves fitted")
	}
	// In distGame a probe's presence REDUCES nearby players' values
	// (redundancy), with the effect decaying over distance: the curve at
	// distance 0.1 must be more negative than at distance 0.9.
	for _, l := range cm.Labels() {
		near := cm.Eval(l, 0.1)
		far := cm.Eval(l, 0.9)
		if near >= far {
			t.Fatalf("label %d: near effect %v not below far effect %v", l, near, far)
		}
		if near >= 0 {
			t.Fatalf("label %d: near effect %v should be negative", l, near)
		}
	}
	// Beyond the fitted range the polynomial must not extrapolate.
	if cm.Eval(cm.Labels()[0], 1e6) != 0 {
		t.Fatal("curve extrapolated beyond fitted range")
	}
	if cm.Eval(12345, 0.1) != 0 {
		t.Fatal("unseen label should predict 0")
	}
}

func TestKNNPlusAddImprovesOnKNNForShiftedValues(t *testing.T) {
	// Adding a point near existing ones should reduce their values in
	// distGame. KNN+ predicts that shift; KNN does not.
	train, g := knnPlusFixture()
	oldSV := Exact(g)
	added := []dataset.Point{{X: train.Points[0].X, Y: train.Points[0].Y}}
	cfg := KNNPlusConfig{CurveSamples: 10, CurveTau: 600, Degree: 2, K: 3}
	got, err := KNNPlusAdd(g, train, oldSV, added, nil, cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != train.Len()+1 {
		t.Fatalf("len = %d", len(got))
	}
	// Player 0 sits exactly at the added point: its value must drop.
	if got[0] >= oldSV[0] {
		t.Fatalf("duplicate addition did not reduce player 0's value: %v → %v", oldSV[0], got[0])
	}
}

func TestKNNPlusDeleteShiftsSurvivors(t *testing.T) {
	train, g := knnPlusFixture()
	oldSV := Exact(g)
	cfg := KNNPlusConfig{CurveSamples: 10, CurveTau: 600, Degree: 2, K: 3}
	got, err := KNNPlusDelete(g, train, oldSV, []int{0}, nil, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("deleted entry nonzero")
	}
	// Removing a point relieves redundancy: nearby survivors should gain.
	nearest := train.Nearest(train.Points[0].X, 3)
	gained := false
	for _, nb := range nearest {
		if nb != 0 && got[nb] > oldSV[nb] {
			gained = true
		}
	}
	if !gained {
		t.Fatal("no nearby survivor gained value after deletion")
	}
}

func TestKNNPlusReuseCurves(t *testing.T) {
	train, g := knnPlusFixture()
	oldSV := Exact(g)
	cfg := KNNPlusConfig{CurveSamples: 8, CurveTau: 400, Degree: 2, K: 3}
	cm, err := FitCurves(g, train, cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	added := []dataset.Point{{X: []float64{1, 1}, Y: 0}}
	a, err := KNNPlusAdd(g, train, oldSV, added, cm, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := KNNPlusAdd(g, train, oldSV, added, cm, cfg, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("reused curves should make KNN+ deterministic")
	}
}

func TestFitCurvesValidation(t *testing.T) {
	train, g := knnPlusFixture()
	small := dataset.New(train.Points[:2])
	if _, err := FitCurves(g, small, KNNPlusConfig{}, rng.New(7)); err == nil {
		t.Fatal("mismatched train size should fail")
	}
	if _, err := FitCurves(distGame{train: small}, small, KNNPlusConfig{}, rng.New(7)); err == nil {
		t.Fatal("too few players should fail")
	}
}

func TestKNNPlusValidation(t *testing.T) {
	train, g := knnPlusFixture()
	if _, err := KNNPlusAdd(g, train, make([]float64, 3), nil, nil, KNNPlusConfig{}, rng.New(8)); err == nil {
		t.Fatal("size mismatch should fail")
	}
	if _, err := KNNPlusDelete(g, train, make([]float64, train.Len()), []int{99}, nil, KNNPlusConfig{}, rng.New(8)); err == nil {
		t.Fatal("out-of-range deletion should fail")
	}
}

// Labels returns the labels for which a curve was fitted.
func (cm *CurveModel) Labels() []int {
	out := make([]int, 0, len(cm.coeffs))
	for l := range cm.coeffs {
		out = append(out, l)
	}
	return out
}
