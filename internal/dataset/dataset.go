// Package dataset provides the tabular-data substrate for data valuation:
// in-memory datasets of labelled feature vectors, CSV input/output,
// standardisation, train/test splitting, distance metrics, and synthetic
// generators that stand in for the UCI Iris and Adult datasets used by the
// paper (the module is offline; see DESIGN.md §4 for the substitution
// rationale).
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"dynshap/internal/rng"
)

// Point is one labelled observation.
type Point struct {
	X []float64 // feature vector
	Y int       // class label, 0-based
}

// Clone returns a deep copy of the point.
func (p Point) Clone() Point {
	return Point{X: append([]float64(nil), p.X...), Y: p.Y}
}

// Dataset is an ordered collection of points sharing a feature schema.
type Dataset struct {
	Points  []Point
	Classes int // number of distinct labels (labels are 0..Classes-1)
}

// New returns a dataset over the given points. Classes is inferred as
// max(label)+1.
func New(points []Point) *Dataset {
	classes := 0
	for _, p := range points {
		if p.Y+1 > classes {
			classes = p.Y + 1
		}
	}
	return &Dataset{Points: points, Classes: classes}
}

// Len returns the number of points.
func (d *Dataset) Len() int { return len(d.Points) }

// Dim returns the feature dimensionality (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.Points) == 0 {
		return 0
	}
	return len(d.Points[0].X)
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	pts := make([]Point, len(d.Points))
	for i, p := range d.Points {
		pts[i] = p.Clone()
	}
	return &Dataset{Points: pts, Classes: d.Classes}
}

// Subset returns a new dataset holding clones of the points at the given
// indices, in the given order.
func (d *Dataset) Subset(indices []int) *Dataset {
	pts := make([]Point, len(indices))
	for k, i := range indices {
		pts[k] = d.Points[i].Clone()
	}
	return &Dataset{Points: pts, Classes: d.Classes}
}

// Append returns a new dataset with the given points appended. The
// receiver is not modified. The surviving points' feature vectors are
// SHARED with the receiver — derived datasets follow the library's
// immutable-state discipline (no code path mutates a published point's X
// in place; Shuffle only swaps whole Point structs and Standardize is
// called on freshly generated data before any derivation), so deep-
// cloning n vectors for an O(k)-sized update would be pure allocation
// overhead on the hottest write path. The appended points themselves ARE
// cloned: the caller may own and reuse their storage. Callers that
// intend to mutate features must Clone first.
func (d *Dataset) Append(points ...Point) *Dataset {
	pts := make([]Point, len(d.Points), len(d.Points)+len(points))
	copy(pts, d.Points)
	nd := &Dataset{Points: pts, Classes: d.Classes}
	for _, p := range points {
		nd.Points = append(nd.Points, p.Clone())
		if p.Y+1 > nd.Classes {
			nd.Classes = p.Y + 1
		}
	}
	return nd
}

// Remove returns a new dataset without the points at the given indices.
// Like Append, the survivors' feature vectors are shared with the
// receiver, not cloned.
func (d *Dataset) Remove(indices ...int) *Dataset {
	gone := make(map[int]bool, len(indices))
	for _, i := range indices {
		gone[i] = true
	}
	pts := make([]Point, 0, len(d.Points)-len(gone))
	for i, p := range d.Points {
		if !gone[i] {
			pts = append(pts, p)
		}
	}
	return &Dataset{Points: pts, Classes: d.Classes}
}

// Shuffle permutes the points in place using r.
func (d *Dataset) Shuffle(r *rng.Source) {
	r.Shuffle(len(d.Points), func(i, j int) {
		d.Points[i], d.Points[j] = d.Points[j], d.Points[i]
	})
}

// Split partitions the dataset into a training set of trainFrac·Len()
// points and a test set of the remainder, preserving order. Use Shuffle
// first for a random split.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	if trainFrac < 0 || trainFrac > 1 {
		panic("dataset: Split fraction out of [0,1]")
	}
	cut := int(math.Round(trainFrac * float64(len(d.Points))))
	trainIdx := make([]int, cut)
	testIdx := make([]int, len(d.Points)-cut)
	for i := range trainIdx {
		trainIdx[i] = i
	}
	for i := range testIdx {
		testIdx[i] = cut + i
	}
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// Standardize rescales every feature to zero mean and unit variance in
// place, returning the per-feature means and standard deviations so the same
// affine map can be applied to future points (ApplyStandardize).
// Zero-variance features are left centred with scale 1.
func (d *Dataset) Standardize() (means, stds []float64) {
	dim := d.Dim()
	means = make([]float64, dim)
	stds = make([]float64, dim)
	n := float64(len(d.Points))
	if n == 0 {
		for j := range stds {
			stds[j] = 1
		}
		return means, stds
	}
	for _, p := range d.Points {
		for j, x := range p.X {
			means[j] += x
		}
	}
	for j := range means {
		means[j] /= n
	}
	for _, p := range d.Points {
		for j, x := range p.X {
			dx := x - means[j]
			stds[j] += dx * dx
		}
	}
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] / n)
		if stds[j] == 0 {
			stds[j] = 1
		}
	}
	for i := range d.Points {
		ApplyStandardize(d.Points[i].X, means, stds)
	}
	return means, stds
}

// ApplyStandardize rescales x in place with the given means and stds.
func ApplyStandardize(x, means, stds []float64) {
	for j := range x {
		x[j] = (x[j] - means[j]) / stds[j]
	}
}

// Euclidean returns the Euclidean distance between feature vectors a and b.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("dataset: Euclidean dimension mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Nearest returns the indices of the k points in d whose feature vectors are
// closest to x in Euclidean distance, in increasing distance order.
// If k exceeds the dataset size, all indices are returned.
func (d *Dataset) Nearest(x []float64, k int) []int {
	var s NearestScratch
	got := d.NearestWith(&s, x, k)
	if got == nil {
		return nil
	}
	return append([]int(nil), got...)
}

// NearestScratch holds the candidate window NearestWith selects into, so
// repeated queries reuse one allocation. A scratch belongs to one caller
// at a time; its zero value is ready to use.
type NearestScratch struct {
	dists []float64
	idxs  []int
}

// NearestWith is Nearest with a caller-owned scratch window. The returned
// slice aliases the scratch and is valid only until the next call with the
// same scratch; callers that keep the result must copy it (Nearest does).
// Selection is identical to Nearest: a sorted k-window where only a
// strictly smaller distance displaces the current worst, so among equal
// distances the earlier-scanned (smaller) index wins.
func (d *Dataset) NearestWith(s *NearestScratch, x []float64, k int) []int {
	if k > len(d.Points) {
		k = len(d.Points)
	}
	if k <= 0 {
		return nil
	}
	// Simple selection keeping a sorted window of size k; datasets in this
	// library are small enough that a k-window scan beats heap overhead.
	if cap(s.dists) < k {
		s.dists = make([]float64, k)
		s.idxs = make([]int, k)
	}
	dists, idxs := s.dists[:k], s.idxs[:k]
	size := 0
	for i, p := range d.Points {
		dist := Euclidean(x, p.X)
		if size == k && dist >= dists[size-1] {
			continue
		}
		pos := size
		if size < k {
			size++
		} else {
			pos = k - 1
		}
		for pos > 0 && dists[pos-1] > dist {
			dists[pos] = dists[pos-1]
			idxs[pos] = idxs[pos-1]
			pos--
		}
		dists[pos] = dist
		idxs[pos] = i
	}
	return idxs[:size]
}

// ErrBadCSV reports a malformed CSV row.
var ErrBadCSV = errors.New("dataset: malformed CSV")

// ReadCSV parses a headerless CSV stream where every row is
// feature_1, …, feature_d, label (label integral). It allows dropping in the
// real UCI files in place of the synthetic generators.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var pts []Point
	dim := -1
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV line %d: %w", line, err)
		}
		if len(rec) < 2 {
			return nil, fmt.Errorf("%w: line %d has %d fields, need ≥2", ErrBadCSV, line, len(rec))
		}
		if dim == -1 {
			dim = len(rec) - 1
		} else if len(rec)-1 != dim {
			return nil, fmt.Errorf("%w: line %d has %d features, want %d", ErrBadCSV, line, len(rec)-1, dim)
		}
		x := make([]float64, dim)
		for j := 0; j < dim; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d field %d: %v", ErrBadCSV, line, j+1, err)
			}
			x[j] = v
		}
		y, err := strconv.Atoi(rec[dim])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d label: %v", ErrBadCSV, line, err)
		}
		if y < 0 {
			return nil, fmt.Errorf("%w: line %d negative label %d", ErrBadCSV, line, y)
		}
		pts = append(pts, Point{X: x, Y: y})
	}
	return New(pts), nil
}

// LoadCSV reads a dataset from the file at path (see ReadCSV).
func LoadCSV(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ReadCSV(f)
}

// WriteCSV writes the dataset in the format ReadCSV accepts.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rec := make([]string, d.Dim()+1)
	for _, p := range d.Points {
		for j, x := range p.X {
			rec[j] = strconv.FormatFloat(x, 'g', -1, 64)
		}
		rec[d.Dim()] = strconv.Itoa(p.Y)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing CSV: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the dataset to the file at path (see WriteCSV).
func (d *Dataset) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
