package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it. It
// returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile in a
// sorted slice of n samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tail is a fixed-percentile tail of a latency sample: the value, the
// sample count, and how many samples lie strictly beyond the percentile's
// rank.
type tail struct {
	P      float64
	Value  float64
	N      int
	Beyond int
}

// tailOf computes the p-th percentile tail of xs.
func tailOf(xs []float64, p float64) tail {
	t := tail{P: p, Value: percentile(xs, p), N: len(xs)}
	if len(xs) > 0 {
		t.Beyond = len(xs) - 1 - rankIndex(len(xs), p)
	}
	return t
}

// String renders the tail's provenance, e.g. "p95 of 240, 12 beyond".
func (t tail) String() string {
	return fmt.Sprintf("p%g of %d, %d beyond", t.P, t.N, t.Beyond)
}

// median is the 50th percentile by linear interpolation between the two
// middle samples for even counts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the repository's steadiness check is stated in. It needs at least
// two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rmse is the root-mean-square difference of two equal-length vectors.
func rmse(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a)))
}
