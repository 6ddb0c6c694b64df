package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileIsNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.50, 50},
		{100, 0.99, 99},
		{10, 0.99, 10}, // ceil(9.9) = 10th value, not the 9th a truncating index reads
		{10, 0.50, 5},
		{1, 0.99, 1},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("p%g of 1..%d = %g, want %g", c.p*100, c.n, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestP99NeedsTenSamplesBeyondIt(t *testing.T) {
	if _, err := tailPercentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	got, err := tailPercentile(seq(1000), 0.99)
	if err != nil || got != 990 {
		t.Errorf("p99 of 1000 samples = %g, %v; want 990", got, err)
	}
}

// The quartiles match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 3, 3}, 3, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
