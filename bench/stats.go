package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of xs (p in (0,1]): the
// ceil(p*n)-th smallest value. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailPercentile is percentile, refused when fewer than minTail samples
// lie beyond it: a p99 of 500 samples is the 5th-largest value, not a
// p99 anyone can reproduce.
func tailPercentile(xs []float64, p float64) (float64, error) {
	beyond := len(xs) - int(math.Ceil(p*float64(len(xs))))
	if beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p*100, minTail, beyond, len(xs))
	}
	return percentile(xs, p), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads read the same here and in any Python check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
