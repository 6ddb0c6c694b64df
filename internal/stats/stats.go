// Package stats provides the small statistical estimators the system
// needs online (EWMA, running mean/variance) and offline (histograms,
// confidence intervals for replicated simulation runs), plus the JSON
// helpers shared by the serving layer.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// EWMA is an exponentially weighted moving average. The paper uses EWMAs
// with "a small weight assigned to the new sample" to learn the mean
// contact length and the mean per-contact upload (§VI.B, §VI.C).
//
// The zero value is unseeded; the first observation initializes the
// average directly, which matches how a sensor node bootstraps from its
// first probed contact.
type EWMA struct {
	alpha  float64
	value  float64
	seeded bool
	count  int
}

// NewEWMA returns an EWMA with the given weight for new samples. The
// weight is clamped into (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 {
		alpha = 0.01
	}
	if alpha > 1 {
		alpha = 1
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a new sample into the average.
func (e *EWMA) Observe(v float64) {
	e.count++
	if !e.seeded {
		e.value = v
		e.seeded = true
		return
	}
	e.value += e.alpha * (v - e.value)
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() float64 { return e.value }

// Seeded reports whether at least one sample has been observed.
func (e *EWMA) Seeded() bool { return e.seeded }

// Count returns the number of samples observed.
func (e *EWMA) Count() int { return e.count }

// Reset discards all state.
func (e *EWMA) Reset() {
	e.value = 0
	e.seeded = false
	e.count = 0
}

// EWMAState is the serializable state of an EWMA: everything except the
// weight, which the owning estimator fixes at construction.
type EWMAState struct {
	Value  float64
	Count  int
	Seeded bool
}

// State exports the EWMA's current state.
func (e *EWMA) State() EWMAState {
	return EWMAState{Value: e.value, Count: e.count, Seeded: e.seeded}
}

// SetState replaces the EWMA's state, keeping its weight. It returns an
// error for inconsistent states (a seeded average with no samples, or a
// negative sample count).
func (e *EWMA) SetState(s EWMAState) error {
	if s.Count < 0 {
		return fmt.Errorf("stats: EWMA state has negative count %d", s.Count)
	}
	if s.Seeded && s.Count == 0 {
		return fmt.Errorf("stats: EWMA state seeded with zero samples")
	}
	e.value = s.Value
	e.count = s.Count
	e.seeded = s.Seeded
	return nil
}

// JSONFloat is a float64 whose JSON form is null when the value is not
// finite. encoding/json refuses to marshal NaN and ±Inf, which would
// turn a legitimate sentinel — Rho is +Inf when nothing is probed — into
// a serving-layer error; JSONFloat marshals those as null instead.
// Unmarshaling null yields +Inf, the convention of the cost ratios this
// helper exists for.
type JSONFloat float64

// MarshalJSON encodes finite values as numbers and non-finite ones as
// null.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON decodes numbers directly and null as +Inf.
func (f *JSONFloat) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = JSONFloat(math.Inf(1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("stats: JSONFloat: %w", err)
	}
	*f = JSONFloat(v)
	return nil
}

// Welford accumulates a running mean and variance using Welford's
// numerically stable recurrence.
//
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Observe folds a new sample in.
func (w *Welford) Observe(v float64) {
	w.n++
	delta := v - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (v - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns the half-width of an approximate 95% confidence interval
// for the mean (normal approximation; adequate for the >=10 replications
// the harness uses).
func (w *Welford) CI95() float64 { return 1.96 * w.StdErr() }

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Values outside
// the range are counted in the under/overflow bins.
type Histogram struct {
	lo, hi    float64
	binWidth  float64
	bins      []int
	underflow int
	overflow  int
	count     int
	sum       float64
}

// NewHistogram returns a histogram over [lo, hi) with n bins. It returns
// an error for invalid geometry.
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: histogram needs positive bin count, got %d", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: histogram needs lo < hi, got [%g, %g)", lo, hi)
	}
	return &Histogram{
		lo:       lo,
		hi:       hi,
		binWidth: (hi - lo) / float64(n),
		bins:     make([]int, n),
	}, nil
}

// Observe adds a value.
func (h *Histogram) Observe(v float64) {
	h.count++
	h.sum += v
	switch {
	case v < h.lo:
		h.underflow++
	case v >= h.hi:
		h.overflow++
	default:
		i := int((v - h.lo) / h.binWidth)
		if i >= len(h.bins) { // float edge
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int { return h.count }

// Mean returns the mean of all observations (including out-of-range).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) int { return h.bins[i] }

// NumBins returns the number of in-range bins.
func (h *Histogram) NumBins() int { return len(h.bins) }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.lo + (float64(i)+0.5)*h.binWidth
}

// OutOfRange returns the underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over int) { return h.underflow, h.overflow }

// Fractions returns each bin's share of the total count. It returns nil
// when nothing has been observed.
func (h *Histogram) Fractions() []float64 {
	if h.count == 0 {
		return nil
	}
	out := make([]float64, len(h.bins))
	for i, b := range h.bins {
		out[i] = float64(b) / float64(h.count)
	}
	return out
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted-copy semantics
// over the given sample. It returns 0 for an empty sample.
func Quantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// Mean returns the arithmetic mean of the sample, or 0 when empty.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

// Sum returns the sum of the sample.
func Sum(sample []float64) float64 {
	sum := 0.0
	for _, v := range sample {
		sum += v
	}
	return sum
}
