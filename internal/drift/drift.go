// Package drift provides streaming change-point detectors for the
// fleet's per-node observation streams. The paper's rush hours are
// *learned* structure; when a node's mobility pattern shifts, the
// learned plan keeps probing the old rush slots and — because a
// duty-cycled radio only sees what it probes — the EWMAs decay toward
// the new pattern slowly, if at all. A detector watching the per-epoch
// probed contact rate, mean contact length, and rush-mask capacity
// share flags the shift the epoch it becomes statistically visible, so
// the fleet can relearn instead of waiting for decay (RTChoke applies
// the same idea to per-slot rate streams for chokepoint detection).
//
// Two classic sequential detectors are provided behind the Detector
// interface: a two-sided CUSUM and a two-sided Page-Hinkley test. Both
// are self-normalizing — they maintain a running Welford baseline of
// the stream and test the standardized deviation — so one default
// tuning works across streams with very different scales (contact
// counts vs. share fractions). Both are O(1) per sample and serialize
// to a fixed table of named float registers (Registers), which keeps
// them cheap enough to run three per node at fleet scale and lets their
// state ride along in fleet snapshots without a map per detector.
package drift

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Detector kinds accepted by New.
const (
	KindCUSUM       = "cusum"
	KindPageHinkley = "page-hinkley"
)

// DefaultPatience is the package's designed detection budget: at the
// default tuning, a mean step of >= 3 baseline standard deviations is
// detected within DefaultPatience post-change samples. The detector
// tests pin this, and the fleet experiments report detection latency
// against it.
const DefaultPatience = 4

// Config tunes a detector. The zero value of every field selects the
// default; all thresholds are in units of the baseline standard
// deviation, so one Config works across streams of any scale.
type Config struct {
	// Warmup is how many samples the baseline must absorb before the
	// detector may alarm. Default 4; must resolve to at least 2 (a
	// standard deviation needs two samples).
	Warmup int
	// Threshold is the alarm level (the CUSUM decision interval h, the
	// Page-Hinkley lambda). Default 10, which puts the in-control
	// average run length in the tens of thousands of samples while a
	// 3-sigma step still accumulates past it in DefaultPatience samples.
	Threshold float64
	// Slack is the per-sample allowance (the CUSUM reference value k,
	// the Page-Hinkley delta): deviations below Slack sigmas never
	// accumulate. Default 0.5.
	Slack float64
	// MinRelSigma floors the baseline standard deviation at this
	// fraction of max(1, |mean|), so a near-constant stream cannot turn
	// numerical noise into an alarm. Default 0.05.
	MinRelSigma float64
}

// withDefaults resolves zero-value fields and validates the rest.
func (c Config) withDefaults() (Config, error) {
	if c.Warmup == 0 {
		c.Warmup = 4
	}
	if c.Warmup < 2 {
		return c, fmt.Errorf("drift: warmup must be at least 2 samples, got %d", c.Warmup)
	}
	if c.Threshold == 0 {
		c.Threshold = 10
	}
	if !(c.Threshold > 0) || math.IsInf(c.Threshold, 0) {
		return c, fmt.Errorf("drift: threshold must be positive and finite, got %g", c.Threshold)
	}
	if c.Slack == 0 {
		c.Slack = 0.5
	}
	if !(c.Slack > 0) || math.IsInf(c.Slack, 0) {
		return c, fmt.Errorf("drift: slack must be positive and finite, got %g", c.Slack)
	}
	if c.MinRelSigma == 0 {
		c.MinRelSigma = 0.05
	}
	if !(c.MinRelSigma > 0) || math.IsInf(c.MinRelSigma, 0) {
		return c, fmt.Errorf("drift: min relative sigma must be positive and finite, got %g", c.MinRelSigma)
	}
	return c, nil
}

// Detector is a streaming change-point detector. Implementations are
// not safe for concurrent use; the fleet runs one per (node, stream)
// under the node's shard lock.
type Detector interface {
	// Kind returns the canonical detector name.
	Kind() string
	// Observe feeds one sample and reports whether the detector fired
	// on it. A firing detector resets itself (baseline included), so
	// detection restarts cleanly on the post-change regime. Non-finite
	// samples are ignored.
	Observe(x float64) bool
	// Reset discards all state, returning the detector to warmup.
	Reset()
	// Registers exports the detector's state for persistence.
	Registers() Registers
	// RestoreRegisters replaces the detector's state with exported
	// registers. It fails when their kind does not match the
	// detector's, or when the baseline registers are invalid.
	RestoreRegisters(*Registers) error
}

// Registers is a detector's state without maps: its kind plus one value
// per register the kind defines, indexed by the kind's key table. The
// tables are sorted, so table order is also the order registers take
// in a binary snapshot frame.
type Registers struct {
	Kind string
	V    [maxRegisters]float64
}

// maxRegisters is the longest key table.
const maxRegisters = 8

// Register key tables, sorted bytewise, and each kind's slots in them.
var (
	cusumKeys       = []string{"excl", "mean", "n", "neg", "pos", "var"}
	pageHinkleyKeys = []string{"down", "downMax", "excl", "mean", "n", "up", "upMin", "var"}
)

const (
	cusumExcl = iota
	cusumMean
	cusumN
	cusumNeg
	cusumPos
	cusumVar
)

const (
	phDown = iota
	phDownMax
	phExcl
	phMean
	phN
	phUp
	phUpMin
	phVar
)

// registerKeys returns a kind's key table; nil for an unknown kind.
func registerKeys(kind string) []string {
	switch kind {
	case KindCUSUM:
		return cusumKeys
	case KindPageHinkley:
		return pageHinkleyKeys
	}
	return nil
}

// AppendBinary appends the registers in the binary snapshot's layout:
//
//	u8  kind length, kind bytes
//	u16 register count, per register in key-table (sorted) order:
//	  u8 key length, key bytes, f64 value
//
// Registers exported by a detector always have a known kind, so the
// length fields cannot overflow.
func (r *Registers) AppendBinary(dst []byte) []byte {
	keys := registerKeys(r.Kind)
	dst = append(dst, byte(len(r.Kind)))
	dst = append(dst, r.Kind...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(keys)))
	for i, k := range keys {
		dst = append(dst, byte(len(k)))
		dst = append(dst, k...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.V[i]))
	}
	return dst
}

// ShortError reports a register block that ends inside a field: the
// field starts Offset bytes into the block and is Need bytes long.
type ShortError struct {
	Offset, Need int
}

func (e *ShortError) Error() string {
	return fmt.Sprintf("drift: register block truncated at byte %d (need %d more)", e.Offset, e.Need)
}

// DecodeRegisters parses one AppendBinary block from the front of p
// into r and returns its length. Keys must be strictly ascending; keys
// the block's kind does not define are skipped and registers the block
// omits read as zero. A known kind and known keys decode without
// allocating.
func DecodeRegisters(p []byte, r *Registers) (int, error) {
	if len(p) < 1 {
		return 0, &ShortError{Offset: 0, Need: 1}
	}
	off := 1
	if n := int(p[0]); len(p)-off < n {
		return off, &ShortError{Offset: off, Need: n}
	}
	*r = Registers{Kind: kindName(p[off : off+int(p[0])])}
	off += int(p[0])
	if len(p)-off < 2 {
		return off, &ShortError{Offset: off, Need: 2}
	}
	count := int(binary.LittleEndian.Uint16(p[off:]))
	off += 2
	keys := registerKeys(r.Kind)
	// Keys and table are both sorted, so one merge pass places every
	// key. prevAt is the table slot of the previous key when it was a
	// known one: a key matching the next slot is then ascending by the
	// table's own order, the common case that needs no comparison.
	next, prevAt := 0, -1
	var prev []byte
	for i := 0; i < count; i++ {
		if len(p)-off < 1 {
			return off, &ShortError{Offset: off, Need: 1}
		}
		n := int(p[off])
		off++
		if len(p)-off < n {
			return off, &ShortError{Offset: off, Need: n}
		}
		key := p[off : off+n]
		off += n
		if len(p)-off < 8 {
			return off, &ShortError{Offset: off, Need: 8}
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
		off += 8
		if next < len(keys) && keys[next] == string(key) && (i == 0 || prevAt == next-1) {
			r.V[next] = v
			prev, prevAt = key, next
			next++
			continue
		}
		if i > 0 && bytes.Compare(key, prev) <= 0 {
			return off, fmt.Errorf("detector registers out of order (%q after %q)", key, prev)
		}
		prev, prevAt = key, -1
		for next < len(keys) && keys[next] < string(key) {
			next++
		}
		if next < len(keys) && keys[next] == string(key) {
			r.V[next] = v
			prevAt = next
			next++
		}
	}
	return off, nil
}

// kindName returns the kind constant matching b, allocating only for a
// kind this package does not define.
func kindName(b []byte) string {
	switch string(b) {
	case KindCUSUM:
		return KindCUSUM
	case KindPageHinkley:
		return KindPageHinkley
	}
	return string(b)
}

// New returns a detector of the given kind ("cusum" or "page-hinkley";
// "ph" is accepted as an alias) with the given tuning.
func New(kind string, cfg Config) (Detector, error) {
	var d [1]Detector
	err := NewSet(d[:], kind, cfg)
	return d[0], err
}

// NewSet fills dst with independent detectors of one kind and tuning
// that share a single allocation — the shape of a fleet node's
// per-stream detectors, built once per node.
func NewSet(dst []Detector, kind string, cfg Config) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	switch Canonical(kind) {
	case KindCUSUM:
		ds := make([]cusum, len(dst))
		for i := range ds {
			ds[i].cfg = cfg
			dst[i] = &ds[i]
		}
		return nil
	case KindPageHinkley:
		ds := make([]pageHinkley, len(dst))
		for i := range ds {
			ds[i].cfg = cfg
			dst[i] = &ds[i]
		}
		return nil
	}
	return fmt.Errorf("drift: unknown detector %q (have %v)", kind, Kinds())
}

// Canonical maps a detector name or alias to its canonical kind; it
// returns the input unchanged when unrecognized.
func Canonical(kind string) string {
	switch kind {
	case "ph", "page_hinkley", "pagehinkley":
		return KindPageHinkley
	default:
		return kind
	}
}

// Kinds returns the canonical detector kinds, sorted.
func Kinds() []string {
	ks := []string{KindCUSUM, KindPageHinkley}
	sort.Strings(ks)
	return ks
}

// baselineGate shields the baseline from contamination: once a
// detector is warmed, samples deviating more than this many baseline
// standard deviations feed the decision statistic but are NOT folded
// into the Welford estimate. Without the gate a large sustained shift
// inflates the variance estimate as fast as it moves the mean, and the
// standardized deviations shrink back under the slack — the detector
// masks the very change it is watching for. Under the gate the
// baseline keeps sharpening on in-control data (a stationary stream
// exceeds 3 sigma ~0.3% of the time) while out-of-control samples
// accumulate at full standardized magnitude.
const baselineGate = 3.0

// baselineStreak caps how many consecutive samples the gate may
// exclude without an alarm. A genuine step the detector is tuned for
// (>= 3 sigma at default Threshold/Slack) alarms within a couple of
// excluded samples, so a gate-exceeding streak that runs a full
// patience budget without alarming means the *baseline* is
// miscalibrated (a short warmup can underestimate sigma severely),
// not that the stream changed. Past the cap the baseline resumes
// folding every sample until one passes the gate again, letting it
// self-correct instead of staying frozen on a bad estimate.
const baselineStreak = DefaultPatience

// baselineMature is how many samples the baseline must fold before
// the gate engages. A standard deviation estimated from fewer samples
// can be several-fold too small, and the samples the gate would then
// exclude are exactly the tail samples the variance estimate needs to
// correct itself — gating an immature baseline freezes the
// miscalibration in and turns plain noise into inflated standardized
// deviations. Below this count every sample folds (pure
// self-starting); past it the sigma estimate is stable enough that an
// out-of-gate sample is better explained by a change than by
// estimation error.
const baselineMature = 8

// baselineLambda is the exponential weight mature baselines update
// with. A cumulative (1/n-weighted) estimate heals a poor early sigma
// far too slowly — the decision statistic integrates the inflated
// standardized deviations for the whole convalescence and can alarm
// on plain noise. Exponential weighting converges in ~1/lambda
// samples from any starting point, at the cost of a modest
// steady-state wobble the default Threshold has ample margin for.
const baselineLambda = 1.0 / (2 * baselineMature)

// baseline is the running mean/variance both detectors standardize
// against. It is "self-starting": until baselineMature samples it is
// an exact Welford estimate and every sample folds in; after that
// only samples within baselineGate do (see above), updating mean and
// variance with exponential weight baselineLambda. excl counts the
// current consecutive gate-excluded samples for the baselineStreak
// escape.
type baseline struct {
	n    float64
	mean float64
	vr   float64
	excl float64
}

func (b *baseline) observe(x float64) {
	b.n++
	d := x - b.mean
	if b.n <= baselineMature {
		b.mean += d / b.n
		if b.n >= 2 {
			b.vr += (d*(x-b.mean) - b.vr) / (b.n - 1)
		}
		return
	}
	incr := baselineLambda * d
	b.mean += incr
	b.vr = (1 - baselineLambda) * (b.vr + d*incr)
}

// fold routes one post-warmup sample through the shielded update: in
// gate folds and clears the exclusion streak, out of gate is excluded
// until the streak cap, after which everything folds (the streak only
// clears once a sample lands back inside the gate).
func (b *baseline) fold(x, z float64) {
	switch {
	case b.n < baselineMature:
		b.observe(x)
		b.excl = 0
	case math.Abs(z) <= baselineGate:
		b.observe(x)
		b.excl = 0
	case b.excl >= baselineStreak:
		b.observe(x)
	default:
		b.excl++
	}
}

// sigma returns the baseline standard deviation floored at
// minRel*max(1, |mean|).
func (b *baseline) sigma(minRel float64) float64 {
	s := 0.0
	if b.n >= 2 {
		s = math.Sqrt(b.vr)
	}
	if floor := minRel * math.Max(1, math.Abs(b.mean)); s < floor {
		s = floor
	}
	return s
}

func (b *baseline) reset() { *b = baseline{} }

// cusum is a two-sided tabular CUSUM on the standardized deviation:
// S+ accumulates (z - k) clipped at zero, S- accumulates (-z - k), and
// either crossing h alarms.
type cusum struct {
	cfg      Config
	base     baseline
	pos, neg float64
}

func (c *cusum) Kind() string { return KindCUSUM }

func (c *cusum) Observe(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	if int(c.base.n) < c.cfg.Warmup {
		c.base.observe(x)
		return false
	}
	z := (x - c.base.mean) / c.base.sigma(c.cfg.MinRelSigma)
	c.base.fold(x, z)
	c.pos = math.Max(0, c.pos+z-c.cfg.Slack)
	c.neg = math.Max(0, c.neg-z-c.cfg.Slack)
	if c.pos > c.cfg.Threshold || c.neg > c.cfg.Threshold {
		c.Reset()
		return true
	}
	return false
}

func (c *cusum) Reset() {
	c.base.reset()
	c.pos, c.neg = 0, 0
}

func (c *cusum) Registers() Registers {
	r := Registers{Kind: KindCUSUM}
	r.V[cusumN], r.V[cusumMean], r.V[cusumVar], r.V[cusumExcl] = c.base.n, c.base.mean, c.base.vr, c.base.excl
	r.V[cusumPos], r.V[cusumNeg] = c.pos, c.neg
	return r
}

func (c *cusum) RestoreRegisters(r *Registers) error {
	if r.Kind != KindCUSUM {
		return fmt.Errorf("drift: cannot restore %q state into a cusum detector", r.Kind)
	}
	b, err := restoreBaseline(r.V[cusumN], r.V[cusumMean], r.V[cusumVar], r.V[cusumExcl])
	if err != nil {
		return err
	}
	c.base = b
	c.pos = math.Max(0, r.V[cusumPos])
	c.neg = math.Max(0, r.V[cusumNeg])
	return nil
}

// pageHinkley is a two-sided Page-Hinkley test on the standardized
// deviation: the cumulative sum m runs with a ±delta allowance, and
// its excursion from the running minimum (increase side) or maximum
// (decrease side) crossing lambda alarms.
type pageHinkley struct {
	cfg     Config
	base    baseline
	up      float64 // cumulative (z - delta); alarms when up - upMin > lambda
	upMin   float64
	down    float64 // cumulative (z + delta); alarms when downMax - down > lambda
	downMax float64
}

func (p *pageHinkley) Kind() string { return KindPageHinkley }

func (p *pageHinkley) Observe(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	if int(p.base.n) < p.cfg.Warmup {
		p.base.observe(x)
		return false
	}
	z := (x - p.base.mean) / p.base.sigma(p.cfg.MinRelSigma)
	p.base.fold(x, z)
	p.up += z - p.cfg.Slack
	if p.up < p.upMin {
		p.upMin = p.up
	}
	p.down += z + p.cfg.Slack
	if p.down > p.downMax {
		p.downMax = p.down
	}
	if p.up-p.upMin > p.cfg.Threshold || p.downMax-p.down > p.cfg.Threshold {
		p.Reset()
		return true
	}
	return false
}

func (p *pageHinkley) Reset() {
	p.base.reset()
	p.up, p.upMin, p.down, p.downMax = 0, 0, 0, 0
}

func (p *pageHinkley) Registers() Registers {
	r := Registers{Kind: KindPageHinkley}
	r.V[phN], r.V[phMean], r.V[phVar], r.V[phExcl] = p.base.n, p.base.mean, p.base.vr, p.base.excl
	r.V[phUp], r.V[phUpMin], r.V[phDown], r.V[phDownMax] = p.up, p.upMin, p.down, p.downMax
	return r
}

func (p *pageHinkley) RestoreRegisters(r *Registers) error {
	if r.Kind != KindPageHinkley {
		return fmt.Errorf("drift: cannot restore %q state into a page-hinkley detector", r.Kind)
	}
	b, err := restoreBaseline(r.V[phN], r.V[phMean], r.V[phVar], r.V[phExcl])
	if err != nil {
		return err
	}
	p.base = b
	p.up, p.upMin = r.V[phUp], r.V[phUpMin]
	p.down, p.downMax = r.V[phDown], r.V[phDownMax]
	return nil
}

// restoreBaseline validates the shared baseline registers (absent
// registers arrive as zero — a fresh baseline).
func restoreBaseline(n, mean, vr, excl float64) (baseline, error) {
	b := baseline{n: n, mean: mean, vr: vr, excl: excl}
	if b.n < 0 || b.n != math.Trunc(b.n) || math.IsInf(b.n, 0) {
		return baseline{}, fmt.Errorf("drift: state has invalid sample count %g", b.n)
	}
	if b.excl < 0 || b.excl != math.Trunc(b.excl) || math.IsInf(b.excl, 0) {
		return baseline{}, fmt.Errorf("drift: state has invalid exclusion streak %g", b.excl)
	}
	if b.vr < 0 || math.IsNaN(b.vr) || math.IsNaN(b.mean) || math.IsInf(b.mean, 0) || math.IsInf(b.vr, 0) {
		return baseline{}, fmt.Errorf("drift: state has invalid baseline (mean %g, var %g)", b.mean, b.vr)
	}
	return b, nil
}
