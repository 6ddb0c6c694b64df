// Package learn holds the online estimators a sensor node runs to drive
// SNIP-RH: the EWMA of the mean contact length (which sets drh, §VI.C),
// the EWMA of the per-contact upload amount (which sets the data
// threshold, §VI.B condition 2), and the rush-hour learner of §VII.B
// (rank slots by observed contact capacity during a low-duty SNIP-AT
// phase, then mark the top slots).
package learn

import (
	"fmt"
	"math"
	"unsafe"

	"rushprobe/internal/stats"
)

// DefaultAlpha is the EWMA weight for new samples — "a small weight is
// assigned to the new sample" (§VI.B, §VI.C).
const DefaultAlpha = 0.1

// ContactLength tracks the learned mean contact length T̄contact.
//
// Until the first contact is probed the estimator reports the prior,
// letting a freshly deployed node pick a sane initial duty cycle.
type ContactLength struct {
	ewma  stats.EWMA
	prior float64
}

// NewContactLength returns an estimator seeded with the given prior
// (seconds). A non-positive prior falls back to 1 s.
func NewContactLength(prior float64) *ContactLength {
	if prior <= 0 {
		prior = 1
	}
	return &ContactLength{ewma: *stats.NewEWMA(DefaultAlpha), prior: prior}
}

// Observe records the measured length of a probed contact. Because a
// probed contact only reveals Tprobed (the tail of the contact after the
// beacon), callers pass the best available estimate; SNIP can reconstruct
// the full length because the mobile node reports when it entered range
// in its beacon reply in most deployments, and otherwise the observed
// tail is a conservative underestimate. Non-positive and non-finite
// samples are ignored (NaN passes a plain `<= 0` check and would
// poison the EWMA permanently).
func (c *ContactLength) Observe(length float64) {
	if !(length > 0) || math.IsInf(length, 0) {
		return
	}
	c.ewma.Observe(length)
}

// Mean returns the learned mean contact length, or the prior before any
// observation.
func (c *ContactLength) Mean() float64 {
	if !c.ewma.Seeded() {
		return c.prior
	}
	return c.ewma.Value()
}

// Samples returns how many contacts have been observed.
func (c *ContactLength) Samples() int { return c.ewma.Count() }

// Footprint estimates the estimator's resident size in bytes (the EWMA
// is inlined in the struct) for per-node capacity accounting.
func (c *ContactLength) Footprint() int {
	return int(unsafe.Sizeof(*c))
}

// UploadAmount tracks the learned mean bytes uploaded per probed contact,
// which SNIP-RH uses as the "enough data buffered" threshold (condition 2
// of §VI.B).
type UploadAmount struct {
	ewma  stats.EWMA
	prior float64
}

// NewUploadAmount returns an estimator seeded with the given prior
// (bytes). A non-positive prior falls back to 1 byte, making the
// threshold permissive until real uploads are seen.
func NewUploadAmount(prior float64) *UploadAmount {
	if prior <= 0 {
		prior = 1
	}
	return &UploadAmount{ewma: *stats.NewEWMA(DefaultAlpha), prior: prior}
}

// Observe records the bytes uploaded in one probed contact. Negative
// and non-finite samples are ignored (NaN passes a plain `< 0` check
// and would poison the EWMA permanently); zero is a legitimate
// observation (a contact probed with an empty buffer).
func (u *UploadAmount) Observe(bytes float64) {
	if !(bytes >= 0) || math.IsInf(bytes, 0) {
		return
	}
	u.ewma.Observe(bytes)
}

// Threshold returns the current "enough data" threshold in bytes.
func (u *UploadAmount) Threshold() float64 {
	if !u.ewma.Seeded() {
		return u.prior
	}
	return u.ewma.Value()
}

// Footprint estimates the estimator's resident size in bytes.
func (u *UploadAmount) Footprint() int {
	return int(unsafe.Sizeof(*u))
}

// RushHourLearner estimates each slot's contact capacity from observed
// (probed) contacts and derives a rush-hour mask. It implements the
// §VII.B bootstrap: run SNIP-AT with a very small duty cycle for a few
// epochs, rank the slots by accumulated capacity, and mark the top K.
// Because only the *order* of slots matters, the learner is robust to
// the small number of samples a low duty cycle yields.
//
// Per-slot capacity is tracked as an EWMA over epochs so the learner can
// also follow seasonal drift when left running (adaptive SNIP-RH).
//
// Per-slot state is packed: the epoch accumulator is one float64 array
// and the cross-epoch averages live in a stats.EWMAVec (shared weight,
// bitset seeding) instead of a slice of heap-allocated EWMAs. The
// update numerics are bit-identical to the pointer layout; only the
// bytes/node change, which is what the million-node budget cares about.
type RushHourLearner struct {
	slots     int
	rushSlots int
	epochCap  []float64     // capacity observed in the current epoch
	perEpoch  stats.EWMAVec // smoothed capacity per slot across epochs
	epochs    int
}

// learnerAlpha is the per-slot capacity EWMA weight — faster than
// DefaultAlpha because epochs are scarce.
const learnerAlpha = 0.3

// NewRushHourLearner returns a learner for the given slot count that
// will mark rushSlots slots as rush hours. It returns an error when the
// parameters are inconsistent.
func NewRushHourLearner(slots, rushSlots int) (*RushHourLearner, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("learn: slots must be positive, got %d", slots)
	}
	if rushSlots <= 0 || rushSlots > slots {
		return nil, fmt.Errorf("learn: rushSlots must be in [1, %d], got %d", slots, rushSlots)
	}
	return &RushHourLearner{
		slots:     slots,
		rushSlots: rushSlots,
		epochCap:  make([]float64, slots),
		perEpoch:  *stats.NewEWMAVec(learnerAlpha, slots),
	}, nil
}

// ObserveContact records a probed contact of the given capacity (seconds)
// in the given slot of the current epoch. Non-positive and non-finite
// capacities are ignored.
//
//rushlint:hotpath
func (l *RushHourLearner) ObserveContact(slot int, capacity float64) {
	if slot < 0 || slot >= l.slots || !(capacity > 0) || math.IsInf(capacity, 0) {
		return
	}
	l.epochCap[slot] += capacity
}

// EndEpoch folds the current epoch's observations into the per-slot
// averages and resets the epoch accumulator.
func (l *RushHourLearner) EndEpoch() {
	for i, c := range l.epochCap {
		l.perEpoch.Observe(i, c)
		l.epochCap[i] = 0
	}
	l.epochs++
}

// Epochs returns how many epochs have been folded in.
func (l *RushHourLearner) Epochs() int { return l.epochs }

// Slots returns the number of slots per epoch the learner ranks.
func (l *RushHourLearner) Slots() int { return l.slots }

// RushSlots returns how many slots the learner marks as rush hours.
func (l *RushHourLearner) RushSlots() int { return l.rushSlots }

// Footprint estimates the learner's resident size in bytes: the struct,
// its per-slot accumulator, and the packed EWMA vector. Per-slot state
// dominates a node's footprint, which is what makes this the
// interesting term in the fleet's bytes/node gauge.
func (l *RushHourLearner) Footprint() int {
	n := int(unsafe.Sizeof(*l))
	n += cap(l.epochCap) * int(unsafe.Sizeof(float64(0)))
	// The vector's struct is inside the learner's; count its arrays.
	n += l.perEpoch.FootprintBytes() - int(unsafe.Sizeof(l.perEpoch))
	return n
}

// Relearn discards the learner's ranking evidence and epoch count,
// returning the node to its bootstrap phase. The fleet calls this when
// a drift detector fires: after a rush-pattern shift the per-slot
// EWMAs rank stale slots, and because a learned plan only probes the
// slots it already believes in, the learner may never observe the new
// rush hours at all — re-entering the low-duty SNIP-AT bootstrap
// (§VII.B) restores whole-epoch observability and relearns the mask
// from scratch, which is faster and safer than waiting for the stale
// ranking to decay.
func (l *RushHourLearner) Relearn() {
	l.perEpoch.Reset()
	for i := range l.epochCap {
		l.epochCap[i] = 0
	}
	l.epochs = 0
}

// EpochShare returns the fraction of the current (not yet folded)
// epoch's observed capacity that falls inside the learner's current
// rush mask, and whether the epoch observed anything at all. It is the
// per-slot capacity vector collapsed to the one scalar a drift
// detector can watch: when the rush pattern rotates away from the
// learned mask, the share collapses epochs before the EWMA ranking
// decays. Callers must read it before EndEpoch resets the accumulator.
func (l *RushHourLearner) EpochShare() (float64, bool) {
	total := 0.0
	for _, c := range l.epochCap {
		total += c
	}
	if total <= 0 {
		return 0, false
	}
	mask := l.Mask()
	in := 0.0
	for i, c := range l.epochCap {
		if mask[i] {
			in += c
		}
	}
	return in / total, true
}

// Capacity returns the learned per-slot capacity estimates.
func (l *RushHourLearner) Capacity() []float64 {
	out := make([]float64, l.slots)
	for i := range out {
		out[i] = l.perEpoch.Value(i)
	}
	return out
}

// Mask returns the current rush-hour mask: the top rushSlots slots by
// learned capacity (ties broken by lower slot index). Before any epoch
// has completed the mask is all false — the caller should keep running
// its bootstrap phase.
func (l *RushHourLearner) Mask() []bool {
	mask := make([]bool, l.slots)
	if l.epochs == 0 {
		return mask
	}
	caps := l.Capacity()
	idx := make([]int, l.slots)
	for i := range idx {
		idx[i] = i
	}
	// Selection of the top-K with deterministic tie-breaks; N is tiny.
	for k := 0; k < l.rushSlots; k++ {
		best := -1
		for _, i := range idx {
			if mask[i] {
				continue
			}
			if best == -1 || caps[i] > caps[best] || (caps[i] == caps[best] && i < best) {
				best = i
			}
		}
		if best == -1 || caps[best] <= 0 {
			break
		}
		mask[best] = true
	}
	return mask
}

// Agreement returns the fraction of slots on which the learned mask
// matches the reference mask — the learning-quality metric used by the
// ext-learn experiment.
func Agreement(learned, reference []bool) float64 {
	if len(learned) == 0 || len(learned) != len(reference) {
		return 0
	}
	same := 0
	for i := range learned {
		if learned[i] == reference[i] {
			same++
		}
	}
	return float64(same) / float64(len(learned))
}

// DriftTracker watches the learned mask across epochs and reports when
// the rush hours appear to have moved (seasonal shift, §VII.B). It
// compares the current mask against the mask in force and reports a
// shift when they disagree on more than tolerance slots for `patience`
// consecutive epochs.
type DriftTracker struct {
	tolerance int
	patience  int
	active    []bool
	badRuns   int
	shifts    int
}

// NewDriftTracker returns a tracker that adopts a new mask after it has
// disagreed with the active one on more than tolerance slots for
// patience consecutive epochs.
func NewDriftTracker(initial []bool, tolerance, patience int) (*DriftTracker, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("learn: drift tracker needs a non-empty initial mask")
	}
	if tolerance < 0 {
		return nil, fmt.Errorf("learn: tolerance must be non-negative, got %d", tolerance)
	}
	if patience <= 0 {
		return nil, fmt.Errorf("learn: patience must be positive, got %d", patience)
	}
	active := make([]bool, len(initial))
	copy(active, initial)
	return &DriftTracker{tolerance: tolerance, patience: patience, active: active}, nil
}

// Active returns the mask currently in force (a copy).
func (d *DriftTracker) Active() []bool {
	out := make([]bool, len(d.active))
	copy(out, d.active)
	return out
}

// Shifts returns how many times the tracker has adopted a new mask.
func (d *DriftTracker) Shifts() int { return d.shifts }

// ObserveEpoch feeds the latest learned mask; it returns true when the
// tracker adopts it as the new active mask.
func (d *DriftTracker) ObserveEpoch(learned []bool) bool {
	if len(learned) != len(d.active) {
		return false
	}
	diff := 0
	for i := range learned {
		if learned[i] != d.active[i] {
			diff++
		}
	}
	if diff <= d.tolerance {
		d.badRuns = 0
		return false
	}
	d.badRuns++
	if d.badRuns < d.patience {
		return false
	}
	copy(d.active, learned)
	d.badRuns = 0
	d.shifts++
	return true
}

// ContactLengthState is the serializable state of a ContactLength
// estimator.
type ContactLengthState struct {
	Prior float64
	EWMA  stats.EWMAState
}

// State exports the estimator for persistence.
func (c *ContactLength) State() ContactLengthState {
	return ContactLengthState{Prior: c.prior, EWMA: c.ewma.State()}
}

// RestoreContactLength rebuilds an estimator from exported state. It
// returns the estimator by value, for embedding in a larger struct.
func RestoreContactLength(s ContactLengthState) (ContactLength, error) {
	c := NewContactLength(s.Prior)
	if err := c.ewma.SetState(s.EWMA); err != nil {
		return ContactLength{}, fmt.Errorf("learn: contact length: %w", err)
	}
	return *c, nil
}

// UploadAmountState is the serializable state of an UploadAmount
// estimator.
type UploadAmountState struct {
	Prior float64
	EWMA  stats.EWMAState
}

// State exports the estimator for persistence.
func (u *UploadAmount) State() UploadAmountState {
	return UploadAmountState{Prior: u.prior, EWMA: u.ewma.State()}
}

// RestoreUploadAmount rebuilds an estimator from exported state. It
// returns the estimator by value, for embedding in a larger struct.
func RestoreUploadAmount(s UploadAmountState) (UploadAmount, error) {
	u := NewUploadAmount(s.Prior)
	if err := u.ewma.SetState(s.EWMA); err != nil {
		return UploadAmount{}, fmt.Errorf("learn: upload amount: %w", err)
	}
	return *u, nil
}

// RushHourState is the serializable state of a RushHourLearner: the
// per-slot smoothed capacities, the current epoch's accumulator, and the
// epoch count. The slot count is implied by the slice lengths.
type RushHourState struct {
	RushSlots int
	Epochs    int
	EpochCap  []float64
	Slots     []stats.EWMAState
}

// State exports the learner for persistence.
func (l *RushHourLearner) State() RushHourState {
	s := RushHourState{
		RushSlots: l.rushSlots,
		Epochs:    l.epochs,
		EpochCap:  make([]float64, l.slots),
		Slots:     make([]stats.EWMAState, l.slots),
	}
	copy(s.EpochCap, l.epochCap)
	for i := range s.Slots {
		s.Slots[i] = l.perEpoch.State(i)
	}
	return s
}

// RelativeError returns |est-actual|/actual, or +Inf when actual is 0 —
// a helper shared by the learning experiments.
func RelativeError(est, actual float64) float64 {
	if actual == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-actual) / math.Abs(actual)
}
