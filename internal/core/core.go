// Package core implements the paper's contribution: the scheduling
// mechanisms that decide when a sensor node runs SNIP (sensor
// node-initiated contact probing) and with what duty cycle.
//
//   - SNIP-AT (§IV): probe all the time with one fixed duty cycle.
//   - SNIP-OPT (§V): follow a per-slot duty plan produced by the two-step
//     optimization in package opt.
//   - SNIP-RH (§VI): probe only during rush hours, only when enough data
//     is buffered, and only while the epoch's probing-energy budget
//     lasts; the duty cycle is Ton over the EWMA-learned mean contact
//     length.
//   - Adaptive SNIP-RH (§VII.B / future work): SNIP-RH plus an always-on
//     background SNIP-AT at a very small duty cycle that keeps learning
//     the rush-hour mask and follows seasonal drift.
//
// Schedulers are pure deciders: the simulator (package sim) calls Decide
// at CPU wake-ups and feeds back probed contacts. This mirrors the
// paper's design where the scheduling logic runs on the sensor node's
// CPU independent of the radio.
package core

import (
	"fmt"
	"math"

	"rushprobe/internal/learn"
)

// NodeState is what the sensor node knows at a decision point.
type NodeState struct {
	// Slot is the current slot index within the epoch.
	Slot int
	// Epoch is the current epoch index.
	Epoch int
	// BufferBytes is the amount of sensed data waiting for upload.
	BufferBytes float64
	// EpochProbingOnTime is the probing energy Phi consumed so far in
	// the current epoch (radio on-time, seconds).
	EpochProbingOnTime float64
}

// Decision is a scheduler's answer: whether SNIP runs and at what duty.
type Decision struct {
	// Active reports whether SNIP probing should run now.
	Active bool
	// Duty is the duty cycle to use while active (ignored when idle).
	Duty float64
}

// ProbeInfo describes one successfully probed contact, fed back to the
// scheduler for its online learning.
type ProbeInfo struct {
	// Slot is the slot in which the contact was probed.
	Slot int
	// ContactLength is the node's estimate of the full contact length in
	// seconds (see learn.ContactLength.Observe for how a node obtains it).
	ContactLength float64
	// ProbedTime is Tprobed — the usable tail of the contact in seconds.
	ProbedTime float64
	// UploadedBytes is the amount of data uploaded during the contact.
	UploadedBytes float64
}

// Scheduler is the online half of a SNIP probing strategy. It carries
// no name: the strategy registry (package strategy) names strategies.
type Scheduler interface {
	// Decide returns the probing decision for the given node state.
	Decide(state NodeState) Decision
	// OnContactProbed feeds back a probed contact.
	OnContactProbed(info ProbeInfo)
	// OnEpochStart signals that a new epoch began (budget counters are
	// reset by the caller; schedulers update their own learners).
	OnEpochStart(epoch int)
}

// Compile-time interface checks.
var (
	_ Scheduler = (*AT)(nil)
	_ Scheduler = (*RH)(nil)
	_ Scheduler = (*OPTFollower)(nil)
	_ Scheduler = (*AdaptiveRH)(nil)
)

// AT is SNIP-AT: always active with a fixed duty cycle. The duty is
// chosen offline (package analysis) so that the expected probed capacity
// meets the target, capped by the energy budget — exactly how the paper
// parameterizes SNIP-AT in its simulations (§VII.A.2).
type AT struct {
	duty float64
}

// NewAT returns SNIP-AT with the given fixed duty cycle in (0, 1].
func NewAT(duty float64) (*AT, error) {
	if duty <= 0 || duty > 1 {
		return nil, fmt.Errorf("core: SNIP-AT duty must be in (0, 1], got %g", duty)
	}
	return &AT{duty: duty}, nil
}

// Duty returns the configured duty cycle.
func (a *AT) Duty() float64 { return a.duty }

// Decide always activates probing at the fixed duty.
func (a *AT) Decide(NodeState) Decision {
	return Decision{Active: true, Duty: a.duty}
}

// OnContactProbed is a no-op: SNIP-AT does not adapt.
func (a *AT) OnContactProbed(ProbeInfo) {}

// OnEpochStart is a no-op.
func (a *AT) OnEpochStart(int) {}

// RHConfig parameterizes SNIP-RH.
type RHConfig struct {
	// Mask marks the rush-hour slots ("1" slots of §VI.A).
	Mask []bool
	// Ton is the radio on-period (seconds), the numerator of drh.
	Ton float64
	// PhiMax is the per-epoch probing-energy budget (seconds of
	// on-time). Zero disables the budget condition.
	PhiMax float64
	// LengthPrior seeds the contact-length EWMA before any contact has
	// been probed (seconds). Non-positive falls back to 1 s.
	LengthPrior float64
	// UploadPrior seeds the per-contact upload EWMA (bytes).
	// Non-positive falls back to 1 byte (permissive).
	UploadPrior float64
	// MinDuty floors drh so a wildly overestimated contact length cannot
	// stall probing entirely. Zero means no floor.
	MinDuty float64
	// MaxDuty caps drh. Zero means 1.
	MaxDuty float64
	// DisableDataCheck turns off activation condition 2 (used by
	// ablations; the paper always checks it).
	DisableDataCheck bool
}

// RH is SNIP-RH (§VI): the paper's proposed scheduler.
type RH struct {
	cfg       RHConfig
	length    *learn.ContactLength
	upload    *learn.UploadAmount
	exhausted bool // epoch budget spent (diagnostic)
}

// NewRH returns SNIP-RH over the given configuration.
func NewRH(cfg RHConfig) (*RH, error) {
	if len(cfg.Mask) == 0 {
		return nil, fmt.Errorf("core: SNIP-RH needs a non-empty rush-hour mask")
	}
	if cfg.Ton <= 0 {
		return nil, fmt.Errorf("core: SNIP-RH needs positive Ton, got %g", cfg.Ton)
	}
	if cfg.PhiMax < 0 {
		return nil, fmt.Errorf("core: SNIP-RH budget must be non-negative, got %g", cfg.PhiMax)
	}
	if cfg.MinDuty < 0 || cfg.MaxDuty < 0 || cfg.MaxDuty > 1 || (cfg.MaxDuty > 0 && cfg.MinDuty > cfg.MaxDuty) {
		return nil, fmt.Errorf("core: SNIP-RH duty bounds [%g, %g] invalid", cfg.MinDuty, cfg.MaxDuty)
	}
	return &RH{
		cfg:    cfg,
		length: learn.NewContactLength(cfg.LengthPrior),
		upload: learn.NewUploadAmount(cfg.UploadPrior),
	}, nil
}

// LearnedContactLength exposes the current T̄contact estimate.
func (r *RH) LearnedContactLength() float64 { return r.length.Mean() }

// DataThreshold exposes the current "enough data" threshold in bytes.
func (r *RH) DataThreshold() float64 { return r.upload.Threshold() }

// DutyCycle returns drh = Ton / T̄contact, clamped to the configured
// bounds (§VI.C).
func (r *RH) DutyCycle() float64 {
	d := r.cfg.Ton / r.length.Mean()
	if r.cfg.MaxDuty > 0 && d > r.cfg.MaxDuty {
		d = r.cfg.MaxDuty
	}
	if d > 1 {
		d = 1
	}
	if r.cfg.MinDuty > 0 && d < r.cfg.MinDuty {
		d = r.cfg.MinDuty
	}
	return d
}

// Decide applies the three §VI.B activation conditions.
func (r *RH) Decide(state NodeState) Decision {
	// Condition 1: the slot must be marked as rush hour.
	if state.Slot < 0 || state.Slot >= len(r.cfg.Mask) || !r.cfg.Mask[state.Slot] {
		return Decision{}
	}
	// Condition 2: enough buffered data to fill the next probed contact.
	if !r.cfg.DisableDataCheck && state.BufferBytes < r.upload.Threshold() {
		return Decision{}
	}
	// Condition 3: the epoch's probing-energy budget must not be spent.
	if r.cfg.PhiMax > 0 && state.EpochProbingOnTime >= r.cfg.PhiMax {
		r.exhausted = true
		return Decision{}
	}
	return Decision{Active: true, Duty: r.DutyCycle()}
}

// OnContactProbed folds the probed contact into both EWMAs.
func (r *RH) OnContactProbed(info ProbeInfo) {
	r.length.Observe(info.ContactLength)
	r.upload.Observe(info.UploadedBytes)
}

// OnEpochStart clears the per-epoch exhaustion diagnostic.
func (r *RH) OnEpochStart(int) { r.exhausted = false }

// BudgetExhausted reports whether condition 3 fired in the current epoch.
func (r *RH) BudgetExhausted() bool { return r.exhausted }

// OPTFollower executes a precomputed SNIP-OPT plan: one duty cycle per
// slot. As in the paper's simulations, the plan is "calculated based on
// the simulated environment and incorporated into the codes" (§VII.A.2).
type OPTFollower struct {
	duties []float64
	phiMax float64
}

// NewOPTFollower returns a follower for the per-slot duties. PhiMax, if
// positive, adds a safety stop when the realized probing energy exceeds
// the budget (the plan itself already respects it in expectation).
func NewOPTFollower(duties []float64, phiMax float64) (*OPTFollower, error) {
	if len(duties) == 0 {
		return nil, fmt.Errorf("core: SNIP-OPT needs a non-empty duty plan")
	}
	for i, d := range duties {
		if d < 0 || d > 1 || math.IsNaN(d) {
			return nil, fmt.Errorf("core: SNIP-OPT duty[%d] = %g out of [0, 1]", i, d)
		}
	}
	if phiMax < 0 {
		return nil, fmt.Errorf("core: SNIP-OPT budget must be non-negative, got %g", phiMax)
	}
	plan := make([]float64, len(duties))
	copy(plan, duties)
	return &OPTFollower{duties: plan, phiMax: phiMax}, nil
}

// Plan returns a copy of the per-slot duties.
func (o *OPTFollower) Plan() []float64 {
	out := make([]float64, len(o.duties))
	copy(out, o.duties)
	return out
}

// Decide activates probing in slots with a positive planned duty, under
// the optional budget stop.
func (o *OPTFollower) Decide(state NodeState) Decision {
	if state.Slot < 0 || state.Slot >= len(o.duties) {
		return Decision{}
	}
	d := o.duties[state.Slot]
	if d <= 0 {
		return Decision{}
	}
	if o.phiMax > 0 && state.EpochProbingOnTime >= o.phiMax {
		return Decision{}
	}
	return Decision{Active: true, Duty: d}
}

// OnContactProbed is a no-op: the plan is precomputed.
func (o *OPTFollower) OnContactProbed(ProbeInfo) {}

// OnEpochStart is a no-op.
func (o *OPTFollower) OnEpochStart(int) {}

// AdaptiveConfig parameterizes Adaptive SNIP-RH.
type AdaptiveConfig struct {
	// RH is the rush-hour scheduler configuration. Its Mask may be nil:
	// the adaptive scheduler learns its own mask.
	RH RHConfig
	// Slots is the number of slots per epoch.
	Slots int
	// RushSlots is how many slots the learner marks as rush hours.
	RushSlots int
	// BackgroundDuty is the very small SNIP-AT duty cycle that keeps
	// running outside rush hours to learn and track the environment
	// (§VII.B suggests "a very very small duty-cycle").
	BackgroundDuty float64
	// LearnEpochs is the bootstrap length: the scheduler probes only at
	// BackgroundDuty for this many epochs before trusting its mask.
	LearnEpochs int
	// DriftTolerance and DriftPatience configure the seasonal-shift
	// tracker (defaults 1 slot and 2 epochs when zero).
	DriftTolerance int
	DriftPatience  int
}

// AdaptiveRH is SNIP-RH plus a background SNIP-AT learner: the variant
// sketched in §VII.B and the paper's future work. It bootstraps its
// rush-hour mask with low-duty probing, then behaves like SNIP-RH while
// the background probing keeps the mask fresh; a drift tracker swaps in
// a new mask when the environment shifts.
type AdaptiveRH struct {
	cfg     AdaptiveConfig
	rh      *RH
	learner *learn.RushHourLearner
	drift   *learn.DriftTracker
	epoch   int
}

// NewAdaptiveRH returns an adaptive scheduler.
func NewAdaptiveRH(cfg AdaptiveConfig) (*AdaptiveRH, error) {
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("core: adaptive needs positive slot count, got %d", cfg.Slots)
	}
	if cfg.RushSlots <= 0 || cfg.RushSlots > cfg.Slots {
		return nil, fmt.Errorf("core: adaptive RushSlots must be in [1, %d], got %d", cfg.Slots, cfg.RushSlots)
	}
	if cfg.BackgroundDuty <= 0 || cfg.BackgroundDuty > 1 {
		return nil, fmt.Errorf("core: adaptive BackgroundDuty must be in (0, 1], got %g", cfg.BackgroundDuty)
	}
	if cfg.LearnEpochs < 1 {
		return nil, fmt.Errorf("core: adaptive LearnEpochs must be >= 1, got %d", cfg.LearnEpochs)
	}
	if cfg.DriftTolerance == 0 {
		cfg.DriftTolerance = 1
	}
	if cfg.DriftPatience == 0 {
		cfg.DriftPatience = 2
	}
	rhCfg := cfg.RH
	rhCfg.Mask = make([]bool, cfg.Slots) // starts empty; learner fills it
	rh, err := NewRH(rhCfg)
	if err != nil {
		return nil, err
	}
	learner, err := learn.NewRushHourLearner(cfg.Slots, cfg.RushSlots)
	if err != nil {
		return nil, err
	}
	return &AdaptiveRH{cfg: cfg, rh: rh, learner: learner}, nil
}

// Mask returns the rush-hour mask currently in force (a copy).
func (a *AdaptiveRH) Mask() []bool {
	out := make([]bool, len(a.rh.cfg.Mask))
	copy(out, a.rh.cfg.Mask)
	return out
}

// Shifts reports how many mask changes the drift tracker has adopted.
func (a *AdaptiveRH) Shifts() int {
	if a.drift == nil {
		return 0
	}
	return a.drift.Shifts()
}

// Decide combines the SNIP-RH decision with the background duty: if RH
// wants to probe, its duty wins (it is larger by construction); otherwise
// the background SNIP-AT probes at its tiny duty.
func (a *AdaptiveRH) Decide(state NodeState) Decision {
	background := Decision{Active: true, Duty: a.cfg.BackgroundDuty}
	if a.epoch < a.cfg.LearnEpochs {
		return background
	}
	if d := a.rh.Decide(state); d.Active {
		if d.Duty < a.cfg.BackgroundDuty {
			d.Duty = a.cfg.BackgroundDuty
		}
		return d
	}
	return background
}

// OnContactProbed feeds both the RH learners and the mask learner.
//
// The mask learner's capacity estimates must be de-biased: a slot the
// node probes at the rush-hour duty yields far more probed contacts than
// an equally busy slot sampled only at the background duty, so raw
// counts would lock the mask onto whatever it currently believes
// (rich-get-richer). Each observation is therefore weighted by the
// inverse probability that a contact of its length is discovered at the
// duty cycle in force in that slot (a Horvitz-Thompson estimator of the
// slot's true arriving capacity).
func (a *AdaptiveRH) OnContactProbed(info ProbeInfo) {
	a.rh.OnContactProbed(info)
	duty := a.cfg.BackgroundDuty
	if a.epoch >= a.cfg.LearnEpochs && a.slotMasked(info.Slot) {
		if d := a.rh.DutyCycle(); d > duty {
			duty = d
		}
	}
	if info.ContactLength <= 0 || duty <= 0 {
		return
	}
	// P(discover) = P(a beacon falls inside the contact) =
	// min(1, Tcontact / Tcycle) with Tcycle = Ton/duty.
	pProbe := math.Min(1, info.ContactLength*duty/a.cfg.RH.Ton)
	a.learner.ObserveContact(info.Slot, info.ContactLength/pProbe)
}

// slotMasked reports whether the slot is in the mask currently in force.
func (a *AdaptiveRH) slotMasked(slot int) bool {
	return slot >= 0 && slot < len(a.rh.cfg.Mask) && a.rh.cfg.Mask[slot]
}

// OnEpochStart folds the finished epoch into the learner and refreshes
// the mask: adopting it directly at the end of the bootstrap, then only
// through the drift tracker.
func (a *AdaptiveRH) OnEpochStart(epoch int) {
	if a.epoch > 0 || epoch > 0 {
		a.learner.EndEpoch()
	}
	a.epoch = epoch
	a.rh.OnEpochStart(epoch)
	if a.learner.Epochs() == 0 {
		return
	}
	learned := a.learner.Mask()
	if a.drift == nil {
		// First usable mask: adopt it and arm the drift tracker.
		copy(a.rh.cfg.Mask, learned)
		tracker, err := learn.NewDriftTracker(learned, a.cfg.DriftTolerance, a.cfg.DriftPatience)
		if err == nil {
			a.drift = tracker
		}
		return
	}
	if a.drift.ObserveEpoch(learned) {
		copy(a.rh.cfg.Mask, a.drift.Active())
	}
}
