package fleet

import (
	"math"
	"unsafe"

	"rushprobe/internal/dist"
	"rushprobe/internal/learn"
	"rushprobe/internal/scenario"
	"rushprobe/internal/strategy"
)

// profile is the per-node learned state: the §VI.B/§VI.C estimators and
// the §VII.B rush-hour ranker, plus bookkeeping. Access is guarded by
// the owning shard's lock.
type profile struct {
	id      string
	length  learn.ContactLength
	upload  learn.UploadAmount
	learner *learn.RushHourLearner

	// strategy is the node's canonical strategy override; empty means
	// the fleet's default strategy serves this node.
	strategy string

	// epoch is the node's current (not yet folded) epoch index.
	epoch    int
	observed int64
	stale    int64

	// mon watches the node's per-epoch observation streams for change
	// points; nil when the fleet's drift detection is disabled.
	mon *monitor
	// epochContacts and epochLenSum accumulate the current epoch's
	// accepted contact count and summed length — the raw material of the
	// monitor's rate and length streams.
	epochContacts int
	epochLenSum   float64
	// driftEvents counts detector firings; firstDrift and lastDrift are
	// the epoch indices of the first and latest firings (-1 when none).
	driftEvents int64
	firstDrift  int
	lastDrift   int

	// sched caches the schedule served for the current learned state;
	// nil after any state or strategy change.
	sched *Schedule

	// dirty marks persisted state changed since the last binary
	// snapshot or delta append; the snapshot log only writes dirty
	// nodes between compactions.
	dirty bool
}

// newProfile seeds a node's estimators from the base scenario: the mean
// contact length prior and an upload prior of one mean contact's worth
// of bytes. Callers hold the shard lock.
func (f *Fleet) newProfile(node string) *profile {
	meanLen := f.cfg.Base.MeanContactLength()
	learner, err := learn.NewRushHourLearner(len(f.cfg.Base.Slots), f.cfg.RushSlots)
	if err != nil {
		// Config validation bounds RushSlots to [1, slots]; this cannot
		// fire for a constructed Fleet.
		panic(err)
	}
	return &profile{
		id:         node,
		length:     *learn.NewContactLength(meanLen),
		upload:     *learn.NewUploadAmount(meanLen * f.cfg.Base.UploadRate),
		learner:    learner,
		mon:        f.newMonitor(),
		firstDrift: -1,
		lastDrift:  -1,
		dirty:      true,
	}
}

// mapEntryOverhead approximates what a shard's nodes map spends per
// entry beyond the profile itself: the string key's bytes live once
// more in the key header's backing array reference, plus the value
// pointer and amortized bucket overhead.
const mapEntryOverhead = 48

// footprint estimates the profile's resident bytes: the struct (which
// holds the length and upload estimators), its ID string (stored here
// and referenced again as the map key), the rush-hour learner, the
// drift monitor, and the shard map's per-entry overhead. The cached
// *Schedule is shared fleet-wide and deliberately counted as just its
// pointer (already inside Sizeof). Callers hold the shard lock.
func (p *profile) footprint() int {
	n := int(unsafe.Sizeof(*p)) + len(p.id) + mapEntryOverhead
	n += p.learner.Footprint()
	if p.mon != nil {
		n += p.mon.footprint()
	}
	return n
}

// strategyInForce resolves the strategy serving this profile: its
// override when set, the fleet default otherwise. Callers hold the
// shard lock.
func (f *Fleet) strategyInForce(p *profile) string {
	if p != nil && p.strategy != "" {
		return p.strategy
	}
	return f.cfg.Strategy
}

// quantize rounds v to the nearest multiple of q (q > 0).
func quantize(v, q float64) float64 {
	return math.Round(v/q) * q
}

// learnedScenario converts a profile's learned state into a scenario:
// per-slot contact frequency from the quantized capacity estimates and
// the quantized learned mean contact length, rush flags from the
// learner's mask, and budget/target/radio inherited from the base
// deployment. Quantization is what lets distinct nodes with
// near-identical learned profiles share a fingerprint — and therefore
// one cached plan.
func (f *Fleet) learnedScenario(p *profile) *scenario.Scenario {
	caps := p.learner.Capacity()
	mask := p.learner.Mask()
	meanLen := quantize(p.length.Mean(), f.cfg.LengthQuantum)
	if meanLen < f.cfg.LengthQuantum {
		meanLen = f.cfg.LengthQuantum
	}
	slots := make([]scenario.Slot, len(caps))
	for i, c := range caps {
		cq := quantize(c, f.cfg.CapacityQuantum)
		if cq <= 0 {
			slots[i] = scenario.Slot{RushHour: mask[i]}
			continue
		}
		// cq seconds of contact per slot at meanLen seconds each gives
		// the slot's arrival rate; the scenario stores its reciprocal.
		rate := cq / (meanLen * f.slotLen)
		slots[i] = scenario.Slot{
			Interval: dist.Fixed{Value: 1 / rate},
			Length:   dist.Fixed{Value: meanLen},
			RushHour: mask[i],
		}
	}
	return &scenario.Scenario{
		Name:       "learned:" + p.id,
		Epoch:      f.cfg.Base.Epoch,
		Slots:      slots,
		Radio:      f.cfg.Base.Radio,
		PhiMax:     f.cfg.Base.PhiMax,
		ZetaTarget: f.cfg.Base.ZetaTarget,
		UploadRate: f.cfg.Base.UploadRate,
	}
}

// solve computes the schedule one strategy serves for one learned
// scenario, through the strategy registry. It runs at most once per
// (fingerprint, strategy) pair (the plan cache's singleflight) and is
// the only place plan solves happen.
func (f *Fleet) solve(strategyName string, sc *scenario.Scenario, fp uint64) (*Schedule, error) {
	strat, err := strategy.Lookup(strategyName)
	if err != nil {
		return nil, err
	}
	plan, err := strat.Plan(sc)
	if err != nil {
		return nil, err
	}
	return &Schedule{
		Mechanism:   plan.Strategy,
		Duty:        plan.Duty,
		Zeta:        plan.Zeta,
		Phi:         plan.Phi,
		TargetMet:   plan.TargetMet,
		Fingerprint: fp,
	}, nil
}
