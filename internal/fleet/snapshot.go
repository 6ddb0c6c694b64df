package fleet

import (
	"fmt"

	"rushprobe/internal/drift"
	"rushprobe/internal/learn"
	"rushprobe/internal/strategy"
)

// nodeRecord is one node's persisted state as the admission gate
// (buildProfile) reads it. A binary node frame decodes straight into
// one: learner hydrated, drift registers in fixed arrays, no maps.
type nodeRecord struct {
	id       string
	strategy string
	epoch    int
	observed int64
	stale    int64
	length   learn.ContactLengthState
	upload   learn.UploadAmountState
	learner  *learn.RushHourLearner
	drift    driftRecord
}

// driftRecord is a node's persisted drift state: the event counters,
// the current epoch's partial stream accumulators, and each stream
// detector's registers, so an in-progress detection picks up exactly
// where it left off after a restart.
type driftRecord struct {
	present bool
	// events counts detector firings; first and last are the epoch
	// indices of the first and latest firings, meaningful only when
	// events > 0.
	events      int64
	first, last int
	// contacts and lenSum are the current epoch's partial rate/length
	// accumulators (the learner's own accumulator rides in its record).
	contacts int
	lenSum   float64
	// streams flags which of regs (rate, length, share) hold a
	// detector's registers.
	streams [3]bool
	regs    [3]drift.Registers
}

// replaceProfiles swaps built profiles in as the fleet's whole state,
// into per-shard maps presized from the node count. The profiles come
// from the log the fleet will append to, so they are admitted clean.
func (f *Fleet) replaceProfiles(ps []*profile) error {
	shardOf := make([]int, len(ps))
	sizes := make([]int, len(f.shards))
	for i, p := range ps {
		shardOf[i] = f.shardIndex(p.id)
		sizes[shardOf[i]]++
	}
	restored := make([]map[string]*profile, len(f.shards))
	for i := range restored {
		restored[i] = make(map[string]*profile, sizes[i])
	}
	var observed, stale, driftTotal int64
	for i, p := range ps {
		m := restored[shardOf[i]]
		if _, dup := m[p.id]; dup {
			return fmt.Errorf("fleet: snapshot contains node %s twice", p.id)
		}
		p.dirty = false
		m[p.id] = p
		observed += p.observed
		stale += p.stale
		driftTotal += p.driftEvents
	}
	// All-or-nothing: the maps go in only once every node passed.
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		sh.nodes = restored[i]
		sh.mu.Unlock()
	}
	f.accepted.Store(observed)
	f.stale.Store(stale)
	f.driftEvents.Store(driftTotal)
	return nil
}

// buildProfile validates one persisted node against this fleet's
// configuration and hydrates it into a live profile — the single
// admission gate of ReadBinarySnapshot (whole-fleet replace) and
// ImportFrames (live shard handoff). Any shape mismatch
// or undecodable estimator state is an error; nothing is admitted
// partially. The profile comes back dirty.
func (f *Fleet) buildProfile(n *nodeRecord) (*profile, error) {
	if n.id == "" {
		return nil, fmt.Errorf("fleet: snapshot contains a node with an empty ID")
	}
	slots, rushSlots := n.learner.Slots(), n.learner.RushSlots()
	if slots != len(f.cfg.Base.Slots) {
		return nil, fmt.Errorf("fleet: node %s learner has %d slots, base scenario has %d", n.id, slots, len(f.cfg.Base.Slots))
	}
	if rushSlots != f.cfg.RushSlots {
		// RushSlots is fleet configuration, not base-scenario state,
		// so the fingerprint guard cannot catch this; a mismatch would
		// make restored nodes rank a different number of rush slots
		// than newly admitted ones.
		return nil, fmt.Errorf("fleet: node %s learner ranks %d rush slots, fleet is configured for %d", n.id, rushSlots, f.cfg.RushSlots)
	}
	length, err := learn.RestoreContactLength(n.length)
	if err != nil {
		return nil, fmt.Errorf("fleet: node %s: %w", n.id, err)
	}
	upload, err := learn.RestoreUploadAmount(n.upload)
	if err != nil {
		return nil, fmt.Errorf("fleet: node %s: %w", n.id, err)
	}
	override := ""
	if n.strategy != "" {
		strat, err := strategy.Lookup(n.strategy)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %s: %w", n.id, err)
		}
		override = strat.Name()
	}
	p := &profile{
		id:         n.id,
		strategy:   override,
		length:     length,
		upload:     upload,
		learner:    n.learner,
		epoch:      n.epoch,
		observed:   n.observed,
		stale:      n.stale,
		mon:        f.newMonitor(),
		firstDrift: -1,
		lastDrift:  -1,
		dirty:      true,
	}
	if err := f.restoreDrift(p, &n.drift); err != nil {
		return nil, fmt.Errorf("fleet: node %s: %w", n.id, err)
	}
	return p, nil
}

// restoreDrift applies a persisted drift state to a freshly built
// profile. Counters always carry over; detector registers restore only
// when this fleet runs a detector (a fleet configured without one
// keeps the history but drops the registers, and a node from a
// detector-less fleet leaves the fresh detectors in warmup).
func (f *Fleet) restoreDrift(p *profile, ds *driftRecord) error {
	if !ds.present {
		return nil
	}
	if ds.events < 0 {
		return fmt.Errorf("fleet: snapshot has negative drift event count %d", ds.events)
	}
	if ds.contacts < 0 || ds.lenSum < 0 {
		return fmt.Errorf("fleet: snapshot has negative epoch accumulators (%d contacts, %g length)", ds.contacts, ds.lenSum)
	}
	p.driftEvents = ds.events
	if ds.events > 0 {
		p.firstDrift, p.lastDrift = ds.first, ds.last
	}
	p.epochContacts = ds.contacts
	p.epochLenSum = ds.lenSum
	if p.mon == nil {
		return nil
	}
	for i, det := range [3]drift.Detector{p.mon.rate, p.mon.length, p.mon.share} {
		if !ds.streams[i] {
			continue
		}
		if err := det.RestoreRegisters(&ds.regs[i]); err != nil {
			return fmt.Errorf("%s stream: %w", streamNames[i], err)
		}
	}
	return nil
}

// streamNames names the monitor's streams in rate, length, share order.
var streamNames = [3]string{"rate", "length", "share"}
