package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"rushprobe/internal/drift"
	"rushprobe/internal/learn"
	"rushprobe/internal/strategy"
	"rushprobe/internal/telemetry"
)

// snapshotVersion is bumped on incompatible snapshot layout changes.
const snapshotVersion = 1

// Snapshot is the serializable state of a Fleet: every node's learned
// estimators. Plans are not persisted — they are pure functions of the
// learned state and re-derive (bit-identically) on demand after a
// Restore. Nodes are sorted by ID so snapshot bytes are deterministic.
type Snapshot struct {
	Version int `json:"version"`
	// BaseFingerprint guards against restoring into a fleet configured
	// with a different base deployment.
	BaseFingerprint uint64      `json:"baseFingerprint,string"`
	Nodes           []NodeState `json:"nodes"`
}

// NodeState is one node's serialized profile.
type NodeState struct {
	ID string `json:"id"`
	// Strategy is the node's strategy override (canonical name); empty
	// means the fleet default, so pre-strategy snapshots restore
	// unchanged.
	Strategy string                   `json:"strategy,omitempty"`
	Epoch    int                      `json:"epoch"`
	Observed int64                    `json:"observed"`
	Stale    int64                    `json:"stale,omitempty"`
	Length   learn.ContactLengthState `json:"length"`
	Upload   learn.UploadAmountState  `json:"upload"`
	Learner  learn.RushHourState      `json:"learner"`
	// Drift is the node's drift-detection state; nil (omitted) when the
	// fleet runs without a detector and the node has never drifted, so
	// pre-drift snapshots restore unchanged.
	Drift *NodeDriftState `json:"drift,omitempty"`
}

// NodeDriftState is a node's serialized drift-detection state: the
// event counters, the current epoch's partial stream accumulators, and
// each stream detector's internal registers — everything a restarted
// daemon needs so an in-progress detection picks up exactly where it
// left off.
type NodeDriftState struct {
	// Events counts detector firings; First and Last are the epoch
	// indices of the first and latest firings. Both are only meaningful
	// when Events > 0 (a firing needs warmup, so a real first epoch is
	// never 0 and omitempty is safe).
	Events int64 `json:"events,omitempty"`
	First  int   `json:"first,omitempty"`
	Last   int   `json:"last,omitempty"`
	// Contacts and LenSum are the current epoch's partial rate/length
	// accumulators (the learner's own accumulator rides in Learner).
	Contacts int     `json:"contacts,omitempty"`
	LenSum   float64 `json:"lenSum,omitempty"`
	// Rate, Length, and Share are the per-stream detector states; nil
	// when the snapshotting fleet ran without a detector.
	Rate   *drift.State `json:"rate,omitempty"`
	Length *drift.State `json:"length,omitempty"`
	Share  *drift.State `json:"share,omitempty"`
}

// Snapshot exports the fleet's learned state.
func (f *Fleet) Snapshot() *Snapshot {
	s := &Snapshot{Version: snapshotVersion, BaseFingerprint: f.baseFP}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, p := range sh.nodes {
			s.Nodes = append(s.Nodes, NodeState{
				ID:       p.id,
				Strategy: p.strategy,
				Epoch:    p.epoch,
				Observed: p.observed,
				Stale:    p.stale,
				Length:   p.length.State(),
				Upload:   p.upload.State(),
				Learner:  p.learner.State(),
				Drift:    driftState(p),
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(s.Nodes, func(a, b int) bool { return s.Nodes[a].ID < s.Nodes[b].ID })
	return s
}

// Restore replaces the fleet's profiles with the snapshot's. The
// snapshot must come from a fleet with the same base deployment
// (fingerprint-checked) and slot count. Cached plans survive: they are
// keyed by learned-state fingerprints, which restoring does not change.
func (f *Fleet) Restore(s *Snapshot) error {
	if s.Version != snapshotVersion {
		return fmt.Errorf("fleet: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	if s.BaseFingerprint != f.baseFP {
		return fmt.Errorf("fleet: snapshot base fingerprint %016x does not match configured base %016x", s.BaseFingerprint, f.baseFP)
	}
	ps := make([]*profile, len(s.Nodes))
	for i := range s.Nodes {
		rec := stateRecord(&s.Nodes[i])
		p, err := f.buildProfile(&rec)
		if err != nil {
			return err
		}
		ps[i] = p
	}
	// Restored nodes stay dirty: a JSON snapshot is a foreign source no
	// binary log contains yet.
	return f.replaceProfiles(ps, true)
}

// nodeRecord is one node's persisted state as the admission gate
// (buildProfile) reads it. A binary node frame decodes straight into
// one — learner hydrated, drift registers in fixed arrays, no maps, no
// NodeState — and a JSON NodeState converts into one.
type nodeRecord struct {
	id       string
	strategy string
	epoch    int
	observed int64
	stale    int64
	length   learn.ContactLengthState
	upload   learn.UploadAmountState
	// learner is hydrated by the binary decoder; a JSON node carries
	// learnerState instead, which the gate restores.
	learner      *learn.RushHourLearner
	learnerState *learn.RushHourState
	drift        driftRecord
}

// driftRecord is a node's persisted drift state (see NodeDriftState).
type driftRecord struct {
	present     bool
	events      int64
	first, last int
	contacts    int
	lenSum      float64
	// streams flags which of regs (rate, length, share) hold a
	// detector's registers.
	streams [3]bool
	regs    [3]drift.Registers
}

// stateRecord converts a JSON snapshot node for the admission gate.
func stateRecord(n *NodeState) nodeRecord {
	rec := nodeRecord{
		id:           n.ID,
		strategy:     n.Strategy,
		epoch:        n.Epoch,
		observed:     n.Observed,
		stale:        n.Stale,
		length:       n.Length,
		upload:       n.Upload,
		learnerState: &n.Learner,
	}
	if ds := n.Drift; ds != nil {
		rec.drift = driftRecord{present: true, events: ds.Events, first: ds.First, last: ds.Last, contacts: ds.Contacts, lenSum: ds.LenSum}
		for i, st := range [3]*drift.State{ds.Rate, ds.Length, ds.Share} {
			if st != nil {
				rec.drift.streams[i] = true
				rec.drift.regs[i] = st.Registers()
			}
		}
	}
	return rec
}

// replaceProfiles swaps built profiles in as the fleet's whole state,
// into per-shard maps presized from the node count. dirty is the
// profiles' delta-log bit.
func (f *Fleet) replaceProfiles(ps []*profile, dirty bool) error {
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
		p.dirty = dirty
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
// admission gate of Restore and ReadBinarySnapshot (whole-fleet
// replace) and ImportFrames (live shard handoff). Any shape mismatch
// or undecodable estimator state is an error; nothing is admitted
// partially. The profile comes back dirty.
func (f *Fleet) buildProfile(n *nodeRecord) (*profile, error) {
	if n.id == "" {
		return nil, fmt.Errorf("fleet: snapshot contains a node with an empty ID")
	}
	var slots, rushSlots int
	if n.learner != nil {
		slots, rushSlots = n.learner.Slots(), n.learner.RushSlots()
	} else {
		slots, rushSlots = len(n.learnerState.Slots), n.learnerState.RushSlots
	}
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
	learner := n.learner
	if learner == nil {
		if learner, err = learn.RestoreRushHourLearner(*n.learnerState); err != nil {
			return nil, fmt.Errorf("fleet: node %s: %w", n.id, err)
		}
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
		learner:    learner,
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

// driftState exports a profile's drift-detection state for the JSON
// snapshot, or nil when there is nothing to persist (detection disabled
// and no recorded events), keeping pre-drift snapshots byte-identical.
func driftState(p *profile) *NodeDriftState {
	if p.mon == nil && p.driftEvents == 0 {
		return nil
	}
	ds := &NodeDriftState{Events: p.driftEvents}
	if p.driftEvents > 0 {
		ds.First, ds.Last = p.firstDrift, p.lastDrift
	}
	if p.mon != nil {
		ds.Contacts = p.epochContacts
		ds.LenSum = p.epochLenSum
		var states [3]*drift.State
		for i, d := range [3]drift.Detector{p.mon.rate, p.mon.length, p.mon.share} {
			r := d.Registers()
			s := r.State()
			states[i] = &s
		}
		ds.Rate, ds.Length, ds.Share = states[0], states[1], states[2]
	}
	return ds
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

// WriteSnapshot serializes the fleet's state as JSON. With telemetry
// armed, the full snapshot+encode pass is timed into the snapshot-save
// histogram and recorded as a span carrying the node count.
func (f *Fleet) WriteSnapshot(w io.Writer) error {
	tel := f.cfg.Telemetry
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	s := f.Snapshot()
	enc := json.NewEncoder(w)
	//rushlint:allow floatexact — JSON snapshot keeps its wire format; Go's encoder emits shortest round-trip float representations, and TestSnapshotJSONFloatRoundTrip pins the exactness
	err := enc.Encode(s)
	if tel != nil {
		d := time.Since(start)
		tel.SnapshotSave.Observe(d)
		tel.Traces.Record(telemetry.Span{
			Stage:    "snapshot-save",
			Shard:    -1,
			Count:    len(s.Nodes),
			Start:    start,
			Duration: d,
		})
	}
	if err != nil {
		return fmt.Errorf("fleet: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot restores the fleet's state from JSON written by
// WriteSnapshot. With telemetry armed, the decode+restore pass is timed
// into the snapshot-restore histogram.
func (f *Fleet) ReadSnapshot(r io.Reader) error {
	tel := f.cfg.Telemetry
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("fleet: decode snapshot: %w", err)
	}
	err := f.Restore(&s)
	if tel != nil {
		d := time.Since(start)
		tel.SnapshotRestore.Observe(d)
		tel.Traces.Record(telemetry.Span{
			Stage:    "snapshot-restore",
			Shard:    -1,
			Count:    len(s.Nodes),
			Start:    start,
			Duration: d,
		})
	}
	return err
}
