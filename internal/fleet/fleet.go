// Package fleet is the online serving layer of the system: a sharded
// in-memory store of per-node rush-hour profiles fed by batched contact
// observations, and a fingerprint-keyed plan cache that turns learned
// profiles into probing schedules.
//
// The paper's §VII.B sketches nodes that learn their rush hours online;
// package learn provides the estimators (contact-length EWMA, upload
// EWMA, rush-hour ranker) and this package runs one set of them per
// node at fleet scale. Each node's learned state quantizes to a
// scenario (package scenario), whose Fingerprint keys a shared plan
// cache: nodes whose learned profiles round to the same scenario share
// one optimizer solve instead of re-optimizing per node. A binary
// snapshot log (WriteBinarySnapshot/ReadBinarySnapshot) lets a
// restarted daemon resume learned state and serve bit-identical
// schedules.
//
// All operations are deterministic given the same observation batches
// in the same order, which is what makes snapshot/restore and
// cache-sharing testable end to end.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rushprobe/internal/drift"
	"rushprobe/internal/scenario"
	"rushprobe/internal/simtime"
	"rushprobe/internal/strategy"
	"rushprobe/internal/telemetry"
)

// Observation is one probed (or ground-truth) contact reported by a
// node: when it started, how long it lasted, and optionally how many
// bytes were uploaded during it.
type Observation struct {
	// Node identifies the reporting sensor node.
	Node string `json:"node"`
	// Time is the contact start in seconds since the node's deployment
	// (the node's own epoch 0).
	Time float64 `json:"time"`
	// Length is the contact length in seconds.
	Length float64 `json:"length"`
	// Uploaded is the data volume delivered during the contact in bytes.
	// UploadedUnknown (-1) means unknown; zero is a legitimate
	// observation (a contact probed with an empty buffer). Any other
	// negative or non-finite value marks the whole observation invalid.
	Uploaded float64 `json:"uploaded"`
}

// UploadedUnknown is the Uploaded sentinel for "the node did not report
// an upload amount" (also what an absent JSON field decodes to).
const UploadedUnknown = -1

// UnmarshalJSON decodes an observation, distinguishing an absent
// "uploaded" field (unknown, -1) from an explicit zero.
func (o *Observation) UnmarshalJSON(data []byte) error {
	type wire struct {
		Node     string   `json:"node"`
		Time     float64  `json:"time"`
		Length   float64  `json:"length"`
		Uploaded *float64 `json:"uploaded"`
	}
	var w wire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	o.Node = w.Node
	o.Time = w.Time
	o.Length = w.Length
	if w.Uploaded == nil {
		o.Uploaded = UploadedUnknown
	} else {
		o.Uploaded = *w.Uploaded
	}
	return nil
}

// maxObservationTime bounds accepted observation times (~31k years of
// deployment); beyond it epoch indices would overflow int conversion.
const maxObservationTime = 1e12

// maxUploadedBytes bounds a single contact's reported upload (1 PB).
// Huge-but-finite values would otherwise overflow the upload EWMA
// toward +Inf and poison every later snapshot.
const maxUploadedBytes = 1e15

// Config parameterizes a Fleet. The zero value of every field except
// Base selects a sensible default.
type Config struct {
	// Base is the deployment template: its epoch/slot structure, radio,
	// budget, and capacity target are what every node's learned scenario
	// inherits. Required.
	Base *scenario.Scenario
	// Shards is the number of independently locked profile shards.
	// Default 16.
	Shards int
	// RushSlots is how many slots a learned profile marks as rush hours.
	// Default: the base scenario's rush-slot count, else slots/6 (min 1).
	RushSlots int
	// BootstrapEpochs is how many completed epochs a node must observe
	// before its learned plan replaces the bootstrap SNIP-AT plan.
	// Default 3.
	BootstrapEpochs int
	// Strategy selects the default strategy served after bootstrap:
	// any registered strategy name or alias (package strategy), default
	// SNIP-OPT. During bootstrap every node runs SNIP-AT at the
	// budget-capped duty (the paper's low-duty learning phase), so
	// SNIP-AT pins nodes to the bootstrap plan forever (a control
	// setting). Individual nodes override it via SetStrategy.
	Strategy string
	// CapacityQuantum quantizes learned per-slot capacities (seconds per
	// epoch) before fingerprinting, so near-identical profiles share one
	// cached plan. Default 1.
	CapacityQuantum float64
	// LengthQuantum quantizes the learned mean contact length (seconds).
	// Default 0.1.
	LengthQuantum float64
	// MaxEpochSkip caps how many empty epochs a single observation folds
	// into the learner when a node goes quiet: beyond it the EWMAs have
	// fully decayed, so the remaining gap is skipped. Default 64.
	MaxEpochSkip int
	// DriftDetector selects the streaming change-point detector watching
	// each node's per-epoch observation streams (probed contact rate,
	// mean contact length, rush-mask capacity share): "cusum",
	// "page-hinkley", or "" / "none" / "off" to disable. Default
	// disabled. When a detector fires, the node relearns from scratch
	// (Relearn) and its cached plan is invalidated, instead of waiting
	// for EWMA decay. See package drift.
	DriftDetector string
	// DriftTuning overrides the detector defaults; the zero value
	// selects the drift package defaults.
	DriftTuning drift.Config
	// Telemetry, when non-nil, arms per-stage latency histograms and
	// span tracing around ingest, schedule serving, optimizer solves,
	// snapshot save/restore, and AdvanceEpoch, and routes drift firings
	// through its structured logger. nil (the default) keeps every
	// instrumented path at a single pointer compare of overhead.
	Telemetry *telemetry.Telemetry
}

// withDefaults resolves the zero-value fields.
func (c Config) withDefaults() (Config, error) {
	if c.Base == nil {
		return c, errors.New("fleet: config needs a base scenario")
	}
	if err := c.Base.Validate(); err != nil {
		return c, err
	}
	if c.Shards == 0 {
		c.Shards = 16
	}
	if c.Shards < 1 {
		return c, fmt.Errorf("fleet: shard count must be positive, got %d", c.Shards)
	}
	if c.RushSlots == 0 {
		for _, s := range c.Base.Slots {
			if s.RushHour {
				c.RushSlots++
			}
		}
		if c.RushSlots == 0 {
			c.RushSlots = len(c.Base.Slots) / 6
		}
		if c.RushSlots < 1 {
			c.RushSlots = 1
		}
	}
	if c.RushSlots < 0 || c.RushSlots > len(c.Base.Slots) {
		return c, fmt.Errorf("fleet: rush slots %d out of [1, %d]", c.RushSlots, len(c.Base.Slots))
	}
	if c.BootstrapEpochs == 0 {
		c.BootstrapEpochs = 3
	}
	if c.BootstrapEpochs < 0 {
		return c, fmt.Errorf("fleet: bootstrap epochs must be non-negative, got %d", c.BootstrapEpochs)
	}
	if c.Strategy == "" {
		c.Strategy = strategy.NameOPT
	} else {
		s, err := strategy.Lookup(c.Strategy)
		if err != nil {
			return c, fmt.Errorf("fleet: %w", err)
		}
		c.Strategy = s.Name()
	}
	if c.CapacityQuantum == 0 {
		c.CapacityQuantum = 1
	}
	if c.CapacityQuantum < 0 || !isFinite(c.CapacityQuantum) {
		return c, fmt.Errorf("fleet: capacity quantum must be positive, got %g", c.CapacityQuantum)
	}
	if c.LengthQuantum == 0 {
		c.LengthQuantum = 0.1
	}
	if c.LengthQuantum < 0 || !isFinite(c.LengthQuantum) {
		return c, fmt.Errorf("fleet: length quantum must be positive, got %g", c.LengthQuantum)
	}
	if c.MaxEpochSkip == 0 {
		c.MaxEpochSkip = 64
	}
	if c.MaxEpochSkip < 1 {
		return c, fmt.Errorf("fleet: max epoch skip must be positive, got %d", c.MaxEpochSkip)
	}
	switch c.DriftDetector {
	case "none", "off":
		c.DriftDetector = ""
	}
	if c.DriftDetector != "" {
		c.DriftDetector = drift.Canonical(c.DriftDetector)
		if _, err := drift.New(c.DriftDetector, c.DriftTuning); err != nil {
			return c, fmt.Errorf("fleet: %w", err)
		}
	}
	return c, nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// validUpload reports whether an Observation.Uploaded value is
// acceptable at ingest: the UploadedUnknown sentinel, or a finite
// non-negative byte count within the sanity bound. NaN in particular
// must be rejected here — it slips through ordinary comparisons (every
// compare is false) and would poison the upload EWMA permanently.
func validUpload(v float64) bool {
	return v == UploadedUnknown || (isFinite(v) && v >= 0 && v <= maxUploadedBytes)
}

// Schedule is a served probing plan: the per-slot duty cycles of one
// strategy together with the plan's analytical outcome. Schedules are
// shared and immutable — callers must not modify Duty.
type Schedule struct {
	// Mechanism names the plan family that was served: the canonical
	// name of the strategy that produced the plan, which is SNIP-AT
	// during bootstrap whatever strategy the node is set to.
	Mechanism string `json:"mechanism"`
	// Duty is the duty cycle per slot of the epoch.
	Duty []float64 `json:"duty"`
	// Zeta and Phi are the plan's expected probed capacity and probing
	// energy in seconds per epoch.
	Zeta float64 `json:"zeta"`
	Phi  float64 `json:"phi"`
	// TargetMet reports whether the plan reaches the capacity target.
	TargetMet bool `json:"targetMet"`
	// Fingerprint identifies the (quantized) scenario the plan was
	// solved for; nodes with equal fingerprints share one plan.
	Fingerprint uint64 `json:"fingerprint,string"`
}

// Stats aggregates fleet-wide counters.
type Stats struct {
	// Nodes is the number of tracked profiles.
	Nodes int `json:"nodes"`
	// Observations counts accepted contact observations.
	Observations int64 `json:"observations"`
	// Stale counts observations discarded for arriving in an epoch the
	// node has already folded.
	Stale int64 `json:"stale"`
	// Invalid counts observations rejected outright (empty node ID,
	// non-finite or negative time, non-positive length).
	Invalid int64 `json:"invalid"`
	// PlanSolves counts optimizer solves; PlanCacheHits counts schedule
	// requests served from the fingerprint cache.
	PlanSolves    int64 `json:"planSolves"`
	PlanCacheHits int64 `json:"planCacheHits"`
	// CachedPlans is the number of distinct fingerprints cached.
	CachedPlans int `json:"cachedPlans"`
	// DriftEvents counts drift-detector firings across the fleet (zero
	// when detection is disabled).
	DriftEvents int64 `json:"driftEvents"`
}

// shard is one lock domain of the profile store.
type shard struct {
	mu    sync.Mutex
	nodes map[string]*profile
}

// Fleet is the sharded store of per-node profiles plus the shared plan
// cache. All methods are safe for concurrent use.
type Fleet struct {
	cfg          Config
	clk          *simtime.Clock
	slotLen      float64
	epochSeconds float64
	baseFP       uint64
	bootstrap    *Schedule
	shards       []shard
	cache        planCache

	// Fleet-level counters, kept as atomics so Stats never has to walk
	// the profiles under the shard locks.
	accepted    atomic.Int64
	stale       atomic.Int64
	invalid     atomic.Int64
	driftEvents atomic.Int64
}

// New builds a Fleet over the base scenario carried by cfg.
func New(cfg Config) (*Fleet, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	clk, err := cfg.Base.Clock()
	if err != nil {
		return nil, err
	}
	baseFP, err := cfg.Base.Fingerprint()
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:          cfg,
		clk:          clk,
		slotLen:      cfg.Base.SlotLen().Seconds(),
		epochSeconds: cfg.Base.Epoch.Seconds(),
		baseFP:       baseFP,
		shards:       make([]shard, cfg.Shards),
	}
	for i := range f.shards {
		f.shards[i].nodes = make(map[string]*profile)
	}
	f.cache.entries = make(map[planKey]*cacheEntry)
	if f.bootstrap, err = f.bootstrapSchedule(); err != nil {
		return nil, err
	}
	return f, nil
}

// bootstrapSchedule is the SNIP-AT plan served before a node has
// learned anything: the periodic strategy's fixed duty for the base
// scenario's target, capped by the energy budget — exactly the "very
// small duty cycle" bootstrap of §VII.B.
func (f *Fleet) bootstrapSchedule() (*Schedule, error) {
	return f.solve(strategy.NameAT, f.cfg.Base, f.baseFP)
}

// shardIndex maps a node ID to its shard with an inline FNV-1a hash
// (no allocation on the ingest hot path).
func (f *Fleet) shardIndex(node string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(f.shards)))
}

func (f *Fleet) shardOf(node string) *shard { return &f.shards[f.shardIndex(node)] }

// Observe folds a batch of contact observations into the fleet and
// returns how many were accepted. Invalid observations (empty node ID,
// non-finite or negative time, non-positive length, a length longer
// than the epoch, an upload that is absurd, NaN, or negative without
// being the UploadedUnknown sentinel) and stale ones (earlier than an
// epoch the node has already folded) are counted in Stats and skipped;
// ingest never fails, so a misbehaving node cannot wedge the batch —
// or poison the learned state with values that overflow the EWMAs. The
// steady-state path allocates nothing.
func (f *Fleet) Observe(batch []Observation) int {
	return f.ObserveContext(context.Background(), batch)
}

// ObserveContext is Observe with request-scoped telemetry: when the
// fleet carries a Telemetry bundle, the batch is timed into the ingest
// histogram and recorded as a span tagged with the context's request
// ID. With telemetry disabled it is exactly Observe.
func (f *Fleet) ObserveContext(ctx context.Context, batch []Observation) int {
	tel := f.cfg.Telemetry
	if tel == nil {
		return f.observe(batch)
	}
	start := time.Now()
	accepted := f.observe(batch)
	d := time.Since(start)
	tel.Ingest.Observe(d)
	tel.Traces.Record(telemetry.Span{
		Request:  telemetry.RequestID(ctx),
		Stage:    "ingest",
		Shard:    -1,
		Count:    len(batch),
		Start:    start,
		Duration: d,
	})
	return accepted
}

//rushlint:hotpath
func (f *Fleet) observe(batch []Observation) int {
	accepted := 0
	for i := range batch {
		o := &batch[i]
		if o.Node == "" || !(o.Time >= 0) || o.Time > maxObservationTime ||
			!(o.Length > 0) || o.Length > f.epochSeconds ||
			!validUpload(o.Uploaded) {
			f.invalid.Add(1)
			continue
		}
		sh := f.shardOf(o.Node)
		sh.mu.Lock()
		p := sh.nodes[o.Node]
		if p == nil {
			p = f.newProfile(o.Node)
			sh.nodes[o.Node] = p
		}
		if f.fold(p, o) {
			accepted++
		}
		sh.mu.Unlock()
	}
	return accepted
}

// advanceTo folds the epoch boundaries between the profile's current
// epoch and e (exclusive) into the learner, in order. Callers hold the
// shard lock and guarantee e >= p.epoch.
//
//rushlint:hotpath
func (f *Fleet) advanceTo(p *profile, e int) {
	if gap := e - p.epoch; gap > f.cfg.MaxEpochSkip {
		// The node was silent long enough that every EWMA has decayed to
		// its floor; folding more empty epochs changes nothing.
		for i := 0; i < f.cfg.MaxEpochSkip; i++ {
			f.foldEpoch(p)
		}
		p.epoch = e
	} else {
		for p.epoch < e {
			f.foldEpoch(p)
			p.epoch++
		}
	}
}

// foldEpoch completes the profile's current epoch: it feeds the drift
// monitor the epoch's observation streams, folds the learner, and —
// when a detector fired — relearns the node. Callers hold the shard
// lock and advance p.epoch themselves.
//
//rushlint:hotpath
func (f *Fleet) foldEpoch(p *profile) {
	fired := false
	if p.mon != nil && p.learner.Epochs() >= f.cfg.BootstrapEpochs {
		// Streams are only watched after the node graduates: graduation
		// swaps the bootstrap SNIP-AT plan for the learned one, which
		// shifts the probed-rate distribution, and a detector warmed on
		// bootstrap epochs would mistake the node's own plan change for
		// environment drift. EpochShare must be read before EndEpoch
		// resets the accumulator.
		fired = p.mon.rate.Observe(float64(p.epochContacts))
		if p.epochContacts > 0 {
			fired = p.mon.length.Observe(p.epochLenSum/float64(p.epochContacts)) || fired
			if share, ok := p.learner.EpochShare(); ok {
				fired = p.mon.share.Observe(share) || fired
			}
		}
	}
	p.learner.EndEpoch()
	p.epochContacts = 0
	p.epochLenSum = 0
	if fired {
		// The pattern shifted under the learned plan. Stale ranking
		// evidence is worse than none — a learned plan only probes the
		// slots it already believes in, so the new rush hours may never
		// be observed at all; dropping back to the whole-epoch bootstrap
		// relearns the mask from scratch. The detectors reset with the
		// relearn (Observe did so on firing) and re-warm once the node
		// graduates again.
		p.learner.Relearn()
		p.mon.reset()
		p.driftEvents++
		if p.firstDrift < 0 {
			p.firstDrift = p.epoch
		}
		p.lastDrift = p.epoch
		p.sched = nil
		f.driftEvents.Add(1)
		if tel := f.cfg.Telemetry; tel != nil {
			// Drift firings are rare and operators page on them; surface
			// each one as a structured event, not just a counter bump.
			//rushlint:allow hotpath — drift firings are rare by construction; the boxed slog args are off the steady-state fold path
			tel.Logger.Info("drift detected, node relearning", "node", p.id, "epoch", p.epoch, "nodeDriftEvents", p.driftEvents)
		}
	}
}

// fold applies one valid observation to a profile. Epoch boundaries
// crossed since the node's last observation are folded into the learner
// in order, so ingest is deterministic in batch order.
//
//rushlint:hotpath
func (f *Fleet) fold(p *profile, o *Observation) bool {
	at := simtime.Instant(o.Time)
	e := f.clk.EpochIndex(at)
	if e < p.epoch {
		p.stale++
		f.stale.Add(1)
		p.dirty = true // the stale counter is persisted state
		return false
	}
	f.advanceTo(p, e)
	p.learner.ObserveContact(f.clk.SlotIndex(at), o.Length)
	p.epochContacts++
	p.epochLenSum += o.Length
	p.length.Observe(o.Length)
	if o.Uploaded >= 0 {
		p.upload.Observe(o.Uploaded)
	}
	p.observed++
	f.accepted.Add(1)
	p.sched = nil
	p.dirty = true
	return true
}

// AdvanceEpoch is the deterministic clock hook for co-simulation: it
// tells the fleet that the node has reached the start of the given
// epoch, folding every completed epoch boundary since the node's last
// report into its learner — including empty epochs that produced no
// observations, which pure observation-driven ingest can never fold
// (a silent node would otherwise sit in bootstrap forever). Long gaps
// are capped at MaxEpochSkip like ingest. Advancing is an explicit
// write: it admits an unknown node into the store. Epochs the node has
// already folded are a no-op, so the hook is idempotent per boundary.
func (f *Fleet) AdvanceEpoch(node string, epoch int) error {
	tel := f.cfg.Telemetry
	if tel == nil {
		return f.advanceEpoch(node, epoch)
	}
	start := time.Now()
	err := f.advanceEpoch(node, epoch)
	d := time.Since(start)
	tel.AdvanceEpoch.Observe(d)
	tel.Traces.Record(telemetry.Span{
		Stage:    "epoch",
		Node:     node,
		Shard:    f.shardIndex(node),
		Count:    epoch,
		Start:    start,
		Duration: d,
	})
	return err
}

func (f *Fleet) advanceEpoch(node string, epoch int) error {
	if node == "" {
		return errors.New("fleet: empty node ID")
	}
	if epoch < 0 {
		return fmt.Errorf("fleet: negative epoch %d", epoch)
	}
	sh := f.shardOf(node)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := sh.nodes[node]
	if p == nil {
		p = f.newProfile(node)
		sh.nodes[node] = p
	}
	if epoch <= p.epoch {
		return nil
	}
	f.advanceTo(p, epoch)
	p.sched = nil
	p.dirty = true
	return nil
}

// Schedule returns the probing plan currently in force for the node. A
// node that has never reported (or is still inside its bootstrap
// window) receives the shared bootstrap SNIP-AT plan, so a cold node is
// always servable. Serving never creates state: only the explicit
// write operations — Observe, SetStrategy, and AdvanceEpoch — admit
// nodes into the store, so schedule and profile reads for made-up IDs
// cannot grow memory. The returned Schedule is shared and must not be
// modified.
func (f *Fleet) Schedule(node string) (*Schedule, error) {
	return f.ScheduleContext(context.Background(), node)
}

// ScheduleContext is Schedule with request-scoped telemetry: when the
// fleet carries a Telemetry bundle, serving is timed into the schedule
// histogram and recorded as a span tagged with the context's request ID
// and how the plan was satisfied (bootstrap, per-node cache, plan-cache
// hit, or a fresh solve). With telemetry disabled it is exactly
// Schedule.
func (f *Fleet) ScheduleContext(ctx context.Context, node string) (*Schedule, error) {
	tel := f.cfg.Telemetry
	if tel == nil {
		s, _, err := f.schedule(node)
		return s, err
	}
	start := time.Now()
	s, source, err := f.schedule(node)
	d := time.Since(start)
	tel.Schedule.Observe(d)
	tel.Traces.Record(telemetry.Span{
		Request:  telemetry.RequestID(ctx),
		Stage:    "schedule",
		Node:     node,
		Shard:    f.shardIndex(node),
		Cache:    source,
		Start:    start,
		Duration: d,
	})
	return s, err
}

// schedule serves the plan and reports how it was satisfied: "bootstrap"
// (cold or pinned node), "node" (the profile's own cached pointer),
// "hit" (shared plan cache), or "miss" (a fresh optimizer solve).
func (f *Fleet) schedule(node string) (*Schedule, string, error) {
	if node == "" {
		return nil, "", errors.New("fleet: empty node ID")
	}
	sh := f.shardOf(node)
	sh.mu.Lock()
	p := sh.nodes[node]
	if p == nil {
		sh.mu.Unlock()
		// An unknown node is indistinguishable from a just-created
		// profile: zero completed epochs means the bootstrap plan (a
		// BootstrapEpochs of 0 only graduates nodes that exist, and they
		// only exist once they have observed).
		return f.bootstrap, "bootstrap", nil
	}
	if p.sched != nil {
		s := p.sched
		sh.mu.Unlock()
		return s, "node", nil
	}
	strat := f.strategyInForce(p)
	if strat == strategy.NameAT || p.learner.Epochs() < f.cfg.BootstrapEpochs {
		p.sched = f.bootstrap
		sh.mu.Unlock()
		return f.bootstrap, "bootstrap", nil
	}
	sc := f.learnedScenario(p)
	fp, err := sc.Fingerprint()
	// The optimizer solve must not run under the shard lock: the lock
	// serializes every Observe and Schedule on this shard, and a solve
	// is milliseconds of CPU against the ingest path's nanoseconds
	// (rushlint's locksafe analyzer now rejects callbacks under the
	// lock, which is exactly where this solve used to hide). The
	// snapshot of learned state taken above — strat, sc, fp — fully
	// determines the plan, so the solve needs nothing the lock guards.
	sh.mu.Unlock()
	if err != nil {
		return nil, "", err
	}
	sched, hit, err := f.cache.get(planKey{fp: fp, strategy: strat}, func() (*Schedule, error) {
		tel := f.cfg.Telemetry
		if tel == nil {
			return f.solve(strat, sc, fp)
		}
		t0 := time.Now()
		s, err := f.solve(strat, sc, fp)
		d := time.Since(t0)
		tel.Solve.Observe(d)
		tel.Traces.Record(telemetry.Span{
			Stage:    "solve",
			Node:     node,
			Shard:    f.shardIndex(node),
			Detail:   strat,
			Start:    t0,
			Duration: d,
		})
		return s, err
	})
	if err != nil {
		return nil, "", err
	}
	source := "hit"
	if !hit {
		source = "miss"
	}
	// Re-take the lock to pin the plan on the node, but only if the
	// profile still quantizes to the scenario the plan was solved for —
	// a concurrent Observe, AdvanceEpoch, SetStrategy, or restore may
	// have moved the node on while the solve ran, and pinning a plan
	// for the superseded state would serve it stale until the next
	// invalidation. The plan we computed is still correct for the
	// request that asked for it either way.
	sh.mu.Lock()
	if sh.nodes[node] == p && p.sched == nil && f.strategyInForce(p) == strat {
		if fp2, err2 := f.learnedScenario(p).Fingerprint(); err2 == nil && fp2 == fp {
			p.sched = sched
		}
	}
	sh.mu.Unlock()
	return sched, source, nil
}

// ScheduleBatch returns the probing plan currently in force for each
// node, in input order — the batch-serving hook co-simulation and bulk
// exporters use. It fails on the first unservable node, identifying it;
// partial results are discarded. Like Schedule, serving never creates
// state, and the returned Schedules are shared and immutable.
func (f *Fleet) ScheduleBatch(nodes []string) ([]*Schedule, error) {
	out := make([]*Schedule, len(nodes))
	for i, node := range nodes {
		s, err := f.Schedule(node)
		if err != nil {
			return nil, fmt.Errorf("fleet: schedule for node %q: %w", node, err)
		}
		out[i] = s
	}
	return out, nil
}

// SetStrategy sets the strategy serving the node's schedule from the
// next request on: any registered strategy name or alias, or the empty
// string to clear the override and fall back to the fleet default. It
// returns the canonical name now in force. Unlike reads, setting a
// strategy admits an unknown node into the store (it is an explicit
// write), so a node can be assigned a strategy before its first report.
func (f *Fleet) SetStrategy(node, name string) (string, error) {
	if node == "" {
		return "", errors.New("fleet: empty node ID")
	}
	canonical := ""
	if name != "" {
		s, err := strategy.Lookup(name)
		if err != nil {
			return "", fmt.Errorf("fleet: %w", err)
		}
		canonical = s.Name()
	}
	sh := f.shardOf(node)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := sh.nodes[node]
	if p == nil {
		p = f.newProfile(node)
		sh.nodes[node] = p
	}
	if p.strategy != canonical {
		p.strategy = canonical
		p.sched = nil
		p.dirty = true
	}
	return f.strategyInForce(p), nil
}

// Profile reports a node's learned state. An unknown node returns a
// zero-valued profile with Bootstrapping set; reading never creates
// state.
func (f *Fleet) Profile(node string) (NodeProfile, error) {
	if node == "" {
		return NodeProfile{}, errors.New("fleet: empty node ID")
	}
	sh := f.shardOf(node)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p := sh.nodes[node]
	if p == nil {
		return NodeProfile{
			Node:            node,
			Strategy:        f.cfg.Strategy,
			Bootstrapping:   true,
			RushMask:        make([]bool, len(f.cfg.Base.Slots)),
			SlotCapacity:    make([]float64, len(f.cfg.Base.Slots)),
			FirstDriftEpoch: -1,
			LastDriftEpoch:  -1,
		}, nil
	}
	return NodeProfile{
		Node:              node,
		Strategy:          f.strategyInForce(p),
		Epochs:            p.learner.Epochs(),
		Observations:      p.observed,
		Stale:             p.stale,
		MeanContactLength: p.length.Mean(),
		UploadThreshold:   p.upload.Threshold(),
		SlotCapacity:      p.learner.Capacity(),
		RushMask:          p.learner.Mask(),
		Bootstrapping:     p.learner.Epochs() < f.cfg.BootstrapEpochs,
		DriftEvents:       p.driftEvents,
		FirstDriftEpoch:   p.firstDrift,
		LastDriftEpoch:    p.lastDrift,
	}, nil
}

// NodeProfile is the externally visible learned state of one node.
type NodeProfile struct {
	Node string `json:"node"`
	// Strategy is the canonical name of the strategy in force for the
	// node (its override when set, the fleet default otherwise).
	Strategy string `json:"strategy"`
	// Epochs is how many epochs the node's learner has completed.
	Epochs int `json:"epochs"`
	// Observations and Stale count accepted and discarded reports.
	Observations int64 `json:"observations"`
	Stale        int64 `json:"stale"`
	// MeanContactLength is the learned mean contact length in seconds.
	MeanContactLength float64 `json:"meanContactLength"`
	// UploadThreshold is the learned "enough data buffered" threshold in
	// bytes (§VI.B condition 2).
	UploadThreshold float64 `json:"uploadThreshold"`
	// SlotCapacity is the learned per-slot contact capacity (s/epoch).
	SlotCapacity []float64 `json:"slotCapacity"`
	// RushMask marks the learner's current top slots.
	RushMask []bool `json:"rushMask"`
	// Bootstrapping reports whether the node still serves the bootstrap
	// plan.
	Bootstrapping bool `json:"bootstrapping"`
	// DriftEvents counts how many times the node's drift detector has
	// fired; FirstDriftEpoch and LastDriftEpoch are the epoch indices of
	// the first and latest firings (-1 when none).
	DriftEvents     int64 `json:"driftEvents"`
	FirstDriftEpoch int   `json:"firstDriftEpoch"`
	LastDriftEpoch  int   `json:"lastDriftEpoch"`
}

// Stats returns fleet-wide counters. The counters are atomics and the
// node count is O(shards), so health probes never walk the profiles or
// contend with ingest.
func (f *Fleet) Stats() Stats {
	var s Stats
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		s.Nodes += len(sh.nodes)
		sh.mu.Unlock()
	}
	s.Observations = f.accepted.Load()
	s.Stale = f.stale.Load()
	s.Invalid = f.invalid.Load()
	s.PlanSolves = f.cache.solves.Load()
	s.PlanCacheHits = f.cache.hits.Load()
	s.DriftEvents = f.driftEvents.Load()
	f.cache.mu.Lock()
	s.CachedPlans = len(f.cache.entries)
	f.cache.mu.Unlock()
	return s
}

// StrategyNodes counts the profiles each canonical strategy name is
// currently serving (nodes without an override count under the fleet
// default) — the per-strategy gauge the daemon's /metrics endpoint
// exports. The walk takes each shard lock once; call it at scrape
// cadence, not on the ingest path.
func (f *Fleet) StrategyNodes() map[string]int {
	out := make(map[string]int)
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, p := range sh.nodes {
			out[f.strategyInForce(p)]++
		}
		sh.mu.Unlock()
	}
	return out
}

// ShardNodes returns the node count of each profile shard, in shard
// order — the balance gauge behind rushprobe_shard_nodes. O(shards),
// one lock acquisition each.
func (f *Fleet) ShardNodes() []int {
	out := make([]int, len(f.shards))
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		out[i] = len(sh.nodes)
		sh.mu.Unlock()
	}
	return out
}

// MemoryStats estimates the profile store's resident size.
type MemoryStats struct {
	// Nodes is the number of tracked profiles.
	Nodes int `json:"nodes"`
	// ProfileBytes is the estimated bytes held by all profiles: structs,
	// learner slices, drift detectors, and map-entry overhead. It is a
	// capacity-planning estimate, not a heap accounting.
	ProfileBytes int64 `json:"profileBytes"`
	// BytesPerNode is ProfileBytes / Nodes (0 for an empty fleet) — the
	// gauge the million-node sizing work tracks.
	BytesPerNode float64 `json:"bytesPerNode"`
}

// Memory walks the shards and sums each profile's estimated footprint.
// It takes each shard lock once; call it at scrape cadence, not on the
// ingest path.
func (f *Fleet) Memory() MemoryStats {
	var m MemoryStats
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		m.Nodes += len(sh.nodes)
		for _, p := range sh.nodes {
			m.ProfileBytes += int64(p.footprint())
		}
		sh.mu.Unlock()
	}
	if m.Nodes > 0 {
		m.BytesPerNode = float64(m.ProfileBytes) / float64(m.Nodes)
	}
	return m
}

// Telemetry returns the fleet's telemetry bundle (nil when disabled).
func (f *Fleet) Telemetry() *telemetry.Telemetry { return f.cfg.Telemetry }
