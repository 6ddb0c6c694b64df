// Package fleetsim closes the loop between the two halves of the
// system: the per-node discrete-event simulator (package sim) and the
// online fleet learner/server (package fleet). It instantiates a real
// fleet, synthesizes a heterogeneous population of per-node ground
// truths (diverse rush-hour shapes, mobility mixes, optional mid-run
// pattern drift), and co-simulates them: every probed contact a node's
// DES produces streams into Fleet.Observe, and the schedule the fleet
// serves from that noisy, duty-cycle-censored evidence is the plan the
// node flies in its next epoch. The probing plan in force at epoch e is
// therefore the one the fleet learned from epochs < e — the causality
// the paper's §VII.B sketch implies but never measures.
//
// Each node is also run against its oracle: the same strategy's plan
// for the node's true scenario (re-planned at the drift point), over
// the identical contact stream. The per-epoch fleet-level means of the
// two passes give convergence curves — how quickly schedules learned
// from what a duty-cycled radio actually sees approach what an
// omniscient scheduler would deliver.
//
// Determinism: node i's ground truth and contact stream derive from
// (Seed, i) alone, nodes share no mutable state except the fleet
// (whose per-node profiles are independent and whose plan cache is a
// pure function of learned state), and aggregation folds in node-index
// order — so parallel runs are bit-identical to serial ones.
package fleetsim

import (
	"errors"
	"fmt"

	"rushprobe/internal/core"
	"rushprobe/internal/drift"
	"rushprobe/internal/fleet"
	"rushprobe/internal/pool"
	"rushprobe/internal/rng"
	"rushprobe/internal/scenario"
	"rushprobe/internal/sim"
	"rushprobe/internal/simtime"
	"rushprobe/internal/strategy"
)

// DefaultWakeInterval is the CPU re-evaluation period of co-simulated
// nodes. Plan followers only change their decision at slot boundaries
// (which have their own ticker), so the fleet co-sim wakes far less
// often than a learning scheduler needs to — this is what keeps a
// 1000-node population simulable on one core.
const DefaultWakeInterval = 10 * simtime.Minute

// Spec describes one closed-loop co-simulation: the fleet
// configuration, the population's size and heterogeneity, and the
// horizon.
type Spec struct {
	// Base is the fleet's base deployment: its epoch/slot structure,
	// radio, energy budget, and capacity target are shared by every
	// node (the fleet inherits them into every learned plan). Required.
	Base *scenario.Scenario
	// Nodes is the population size. Default 64.
	Nodes int
	// Epochs is the co-simulated horizon per node. Default 14 (the
	// paper's two weeks).
	Epochs int
	// Strategy is the fleet's default strategy (any registered name or
	// alias). Default SNIP-OPT.
	Strategy string
	// BootstrapEpochs is the fleet's learning phase length. Default 3.
	BootstrapEpochs int
	// RushSlots is how many slots the fleet's learners rank as rush
	// hours. Default: derived from Base like fleet.Config.
	RushSlots int
	// Seed drives the population synthesis and every contact stream.
	Seed uint64
	// Parallelism bounds how many nodes co-simulate concurrently (<= 0
	// means GOMAXPROCS; 1 forces serial). Results are bit-identical for
	// every setting.
	Parallelism int
	// DriftFraction is the fraction of nodes (in expectation) whose
	// mobility pattern shifts by DriftSlots at DriftEpoch. Zero
	// disables drift.
	DriftFraction float64
	// DriftEpoch is when drifting nodes shift. Default Epochs/2.
	DriftEpoch int
	// DriftSlots is how far the pattern shifts. Default 3.
	DriftSlots int
	// DriftDetector selects the fleet's streaming change-point detector
	// ("cusum" or "page-hinkley"; empty disables — the default). With a
	// detector, a node whose ingest streams shift is relearned from
	// scratch instead of waiting for EWMA decay, and the Result reports
	// detection coverage and latency.
	DriftDetector string
	// DriftTuning overrides the detector's thresholds (zero fields keep
	// the drift package defaults). Ignored without a DriftDetector.
	DriftTuning drift.Config
	// WakeInterval overrides the co-simulated CPU wake period. Default
	// DefaultWakeInterval.
	WakeInterval simtime.Duration
}

// withDefaults resolves the zero-value fields and validates the rest.
func (s Spec) withDefaults() (Spec, error) {
	if s.Base == nil {
		return s, errors.New("fleetsim: spec needs a base scenario")
	}
	if err := s.Base.Validate(); err != nil {
		return s, err
	}
	if s.Nodes == 0 {
		s.Nodes = 64
	}
	if s.Nodes < 1 {
		return s, fmt.Errorf("fleetsim: population must be positive, got %d", s.Nodes)
	}
	if s.Epochs == 0 {
		s.Epochs = 14
	}
	if s.Epochs < 1 {
		return s, fmt.Errorf("fleetsim: epochs must be positive, got %d", s.Epochs)
	}
	if s.Strategy == "" {
		s.Strategy = strategy.NameOPT
	}
	strat, err := strategy.Lookup(s.Strategy)
	if err != nil {
		return s, fmt.Errorf("fleetsim: %w", err)
	}
	s.Strategy = strat.Name()
	if s.DriftFraction < 0 || s.DriftFraction > 1 {
		return s, fmt.Errorf("fleetsim: drift fraction %g out of [0, 1]", s.DriftFraction)
	}
	if s.DriftEpoch == 0 {
		s.DriftEpoch = s.Epochs / 2
	}
	if s.DriftEpoch < 0 {
		return s, fmt.Errorf("fleetsim: negative drift epoch %d", s.DriftEpoch)
	}
	if s.DriftFraction > 0 && s.DriftEpoch >= s.Epochs {
		// A shift past the horizon never fires, yet drifted nodes would
		// still be counted and their post-drift oracle plans solved.
		return s, fmt.Errorf("fleetsim: drift epoch %d is past the %d-epoch horizon", s.DriftEpoch, s.Epochs)
	}
	if s.DriftSlots == 0 {
		s.DriftSlots = 3
	}
	if s.WakeInterval == 0 {
		s.WakeInterval = DefaultWakeInterval
	}
	if s.WakeInterval < 0 {
		return s, fmt.Errorf("fleetsim: negative wake interval %v", s.WakeInterval)
	}
	return s, nil
}

// EpochPoint is the fleet-level outcome of one epoch: the across-node
// means of the realized probed capacity and probing energy, for the
// closed loop and for the oracle flying the same contact streams.
type EpochPoint struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// Zeta and Phi are the closed loop's per-node means (seconds).
	Zeta, Phi float64
	// OracleZeta and OraclePhi are the oracle pass's per-node means.
	OracleZeta, OraclePhi float64
}

// ZetaRatio returns the epoch's goodput convergence Zeta/OracleZeta
// (0 when the oracle probed nothing).
func (p EpochPoint) ZetaRatio() float64 {
	if p.OracleZeta <= 0 {
		return 0
	}
	return p.Zeta / p.OracleZeta
}

// PhiRatio returns the epoch's energy ratio Phi/OraclePhi (0 when the
// oracle spent nothing).
func (p EpochPoint) PhiRatio() float64 {
	if p.OraclePhi <= 0 {
		return 0
	}
	return p.Phi / p.OraclePhi
}

// Result is the outcome of one co-simulation.
type Result struct {
	// Strategy is the canonical name of the fleet's strategy.
	Strategy string
	// Nodes and Epochs echo the resolved spec.
	Nodes, Epochs int
	// DriftNodes counts nodes whose pattern shifted mid-run.
	DriftNodes int
	// PerEpoch holds the fleet-level convergence curve.
	PerEpoch []EpochPoint
	// DistinctPlans is how many distinct plan fingerprints the fleet
	// serves the population at the end of the run — the plan cache's
	// collapse of the heterogeneous population.
	DistinctPlans int
	// Stats is the fleet's final counter state.
	Stats fleet.Stats
	// DriftEvents is the fleet's total detector-firing count (zero when
	// Spec.DriftDetector is empty).
	DriftEvents int64
	// DetectedDriftNodes counts drifted nodes whose detector first
	// fired at or after the drift epoch; StationaryAlarms counts
	// firings on nodes whose pattern never shifted (false positives).
	DetectedDriftNodes int
	StationaryAlarms   int64
	// MeanDetectionLatency is the mean detection latency over detected
	// nodes, in epochs: a shift at the start of epoch E detected while
	// folding epoch E counts as 1. Zero when nothing was detected.
	MeanDetectionLatency float64
	// StageTimings is the wall-clock cost of the fleet interactions per
	// epoch, summed across nodes. Unlike every other field it measures
	// the host machine, not the simulated system: it is NOT part of the
	// deterministic result surface, and determinism comparisons must
	// zero it first (see Result.ZeroStageTimings).
	StageTimings []StageTiming
}

// StageTiming aggregates one epoch's fleet-interaction wall-clock cost
// across the population: ingest flushes, AdvanceEpoch folds, and
// schedule fetches, in seconds.
type StageTiming struct {
	Epoch           int
	IngestSeconds   float64
	AdvanceSeconds  float64
	ScheduleSeconds float64
}

// ZeroStageTimings clears the non-deterministic wall-clock measurements
// in place, leaving only the deterministic result surface — what
// bit-identity tests and golden comparisons should look at.
func (r *Result) ZeroStageTimings() {
	for i := range r.StageTimings {
		r.StageTimings[i] = StageTiming{Epoch: r.StageTimings[i].Epoch}
	}
}

// nodeOutcome is one node's per-epoch series from both passes.
type nodeOutcome struct {
	zeta, phi             []float64
	oracleZeta, oraclePhi []float64
	drifted               bool

	ingestSec, advanceSec, scheduleSec []float64
}

// Simulate runs the closed-loop co-simulation the spec describes.
func Simulate(spec Spec) (*Result, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	strat, err := strategy.Lookup(spec.Strategy)
	if err != nil {
		return nil, err
	}
	flt, err := fleet.New(fleet.Config{
		Base:            spec.Base,
		Strategy:        spec.Strategy,
		BootstrapEpochs: spec.BootstrapEpochs,
		RushSlots:       spec.RushSlots,
		DriftDetector:   spec.DriftDetector,
		DriftTuning:     spec.DriftTuning,
	})
	if err != nil {
		return nil, err
	}
	outcomes := make([]nodeOutcome, spec.Nodes)
	ids := make([]string, spec.Nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%05d", i)
	}
	err = pool.ForEach(spec.Nodes, spec.Parallelism, func(i int) error {
		out, err := spec.runNode(flt, strat, ids[i], i)
		if err != nil {
			return fmt.Errorf("fleetsim: node %d: %w", i, err)
		}
		outcomes[i] = *out
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Strategy:     spec.Strategy,
		Nodes:        spec.Nodes,
		Epochs:       spec.Epochs,
		PerEpoch:     make([]EpochPoint, spec.Epochs),
		StageTimings: make([]StageTiming, spec.Epochs),
	}
	// Fold in node-index order so the aggregate is bit-identical for
	// every parallelism (float addition is not associative). The stage
	// timings folded alongside are wall-clock and inherently vary run to
	// run; only their fold order is deterministic.
	for e := range res.PerEpoch {
		res.PerEpoch[e].Epoch = e
		res.StageTimings[e].Epoch = e
	}
	for i := range outcomes {
		o := &outcomes[i]
		if o.drifted {
			res.DriftNodes++
		}
		for e := 0; e < spec.Epochs; e++ {
			res.PerEpoch[e].Zeta += o.zeta[e]
			res.PerEpoch[e].Phi += o.phi[e]
			res.PerEpoch[e].OracleZeta += o.oracleZeta[e]
			res.PerEpoch[e].OraclePhi += o.oraclePhi[e]
			res.StageTimings[e].IngestSeconds += o.ingestSec[e]
			res.StageTimings[e].AdvanceSeconds += o.advanceSec[e]
			res.StageTimings[e].ScheduleSeconds += o.scheduleSec[e]
		}
	}
	inv := 1 / float64(spec.Nodes)
	for e := range res.PerEpoch {
		res.PerEpoch[e].Zeta *= inv
		res.PerEpoch[e].Phi *= inv
		res.PerEpoch[e].OracleZeta *= inv
		res.PerEpoch[e].OraclePhi *= inv
	}
	// The final served plans, fetched through the batch hook: how far
	// the plan cache collapsed the population.
	scheds, err := flt.ScheduleBatch(ids)
	if err != nil {
		return nil, err
	}
	distinct := make(map[uint64]struct{}, len(scheds))
	for _, s := range scheds {
		distinct[s.Fingerprint] = struct{}{}
	}
	res.DistinctPlans = len(distinct)
	res.Stats = flt.Stats()
	res.DriftEvents = res.Stats.DriftEvents
	// Detection coverage and latency, from the per-node drift history
	// the fleet recorded. A drifted node counts as detected only when
	// its first firing is at or after the injected shift; an earlier
	// firing would be a false positive, which (like any firing on a
	// stationary node) lands in StationaryAlarms instead.
	latency := 0
	for i := range outcomes {
		prof, err := flt.Profile(ids[i])
		if err != nil {
			return nil, err
		}
		switch {
		case outcomes[i].drifted && prof.DriftEvents > 0 && prof.FirstDriftEpoch >= spec.DriftEpoch:
			res.DetectedDriftNodes++
			latency += prof.FirstDriftEpoch - spec.DriftEpoch + 1
		case prof.DriftEvents > 0:
			res.StationaryAlarms += prof.DriftEvents
		}
	}
	if res.DetectedDriftNodes > 0 {
		res.MeanDetectionLatency = float64(latency) / float64(res.DetectedDriftNodes)
	}
	return res, nil
}

// runNode co-simulates one node: the closed-loop pass against the live
// fleet, then the oracle pass over the identical contact stream.
func (spec *Spec) runNode(flt *fleet.Fleet, strat strategy.Strategy, id string, i int) (*nodeOutcome, error) {
	w, err := spec.nodeWorld(i)
	if err != nil {
		return nil, err
	}
	seed := uint64(rng.DeriveN(spec.Seed, "fleetsim-run", i).Intn(1 << 31))
	loop := newNodeLoop(flt, id, spec.Base.PhiMax, spec.Epochs)
	cfg := sim.Config{
		Scenario:     w.sc,
		NewScheduler: func() (core.Scheduler, error) { return loop, nil },
		Epochs:       spec.Epochs,
		Seed:         seed,
		WakeInterval: spec.WakeInterval,
		Shift:        w.shift,
		OnProbe:      loop.onProbe,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	if err := loop.finish(spec.Epochs); err != nil {
		return nil, err
	}

	// Oracle pass: the strategy's plan for the true scenario (re-planned
	// at the drift point), over the same contact stream. Plans are
	// solved on the fixed-distribution twin — exact knowledge through
	// the same solver path the fleet's learned scenarios use.
	prePlan, err := strat.Plan(fixedTwin(w.sc))
	if err != nil {
		return nil, err
	}
	var postPlan *strategy.Plan
	if w.shifted != nil {
		if postPlan, err = strat.Plan(fixedTwin(w.shifted)); err != nil {
			return nil, err
		}
	}
	oracle, err := newOracleLoop(prePlan, postPlan, spec.DriftEpoch, spec.Base.PhiMax)
	if err != nil {
		return nil, err
	}
	cfg.NewScheduler = func() (core.Scheduler, error) { return oracle, nil }
	cfg.OnProbe = nil
	ores, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}

	out := &nodeOutcome{
		zeta:        make([]float64, spec.Epochs),
		phi:         make([]float64, spec.Epochs),
		oracleZeta:  make([]float64, spec.Epochs),
		oraclePhi:   make([]float64, spec.Epochs),
		drifted:     w.shifted != nil,
		ingestSec:   loop.ingestSec,
		advanceSec:  loop.advanceSec,
		scheduleSec: loop.scheduleSec,
	}
	for e := 0; e < spec.Epochs; e++ {
		out.zeta[e] = res.Epochs[e].Zeta
		out.phi[e] = res.Epochs[e].Phi
		out.oracleZeta[e] = ores.Epochs[e].Zeta
		out.oraclePhi[e] = ores.Epochs[e].Phi
	}
	return out, nil
}
