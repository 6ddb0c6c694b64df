package rushprobe

import (
	"errors"
	"fmt"

	"rushprobe/internal/fleetsim"
)

// FleetEpoch is one epoch of a fleet co-simulation's convergence curve:
// the across-node means of the realized probed capacity and probing
// energy, for the closed loop and for the oracle flying the same
// contact streams.
type FleetEpoch struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// Zeta and Phi are the closed loop's fleet means (seconds/epoch).
	Zeta, Phi float64
	// OracleZeta and OraclePhi are the oracle pass's fleet means.
	OracleZeta, OraclePhi float64
	// ZetaRatio and PhiRatio are the convergence ratios Zeta/OracleZeta
	// and Phi/OraclePhi (0 when the oracle term is 0).
	ZetaRatio, PhiRatio float64
}

// FleetSimSummary is the outcome of a closed-loop fleet co-simulation.
type FleetSimSummary struct {
	// Strategy is the canonical name of the strategy the fleet served.
	Strategy string
	// Nodes and Epochs are the population size and horizon.
	Nodes, Epochs int
	// DriftNodes counts nodes whose mobility pattern shifted mid-run.
	DriftNodes int
	// DistinctPlans is how many distinct plans the fleet serves the
	// population at the end (the plan cache's collapse of near-identical
	// learned profiles).
	DistinctPlans int
	// PerEpoch is the fleet-level convergence curve.
	PerEpoch []FleetEpoch
	// Stats is the fleet's final counter state.
	Stats FleetStats
	// DriftEvents is the fleet's total detector-firing count (zero
	// without WithDriftDetection).
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
	// StageTimings is the per-epoch wall-clock cost of the fleet
	// interactions (ingest flushes, epoch folds, schedule fetches),
	// summed across nodes. Unlike every field above it measures the host
	// machine, so it varies run to run and is NOT part of the
	// deterministic output surface.
	StageTimings []FleetStageTiming
}

// FleetStageTiming is one epoch's wall-clock accounting of the
// co-simulation's fleet calls.
type FleetStageTiming struct {
	// Epoch is the zero-based epoch the cost is attributed to.
	Epoch int
	// IngestSeconds, AdvanceSeconds, and ScheduleSeconds are the summed
	// host-seconds all nodes spent in Observe, AdvanceEpoch, and
	// Schedule for this epoch.
	IngestSeconds, AdvanceSeconds, ScheduleSeconds float64
}

// SimulateFleet closes the loop between the simulator and the fleet
// serving layer: it builds a fleet over the base scenario, synthesizes
// a heterogeneous population of per-node ground truths (diverse
// rush-hour shapes and mobility mixes; WithDrift adds mid-run pattern
// shifts), and co-simulates them — every probed contact a node's DES
// produces feeds Fleet.Observe, and the schedule the fleet serves from
// that evidence is the plan the node flies in its next epoch. Each node
// also runs against its oracle (the same strategy's plan for its true
// scenario, over the identical contact stream), giving per-epoch
// convergence curves toward near-oracle energy and goodput.
//
// The strategy argument (any registered name or alias) is the fleet's
// default strategy; WithNodes sizes the population; WithEpochs,
// WithSeed, and WithParallelism work as in Simulate; WithDriftDetection
// arms the fleet's streaming change-point detector and fills the
// summary's detection metrics. Output is deterministic for a fixed seed and
// bit-identical for every parallelism. WithWarmup and WithPatternShift
// do not apply (drift is a population property — use WithDrift) and
// are rejected, as is WithStrategy, which applies only to
// RunExperiment.
func SimulateFleet(s *Scenario, strategy string, opts ...SimOption) (*FleetSimSummary, error) {
	if s == nil || s.inner == nil {
		return nil, errors.New("rushprobe: nil scenario")
	}
	o := simOpts{seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.warmupSet || o.shiftSet {
		return nil, errors.New("rushprobe: SimulateFleet takes no WithWarmup or WithPatternShift; population drift is configured with WithDrift")
	}
	if len(o.strategies) > 0 {
		return nil, errors.New("rushprobe: WithStrategy applies only to RunExperiment; pass the strategy as the argument")
	}
	// An explicit zero must not silently become the default.
	if o.nodesSet && o.nodes < 1 {
		return nil, fmt.Errorf("rushprobe: population must be positive, got WithNodes(%d)", o.nodes)
	}
	if o.epochsSet && o.epochs < 1 {
		return nil, fmt.Errorf("rushprobe: epochs must be positive, got WithEpochs(%d)", o.epochs)
	}
	spec := fleetsim.Spec{
		Base:        s.inner,
		Nodes:       o.nodes,
		Epochs:      o.epochs,
		Strategy:    strategy,
		Seed:        o.seed,
		Parallelism: o.parallelism,
	}
	if o.driftSet {
		spec.DriftFraction = o.driftFraction
		spec.DriftEpoch = o.driftEpoch
		spec.DriftSlots = o.driftSlots
	}
	if o.detectorSet {
		spec.DriftDetector = o.driftDetector
	}
	res, err := fleetsim.Simulate(spec)
	if err != nil {
		return nil, err
	}
	out := &FleetSimSummary{
		Strategy:             res.Strategy,
		Nodes:                res.Nodes,
		Epochs:               res.Epochs,
		DriftNodes:           res.DriftNodes,
		DistinctPlans:        res.DistinctPlans,
		PerEpoch:             make([]FleetEpoch, len(res.PerEpoch)),
		Stats:                res.Stats,
		DriftEvents:          res.DriftEvents,
		DetectedDriftNodes:   res.DetectedDriftNodes,
		StationaryAlarms:     res.StationaryAlarms,
		MeanDetectionLatency: res.MeanDetectionLatency,
		StageTimings:         make([]FleetStageTiming, len(res.StageTimings)),
	}
	for i, st := range res.StageTimings {
		out.StageTimings[i] = FleetStageTiming{
			Epoch:           st.Epoch,
			IngestSeconds:   st.IngestSeconds,
			AdvanceSeconds:  st.AdvanceSeconds,
			ScheduleSeconds: st.ScheduleSeconds,
		}
	}
	for i, p := range res.PerEpoch {
		out.PerEpoch[i] = FleetEpoch{
			Epoch:      p.Epoch,
			Zeta:       p.Zeta,
			Phi:        p.Phi,
			OracleZeta: p.OracleZeta,
			OraclePhi:  p.OraclePhi,
			ZetaRatio:  p.ZetaRatio(),
			PhiRatio:   p.PhiRatio(),
		}
	}
	return out, nil
}
