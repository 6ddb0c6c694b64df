// Package rushprobe is a Go implementation of rush-hour-aware contact
// probing for opportunistic data collection in sparse wireless sensor
// networks, reproducing:
//
//	Wu, Brown, Sreenan. "Exploiting Rush Hours for Energy-Efficient
//	Contact Probing in Opportunistic Data Collection." ICDCSW 2011.
//
// A static sensor node must discover passing mobile nodes (contacts)
// while keeping its radio aggressively duty-cycled. With SNIP (sensor
// node-initiated probing), the node beacons at the start of each radio
// on-period; this package provides the three probing strategies the
// paper studies for deciding when to probe and at which duty cycle —
// SNIP-AT (always, fixed duty), SNIP-OPT (per-slot optimal plan), and
// SNIP-RH (only during learned/engineered rush hours) — together with
// the closed-form SNIP model, a two-step concave-allocation optimizer, a
// deterministic discrete-event simulator, and an experiment registry
// that regenerates every figure of the paper.
//
// # Quick start
//
//	sc := rushprobe.Roadside(rushprobe.WithZetaTarget(24))
//	report, err := rushprobe.Analyze(sc)           // closed-form (Figs. 5-6)
//	summary, err := rushprobe.Simulate(sc, rushprobe.SNIPRH) // DES (Figs. 7-8)
//
// All public entry points are deterministic for a fixed seed.
package rushprobe

import (
	"errors"
	"fmt"
	"time"

	"rushprobe/internal/analysis"
	"rushprobe/internal/contact"
	"rushprobe/internal/dist"
	"rushprobe/internal/experiments"
	"rushprobe/internal/model"
	"rushprobe/internal/scenario"
	"rushprobe/internal/sim"
	"rushprobe/internal/simtime"
	"rushprobe/internal/strategy"
)

// The canonical names of the paper's strategies (§IV-§VI) plus the
// adaptive variant sketched in §VII.B, as the strategy registry
// declares them.
const (
	SNIPAT         = strategy.NameAT
	SNIPOPT        = strategy.NameOPT
	SNIPRH         = strategy.NameRH
	SNIPAdaptiveRH = strategy.NameAdaptiveRH
)

// Strategies returns the canonical names of every registered probing
// strategy, sorted. The paper's strategies are pre-registered; any of
// these names (or their aliases, e.g. "rh" for "SNIP-RH") is accepted
// by Simulate, SimulateReplications, SimulateFleet, WithStrategy,
// WithFleetStrategy, Fleet.SetStrategy, and the -strategy flags of the
// CLIs.
func Strategies() []string { return strategy.Names() }

// StrategyDescription returns the one-line description of a registered
// strategy, or an error for unknown names.
func StrategyDescription(name string) (string, error) { return strategy.Describe(name) }

// Scenario describes a deployment: the mobility epoch and slots, the
// per-slot contact process, the radio, the probing-energy budget PhiMax,
// and the probed-capacity target ZetaTarget. Construct one with
// Roadside, Commute, or New.
type Scenario struct {
	inner *scenario.Scenario
}

// RoadsideOption customizes the canonical road-side scenario.
type RoadsideOption = scenario.RoadsideOption

// Re-exported road-side options (see the paper's §VII.A setup).
var (
	// WithBudgetFraction sets PhiMax to a fraction of the epoch
	// (the paper uses 1/1000 and 1/100).
	WithBudgetFraction = scenario.WithBudgetFraction
	// WithZetaTarget sets the probed-capacity target in seconds/epoch.
	WithZetaTarget = scenario.WithZetaTarget
	// WithFixedLengths uses the fixed-value contact process of the
	// paper's numerical analysis instead of Normal(mu, mu/10).
	WithFixedLengths = scenario.WithFixedLengths
	// WithBeaconLoss injects beacon loss for robustness studies.
	WithBeaconLoss = scenario.WithBeaconLoss
	// WithUploadRate overrides the upload throughput in bytes/second.
	WithUploadRate = scenario.WithUploadRate
	// WithContactLength overrides the mean contact length in seconds.
	WithContactLength = scenario.WithContactLength
	// WithIntervals overrides the rush-hour and off-peak mean contact
	// inter-arrival times in seconds.
	WithIntervals = scenario.WithIntervals
	// WithBufferCap bounds the sensor node's data buffer in bytes
	// (0 = unbounded); oldest data is dropped first when full.
	WithBufferCap = scenario.WithBufferCap
)

// Contention selects how the sensor node resolves several mobile nodes
// answering one beacon when contacts arrive in groups.
type Contention int

// Contention policies (§II's assumption removal).
const (
	// ContentionResolve picks the mobile node with the longest
	// remaining dwell (the default).
	ContentionResolve Contention = iota
	// ContentionRandom picks uniformly among the responders.
	ContentionRandom
	// ContentionNone lets the acks collide, wasting the beacon.
	ContentionNone
)

// WithGroupedContacts makes a fraction of contacts arrive as groups of
// two mobile nodes, resolved with the given contention policy.
func WithGroupedContacts(prob float64, policy Contention) RoadsideOption {
	return scenario.WithGroupArrivals(prob, scenario.ContentionPolicy(policy))
}

// Roadside returns the paper's §VII.A road-side wireless sensor network:
// a 24-hour epoch in 24 hourly slots, rush hours 07:00-09:00 and
// 17:00-19:00 (contact every 300 s), contacts every 1800 s elsewhere,
// 2-second contacts.
func Roadside(opts ...RoadsideOption) *Scenario {
	return &Scenario{inner: scenario.Roadside(opts...)}
}

// Commute builds a scenario from a smooth bimodal commuter demand
// profile (the shape of the paper's Figure 3): contactsPerDay encounters
// of contactLen seconds are spread over the day following the profile,
// and the busiest rushFraction of slots are marked as rush hours.
func Commute(contactsPerDay, contactLen, rushFraction float64) (*Scenario, error) {
	inner, err := contact.ScenarioFromProfile(contact.DefaultCommute(), contactsPerDay, contactLen, rushFraction)
	if err != nil {
		return nil, err
	}
	return &Scenario{inner: inner}, nil
}

// SlotSpec describes one time slot for New.
type SlotSpec struct {
	// MeanInterval is the mean time between contact arrivals in seconds;
	// zero means no contacts in the slot.
	MeanInterval float64
	// MeanLength is the mean contact length in seconds.
	MeanLength float64
	// Fixed uses degenerate (fixed-value) distributions instead of the
	// default Normal(mu, mu/10).
	Fixed bool
	// RushHour marks the slot in the engineered rush-hour mask.
	RushHour bool
}

// ScenarioOption customizes a Scenario built with New.
type ScenarioOption func(*scenario.Scenario)

// WithBudget sets the per-epoch probing-energy budget in seconds of
// radio on-time.
func WithBudget(seconds float64) ScenarioOption {
	return func(sc *scenario.Scenario) { sc.PhiMax = seconds }
}

// WithTarget sets the per-epoch probed-capacity target in seconds.
func WithTarget(seconds float64) ScenarioOption {
	return func(sc *scenario.Scenario) { sc.ZetaTarget = seconds }
}

// WithTon sets the radio on-period in seconds (default 20 ms).
func WithTon(seconds float64) ScenarioOption {
	return func(sc *scenario.Scenario) { sc.Radio.Ton = seconds }
}

// WithUpload sets the upload throughput in bytes/second.
func WithUpload(rate float64) ScenarioOption {
	return func(sc *scenario.Scenario) { sc.UploadRate = rate }
}

// WithLoss sets the beacon loss probability.
func WithLoss(p float64) ScenarioOption {
	return func(sc *scenario.Scenario) { sc.BeaconLossProb = p }
}

// New builds a custom scenario from an epoch length and per-slot
// contact processes. It returns an error when the description is not a
// valid deployment.
func New(name string, epoch time.Duration, slots []SlotSpec, opts ...ScenarioOption) (*Scenario, error) {
	inner := &scenario.Scenario{
		Name:       name,
		Epoch:      simtime.FromStd(epoch),
		Radio:      model.DefaultConfig(),
		UploadRate: scenario.DefaultUploadRate,
		Slots:      make([]scenario.Slot, len(slots)),
	}
	for i, s := range slots {
		var slot scenario.Slot
		slot.RushHour = s.RushHour
		if s.MeanInterval > 0 {
			if s.Fixed {
				slot.Interval = dist.Fixed{Value: s.MeanInterval}
				slot.Length = dist.Fixed{Value: s.MeanLength}
			} else {
				slot.Interval = dist.NormalTenth(s.MeanInterval)
				slot.Length = dist.NormalTenth(s.MeanLength)
			}
		}
		inner.Slots[i] = slot
	}
	for _, o := range opts {
		o(inner)
	}
	if err := inner.Validate(); err != nil {
		return nil, err
	}
	return &Scenario{inner: inner}, nil
}

// Name returns the scenario's label.
func (s *Scenario) Name() string { return s.inner.Name }

// TotalCapacity returns the contact capacity (seconds of contact)
// arriving per epoch.
func (s *Scenario) TotalCapacity() float64 { return s.inner.TotalCapacity() }

// RushCapacity returns the per-epoch contact capacity inside rush-hour
// slots.
func (s *Scenario) RushCapacity() float64 { return s.inner.RushCapacity() }

// ZetaTarget returns the probed-capacity target in seconds per epoch.
func (s *Scenario) ZetaTarget() float64 { return s.inner.ZetaTarget }

// PhiMax returns the probing-energy budget in seconds per epoch.
func (s *Scenario) PhiMax() float64 { return s.inner.PhiMax }

// RushMask returns the engineered rush-hour mask.
func (s *Scenario) RushMask() []bool { return s.inner.RushMask() }

// MarshalJSON serializes the scenario (including distributions).
func (s *Scenario) MarshalJSON() ([]byte, error) { return s.inner.MarshalJSON() }

// UnmarshalJSON deserializes a scenario produced by MarshalJSON.
func (s *Scenario) UnmarshalJSON(data []byte) error {
	var inner scenario.Scenario
	if err := inner.UnmarshalJSON(data); err != nil {
		return err
	}
	s.inner = &inner
	return nil
}

// Metrics are the paper's evaluation metrics for one strategy at one
// capacity target.
type Metrics struct {
	// ZetaTarget is the requested probed capacity (s/epoch).
	ZetaTarget float64
	// Zeta is the achieved probed capacity (s/epoch).
	Zeta float64
	// Phi is the probing energy spent (radio on-time, s/epoch).
	Phi float64
	// Rho is Phi/Zeta (+Inf when nothing is probed).
	Rho float64
	// TargetMet reports Zeta >= ZetaTarget.
	TargetMet bool
}

func fromAnalysis(r analysis.Result) Metrics {
	return Metrics{
		ZetaTarget: r.ZetaTarget,
		Zeta:       r.Zeta,
		Phi:        r.Phi,
		Rho:        r.Rho,
		TargetMet:  r.TargetMet,
	}
}

// AnalysisReport compares the three strategies analytically.
type AnalysisReport struct {
	AT  Metrics
	OPT Metrics
	RH  Metrics
}

// Analyze evaluates all three strategies on the scenario using the
// closed-form SNIP model (the method behind Figures 5 and 6).
func Analyze(s *Scenario) (*AnalysisReport, error) {
	if s == nil || s.inner == nil {
		return nil, errors.New("rushprobe: nil scenario")
	}
	at, err := analysis.AT(s.inner)
	if err != nil {
		return nil, err
	}
	op, err := analysis.OPT(s.inner)
	if err != nil {
		return nil, err
	}
	rh, err := analysis.RH(s.inner)
	if err != nil {
		return nil, err
	}
	return &AnalysisReport{AT: fromAnalysis(at), OPT: fromAnalysis(op), RH: fromAnalysis(rh)}, nil
}

// Plan is a per-slot duty-cycle schedule with its analytical outcome.
type Plan struct {
	// Duty is the duty cycle per slot.
	Duty []float64
	// Zeta and Phi are the plan's expected capacity and energy.
	Zeta, Phi float64
	// TargetMet reports whether the plan reaches the scenario target.
	TargetMet bool
}

// OptimalPlan solves the SNIP-OPT two-step optimization (§V) for the
// scenario.
func OptimalPlan(s *Scenario) (*Plan, error) {
	if s == nil || s.inner == nil {
		return nil, errors.New("rushprobe: nil scenario")
	}
	p, err := analysis.OPTPlan(s.inner)
	if err != nil {
		return nil, err
	}
	return &Plan{Duty: p.Duty, Zeta: p.Zeta, Phi: p.Phi, TargetMet: p.TargetMet}, nil
}

// SimOption customizes a simulation run.
type SimOption func(*simOpts)

type simOpts struct {
	epochs        int
	epochsSet     bool
	warmup        int
	warmupSet     bool
	seed          uint64
	seedSet       bool
	shiftAtEpoch  int
	shiftBy       int
	shiftSet      bool
	parallelism   int
	strategies    []string
	nodes         int
	nodesSet      bool
	driftFraction float64
	driftEpoch    int
	driftSlots    int
	driftSet      bool
	driftDetector string
	detectorSet   bool
}

// WithEpochs sets the number of simulated epochs (default 14, the
// paper's two weeks).
func WithEpochs(n int) SimOption {
	return func(o *simOpts) {
		o.epochs = n
		o.epochsSet = true
	}
}

// WithWarmup excludes the first n epochs from the summary.
func WithWarmup(n int) SimOption {
	return func(o *simOpts) {
		o.warmup = n
		o.warmupSet = true
	}
}

// WithSeed fixes the random seed (default 1).
func WithSeed(seed uint64) SimOption {
	return func(o *simOpts) {
		o.seed = seed
		o.seedSet = true
	}
}

// WithParallelism bounds how many independent runs (replications in
// SimulateReplications, sweep points in RunExperiment) execute
// concurrently. The default (n <= 0) is GOMAXPROCS; 1 forces serial
// execution. Results are bit-identical for every setting — each run
// derives its randomness from the seed and its own index, and
// aggregation happens in index order — so parallelism is purely a
// wall-clock knob.
func WithParallelism(n int) SimOption { return func(o *simOpts) { o.parallelism = n } }

// WithStrategy selects a registered probing strategy by name or alias
// (see Strategies) for RunExperiment: it replaces the strategy axis of
// the simulation sweeps (fig7, fig8, ext-loss, ext-latency: one swept
// column per WithStrategy, in the order given; ext-contention: exactly
// one); experiments without a strategy axis reject it. Simulate,
// SimulateReplications and SimulateFleet take their strategy as an
// argument and reject it.
func WithStrategy(name string) SimOption {
	return func(o *simOpts) { o.strategies = append(o.strategies, name) }
}

// WithPatternShift displaces the whole mobility pattern by the given
// number of slots from the given epoch onward (seasonal drift).
func WithPatternShift(atEpoch, bySlots int) SimOption {
	return func(o *simOpts) {
		o.shiftAtEpoch = atEpoch
		o.shiftBy = bySlots
		o.shiftSet = true
	}
}

// WithNodes sets the population size of a SimulateFleet co-simulation
// (default 64). It applies only there; Simulate and SimulateReplications
// model a single node and reject it.
func WithNodes(n int) SimOption {
	return func(o *simOpts) {
		o.nodes = n
		o.nodesSet = true
	}
}

// WithDrift makes the given fraction of a SimulateFleet population (in
// expectation) shift its mobility pattern by bySlots slots at atEpoch —
// the fleet-scale analog of WithPatternShift. It applies only to
// SimulateFleet; the single-node entry points reject it.
func WithDrift(fraction float64, atEpoch, bySlots int) SimOption {
	return func(o *simOpts) {
		o.driftFraction = fraction
		o.driftEpoch = atEpoch
		o.driftSlots = bySlots
		o.driftSet = true
	}
}

// WithDriftDetection arms the fleet of a SimulateFleet co-simulation
// with a streaming change-point detector ("cusum" or "page-hinkley";
// see WithDriftDetector for the serving-layer equivalent): a node whose
// detector fires is relearned from scratch instead of waiting for its
// stale rush mask to decay, and the summary reports detection coverage
// and latency. It applies only to SimulateFleet; the single-node entry
// points reject it.
func WithDriftDetection(name string) SimOption {
	return func(o *simOpts) {
		o.driftDetector = name
		o.detectorSet = true
	}
}

// SimSummary is the per-epoch average outcome of a simulation run.
type SimSummary struct {
	// Strategy is the canonical name of the simulated strategy.
	Strategy string
	// Epochs is the number of summarized epochs.
	Epochs int
	// Zeta, Phi and Rho are the paper's metrics (per-epoch means).
	Zeta, Phi, Rho float64
	// UploadedBytes is the mean data volume delivered per epoch.
	UploadedBytes float64
	// MeanLatency is the byte-weighted mean delivery latency in seconds
	// (sensing to upload).
	MeanLatency float64
	// DroppedBytes is the mean data discarded per epoch when the buffer
	// capacity is bounded.
	DroppedBytes float64
	// ContactsArrived and ContactsProbed are per-epoch means.
	ContactsArrived, ContactsProbed float64
	// ZetaCI95 and PhiCI95 are 95% confidence half-widths over epochs.
	ZetaCI95, PhiCI95 float64
	// PerEpochZeta is the probed capacity of each epoch, in order.
	PerEpochZeta []float64
}

// simConfig resolves the options into a simulator configuration for
// the named strategy, and returns the strategy's canonical name.
func simConfig(s *Scenario, name string, o simOpts) (sim.Config, string, error) {
	if o.nodesSet || o.driftSet || o.detectorSet {
		return sim.Config{}, "", errors.New("rushprobe: WithNodes, WithDrift, and WithDriftDetection apply only to SimulateFleet")
	}
	if len(o.strategies) > 0 {
		return sim.Config{}, "", errors.New("rushprobe: WithStrategy applies only to RunExperiment; pass the strategy as the argument")
	}
	strat, err := strategy.Lookup(name)
	if err != nil {
		return sim.Config{}, "", err
	}
	factory, err := sim.StrategyFactory(s.inner, strat.Name())
	if err != nil {
		return sim.Config{}, "", err
	}
	cfg := sim.Config{
		Scenario:     s.inner,
		NewScheduler: factory,
		Epochs:       o.epochs,
		WarmupEpochs: o.warmup,
		Seed:         o.seed,
		Parallelism:  o.parallelism,
	}
	if o.shiftBy != 0 {
		epochLen := s.inner.Epoch
		at := simtime.Instant(simtime.Duration(o.shiftAtEpoch) * epochLen)
		by := o.shiftBy
		cfg.Shift = func(now simtime.Instant) int {
			if now.Before(at) {
				return 0
			}
			return by
		}
	}
	return cfg, strat.Name(), nil
}

// Simulate runs the discrete-event simulation of the scenario under the
// named strategy (any registered name or alias, see Strategies; the
// method behind Figures 7 and 8) and returns per-epoch averages. A single run is inherently sequential (the
// discrete-event loop is a serial dependency chain); use
// SimulateReplications to spread statistical power across cores.
func Simulate(s *Scenario, strategy string, opts ...SimOption) (*SimSummary, error) {
	if s == nil || s.inner == nil {
		return nil, errors.New("rushprobe: nil scenario")
	}
	o := simOpts{epochs: experiments.SimEpochs, seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	cfg, name, err := simConfig(s, strategy, o)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	return newSimSummary(name, res), nil
}

// newSimSummary converts a simulator result of the named strategy into
// the public summary.
func newSimSummary(strategy string, res *sim.Result) *SimSummary {
	perEpoch := make([]float64, len(res.Epochs))
	for i, em := range res.Epochs {
		perEpoch[i] = em.Zeta
	}
	return &SimSummary{
		Strategy:        strategy,
		Epochs:          res.Summary.Epochs,
		Zeta:            res.Summary.MeanZeta,
		Phi:             res.Summary.MeanPhi,
		Rho:             res.Summary.Rho,
		UploadedBytes:   res.Summary.MeanUploadedBytes,
		MeanLatency:     res.Summary.MeanLatency,
		DroppedBytes:    res.Summary.MeanDroppedBytes,
		ContactsArrived: res.Summary.MeanArrived,
		ContactsProbed:  res.Summary.MeanProbed,
		ZetaCI95:        res.Summary.ZetaCI95,
		PhiCI95:         res.Summary.PhiCI95,
		PerEpochZeta:    perEpoch,
	}
}

// ReplicatedSummary aggregates independent replications of one
// simulation, each run with its own derived seed.
type ReplicatedSummary struct {
	// Strategy is the canonical name of the simulated strategy.
	Strategy string
	// Replications is the number of independent runs.
	Replications int
	// Zeta, Phi and Rho are across-replication means of the per-epoch
	// means (Rho = Phi/Zeta of the means).
	Zeta, Phi, Rho float64
	// ZetaCI95 and PhiCI95 are 95% confidence half-widths across
	// replications.
	ZetaCI95, PhiCI95 float64
	// Runs holds each replication's summary, in replication order.
	Runs []*SimSummary
}

// SimulateReplications runs the simulation reps times with seeds
// derived from the base seed and aggregates the outcomes. Replications
// fan out across a bounded worker pool — WithParallelism sets the
// width, defaulting to GOMAXPROCS — and the result is bit-identical to
// a serial run for any width.
func SimulateReplications(s *Scenario, strategy string, reps int, opts ...SimOption) (*ReplicatedSummary, error) {
	if s == nil || s.inner == nil {
		return nil, errors.New("rushprobe: nil scenario")
	}
	o := simOpts{epochs: experiments.SimEpochs, seed: 1}
	for _, opt := range opts {
		opt(&o)
	}
	cfg, name, err := simConfig(s, strategy, o)
	if err != nil {
		return nil, err
	}
	rep, err := sim.RunReplications(cfg, reps)
	if err != nil {
		return nil, err
	}
	out := &ReplicatedSummary{
		Strategy:     name,
		Replications: len(rep.Runs),
		Zeta:         rep.MeanZeta,
		Phi:          rep.MeanPhi,
		Rho:          rep.Rho,
		ZetaCI95:     rep.ZetaCI95,
		PhiCI95:      rep.PhiCI95,
		Runs:         make([]*SimSummary, len(rep.Runs)),
	}
	for i, r := range rep.Runs {
		out.Runs[i] = newSimSummary(name, r)
	}
	return out, nil
}

// Table is an experiment's tabular output.
type Table struct {
	// Title describes the table.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold one value per column.
	Rows [][]float64
	// Notes carry observations about the data.
	Notes []string
}

// Text renders the table as aligned columns.
func (t *Table) Text() string { return t.internalTable().Text() }

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string { return t.internalTable().CSV() }

func (t *Table) internalTable() *experiments.Table {
	return &experiments.Table{Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes}
}

// ExperimentIDs lists the registered experiments: fig3..fig8 reproduce
// the paper's figures; ext-* exercise the discussion and future-work
// claims. Use ExperimentDescription for each ID's one-line summary; the
// figure benchmarks in bench_test.go assert every experiment's expected
// shape.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentDescription returns the one-line description of an
// experiment, or an error for unknown IDs.
func ExperimentDescription(id string) (string, error) {
	e, ok := experiments.Registry()[id]
	if !ok {
		return "", fmt.Errorf("rushprobe: unknown experiment %q", id)
	}
	return e.Description, nil
}

// RunExperiment regenerates one figure's data tables. Simulation-based
// experiments fan their sweep grids out across the worker pool; of the
// simulation options only WithParallelism, WithSeed, and WithStrategy
// apply here — experiments fix their own epochs, warmup, and shifts, so
// passing WithEpochs, WithWarmup, or WithPatternShift is an error
// rather than a silent no-op. WithSeed, when given, overrides the
// positional seed; WithStrategy (repeatable) replaces the strategy axis
// of the sweeps that have one. Tables are bit-identical for every
// parallelism setting.
func RunExperiment(id string, seed uint64, opts ...SimOption) ([]*Table, error) {
	e, ok := experiments.Registry()[id]
	if !ok {
		return nil, fmt.Errorf("rushprobe: unknown experiment %q (known: %v)", id, experiments.IDs())
	}
	var o simOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.epochsSet || o.warmupSet || o.shiftSet || o.nodesSet || o.driftSet {
		return nil, fmt.Errorf("rushprobe: experiment %s fixes its own epochs/warmup/shift/population; only WithSeed, WithParallelism, and WithStrategy apply", id)
	}
	if o.seedSet {
		seed = o.seed
	}
	tabs, err := e.Run(experiments.Params{Seed: seed, Parallelism: o.parallelism, Strategies: o.strategies})
	if err != nil {
		return nil, fmt.Errorf("rushprobe: experiment %s: %w", id, err)
	}
	out := make([]*Table, len(tabs))
	for i, tab := range tabs {
		out[i] = &Table{Title: tab.Title, Columns: tab.Columns, Rows: tab.Rows, Notes: tab.Notes}
	}
	return out, nil
}

// MotivationGain returns the §IV energy saving PhiAT/PhiRH for a rush
// fraction Trh/Tepoch and frequency ratio frh/fother (Figure 4).
func MotivationGain(rushFraction, freqRatio float64) (float64, error) {
	return analysis.MotivationGain(rushFraction, freqRatio)
}
