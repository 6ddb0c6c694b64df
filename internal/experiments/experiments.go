// Package experiments maps every reproducible figure of the paper (and
// the extension experiments from its discussion/future-work sections) to
// a runnable experiment that regenerates the figure's data as a table.
// It is the shared backend of cmd/snipfig and the root bench suite.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rushprobe/internal/analysis"
	"rushprobe/internal/contact"
	"rushprobe/internal/core"
	"rushprobe/internal/dist"
	"rushprobe/internal/learn"
	"rushprobe/internal/model"
	"rushprobe/internal/pool"
	"rushprobe/internal/scenario"
	"rushprobe/internal/sim"
	"rushprobe/internal/simtime"
	"rushprobe/internal/strategy"
)

// Table is an experiment's output: named columns and rows of values,
// renderable as aligned text or CSV.
type Table struct {
	// Title describes the table (figure number and metric).
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold one value per column.
	Rows [][]float64
	// Notes carry free-text observations (comparisons to the paper).
	Notes []string
}

// Text renders the table as aligned columns.
func (t *Table) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, col := range t.Columns {
		widths[i] = len(col)
	}
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			cells[r][c] = formatCell(v)
			if len(cells[r][c]) > widths[c] {
				widths[c] = len(cells[r][c])
			}
		}
	}
	for i, col := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%*s", widths[i], col)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(formatCell(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.4g", v)
}

// Params carries the runtime knobs an experiment receives.
type Params struct {
	// Seed feeds the stochastic parts (ignored by closed-form analyses).
	Seed uint64
	// Parallelism bounds how many sweep points / simulation runs the
	// experiment executes concurrently through the shared worker pool.
	// Zero or negative means GOMAXPROCS; 1 forces serial execution.
	// Every setting produces bit-identical tables: grid points derive
	// their randomness from (Seed, point) alone and land in their own
	// row/column slot.
	Parallelism int
	// Strategies overrides the strategy axis of the simulation sweeps
	// (fig7, fig8, ext-loss, ext-latency: any registered strategy name
	// or alias per column; ext-contention: exactly one strategy for the
	// whole grid). Empty selects the paper's default set. Experiments
	// without a strategy axis reject a non-empty selection.
	Strategies []string
}

// sweepStrategies resolves a sweep's strategy axis to canonical names,
// defaulting to the paper's three mechanisms in presentation order.
func sweepStrategies(p Params) ([]string, error) {
	if len(p.Strategies) == 0 {
		return []string{strategy.NameAT, strategy.NameOPT, strategy.NameRH}, nil
	}
	out := make([]string, len(p.Strategies))
	for i, n := range p.Strategies {
		s, err := strategy.Lookup(n)
		if err != nil {
			return nil, err
		}
		out[i] = s.Name()
	}
	return out, nil
}

// noStrategyAxis rejects a strategy selection for experiments that have
// no strategy dimension, so the request fails loudly instead of being
// silently ignored.
func noStrategyAxis(id string, p Params) error {
	if len(p.Strategies) > 0 {
		return fmt.Errorf("experiments: %s has no strategy axis (strategy selection applies to fig7, fig8, ext-loss, ext-latency, ext-contention, ext-fleet, ext-drift)", id)
	}
	return nil
}

// Experiment regenerates one figure.
type Experiment struct {
	// ID is the registry key ("fig5", "ext-shift", ...).
	ID string
	// Description says what the experiment reproduces.
	Description string
	// Run executes the experiment.
	Run func(p Params) ([]*Table, error)
}

// Registry returns all experiments keyed by ID.
func Registry() map[string]*Experiment {
	exps := []*Experiment{
		{
			ID:          "fig3",
			Description: "Temporal unevenness of travel demand (synthetic analog of the paper's Fig. 3)",
			Run:         runFig3,
		},
		{
			ID:          "fig4",
			Description: "Motivation surface PhiAT/PhiRH vs rush fraction and frequency ratio (Fig. 4)",
			Run:         runFig4,
		},
		{
			ID:          "fig5",
			Description: "Analysis of SNIP-AT/OPT/RH at PhiMax = Tepoch/1000 (Fig. 5)",
			Run:         func(p Params) ([]*Table, error) { return runAnalysisFigure("fig5", 1.0/1000, p) },
		},
		{
			ID:          "fig6",
			Description: "Analysis of SNIP-AT/OPT/RH at PhiMax = Tepoch/100 (Fig. 6)",
			Run:         func(p Params) ([]*Table, error) { return runAnalysisFigure("fig6", 1.0/100, p) },
		},
		{
			ID:          "fig7",
			Description: "Simulation of SNIP-AT/OPT/RH at PhiMax = Tepoch/1000, 2 simulated weeks (Fig. 7)",
			Run:         func(p Params) ([]*Table, error) { return runSimulationFigure("fig7", 1.0/1000, p) },
		},
		{
			ID:          "fig8",
			Description: "Simulation of SNIP-AT/OPT/RH at PhiMax = Tepoch/100, 2 simulated weeks (Fig. 8)",
			Run:         func(p Params) ([]*Table, error) { return runSimulationFigure("fig8", 1.0/100, p) },
		},
		{
			ID:          "ext-learn",
			Description: "Rush-hour learning speed with a very small SNIP-AT duty cycle (§VII.B)",
			Run:         runExtLearn,
		},
		{
			ID:          "ext-shift",
			Description: "Adaptive SNIP-RH+AT tracking a seasonal shift of rush hours (§VII.B)",
			Run:         runExtShift,
		},
		{
			ID:          "ext-drh",
			Description: "Sensitivity of rho to the drh choice around the knee (§VI.C, footnote 1)",
			Run:         runExtDrh,
		},
		{
			ID:          "ext-exp",
			Description: "Upsilon slope change under exponential contact lengths (footnote 1)",
			Run:         runExtExponential,
		},
		{
			ID:          "ext-loss",
			Description: "Beacon-loss robustness of the three mechanisms",
			Run:         runExtLoss,
		},
	}
	exps = append(exps, extendedExperiments()...)
	out := make(map[string]*Experiment, len(exps))
	for _, e := range exps {
		out[e.ID] = e
	}
	return out
}

// IDs returns the registry keys in stable order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SimEpochs is the simulated duration of the paper's runs: two weeks.
const SimEpochs = 14

func runFig3(p Params) ([]*Table, error) {
	if err := noStrategyAxis("fig3", p); err != nil {
		return nil, err
	}
	profile := contact.DefaultCommute()
	shares, err := contact.HourlyShares(profile, 24)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "fig3: share of daily contact demand per hour (synthetic bimodal commuter profile)",
		Columns: []string{"hour", "share_pct"},
		Notes: []string{
			"paper's Fig. 3 is third-party travel-demand data; this synthetic profile preserves the bimodal rush-hour shape",
		},
	}
	for h, s := range shares {
		t.Rows = append(t.Rows, []float64{float64(h), 100 * s})
	}
	return []*Table{t}, nil
}

func runFig4(p Params) ([]*Table, error) {
	if err := noStrategyAxis("fig4", p); err != nil {
		return nil, err
	}
	fractions := analysis.Linspace(0.05, 0.5, 10)
	ratios := analysis.Linspace(2, 20, 10)
	pts, err := analysis.MotivationSurface(fractions, ratios)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "fig4: energy gain PhiAT/PhiRH of probing only in rush hours",
		Columns: []string{"Trh/Tepoch", "frh/fother", "gain"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []float64{p.RushFraction, p.FreqRatio, p.Gain})
	}
	return []*Table{t}, nil
}

// runAnalysisFigure produces the three sub-plots (zeta, Phi, rho) of
// Figure 5 or 6 from the closed-form analysis.
func runAnalysisFigure(id string, budgetFrac float64, p Params) ([]*Table, error) {
	if err := noStrategyAxis(id, p); err != nil {
		return nil, err
	}
	base := scenario.Roadside(scenario.WithFixedLengths(), scenario.WithBudgetFraction(budgetFrac))
	sweeps, err := analysis.SweepTargetsParallel(base, analysis.PaperTargets(), p.Parallelism)
	if err != nil {
		return nil, err
	}
	return sweepTables(id, "analysis", sweeps), nil
}

// schedulerFactory builds the scheduler factory for one simulation
// sweep point, resolved through the strategy registry. SNIP-OPT plans
// are solved through the sweep's shared evaluator so the optimizer's
// slot curves are tabulated once per figure instead of once per target;
// every other strategy's parameterization is cheap and goes through the
// standard path.
func schedulerFactory(ev *analysis.Evaluator, sc *scenario.Scenario, strat string) (func() (core.Scheduler, error), error) {
	if strat != strategy.NameOPT {
		return sim.StrategyFactory(sc, strat)
	}
	plan, err := ev.OPTPlan(sc.ZetaTarget)
	if err != nil {
		return nil, err
	}
	return func() (core.Scheduler, error) {
		return core.NewOPTFollower(plan.Duty, sc.PhiMax)
	}, nil
}

// runSimulationFigure produces the three sub-plots of Figure 7 or 8 by
// full simulation (normal-distributed intervals and lengths, two weeks,
// per-day averages), mirroring §VII.A.2. The target x strategy grid
// fans out across the worker pool; every grid point derives its
// randomness from the seed alone and writes its own sweep slot, so the
// tables are bit-identical for any parallelism. The strategy axis
// defaults to the paper's three mechanisms and honors p.Strategies.
func runSimulationFigure(id string, budgetFrac float64, p Params) ([]*Table, error) {
	targets := analysis.PaperTargets()
	strategies, err := sweepStrategies(p)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	base := scenario.Roadside(scenario.WithBudgetFraction(budgetFrac))
	ev, err := analysis.NewEvaluator(base)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	sweeps := make([]analysis.Sweep, len(strategies))
	for i, s := range strategies {
		sweeps[i].Mechanism = s
		sweeps[i].Points = make([]analysis.MechanismResult, len(targets))
	}
	err = pool.ForEachGrid(len(targets), len(strategies), p.Parallelism, func(ti, mi int) error {
		target, m := targets[ti], strategies[mi]
		sc := ev.Scenario(target)
		factory, err := schedulerFactory(ev, sc, m)
		if err != nil {
			return fmt.Errorf("experiments: %s %v target %g: %w", id, m, target, err)
		}
		res, err := sim.Run(sim.Config{
			Scenario:     sc,
			NewScheduler: factory,
			Epochs:       SimEpochs,
			Seed:         p.Seed,
		})
		if err != nil {
			return fmt.Errorf("experiments: %s %v target %g: %w", id, m, target, err)
		}
		rho := math.Inf(1)
		if res.Summary.MeanZeta > 0 {
			rho = res.Summary.MeanPhi / res.Summary.MeanZeta
		}
		sweeps[mi].Points[ti] = analysis.MechanismResult{
			ZetaTarget: target,
			Zeta:       res.Summary.MeanZeta,
			Phi:        res.Summary.MeanPhi,
			Rho:        rho,
			TargetMet:  res.Summary.MeanZeta >= target-1e-9,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sweepTables(id, "simulation", sweeps), nil
}

// sweepTables renders sweeps into the figure's three sub-plot tables.
func sweepTables(id, kind string, sweeps []analysis.Sweep) []*Table {
	metricNames := []string{"zeta_s", "phi_s", "rho"}
	subTitles := []string{
		"(a) probed contact capacity",
		"(b) contact probing overhead",
		"(c) cost per unit probed capacity",
	}
	tables := make([]*Table, len(metricNames))
	for m := range metricNames {
		t := &Table{
			Title:   fmt.Sprintf("%s %s: %s", id, subTitles[m], kind),
			Columns: []string{"zeta_target_s"},
		}
		for _, s := range sweeps {
			t.Columns = append(t.Columns, s.Mechanism+"_"+metricNames[m])
		}
		for p := range sweeps[0].Points {
			row := []float64{sweeps[0].Points[p].ZetaTarget}
			for _, s := range sweeps {
				var v float64
				switch m {
				case 0:
					v = s.Points[p].Zeta
				case 1:
					v = s.Points[p].Phi
				default:
					v = s.Points[p].Rho
				}
				row = append(row, v)
			}
			t.Rows = append(t.Rows, row)
		}
		tables[m] = t
	}
	return tables
}

// runExtLearn measures how quickly the §VII.B bootstrap identifies the
// true rush hours: a learner fed by probed contacts from SNIP-AT at a
// very small duty cycle, scored against the engineered mask per epoch.
func runExtLearn(p Params) ([]*Table, error) {
	if err := noStrategyAxis("ext-learn", p); err != nil {
		return nil, err
	}
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	reference := sc.RushMask()
	const (
		epochs   = 10
		bootDuty = 0.0005 // "the used duty-cycle could be very small" (§VII.B)
	)
	learner, err := learn.NewRushHourLearner(len(sc.Slots), 4)
	if err != nil {
		return nil, err
	}
	// Bootstrap phase: SNIP-AT at a tiny duty probes a thin sample of
	// contacts; the per-slot probe counts of each epoch feed the learner.
	res, err := sim.Run(sim.Config{
		Scenario:     sc,
		NewScheduler: func() (core.Scheduler, error) { return core.NewAT(bootDuty) },
		Epochs:       epochs,
		Seed:         p.Seed,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "ext-learn: rush-hour mask agreement per bootstrap epoch (SNIP-AT at d=0.0005)",
		Columns: []string{"epoch", "probed_contacts", "agreement"},
		Notes:   []string{"agreement = fraction of the 24 slots classified like the engineered mask"},
	}
	for e, em := range res.Epochs {
		for slotIdx, probes := range em.PerSlotProbes {
			for i := 0; i < probes; i++ {
				learner.ObserveContact(slotIdx, em.PerSlotZeta[slotIdx]/float64(probes))
			}
		}
		learner.EndEpoch()
		agreement := learn.Agreement(learner.Mask(), reference)
		t.Rows = append(t.Rows, []float64{float64(e), float64(em.Probed), agreement})
	}
	return []*Table{t}, nil
}

// runExtShift runs the adaptive scheduler against an environment whose
// rush hours move by three slots halfway through, reporting per-epoch
// probed capacity for the static and adaptive variants.
func runExtShift(p Params) ([]*Table, error) {
	if err := noStrategyAxis("ext-shift", p); err != nil {
		return nil, err
	}
	sc := scenario.Roadside(scenario.WithZetaTarget(16))
	const epochs = 24
	shiftAt := simtime.Instant(12 * sc.Epoch)
	shift := func(at simtime.Instant) int {
		if at.Before(shiftAt) {
			return 0
		}
		return 3
	}
	run := func(name string) (*sim.Result, error) {
		factory, err := sim.StrategyFactory(sc, name)
		if err != nil {
			return nil, err
		}
		return sim.Run(sim.Config{
			Scenario:     sc,
			NewScheduler: factory,
			Epochs:       epochs,
			Seed:         p.Seed,
			Shift:        shift,
		})
	}
	static, err := run(strategy.NameRH)
	if err != nil {
		return nil, err
	}
	adaptive, err := run(strategy.NameAdaptiveRH)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "ext-shift: probed capacity per epoch when rush hours shift by 3 slots at epoch 12",
		Columns: []string{"epoch", "static_rh_zeta_s", "adaptive_rh_zeta_s"},
		Notes: []string{
			"static SNIP-RH keeps probing the stale mask after the shift; the adaptive variant re-learns it",
		},
	}
	for e := 0; e < epochs; e++ {
		t.Rows = append(t.Rows, []float64{
			float64(e),
			static.Epochs[e].Zeta,
			adaptive.Epochs[e].Zeta,
		})
	}
	return []*Table{t}, nil
}

// runExtDrh sweeps the RH duty cycle around the knee and reports rho,
// validating §VI.C's claim that rho is flat below the knee and grows
// slowly just above it.
func runExtDrh(p Params) ([]*Table, error) {
	if err := noStrategyAxis("ext-drh", p); err != nil {
		return nil, err
	}
	sc := scenario.Roadside(scenario.WithFixedLengths())
	cfg := sc.Radio
	const (
		tContact = 2.0
		freq     = 1.0 / 300
	)
	knee := cfg.Knee(tContact)
	t := &Table{
		Title:   "ext-drh: per-unit probing cost rho vs duty cycle (rush-hour contact stream)",
		Columns: []string{"d_over_knee", "duty", "rho"},
		Notes:   []string{"rho is flat below the knee (d/knee <= 1) and grows slowly just above it"},
	}
	for _, mult := range []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 4.0, 8.0} {
		d := knee * mult
		t.Rows = append(t.Rows, []float64{mult, d, cfg.Rho(d, tContact, freq)})
	}
	return []*Table{t}, nil
}

// runExtExponential compares expected Upsilon for fixed versus
// exponential contact lengths across duty cycles (footnote 1).
func runExtExponential(p Params) ([]*Table, error) {
	if err := noStrategyAxis("ext-exp", p); err != nil {
		return nil, err
	}
	sc := scenario.Roadside(scenario.WithFixedLengths())
	cfg := sc.Radio
	t := &Table{
		Title:   "ext-exp: Upsilon vs duty cycle for fixed and exponential contact lengths (mean 2s)",
		Columns: []string{"duty", "upsilon_fixed", "upsilon_exponential"},
		Notes:   []string{"the slope change at the knee (d=0.01) persists for exponential lengths"},
	}
	for _, d := range []float64{0.001, 0.0025, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.04, 0.08} {
		t.Rows = append(t.Rows, []float64{
			d,
			cfg.Upsilon(d, 2.0),
			expUpsilon(cfg, d),
		})
	}
	return []*Table{t}, nil
}

// simGrid fills t.Rows for a rows x cols grid of independent
// simulation runs fanned out through the worker pool: row r gets
// rowVals[r] in column 0 and metric(point(r, c)'s result) in column
// 1+c, where point names the strategy each cell simulates. Every cell
// derives its randomness from p.Seed alone and writes its own slot, so
// the table is bit-identical for any parallelism.
func simGrid(t *Table, rowVals []float64, cols, epochs int, p Params,
	point func(r, c int) (*scenario.Scenario, string),
	metric func(*sim.Result) float64) error {
	t.Rows = make([][]float64, len(rowVals))
	for i, v := range rowVals {
		t.Rows[i] = make([]float64, 1+cols)
		t.Rows[i][0] = v
	}
	return pool.ForEachGrid(len(rowVals), cols, p.Parallelism, func(r, c int) error {
		sc, m := point(r, c)
		factory, err := sim.StrategyFactory(sc, m)
		if err != nil {
			return err
		}
		res, err := sim.Run(sim.Config{
			Scenario:     sc,
			NewScheduler: factory,
			Epochs:       epochs,
			Seed:         p.Seed,
		})
		if err != nil {
			return err
		}
		t.Rows[r][1+c] = metric(res)
		return nil
	})
}

// runExtLoss sweeps the beacon loss probability and reports each
// strategy's probed capacity (default: the paper's three mechanisms).
func runExtLoss(p Params) ([]*Table, error) {
	strategies, err := sweepStrategies(p)
	if err != nil {
		return nil, fmt.Errorf("experiments: ext-loss: %w", err)
	}
	t := &Table{
		Title:   "ext-loss: probed capacity per epoch vs beacon loss probability (target 24s, PhiMax=Tepoch/100)",
		Columns: strategyColumns("loss_prob", strategies, "_zeta_s"),
	}
	losses := []float64{0, 0.1, 0.25, 0.5}
	err = simGrid(t, losses, len(strategies), 7, p,
		func(li, mi int) (*scenario.Scenario, string) {
			return scenario.Roadside(
				scenario.WithZetaTarget(24),
				scenario.WithBudgetFraction(1.0/100),
				scenario.WithBeaconLoss(losses[li]),
			), strategies[mi]
		},
		func(res *sim.Result) float64 { return res.Summary.MeanZeta })
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// strategyColumns builds a table header: the row-value column followed
// by one column per strategy with the metric suffix.
func strategyColumns(first string, strategies []string, suffix string) []string {
	cols := make([]string, 0, 1+len(strategies))
	cols = append(cols, first)
	for _, s := range strategies {
		cols = append(cols, s+suffix)
	}
	return cols
}

// expUpsilon evaluates the expected Upsilon for exponential contact
// lengths with mean 2 s.
func expUpsilon(cfg model.Config, d float64) float64 {
	return cfg.ExpectedUpsilon(d, dist.Exponential{MeanValue: 2})
}
