package analysis

import (
	"fmt"
	"math"
	"sync"

	"rushprobe/internal/model"
	"rushprobe/internal/opt"
	"rushprobe/internal/scenario"
)

// Evaluator amortizes the closed-form strategy evaluations over a
// sweep: everything that does not depend on the capacity target — the
// per-slot processes, the epoch capacity totals, the mean contact
// lengths, the SNIP-RH knee rates, and the optimizer's tabulated slot
// curves — is computed once per scenario, and the target-dependent
// remainder is evaluated per point. AT's probed capacity is additionally
// memoized per duty cycle, because budget-capped sweeps drive many
// targets to the same duty (and, for distributed contact lengths, each
// evaluation is a quadrature).
//
// An Evaluator is safe for concurrent use; all methods produce results
// bit-identical to the corresponding one-shot AT/OPT/RH functions.
type Evaluator struct {
	base         *scenario.Scenario
	procs        []model.SlotProcess
	total        float64
	meanLen      float64
	rushMeanLen  float64
	drh          float64
	rushCapRate  []float64 // per-slot capacity rate at drh (0 off-rush)
	budgetDuty   float64
	epochSeconds float64

	// The optimizer's solver tabulates per-slot capacity curves — a
	// quadrature per slot for distributed contact lengths — so it is
	// built lazily, on the first OPT evaluation.
	solverOnce sync.Once
	solver     *opt.Solver
	solverErr  error

	mu     sync.Mutex
	atZeta map[float64]float64 // AT duty -> epoch probed capacity
}

// NewEvaluator validates the scenario and precomputes the
// target-independent quantities. The scenario's own ZetaTarget is
// irrelevant; every evaluation method takes the target explicitly.
func NewEvaluator(base *scenario.Scenario) (*Evaluator, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{
		base:         base,
		procs:        base.SlotProcesses(),
		total:        base.TotalCapacity(),
		meanLen:      base.MeanContactLength(),
		rushMeanLen:  RushMeanLength(base),
		epochSeconds: base.Epoch.Seconds(),
		atZeta:       make(map[float64]float64),
	}
	e.budgetDuty = 1.0
	if base.PhiMax > 0 {
		e.budgetDuty = math.Min(1, base.PhiMax/e.epochSeconds)
	}
	if e.rushMeanLen > 0 {
		e.drh = base.Radio.Knee(e.rushMeanLen)
		e.rushCapRate = make([]float64, len(e.procs))
		for i, p := range e.procs {
			if base.Slots[i].RushHour && p.Freq > 0 {
				e.rushCapRate[i] = base.Radio.CapacityRate(e.drh, p.Length.Mean(), p.Freq)
			}
		}
	}
	return e, nil
}

// optSolver builds the memoized optimizer on first use.
func (e *Evaluator) optSolver() (*opt.Solver, error) {
	e.solverOnce.Do(func() {
		e.solver, e.solverErr = opt.NewSolver(opt.Problem{
			Model:      e.base.Radio,
			Slots:      e.procs,
			PhiMax:     e.base.PhiMax,
			ZetaTarget: e.base.ZetaTarget,
		})
	})
	return e.solver, e.solverErr
}

// Scenario returns a copy of the base scenario with the given capacity
// target, sharing the (immutable) slot distributions. This is what a
// sweep point passes to the simulator.
func (e *Evaluator) Scenario(target float64) *scenario.Scenario {
	sc := *e.base
	sc.ZetaTarget = target
	return &sc
}

// ATDuty returns SNIP-AT's fixed duty cycle for the target (see ATDuty).
func (e *Evaluator) ATDuty(target float64) float64 {
	if e.total <= 0 || target <= 0 {
		return e.budgetDuty
	}
	need := e.base.Radio.DutyForUpsilon(target/e.total, e.meanLen)
	return math.Min(need, e.budgetDuty)
}

// atCapacity returns the epoch probed capacity of SNIP-AT at duty d,
// memoized per duty.
func (e *Evaluator) atCapacity(d float64) float64 {
	e.mu.Lock()
	if zeta, ok := e.atZeta[d]; ok {
		e.mu.Unlock()
		return zeta
	}
	e.mu.Unlock()
	// Evaluate outside the lock: quadratures are slow and concurrent
	// evaluations of the same duty are idempotent.
	zeta := 0.0
	for _, p := range e.procs {
		zeta += p.ProbedCapacity(e.base.Radio, d)
	}
	e.mu.Lock()
	e.atZeta[d] = zeta
	e.mu.Unlock()
	return zeta
}

// AT evaluates SNIP-AT analytically at the target.
func (e *Evaluator) AT(target float64) Result {
	d := e.ATDuty(target)
	return newResult(target, e.atCapacity(d), d*e.epochSeconds)
}

// OPTPlan solves the two-step optimization for the target, reusing the
// memoized slot curves.
func (e *Evaluator) OPTPlan(target float64) (opt.Plan, error) {
	solver, err := e.optSolver()
	if err != nil {
		return opt.Plan{}, err
	}
	return solver.Solve(e.base.PhiMax, target)
}

// OPT evaluates SNIP-OPT analytically at the target.
func (e *Evaluator) OPT(target float64) (Result, error) {
	plan, err := e.OPTPlan(target)
	if err != nil {
		return Result{}, err
	}
	return newResult(target, plan.Zeta, plan.Phi), nil
}

// RH evaluates SNIP-RH analytically at the target (see RH for the
// slot-consumption model).
func (e *Evaluator) RH(target float64) Result {
	if e.rushMeanLen <= 0 {
		return newResult(target, 0, 0)
	}
	var (
		zeta, phi float64
		budget    = e.base.PhiMax
	)
	for i, p := range e.procs {
		if !e.base.Slots[i].RushHour || p.Freq <= 0 {
			continue
		}
		if zeta >= target || (budget > 0 && phi >= budget) {
			break
		}
		capRate := e.rushCapRate[i]
		if capRate <= 0 {
			continue
		}
		tMax := p.Duration
		if need := (target - zeta) / capRate; need < tMax {
			tMax = need
		}
		if budget > 0 {
			if room := (budget - phi) / e.drh; room < tMax {
				tMax = room
			}
		}
		if tMax <= 0 {
			break
		}
		zeta += capRate * tMax
		phi += e.drh * tMax
	}
	return newResult(target, zeta, phi)
}

// Point evaluates SNIP-AT, SNIP-OPT and SNIP-RH at one target.
func (e *Evaluator) Point(target float64) (at, op, rh Result, err error) {
	at = e.AT(target)
	op, err = e.OPT(target)
	if err != nil {
		return at, op, rh, fmt.Errorf("analysis: OPT at target %g: %w", target, err)
	}
	rh = e.RH(target)
	return at, op, rh, nil
}
