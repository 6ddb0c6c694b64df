// Package opt solves the SNIP-OPT scheduling problem of the paper's §V.
//
// Given a learned contact arrival process per time slot, SNIP-OPT picks a
// duty cycle d_i for every slot in two steps:
//
//	Step 1: maximize zeta = sum_i zeta_i(d_i)  s.t.  Phi = sum_i t_i d_i <= PhiMax
//	Step 2 (only if step 1's optimum >= ZetaTarget):
//	        minimize Phi                       s.t.  zeta >= ZetaTarget
//
// Each slot's probed capacity zeta_i is concave and nondecreasing in the
// energy phi_i = t_i*d_i spent on the slot (linear below the SNIP knee,
// diminishing above it), so both steps are concave resource-allocation
// problems. They are solved exactly by water-filling on the marginal
// capacity-per-energy price lambda with bisection, plus explicit handling
// of the degenerate linear segments (where a whole efficiency class sits
// at the same marginal price and must be filled fractionally).
//
// Every bisection stops at its float64 fixed point: as soon as the
// midpoint equals the bound it would replace, the loop breaks instead of
// running out its iteration cap. The test that picks the branch is a
// pure function of the midpoint, so from that step on every further
// iteration would compute the same midpoint, take the same branch and
// leave (lo, hi) unchanged; breaking returns bit for bit what the full
// count would. The caps stay as a bound for intervals that shrink
// toward zero through the subnormals.
//
// A slow brute-force allocator is included for cross-checking in tests.
package opt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rushprobe/internal/dist"
	"rushprobe/internal/model"
)

// Problem describes a SNIP-OPT instance.
type Problem struct {
	// Model holds the radio parameters (Ton).
	Model model.Config
	// Slots is the per-slot contact arrival process. Slot durations must
	// be positive; slots with zero contact frequency simply never receive
	// energy.
	Slots []model.SlotProcess
	// PhiMax is the probing-energy budget per epoch (radio on-time, s).
	PhiMax float64
	// ZetaTarget is the probed-capacity target per epoch (s).
	ZetaTarget float64
	// MaxDuty caps every slot's duty cycle; zero means 1.
	MaxDuty float64
}

// Plan is the optimizer's output: one duty cycle per slot plus the
// resulting totals under the analytical model.
type Plan struct {
	// Duty is the per-slot duty cycle, same order as Problem.Slots.
	Duty []float64
	// Zeta is the expected probed capacity of the plan (s per epoch).
	Zeta float64
	// Phi is the probing energy of the plan (radio on-time, s per epoch).
	Phi float64
	// TargetMet reports whether Zeta >= ZetaTarget (within tolerance).
	TargetMet bool
	// BudgetBound reports whether the plan exhausts PhiMax.
	BudgetBound bool
}

// Rho returns the plan's energy cost per unit probed capacity, or +Inf
// when the plan probes nothing.
func (p Plan) Rho() float64 {
	if p.Zeta <= 0 {
		return math.Inf(1)
	}
	return p.Phi / p.Zeta
}

// ErrInfeasible is returned when a problem admits no probing at all (for
// example, a non-positive energy budget with a positive target).
var ErrInfeasible = errors.New("opt: problem is infeasible")

const tol = 1e-9

// Solve runs the two-step optimization of §V and returns the resulting
// plan. Following the paper: if even the budget-exhausting plan cannot
// reach ZetaTarget, the step-1 plan is returned with TargetMet=false (the
// sensor node is expected to lower its data rate); otherwise the minimal-
// energy plan meeting the target is returned.
//
// Callers solving many (PhiMax, ZetaTarget) points over the same slots
// should build a Solver once instead: the per-slot capacity curves — the
// expensive part for distributed contact lengths, whose saturating
// branch is tabulated by quadrature — depend only on the slots, not on
// the budget or target.
func Solve(p Problem) (Plan, error) {
	s, err := NewSolver(p)
	if err != nil {
		return Plan{}, err
	}
	return s.Solve(p.PhiMax, p.ZetaTarget)
}

// Solver memoizes the per-slot capacity curves of a problem so that
// repeated solves across budgets and targets (experiment sweeps) pay
// the curve-tabulation quadrature once. The precomputed state is
// read-only after construction, so a Solver may be shared by concurrent
// Solve calls.
type Solver struct {
	p      Problem
	curves []slotCurve
}

// NewSolver validates the problem and precomputes its slot curves. The
// PhiMax and ZetaTarget carried by p are only defaults; each Solve call
// supplies its own.
func NewSolver(p Problem) (*Solver, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Solver{p: p, curves: buildCurves(p)}, nil
}

// Solve runs the two-step optimization for one (budget, target) point,
// reusing the precomputed curves.
func (s *Solver) Solve(phiMax, zetaTarget float64) (Plan, error) {
	if phiMax < 0 {
		return Plan{}, fmt.Errorf("opt: negative energy budget %g", phiMax)
	}
	if zetaTarget < 0 {
		return Plan{}, fmt.Errorf("opt: negative capacity target %g", zetaTarget)
	}
	p := s.p
	p.PhiMax = phiMax
	p.ZetaTarget = zetaTarget
	maxPlan := maximizeZeta(p, s.curves)
	if maxPlan.Zeta < p.ZetaTarget-tol {
		return maxPlan, nil
	}
	return minimizePhi(p, s.curves), nil
}

func (p Problem) validate() error {
	if err := p.Model.Validate(); err != nil {
		return err
	}
	if len(p.Slots) == 0 {
		return errors.New("opt: no slots")
	}
	for i, s := range p.Slots {
		if s.Duration <= 0 {
			return fmt.Errorf("opt: slot %d has non-positive duration %g", i, s.Duration)
		}
		if s.Freq < 0 {
			return fmt.Errorf("opt: slot %d has negative frequency %g", i, s.Freq)
		}
		if s.Freq > 0 && s.Length == nil {
			return fmt.Errorf("opt: slot %d has contacts but no length distribution", i)
		}
	}
	if p.PhiMax < 0 {
		return fmt.Errorf("opt: negative energy budget %g", p.PhiMax)
	}
	if p.ZetaTarget < 0 {
		return fmt.Errorf("opt: negative capacity target %g", p.ZetaTarget)
	}
	if p.MaxDuty < 0 || p.MaxDuty > 1 {
		return fmt.Errorf("opt: MaxDuty %g out of [0, 1]", p.MaxDuty)
	}
	return nil
}

func (p Problem) maxDuty() float64 {
	if p.MaxDuty == 0 {
		return 1
	}
	return p.MaxDuty
}

// slotCurve precomputes, for one slot, the quantities the water-filling
// needs. The capacity-vs-energy curve of slot i is
//
//	zeta_i(phi) = effLin * phi                      for phi <= phiKnee
//	zeta_i(phi) = C_i * (1 - a_i * t_i / phi)       for phi >  phiKnee
//
// where effLin is the constant linear-branch efficiency, phiKnee the
// energy at the SNIP knee, C_i the slot's total contact capacity, and a_i
// collects the saturating-branch constants. For distributed contact
// lengths the curve is evaluated through the model's expectation, which
// preserves concavity; the knee is taken at the mean length.
type slotCurve struct {
	proc     model.SlotProcess
	cfg      model.Config
	dMax     float64 // duty cap for this slot
	dKnee    float64 // knee duty (at mean contact length), capped at dMax
	phiKnee  float64 // energy at dKnee
	phiMax   float64 // energy at dMax
	effLin   float64 // marginal capacity per energy on the linear branch
	capTotal float64 // total arriving capacity in the slot
	h        float64 // finite-difference step of marginal
	mCap     float64 // marginal just below the duty cap

	// grid caches zeta at evenly spaced duty cycles above the knee for
	// distributed contact lengths, whose exact evaluation needs a
	// quadrature too slow for the optimizer's inner bisections. Below the
	// knee zeta is linear, so no grid is needed there. Empty for
	// dist.Fixed, where the closed form is cheap.
	grid     []float64
	gridStep float64
}

// curveGridPoints is the resolution of the cached saturating branch. The
// branch is smooth and concave; 2048 points keep interpolation error
// below 1e-6 of capacity.
const curveGridPoints = 2048

func newSlotCurve(cfg model.Config, proc model.SlotProcess, dMax float64) slotCurve {
	c := slotCurve{proc: proc, cfg: cfg, dMax: dMax}
	if proc.Freq <= 0 || proc.Length == nil || proc.Length.Mean() <= 0 {
		return c
	}
	c.capTotal = proc.Capacity()
	c.dKnee = math.Min(cfg.Knee(proc.Length.Mean()), dMax)
	c.phiKnee = proc.Duration * c.dKnee
	c.phiMax = proc.Duration * dMax
	if c.dKnee > 0 {
		c.effLin = proc.ProbedCapacity(cfg, c.dKnee) / c.phiKnee
	}
	if _, fixed := proc.Length.(dist.Fixed); !fixed && c.dKnee < dMax {
		c.gridStep = (dMax - c.dKnee) / float64(curveGridPoints)
		c.grid = make([]float64, curveGridPoints+1)
		for i := range c.grid {
			c.grid[i] = proc.ProbedCapacity(cfg, c.dKnee+float64(i)*c.gridStep)
		}
	}
	c.h = math.Max(c.phiMax*1e-7, 1e-9)
	c.mCap = c.marginal(c.phiMax * (1 - 1e-9))
	return c
}

// zeta returns the probed capacity for energy phi spent on this slot.
//
//rushlint:hotpath
func (c *slotCurve) zeta(phi float64) float64 {
	if phi <= 0 || c.capTotal == 0 {
		return 0
	}
	d := math.Min(phi/c.proc.Duration, c.dMax)
	if d <= c.dKnee || c.grid == nil {
		if d <= c.dKnee {
			// Linear branch: exact for fixed lengths and an excellent
			// approximation for the narrow distributions the scheduler
			// learns (error < 1% at sigma = mean/10).
			return c.effLin * d * c.proc.Duration
		}
		return c.proc.ProbedCapacity(c.cfg, d)
	}
	pos := (d - c.dKnee) / c.gridStep
	i := int(pos)
	if i >= curveGridPoints {
		return c.grid[curveGridPoints]
	}
	frac := pos - float64(i)
	return c.grid[i]*(1-frac) + c.grid[i+1]*frac
}

// marginal returns d zeta / d phi at energy phi (right derivative below
// the cap, backward at the cap), evaluated numerically above the knee.
//
//rushlint:hotpath
func (c *slotCurve) marginal(phi float64) float64 {
	if c.capTotal == 0 {
		return 0
	}
	if phi < c.phiKnee-tol {
		return c.effLin
	}
	h := c.h
	if phi+h > c.phiMax {
		phi = c.phiMax - h
		if phi < c.phiKnee {
			return c.effLin
		}
	}
	return (c.zeta(phi+h) - c.zeta(phi)) / h
}

// phiForMarginal returns the largest energy at which the slot's marginal
// efficiency still meets price lambda. For lambda above the linear
// efficiency it returns 0; for lambda below the efficiency at the duty
// cap it returns phiMax; otherwise it bisects on the saturating branch.
//
//rushlint:hotpath
func (c *slotCurve) phiForMarginal(lambda float64) float64 {
	if c.capTotal == 0 || lambda > c.effLin+tol {
		return 0
	}
	if lambda <= c.mCap {
		return c.phiMax
	}
	lo, hi := c.phiKnee, c.phiMax
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if c.marginal(mid) >= lambda {
			if mid == lo {
				break
			}
			lo = mid
		} else {
			if mid == hi {
				break
			}
			hi = mid
		}
	}
	return lo
}

// fillEnergy sets phis to each curve's energy at price lambda and
// returns the total energy.
func fillEnergy(curves []slotCurve, phis []float64, lambda float64) float64 {
	s := 0.0
	for i := range curves {
		phis[i] = curves[i].phiForMarginal(lambda)
		s += phis[i]
	}
	return s
}

// fillCapacity sets phis to each curve's energy at price lambda and
// returns the total capacity that energy probes.
func fillCapacity(curves []slotCurve, phis []float64, lambda float64) float64 {
	z := 0.0
	for i := range curves {
		c := &curves[i]
		phis[i] = c.phiForMarginal(lambda)
		z += c.zeta(phis[i])
	}
	return z
}

// maximizeZeta implements step 1: spend at most PhiMax to maximize zeta.
func maximizeZeta(p Problem, curves []slotCurve) Plan {
	// If even at price ~0 the whole system wants less energy than the
	// budget, spend what the curves can absorb.
	phis := make([]float64, len(curves))
	if fillEnergy(curves, phis, tol) <= p.PhiMax+tol {
		return assemble(p, curves, phis, true /* budget had headroom */)
	}
	// Bisect lambda so that total allocated energy equals the budget.
	loL, hiL := 0.0, maxLinearEff(curves)*2+1
	for i := 0; i < 200; i++ {
		mid := (loL + hiL) / 2
		if fillEnergy(curves, phis, mid) > p.PhiMax {
			if mid == loL {
				break
			}
			loL = mid
		} else {
			if mid == hiL {
				break
			}
			hiL = mid
		}
	}
	lambda := hiL
	used := fillEnergy(curves, phis, lambda)
	distributeSlack(p, curves, phis, p.PhiMax-used, lambda)
	return assemble(p, curves, phis, false)
}

// minimizePhi implements step 2: reach ZetaTarget with minimal energy.
// Feasibility (max zeta >= target under budget) is established by step 1
// before this is called.
func minimizePhi(p Problem, curves []slotCurve) Plan {
	if p.ZetaTarget <= tol {
		return assemble(p, curves, make([]float64, len(curves)), true)
	}
	// Higher lambda -> less energy -> less capacity. Bisect to the
	// smallest capacity still meeting the target.
	phis := make([]float64, len(curves))
	loL, hiL := 0.0, maxLinearEff(curves)*2+1
	for i := 0; i < 200; i++ {
		mid := (loL + hiL) / 2
		if fillCapacity(curves, phis, mid) >= p.ZetaTarget {
			if mid == loL {
				break
			}
			loL = mid
		} else {
			if mid == hiL {
				break
			}
			hiL = mid
		}
	}
	lambda := loL
	z := fillCapacity(curves, phis, lambda)
	// The allocation at lambda may overshoot because a whole efficiency
	// class switched on at once; peel the surplus back from the marginal
	// class (all its members share the same efficiency, so removal order
	// inside the class does not change Phi).
	trimSurplus(curves, phis, z-p.ZetaTarget)
	return assemble(p, curves, phis, true)
}

// distributeSlack pours leftover step-1 budget into the slots whose
// marginal efficiency sits at the critical lambda (the degenerate linear
// class), which the bisection under-fills. The slack is spread
// proportionally to each candidate's remaining room, so identical slots
// end up with identical duty cycles.
func distributeSlack(p Problem, curves []slotCurve, phis []float64, slack, lambda float64) {
	if slack <= tol {
		return
	}
	relTol := 1e-6 * math.Max(1, lambda)
	type cand struct {
		i    int
		room float64
	}
	var (
		cands     []cand
		totalRoom float64
	)
	for i := range curves {
		c := &curves[i]
		if c.capTotal == 0 {
			continue
		}
		// Room on the linear branch at efficiency ~lambda, or more
		// generally any capacity whose marginal still meets lambda.
		var room float64
		switch {
		case math.Abs(c.effLin-lambda) <= relTol && phis[i] < c.phiKnee:
			room = c.phiKnee - phis[i]
		case c.marginal(phis[i]) >= lambda-relTol && phis[i] < c.phiMax:
			room = c.phiMax - phis[i]
		default:
			continue
		}
		cands = append(cands, cand{i: i, room: room})
		totalRoom += room
	}
	if totalRoom <= tol {
		return
	}
	if slack >= totalRoom {
		for _, cd := range cands {
			phis[cd.i] += cd.room
		}
		return
	}
	frac := slack / totalRoom
	for _, cd := range cands {
		phis[cd.i] += cd.room * frac
	}
}

// trimSurplus removes surplus capacity from the least-efficient filled
// slots so that step 2 lands exactly on the target.
func trimSurplus(curves []slotCurve, phis []float64, surplus float64) {
	if surplus <= tol {
		return
	}
	// Identify slots whose last unit of energy sits at the marginal
	// price; remove from them first (their zeta/phi trade is lambda).
	type cand struct {
		i   int
		eff float64
	}
	var cands []cand
	for i := range curves {
		c := &curves[i]
		if phis[i] <= tol || c.capTotal == 0 {
			continue
		}
		cands = append(cands, cand{i: i, eff: c.marginal(phis[i] * (1 - 1e-9))})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].eff != cands[b].eff {
			return cands[a].eff < cands[b].eff // least efficient first
		}
		return cands[a].i > cands[b].i
	})
	for _, cd := range cands {
		if surplus <= tol {
			return
		}
		c := &curves[cd.i]
		if cd.eff <= 0 {
			continue
		}
		// Trim the saturating portion first, in small steps (zeta is
		// nonlinear there), then fall through to the linear branch where
		// trimming is exact.
		for surplus > tol && phis[cd.i] > c.phiKnee+tol {
			step := math.Min(phis[cd.i]-c.phiKnee, math.Max(c.phiMax*1e-4, 1e-9))
			dz := c.zeta(phis[cd.i]) - c.zeta(phis[cd.i]-step)
			if dz > surplus {
				// Interpolate the final partial step linearly.
				phis[cd.i] -= step * (surplus / dz)
				surplus = 0
				break
			}
			phis[cd.i] -= step
			surplus -= dz
		}
		if surplus <= tol {
			return
		}
		if phis[cd.i] > tol && c.effLin > 0 && phis[cd.i] <= c.phiKnee+tol {
			removablePhi := math.Min(phis[cd.i], surplus/c.effLin)
			phis[cd.i] -= removablePhi
			surplus -= removablePhi * c.effLin
		}
	}
}

func buildCurves(p Problem) []slotCurve {
	curves := make([]slotCurve, len(p.Slots))
	for i, s := range p.Slots {
		curves[i] = newSlotCurve(p.Model, s, p.maxDuty())
	}
	return curves
}

func maxLinearEff(curves []slotCurve) float64 {
	m := 0.0
	for i := range curves {
		m = math.Max(m, curves[i].effLin)
	}
	return m
}

func assemble(p Problem, curves []slotCurve, phis []float64, headroom bool) Plan {
	duty := make([]float64, len(curves))
	zeta, phi := 0.0, 0.0
	for i := range curves {
		duty[i] = phis[i] / p.Slots[i].Duration
		if duty[i] > p.maxDuty() {
			duty[i] = p.maxDuty()
		}
		zeta += curves[i].zeta(phis[i])
		phi += phis[i]
	}
	return Plan{
		Duty:        duty,
		Zeta:        zeta,
		Phi:         phi,
		TargetMet:   zeta >= p.ZetaTarget-1e-6,
		BudgetBound: !headroom && phi >= p.PhiMax-1e-6,
	}
}

// BruteForce solves the same two-step problem by greedy incremental
// allocation with a fixed energy quantum. It is exponentially slower and
// slightly suboptimal (quantization), and exists only as an independent
// oracle for tests. The quantum is PhiMax/steps for step 1 and a capacity
// target increment for step 2.
func BruteForce(p Problem, steps int) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	if steps <= 0 {
		return Plan{}, errors.New("opt: steps must be positive")
	}
	curves := buildCurves(p)
	quantum := p.PhiMax / float64(steps)
	if quantum <= 0 {
		return assemble(p, curves, make([]float64, len(curves)), true), nil
	}
	phis := make([]float64, len(curves))
	spend := func(budget float64, stopAtZeta float64) {
		spent := 0.0
		zeta := 0.0
		for spent+quantum <= budget+tol {
			best, bestGain := -1, 0.0
			for i := range curves {
				c := &curves[i]
				if phis[i]+quantum > c.phiMax {
					continue
				}
				gain := c.zeta(phis[i]+quantum) - c.zeta(phis[i])
				if gain > bestGain+tol {
					best, bestGain = i, gain
				}
			}
			if best < 0 || bestGain <= tol {
				return
			}
			phis[best] += quantum
			spent += quantum
			zeta += bestGain
			if stopAtZeta > 0 && zeta >= stopAtZeta {
				return
			}
		}
	}
	// Step 1: maximize zeta under the budget.
	spend(p.PhiMax, 0)
	plan := assemble(p, curves, phis, false)
	if plan.Zeta < p.ZetaTarget-tol {
		return plan, nil
	}
	// Step 2: restart and stop as soon as the target is met.
	phis = make([]float64, len(curves))
	for i := range curves {
		phis[i] = 0
	}
	spend(p.PhiMax, p.ZetaTarget)
	return assemble(p, curves, phis, true), nil
}
