// Package analysis reproduces the paper's closed-form numerical results:
// the motivation surface of Figure 4 and the per-strategy curves of
// Figures 5 and 6 (probed capacity zeta, probing energy Phi, and
// per-unit cost rho as functions of the capacity target).
//
// It also computes the offline parameters the simulations inject into
// SNIP-AT and SNIP-OPT (§VII.A.2): the fixed AT duty cycle and the OPT
// per-slot plan.
package analysis

import (
	"fmt"
	"math"

	"rushprobe/internal/opt"
	"rushprobe/internal/scenario"
)

// Result is one strategy's analytical outcome for one target.
type Result struct {
	// ZetaTarget is the requested probed capacity (s/epoch).
	ZetaTarget float64
	// Zeta is the probed capacity the strategy achieves (s/epoch).
	Zeta float64
	// Phi is the probing energy it spends (radio on-time, s/epoch).
	Phi float64
	// Rho is Phi/Zeta (+Inf when Zeta is 0).
	Rho float64
	// TargetMet reports Zeta >= ZetaTarget (within tolerance).
	TargetMet bool
}

func newResult(target, zeta, phi float64) Result {
	rho := math.Inf(1)
	if zeta > 0 {
		rho = phi / zeta
	}
	return Result{
		ZetaTarget: target,
		Zeta:       zeta,
		Phi:        phi,
		Rho:        rho,
		TargetMet:  zeta >= target-1e-9,
	}
}

// ATDuty returns the fixed duty cycle SNIP-AT uses for the scenario: the
// duty whose expected probed capacity equals ZetaTarget, capped by the
// energy budget (PhiMax spread over the whole epoch). This is how the
// paper parameterizes SNIP-AT offline (§IV, §VII.A.2).
func ATDuty(sc *scenario.Scenario) (float64, error) {
	ev, err := NewEvaluator(sc)
	if err != nil {
		return 0, err
	}
	return ev.ATDuty(sc.ZetaTarget), nil
}

// AT evaluates SNIP-AT analytically on the scenario.
func AT(sc *scenario.Scenario) (Result, error) {
	ev, err := NewEvaluator(sc)
	if err != nil {
		return Result{}, err
	}
	return ev.AT(sc.ZetaTarget), nil
}

// RH evaluates SNIP-RH analytically: probing runs only in rush-hour
// slots at the knee duty drh = Ton / mean rush contact length, stops as
// soon as the target capacity has been probed (the data-availability
// condition drains the buffer), and never exceeds the energy budget.
// Rush slots are consumed in chronological order, matching the node's
// temporal behaviour over an epoch. (The consumption model itself lives
// in Evaluator.RH; this is the one-shot form.)
func RH(sc *scenario.Scenario) (Result, error) {
	ev, err := NewEvaluator(sc)
	if err != nil {
		return Result{}, err
	}
	return ev.RH(sc.ZetaTarget), nil
}

// RushMeanLength returns the frequency-weighted mean contact length
// over rush-hour slots (0 when no rush slot has contacts). It is the
// length SNIP-RH's knee duty is derived from, shared by the analytical
// evaluator and the strategy layer's plans.
func RushMeanLength(sc *scenario.Scenario) float64 {
	num, den := 0.0, 0.0
	for _, s := range sc.Slots {
		if !s.RushHour {
			continue
		}
		f := s.Freq()
		if f <= 0 || s.Length == nil {
			continue
		}
		num += f * s.Length.Mean()
		den += f
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// OPTPlan solves the SNIP-OPT two-step optimization for the scenario.
func OPTPlan(sc *scenario.Scenario) (opt.Plan, error) {
	ev, err := NewEvaluator(sc)
	if err != nil {
		return opt.Plan{}, err
	}
	return ev.OPTPlan(sc.ZetaTarget)
}

// OPT evaluates SNIP-OPT analytically on the scenario.
func OPT(sc *scenario.Scenario) (Result, error) {
	plan, err := OPTPlan(sc)
	if err != nil {
		return Result{}, err
	}
	return newResult(sc.ZetaTarget, plan.Zeta, plan.Phi), nil
}

// MotivationPoint is one sample of the Figure 4 surface.
type MotivationPoint struct {
	// RushFraction is Trh/Tepoch.
	RushFraction float64
	// FreqRatio is frh/fother.
	FreqRatio float64
	// Gain is PhiAT/PhiRH, the energy saving of probing only in rush
	// hours while capturing the same capacity.
	Gain float64
}

// MotivationGain returns PhiAT/PhiRH for the simplified two-rate model
// of §IV: contacts of one fixed length arriving at frequency frh inside
// rush hours (a fraction x of the epoch) and fother outside. In the
// linear SNIP regime the ratio collapses to 1/(x + (1-x)/r) with
// r = frh/fother.
func MotivationGain(rushFraction, freqRatio float64) (float64, error) {
	if rushFraction <= 0 || rushFraction > 1 {
		return 0, fmt.Errorf("analysis: rush fraction %g out of (0, 1]", rushFraction)
	}
	if freqRatio < 1 {
		return 0, fmt.Errorf("analysis: frequency ratio %g below 1 (rush hours must be busier)", freqRatio)
	}
	return 1 / (rushFraction + (1-rushFraction)/freqRatio), nil
}

// MotivationSurface samples the Figure 4 surface over the paper's axes:
// Trh/Tepoch in [0.05, 0.5] and frh/fother in [2, 20].
func MotivationSurface(fractions, ratios []float64) ([]MotivationPoint, error) {
	if len(fractions) == 0 || len(ratios) == 0 {
		return nil, fmt.Errorf("analysis: empty surface axes")
	}
	out := make([]MotivationPoint, 0, len(fractions)*len(ratios))
	for _, x := range fractions {
		for _, r := range ratios {
			g, err := MotivationGain(x, r)
			if err != nil {
				return nil, err
			}
			out = append(out, MotivationPoint{RushFraction: x, FreqRatio: r, Gain: g})
		}
	}
	return out, nil
}

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// PaperTargets returns the capacity targets of Figures 5-8:
// 16, 24, 32, 40, 48, 56 seconds.
func PaperTargets() []float64 {
	return []float64{16, 24, 32, 40, 48, 56}
}

// RHDuty returns the duty cycle SNIP-RH derives for the scenario's rush
// hours (the knee of the rush-hour mean contact length).
func RHDuty(sc *scenario.Scenario) (float64, error) {
	if err := sc.Validate(); err != nil {
		return 0, err
	}
	meanLen := RushMeanLength(sc)
	if meanLen <= 0 {
		return 0, fmt.Errorf("analysis: scenario has no rush-hour contacts")
	}
	return sc.Radio.Knee(meanLen), nil
}
