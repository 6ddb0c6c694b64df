package analysis

import (
	"math"
	"testing"

	"rushprobe/internal/scenario"
)

func fixedRoadside(budgetFrac, target float64) *scenario.Scenario {
	return scenario.Roadside(
		scenario.WithFixedLengths(),
		scenario.WithBudgetFraction(budgetFrac),
		scenario.WithZetaTarget(target),
	)
}

func TestATDutyBudgetCapped(t *testing.T) {
	// Fig 5 regime: even the smallest target exceeds what the budget
	// allows, so AT pins at d = PhiMax/Tepoch = 0.001.
	sc := fixedRoadside(1.0/1000, 16)
	d, err := ATDuty(sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.001) > 1e-12 {
		t.Errorf("ATDuty = %v, want budget cap 0.001", d)
	}
}

func TestATDutyTargetDriven(t *testing.T) {
	// Fig 6 regime: target 16s of 176s capacity -> Upsilon = 1/11 ->
	// d = 2*Ton*U/Tc = 2*0.02*(16/176)/2.
	sc := fixedRoadside(1.0/100, 16)
	d, err := ATDuty(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 0.02 * (16.0 / 176.0) / 2
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("ATDuty = %v, want %v", d, want)
	}
}

func TestATFig5Anchors(t *testing.T) {
	// Under the tight budget AT probes 8.8s regardless of target.
	for _, target := range PaperTargets() {
		sc := fixedRoadside(1.0/1000, target)
		res, err := AT(sc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Zeta-8.8) > 0.01 {
			t.Errorf("target %g: AT zeta = %v, want 8.8", target, res.Zeta)
		}
		if math.Abs(res.Phi-86.4) > 0.01 {
			t.Errorf("target %g: AT phi = %v, want 86.4", target, res.Phi)
		}
		if math.Abs(res.Rho-9.818) > 0.01 {
			t.Errorf("target %g: AT rho = %v, want ~9.82", target, res.Rho)
		}
		if res.TargetMet {
			t.Errorf("target %g: AT cannot meet any paper target under Tepoch/1000", target)
		}
	}
}

func TestATFig6MeetsTargets(t *testing.T) {
	// Under the loose budget AT meets every paper target with
	// Phi = rho_AT * zeta ~ 9.82 * target.
	for _, target := range PaperTargets() {
		sc := fixedRoadside(1.0/100, target)
		res, err := AT(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.TargetMet {
			t.Errorf("target %g: AT should meet it under Tepoch/100", target)
		}
		if math.Abs(res.Zeta-target) > 0.01 {
			t.Errorf("target %g: AT zeta = %v (should not overshoot)", target, res.Zeta)
		}
		wantPhi := 9.8181818 * target
		if math.Abs(res.Phi-wantPhi) > 0.5 {
			t.Errorf("target %g: AT phi = %v, want ~%v", target, res.Phi, wantPhi)
		}
	}
}

func TestRHFig5(t *testing.T) {
	// Tight budget: RH meets 16 and 24 (the paper: "when zeta_target <=
	// 24s ... SNIP-RH still can energy efficiently probe the necessary
	// contacts"), is budget-capped at 28.8 beyond.
	tests := []struct {
		target   float64
		wantZeta float64
		wantMet  bool
	}{
		{target: 16, wantZeta: 16, wantMet: true},
		{target: 24, wantZeta: 24, wantMet: true},
		{target: 32, wantZeta: 28.8, wantMet: false},
		{target: 56, wantZeta: 28.8, wantMet: false},
	}
	for _, tt := range tests {
		sc := fixedRoadside(1.0/1000, tt.target)
		res, err := RH(sc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Zeta-tt.wantZeta) > 0.05 {
			t.Errorf("target %g: RH zeta = %v, want %v", tt.target, res.Zeta, tt.wantZeta)
		}
		if res.TargetMet != tt.wantMet {
			t.Errorf("target %g: TargetMet = %v, want %v", tt.target, res.TargetMet, tt.wantMet)
		}
		if math.Abs(res.Rho-3.0) > 0.01 {
			t.Errorf("target %g: RH rho = %v, want 3", tt.target, res.Rho)
		}
	}
}

func TestRHFig6CapacityCeiling(t *testing.T) {
	// Loose budget: RH meets targets up to its rush-hour ceiling of 48s
	// and fails at 56s (the paper's key observation for Fig 6).
	for _, target := range PaperTargets() {
		sc := fixedRoadside(1.0/100, target)
		res, err := RH(sc)
		if err != nil {
			t.Fatal(err)
		}
		if target <= 48 {
			if !res.TargetMet {
				t.Errorf("target %g: RH should meet it", target)
			}
			if math.Abs(res.Phi-3*target) > 0.1 {
				t.Errorf("target %g: RH phi = %v, want %v", target, res.Phi, 3*target)
			}
		} else {
			if res.TargetMet {
				t.Errorf("target %g: RH must not meet it (ceiling 48)", target)
			}
			if math.Abs(res.Zeta-48) > 0.05 {
				t.Errorf("target %g: RH zeta = %v, want ceiling 48", target, res.Zeta)
			}
		}
	}
}

func TestOPTMatchesRHWhenRHOptimal(t *testing.T) {
	// Fig 5: "SNIP-RH performs much better than SNIP-AT and its
	// performance is same with SNIP-OPT".
	for _, target := range []float64{16, 24} {
		sc := fixedRoadside(1.0/1000, target)
		rh, err := RH(sc)
		if err != nil {
			t.Fatal(err)
		}
		op, err := OPT(sc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rh.Zeta-op.Zeta) > 0.1 || math.Abs(rh.Phi-op.Phi) > 0.5 {
			t.Errorf("target %g: RH (%.2f, %.2f) vs OPT (%.2f, %.2f) should match",
				target, rh.Zeta, rh.Phi, op.Zeta, op.Phi)
		}
	}
}

func TestOPTBeatsRHBeyondCeiling(t *testing.T) {
	// Fig 6 at 56s: OPT meets the target by pushing rush-hour duty past
	// the knee; RH does not.
	sc := fixedRoadside(1.0/100, 56)
	op, err := OPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !op.TargetMet {
		t.Fatalf("OPT should meet 56s: %+v", op)
	}
	if math.Abs(op.Phi-172.8) > 1 {
		t.Errorf("OPT phi = %v, want ~172.8", op.Phi)
	}
	at, err := AT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if op.Phi >= at.Phi {
		t.Errorf("OPT phi %v should beat AT phi %v", op.Phi, at.Phi)
	}
}

// TestSweepTargetsShape sweeps Evaluator.Point over the paper's targets,
// the way Figures 5 and 6 are built: every point of every strategy sits
// at its own target with non-negative metrics.
func TestSweepTargetsShape(t *testing.T) {
	ev, err := NewEvaluator(fixedRoadside(1.0/1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range PaperTargets() {
		at, op, rh, err := ev.Point(target)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		for name, p := range map[string]Result{"AT": at, "OPT": op, "RH": rh} {
			if p.ZetaTarget != target {
				t.Errorf("%s point at target %v reports target %v", name, target, p.ZetaTarget)
			}
			if p.Zeta < 0 || p.Phi < 0 {
				t.Errorf("%s point at target %v has negative metrics", name, target)
			}
		}
	}
}

func TestSweepDoesNotMutateBase(t *testing.T) {
	base := fixedRoadside(1.0/1000, 24)
	ev, err := NewEvaluator(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range PaperTargets() {
		if _, _, _, err := ev.Point(target); err != nil {
			t.Fatal(err)
		}
	}
	if base.ZetaTarget != 24 {
		t.Errorf("base scenario mutated: ZetaTarget = %v", base.ZetaTarget)
	}
}

func TestMotivationGain(t *testing.T) {
	// Paper's Fig 4 corners.
	tests := []struct {
		x, r float64
		want float64
	}{
		{x: 0.05, r: 20, want: 1 / (0.05 + 0.95/20)},
		{x: 0.5, r: 2, want: 1 / (0.5 + 0.25)},
		{x: 1.0 / 6, r: 6, want: 1 / (1.0/6 + (5.0/6)/6)}, // roadside
	}
	for _, tt := range tests {
		got, err := MotivationGain(tt.x, tt.r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("gain(%v, %v) = %v, want %v", tt.x, tt.r, got, tt.want)
		}
	}
	// The headline: small rush fraction and high ratio -> ~10x saving.
	g, err := MotivationGain(0.05, 20)
	if err != nil {
		t.Fatal(err)
	}
	if g < 10 || g > 11 {
		t.Errorf("corner gain = %v, want slightly above 10", g)
	}
}

func TestMotivationGainValidation(t *testing.T) {
	if _, err := MotivationGain(0, 5); err == nil {
		t.Error("zero fraction should error")
	}
	if _, err := MotivationGain(1.5, 5); err == nil {
		t.Error("fraction above one should error")
	}
	if _, err := MotivationGain(0.2, 0.5); err == nil {
		t.Error("ratio below one should error")
	}
}

func TestMotivationSurface(t *testing.T) {
	pts, err := MotivationSurface(Linspace(0.05, 0.5, 10), Linspace(2, 20, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 100 {
		t.Fatalf("got %d points", len(pts))
	}
	// Gain decreases with rush fraction and increases with ratio.
	for _, p := range pts {
		if p.Gain < 1 || p.Gain > 11 {
			t.Errorf("gain %v out of plausible range at %+v", p.Gain, p)
		}
	}
	if _, err := MotivationSurface(nil, Linspace(2, 20, 5)); err == nil {
		t.Error("empty axis should error")
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("n=1: %v", got)
	}
}

func TestRHDuty(t *testing.T) {
	sc := fixedRoadside(1.0/1000, 24)
	d, err := RHDuty(sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.01) > 1e-12 {
		t.Errorf("RHDuty = %v, want 0.01 (knee of 2s)", d)
	}
	// No rush hours -> error.
	for i := range sc.Slots {
		sc.Slots[i].RushHour = false
	}
	if _, err := RHDuty(sc); err == nil {
		t.Error("no rush hours should error")
	}
}

func TestNoRushHoursRHProbesNothing(t *testing.T) {
	sc := fixedRoadside(1.0/1000, 24)
	for i := range sc.Slots {
		sc.Slots[i].RushHour = false
	}
	res, err := RH(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Zeta != 0 || res.Phi != 0 {
		t.Errorf("RH with no rush hours = %+v, want zeros", res)
	}
	if !math.IsInf(res.Rho, 1) {
		t.Errorf("rho = %v, want +Inf", res.Rho)
	}
}
