package strategy

import (
	"testing"

	"rushprobe/internal/scenario"
)

func TestLookupAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"at": NameAT, "AT": NameAT, "SNIP-AT": NameAT, "periodic": NameAT,
		"opt": NameOPT, "optimal": NameOPT,
		"rh": NameRH, "rush-hour": NameRH,
		"adaptive": NameAdaptiveRH, "rh+at": NameAdaptiveRH,
	} {
		s, err := Lookup(alias)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", alias, err)
		}
		if s.Name() != want {
			t.Errorf("Lookup(%q).Name() = %s, want %s", alias, s.Name(), want)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := Register(periodic{}); err == nil {
		t.Error("re-registering SNIP-AT should error")
	}
	if err := Register(fakeStrategy{}, "at"); err == nil {
		t.Error("registering over an existing alias should error")
	}
	if _, err := Lookup("fake"); err == nil {
		t.Error("failed registration must not leave partial aliases behind")
	}
}

// fakeStrategy is a minimal external strategy for registry tests.
type fakeStrategy struct{ periodic }

func (fakeStrategy) Name() string { return "fake" }

func TestBuiltinPlans(t *testing.T) {
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	mask := sc.RushMask()
	for _, name := range Names() {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Plan(sc)
		if err != nil {
			t.Fatalf("%s.Plan: %v", name, err)
		}
		if p.Strategy != name {
			t.Errorf("%s plan labeled %q", name, p.Strategy)
		}
		if len(p.Duty) != len(sc.Slots) {
			t.Fatalf("%s plan has %d slots, want %d", name, len(p.Duty), len(sc.Slots))
		}
		if p.Phi <= 0 || p.Zeta <= 0 {
			t.Errorf("%s plan outcome zeta=%g phi=%g, want positive", name, p.Zeta, p.Phi)
		}
		if sc.PhiMax > 0 && p.Phi > sc.PhiMax*1.0001 {
			t.Errorf("%s plan spends %g, budget %g", name, p.Phi, sc.PhiMax)
		}
		f, err := s.Schedulers(sc)
		if err != nil {
			t.Fatalf("%s.Schedulers: %v", name, err)
		}
		if _, err := f(); err != nil {
			t.Fatalf("%s factory: %v", name, err)
		}
	}

	rh, _ := Lookup(NameRH)
	p, err := rh.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range p.Duty {
		if mask[i] && d <= 0 {
			t.Errorf("RH plan idle in rush slot %d", i)
		}
		if !mask[i] && d != 0 {
			t.Errorf("RH plan probes off-peak slot %d at %g", i, d)
		}
	}
	// The adaptive plan keeps a background duty in every off-peak slot
	// while still fitting the budget: the whole plan scales uniformly,
	// so off-peak duty is positive but never above the nominal
	// background, and rush slots keep their dominance.
	ad, _ := Lookup(NameAdaptiveRH)
	ap, err := ad.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ap.Duty {
		if d <= 0 {
			t.Errorf("adaptive plan idle in slot %d (background must always probe)", i)
		}
		if !mask[i] && d > backgroundDuty {
			t.Errorf("adaptive plan off-peak slot %d duty %g above background %g", i, d, backgroundDuty)
		}
		if !mask[i] && ap.Duty[7] <= d { // slot 7 is a rush slot
			t.Errorf("adaptive plan rush duty %g not above off-peak %g", ap.Duty[7], d)
		}
	}
	if sc.PhiMax > 0 && ap.Phi > sc.PhiMax*1.0001 {
		t.Errorf("adaptive plan spends %g, budget %g", ap.Phi, sc.PhiMax)
	}
}
