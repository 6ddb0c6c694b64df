package sim

import (
	"math"
	"testing"

	"rushprobe/internal/scenario"
	"rushprobe/internal/simtime"
	"rushprobe/internal/strategy"
)

// testConfig returns a short roadside run for the named strategy.
func testConfig(t *testing.T, sc *scenario.Scenario, name string, epochs int) Config {
	t.Helper()
	factory, err := StrategyFactory(sc, name)
	if err != nil {
		t.Fatalf("StrategyFactory(%q): %v", name, err)
	}
	return Config{
		Scenario:     sc,
		NewScheduler: factory,
		Epochs:       epochs,
		Seed:         12345,
	}
}

func TestConfigValidation(t *testing.T) {
	sc := scenario.Roadside()
	factory, err := StrategyFactory(sc, strategy.NameAT)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "nil scenario", mutate: func(c *Config) { c.Scenario = nil }},
		{name: "nil factory", mutate: func(c *Config) { c.NewScheduler = nil }},
		{name: "zero epochs", mutate: func(c *Config) { c.Epochs = 0 }},
		{name: "warmup too long", mutate: func(c *Config) { c.WarmupEpochs = 5 }},
		{name: "negative warmup", mutate: func(c *Config) { c.WarmupEpochs = -1 }},
		{name: "negative wake", mutate: func(c *Config) { c.WakeInterval = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Config{Scenario: sc, NewScheduler: factory, Epochs: 5, Seed: 1}
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestRunIsDeterministic(t *testing.T) {
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	cfg := testConfig(t, sc, strategy.NameRH, 3)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.MeanZeta != b.Summary.MeanZeta || a.Summary.MeanPhi != b.Summary.MeanPhi {
		t.Errorf("same seed must reproduce: (%v, %v) vs (%v, %v)",
			a.Summary.MeanZeta, a.Summary.MeanPhi, b.Summary.MeanZeta, b.Summary.MeanPhi)
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	cfg := testConfig(t, sc, strategy.NameAT, 2)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 999
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.MeanZeta == b.Summary.MeanZeta {
		t.Error("different seeds should give different stochastic results")
	}
}

func TestATSimulationMatchesAnalysisTightBudget(t *testing.T) {
	// Fig 7 anchor: AT at d = 0.001 probes ~8.8 s/day and spends ~86.4 s.
	sc := scenario.Roadside(scenario.WithZetaTarget(24)) // budget Tepoch/1000
	res, err := Run(testConfig(t, sc, strategy.NameAT, 14))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Summary.MeanZeta-8.8) > 1.5 {
		t.Errorf("AT zeta = %v, want ~8.8", res.Summary.MeanZeta)
	}
	// Phi: on-time of probing. Uploads divert a little on-time from
	// probing, so allow a modest band around 86.4.
	if math.Abs(res.Summary.MeanPhi-86.4) > 3 {
		t.Errorf("AT phi = %v, want ~86.4", res.Summary.MeanPhi)
	}
	if math.Abs(res.Summary.Rho-9.8) > 1.5 {
		t.Errorf("AT rho = %v, want ~9.8", res.Summary.Rho)
	}
	// ~88 contacts arrive per day.
	if math.Abs(res.Summary.MeanArrived-88) > 8 {
		t.Errorf("arrived = %v, want ~88", res.Summary.MeanArrived)
	}
}

func TestRHSimulationMeetsFeasibleTarget(t *testing.T) {
	// Fig 7 anchor: RH meets a 16 s target under the tight budget with
	// rho ~ 3.
	sc := scenario.Roadside(scenario.WithZetaTarget(16))
	res, err := Run(testConfig(t, sc, strategy.NameRH, 14))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanZeta < 13 || res.Summary.MeanZeta > 22 {
		t.Errorf("RH zeta = %v, want ~16", res.Summary.MeanZeta)
	}
	if res.Summary.Rho > 4.2 {
		t.Errorf("RH rho = %v, want ~3", res.Summary.Rho)
	}
	// The data-availability condition keeps RH from probing everything:
	// its energy must stay well below AT's budget-limited 86.4 s.
	if res.Summary.MeanPhi > 75 {
		t.Errorf("RH phi = %v, should be well below 86.4", res.Summary.MeanPhi)
	}
}

func TestRHBudgetCapTightBudget(t *testing.T) {
	// At target 56 under Tepoch/1000, RH is budget-capped at ~28.8 s.
	sc := scenario.Roadside(scenario.WithZetaTarget(56))
	res, err := Run(testConfig(t, sc, strategy.NameRH, 14))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanZeta > 33 {
		t.Errorf("RH zeta = %v, must be budget-capped near 28.8", res.Summary.MeanZeta)
	}
	// Budget checks happen at CPU wake-ups, so overshoot is bounded by
	// one wake interval's worth of on-time.
	if res.Summary.MeanPhi > 90 {
		t.Errorf("RH phi = %v, must respect the 86.4 budget (within wake quantum)", res.Summary.MeanPhi)
	}
}

func TestRHCapacityCeilingLooseBudget(t *testing.T) {
	// Fig 8 anchor: at target 56 under Tepoch/100 RH cannot exceed its
	// rush-hour ceiling (~48 s).
	sc := scenario.Roadside(scenario.WithZetaTarget(56), scenario.WithBudgetFraction(1.0/100))
	res, err := Run(testConfig(t, sc, strategy.NameRH, 14))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.MeanZeta > 52 {
		t.Errorf("RH zeta = %v, ceiling is ~48", res.Summary.MeanZeta)
	}
	if res.Summary.MeanZeta < 40 {
		t.Errorf("RH zeta = %v, should approach the ~48 ceiling", res.Summary.MeanZeta)
	}
}

func TestOPTSimulationTracksPlan(t *testing.T) {
	// Fig 8 anchor: OPT meets 24 s with ~72 s of probing energy.
	sc := scenario.Roadside(scenario.WithZetaTarget(24), scenario.WithBudgetFraction(1.0/100))
	res, err := Run(testConfig(t, sc, strategy.NameOPT, 14))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Summary.MeanZeta-24) > 4 {
		t.Errorf("OPT zeta = %v, want ~24", res.Summary.MeanZeta)
	}
	if math.Abs(res.Summary.MeanPhi-72) > 8 {
		t.Errorf("OPT phi = %v, want ~72", res.Summary.MeanPhi)
	}
}

func TestMechanismOrderingMatchesPaper(t *testing.T) {
	// The paper's core comparative claim under the tight budget: RH
	// probes much more than AT at much lower rho.
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	at, err := Run(testConfig(t, sc, strategy.NameAT, 14))
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(testConfig(t, sc, strategy.NameRH, 14))
	if err != nil {
		t.Fatal(err)
	}
	if rh.Summary.MeanZeta <= at.Summary.MeanZeta*1.5 {
		t.Errorf("RH zeta %v should far exceed AT zeta %v", rh.Summary.MeanZeta, at.Summary.MeanZeta)
	}
	if rh.Summary.Rho >= at.Summary.Rho*0.6 {
		t.Errorf("RH rho %v should be well below AT rho %v", rh.Summary.Rho, at.Summary.Rho)
	}
}

func TestEpochAccounting(t *testing.T) {
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	res, err := Run(testConfig(t, sc, strategy.NameAT, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 5 {
		t.Fatalf("epochs = %d, want 5", len(res.Epochs))
	}
	for i, m := range res.Epochs {
		if m.Epoch != i {
			t.Errorf("epoch %d labeled %d", i, m.Epoch)
		}
		if m.Zeta < 0 || m.Phi < 0 || m.UploadedBytes < 0 {
			t.Errorf("epoch %d has negative metrics: %+v", i, m)
		}
		var slotSum float64
		for _, z := range m.PerSlotZeta {
			slotSum += z
		}
		if math.Abs(slotSum-m.Zeta) > 1e-6 {
			t.Errorf("epoch %d per-slot zeta %v != total %v", i, slotSum, m.Zeta)
		}
		if m.Probed > m.Arrived {
			t.Errorf("epoch %d probed %d > arrived %d", i, m.Probed, m.Arrived)
		}
	}
}

func TestEpochRhoHelper(t *testing.T) {
	m := EpochMetrics{Zeta: 4, Phi: 12}
	if got := m.Rho(); got != 3 {
		t.Errorf("rho = %v", got)
	}
	if got := (EpochMetrics{}).Rho(); !math.IsInf(got, 1) {
		t.Errorf("empty rho = %v, want +Inf", got)
	}
}

func TestWarmupExcluded(t *testing.T) {
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	cfg := testConfig(t, sc, strategy.NameRH, 6)
	cfg.WarmupEpochs = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Epochs != 3 {
		t.Errorf("summary epochs = %d, want 3 post-warmup", res.Summary.Epochs)
	}
	if len(res.Epochs) != 6 {
		t.Errorf("recorded epochs = %d, want all 6", len(res.Epochs))
	}
}

func TestBeaconLossReducesProbes(t *testing.T) {
	clean := scenario.Roadside(scenario.WithZetaTarget(24))
	lossy := scenario.Roadside(scenario.WithZetaTarget(24), scenario.WithBeaconLoss(0.5))
	a, err := Run(testConfig(t, clean, strategy.NameAT, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(t, lossy, strategy.NameAT, 10))
	if err != nil {
		t.Fatal(err)
	}
	if b.Summary.MeanProbed >= a.Summary.MeanProbed {
		t.Errorf("50%% beacon loss should reduce probes: %v vs %v",
			b.Summary.MeanProbed, a.Summary.MeanProbed)
	}
}

func TestUploadedDataBounded(t *testing.T) {
	// Data uploaded per epoch cannot exceed data generated per epoch
	// (plus one initial buffer's worth).
	sc := scenario.Roadside(scenario.WithZetaTarget(16))
	res, err := Run(testConfig(t, sc, strategy.NameRH, 14))
	if err != nil {
		t.Fatal(err)
	}
	dailyData := sc.DataRate() * sc.Epoch.Seconds()
	if res.Summary.MeanUploadedBytes > dailyData*1.2 {
		t.Errorf("uploaded %v B/day exceeds generated %v B/day", res.Summary.MeanUploadedBytes, dailyData)
	}
	// And RH should deliver most of what is generated.
	if res.Summary.MeanUploadedBytes < dailyData*0.7 {
		t.Errorf("uploaded %v B/day, want most of %v B/day", res.Summary.MeanUploadedBytes, dailyData)
	}
}

func TestRunReplications(t *testing.T) {
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	cfg := testConfig(t, sc, strategy.NameAT, 3)
	rep, err := RunReplications(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 4 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	if rep.MeanZeta <= 0 || rep.MeanPhi <= 0 {
		t.Errorf("aggregate means = (%v, %v)", rep.MeanZeta, rep.MeanPhi)
	}
	if math.IsInf(rep.Rho, 1) {
		t.Error("rho should be finite")
	}
	if _, err := RunReplications(cfg, 0); err == nil {
		t.Error("zero replications should error")
	}
}

func TestAdaptiveRHLearnsRushHours(t *testing.T) {
	// The adaptive scheduler bootstraps with background probing, learns
	// the mask, and should end up probing mostly in rush hours.
	sc := scenario.Roadside(scenario.WithZetaTarget(16))
	cfg := testConfig(t, sc, strategy.NameAdaptiveRH, 10)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After warmup, most per-slot capacity should come from the four
	// rush slots.
	last := res.Epochs[len(res.Epochs)-1]
	rushZeta, totalZeta := 0.0, 0.0
	for i, z := range last.PerSlotZeta {
		totalZeta += z
		if i == 7 || i == 8 || i == 17 || i == 18 {
			rushZeta += z
		}
	}
	if totalZeta <= 0 {
		t.Fatal("adaptive probed nothing in final epoch")
	}
	if rushZeta/totalZeta < 0.6 {
		t.Errorf("rush share = %v, want most probing in learned rush hours", rushZeta/totalZeta)
	}
}

func TestStrategyFactoryValidation(t *testing.T) {
	bad := scenario.Roadside()
	bad.Epoch = 0
	if _, err := StrategyFactory(bad, strategy.NameAT); err == nil {
		t.Error("invalid scenario should error")
	}
	if _, err := StrategyFactory(scenario.Roadside(), "nope"); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestShiftChangesWhereContactsAppear(t *testing.T) {
	sc := scenario.Roadside(scenario.WithZetaTarget(16))
	factory, err := StrategyFactory(sc, strategy.NameRH)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Scenario:     sc,
		NewScheduler: factory,
		Epochs:       5,
		Seed:         7,
		// Shift the whole pattern by 3 slots: real rush hours now at
		// 04:00-06:00 and 14:00-16:00 while RH still probes 07-09/17-19.
		Shift: func(simtime.Instant) int { return 3 },
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	static := testConfig(t, sc, strategy.NameRH, 5)
	base, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	// The static mask now probes off-peak density in "its" rush hours,
	// so probed capacity must drop well below the unshifted run.
	if res.Summary.MeanZeta >= base.Summary.MeanZeta*0.8 {
		t.Errorf("shifted zeta %v should be well below unshifted %v",
			res.Summary.MeanZeta, base.Summary.MeanZeta)
	}
}
