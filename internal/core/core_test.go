package core

import (
	"math"
	"testing"
)

func roadsideMask() []bool {
	mask := make([]bool, 24)
	for _, i := range []int{7, 8, 17, 18} {
		mask[i] = true
	}
	return mask
}

func rhConfig() RHConfig {
	return RHConfig{
		Mask:        roadsideMask(),
		Ton:         0.020,
		PhiMax:      86.4,
		LengthPrior: 2.0,
		UploadPrior: 500,
	}
}

func TestNewATValidation(t *testing.T) {
	tests := []struct {
		name    string
		duty    float64
		wantErr bool
	}{
		{name: "valid", duty: 0.001},
		{name: "full", duty: 1},
		{name: "zero", duty: 0, wantErr: true},
		{name: "negative", duty: -0.5, wantErr: true},
		{name: "above one", duty: 1.5, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewAT(tt.duty)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestATAlwaysActive(t *testing.T) {
	at, err := NewAT(0.001)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 24; slot++ {
		d := at.Decide(NodeState{Slot: slot, BufferBytes: 0, EpochProbingOnTime: 1e9})
		if !d.Active || d.Duty != 0.001 {
			t.Fatalf("AT must always probe at fixed duty, got %+v at slot %d", d, slot)
		}
	}
	if at.Duty() != 0.001 {
		t.Errorf("duty = %v", at.Duty())
	}
}

func TestNewRHValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*RHConfig)
	}{
		{name: "empty mask", mutate: func(c *RHConfig) { c.Mask = nil }},
		{name: "zero ton", mutate: func(c *RHConfig) { c.Ton = 0 }},
		{name: "negative budget", mutate: func(c *RHConfig) { c.PhiMax = -1 }},
		{name: "min above max", mutate: func(c *RHConfig) { c.MinDuty = 0.5; c.MaxDuty = 0.1 }},
		{name: "max above one", mutate: func(c *RHConfig) { c.MaxDuty = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := rhConfig()
			tt.mutate(&cfg)
			if _, err := NewRH(cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestRHConditionRushHour(t *testing.T) {
	rh, err := NewRH(rhConfig())
	if err != nil {
		t.Fatal(err)
	}
	ready := NodeState{BufferBytes: 1e9}
	for slot := 0; slot < 24; slot++ {
		st := ready
		st.Slot = slot
		d := rh.Decide(st)
		rush := slot == 7 || slot == 8 || slot == 17 || slot == 18
		if d.Active != rush {
			t.Errorf("slot %d: active = %v, want %v", slot, d.Active, rush)
		}
	}
	// Out-of-range slots are never active.
	if rh.Decide(NodeState{Slot: -1, BufferBytes: 1e9}).Active {
		t.Error("negative slot must be idle")
	}
	if rh.Decide(NodeState{Slot: 24, BufferBytes: 1e9}).Active {
		t.Error("out-of-range slot must be idle")
	}
}

func TestRHConditionDataThreshold(t *testing.T) {
	rh, err := NewRH(rhConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Threshold starts at the prior (500 bytes).
	if d := rh.Decide(NodeState{Slot: 7, BufferBytes: 499}); d.Active {
		t.Error("below-threshold buffer must not activate")
	}
	if d := rh.Decide(NodeState{Slot: 7, BufferBytes: 500}); !d.Active {
		t.Error("at-threshold buffer must activate")
	}
	// After a probed contact uploading 2000 bytes, the threshold moves
	// to 2000 (first EWMA sample seeds directly).
	rh.OnContactProbed(ProbeInfo{Slot: 7, ContactLength: 2, ProbedTime: 1, UploadedBytes: 2000})
	if got := rh.DataThreshold(); got != 2000 {
		t.Fatalf("threshold = %v, want 2000", got)
	}
	if d := rh.Decide(NodeState{Slot: 7, BufferBytes: 1500}); d.Active {
		t.Error("buffer below learned threshold must not activate")
	}
	// The ablation switch disables the condition.
	cfg := rhConfig()
	cfg.DisableDataCheck = true
	rh2, err := NewRH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := rh2.Decide(NodeState{Slot: 7, BufferBytes: 0}); !d.Active {
		t.Error("data check disabled: empty buffer should still activate")
	}
}

func TestRHConditionBudget(t *testing.T) {
	rh, err := NewRH(rhConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := rh.Decide(NodeState{Slot: 7, BufferBytes: 1e9, EpochProbingOnTime: 86.39}); !d.Active {
		t.Error("within budget must activate")
	}
	if d := rh.Decide(NodeState{Slot: 7, BufferBytes: 1e9, EpochProbingOnTime: 86.4}); d.Active {
		t.Error("exhausted budget must not activate")
	}
	if !rh.BudgetExhausted() {
		t.Error("exhaustion diagnostic should be set")
	}
	rh.OnEpochStart(1)
	if rh.BudgetExhausted() {
		t.Error("epoch start should clear the diagnostic")
	}
	// Zero budget disables the condition.
	cfg := rhConfig()
	cfg.PhiMax = 0
	rh2, err := NewRH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := rh2.Decide(NodeState{Slot: 7, BufferBytes: 1e9, EpochProbingOnTime: 1e12}); !d.Active {
		t.Error("zero PhiMax should disable the budget condition")
	}
}

func TestRHDutyCycleFollowsLearnedLength(t *testing.T) {
	rh, err := NewRH(rhConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Prior length 2s -> drh = 0.02/2 = 0.01.
	if got := rh.DutyCycle(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("initial drh = %v, want 0.01", got)
	}
	// Learn a 4s contact: first sample seeds EWMA -> drh = 0.005.
	rh.OnContactProbed(ProbeInfo{Slot: 7, ContactLength: 4, UploadedBytes: 100})
	if got := rh.DutyCycle(); math.Abs(got-0.005) > 1e-12 {
		t.Errorf("drh after 4s contact = %v, want 0.005", got)
	}
	if got := rh.LearnedContactLength(); got != 4 {
		t.Errorf("learned length = %v, want 4", got)
	}
}

func TestRHDutyCycleBounds(t *testing.T) {
	cfg := rhConfig()
	cfg.MinDuty = 0.008
	cfg.MaxDuty = 0.02
	rh, err := NewRH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hugely overestimated length would give 0.0002; floor holds at 0.008.
	rh.OnContactProbed(ProbeInfo{ContactLength: 100})
	if got := rh.DutyCycle(); got != 0.008 {
		t.Errorf("floored duty = %v, want 0.008", got)
	}
	// Tiny length would give 2.0; cap holds at 0.02.
	for i := 0; i < 400; i++ {
		rh.OnContactProbed(ProbeInfo{ContactLength: 0.01})
	}
	if got := rh.DutyCycle(); got != 0.02 {
		t.Errorf("capped duty = %v, want 0.02", got)
	}
	// Without bounds, a sub-Ton contact length clamps at 1.
	rh2, err := NewRH(rhConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		rh2.OnContactProbed(ProbeInfo{ContactLength: 0.001})
	}
	if got := rh2.DutyCycle(); got != 1 {
		t.Errorf("unbounded duty = %v, want clamp at 1", got)
	}
}

func TestNewOPTFollowerValidation(t *testing.T) {
	if _, err := NewOPTFollower(nil, 0); err == nil {
		t.Error("empty plan should error")
	}
	if _, err := NewOPTFollower([]float64{0.5, -0.1}, 0); err == nil {
		t.Error("negative duty should error")
	}
	if _, err := NewOPTFollower([]float64{1.5}, 0); err == nil {
		t.Error("duty above one should error")
	}
	if _, err := NewOPTFollower([]float64{math.NaN()}, 0); err == nil {
		t.Error("NaN duty should error")
	}
	if _, err := NewOPTFollower([]float64{0.1}, -1); err == nil {
		t.Error("negative budget should error")
	}
}

func TestOPTFollowerFollowsPlan(t *testing.T) {
	duties := make([]float64, 24)
	duties[7], duties[8] = 0.01, 0.02
	o, err := NewOPTFollower(duties, 0)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 24; slot++ {
		d := o.Decide(NodeState{Slot: slot})
		if slot == 7 || slot == 8 {
			if !d.Active || d.Duty != duties[slot] {
				t.Errorf("slot %d: got %+v, want active at %v", slot, d, duties[slot])
			}
		} else if d.Active {
			t.Errorf("slot %d: should be idle", slot)
		}
	}
	if o.Decide(NodeState{Slot: 99}).Active {
		t.Error("out-of-range slot must be idle")
	}
}

func TestOPTFollowerBudgetStop(t *testing.T) {
	duties := make([]float64, 24)
	duties[7] = 0.01
	o, err := NewOPTFollower(duties, 86.4)
	if err != nil {
		t.Fatal(err)
	}
	if d := o.Decide(NodeState{Slot: 7, EpochProbingOnTime: 86.4}); d.Active {
		t.Error("budget stop should halt probing")
	}
}

func TestOPTFollowerPlanIsCopied(t *testing.T) {
	duties := []float64{0.5}
	o, err := NewOPTFollower(duties, 0)
	if err != nil {
		t.Fatal(err)
	}
	duties[0] = 0.9 // caller mutates its slice
	if got := o.Plan()[0]; got != 0.5 {
		t.Errorf("plan should be insulated from caller mutation, got %v", got)
	}
	p := o.Plan()
	p[0] = 0.1 // mutating the returned copy
	if got := o.Plan()[0]; got != 0.5 {
		t.Errorf("returned plan should be a copy, got %v", got)
	}
}

func TestNewAdaptiveRHValidation(t *testing.T) {
	base := AdaptiveConfig{
		RH:             RHConfig{Ton: 0.02, LengthPrior: 2},
		Slots:          24,
		RushSlots:      4,
		BackgroundDuty: 0.0001,
		LearnEpochs:    2,
	}
	tests := []struct {
		name   string
		mutate func(*AdaptiveConfig)
	}{
		{name: "zero slots", mutate: func(c *AdaptiveConfig) { c.Slots = 0 }},
		{name: "zero rush slots", mutate: func(c *AdaptiveConfig) { c.RushSlots = 0 }},
		{name: "rush beyond slots", mutate: func(c *AdaptiveConfig) { c.RushSlots = 99 }},
		{name: "zero background", mutate: func(c *AdaptiveConfig) { c.BackgroundDuty = 0 }},
		{name: "zero learn epochs", mutate: func(c *AdaptiveConfig) { c.LearnEpochs = 0 }},
		{name: "bad rh ton", mutate: func(c *AdaptiveConfig) { c.RH.Ton = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := base
			tt.mutate(&cfg)
			if _, err := NewAdaptiveRH(cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestAdaptiveRHBootstrapsThenFocuses(t *testing.T) {
	a, err := NewAdaptiveRH(AdaptiveConfig{
		RH:             RHConfig{Ton: 0.02, LengthPrior: 2, UploadPrior: 1},
		Slots:          24,
		RushSlots:      4,
		BackgroundDuty: 0.0001,
		LearnEpochs:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// During bootstrap: background duty everywhere, regardless of slot.
	d := a.Decide(NodeState{Slot: 12, BufferBytes: 1e9})
	if !d.Active || d.Duty != 0.0001 {
		t.Fatalf("bootstrap decision = %+v, want background", d)
	}
	// Feed two epochs of contacts concentrated on slots 7, 8, 17, 18.
	for epoch := 0; epoch < 2; epoch++ {
		for _, slot := range []int{7, 8, 17, 18} {
			for i := 0; i < 5; i++ {
				a.OnContactProbed(ProbeInfo{Slot: slot, ContactLength: 2, UploadedBytes: 100})
			}
		}
		a.OnContactProbed(ProbeInfo{Slot: 3, ContactLength: 2, UploadedBytes: 100})
		a.OnEpochStart(epoch + 1)
	}
	// Bootstrap over (epoch 2 >= LearnEpochs): rush slots use RH duty,
	// others fall back to background.
	mask := a.Mask()
	for _, slot := range []int{7, 8, 17, 18} {
		if !mask[slot] {
			t.Errorf("slot %d not in learned mask %v", slot, mask)
		}
	}
	d = a.Decide(NodeState{Slot: 7, Epoch: 2, BufferBytes: 1e9})
	if !d.Active || math.Abs(d.Duty-0.01) > 1e-9 {
		t.Errorf("rush decision = %+v, want duty 0.01", d)
	}
	d = a.Decide(NodeState{Slot: 12, Epoch: 2, BufferBytes: 1e9})
	if !d.Active || d.Duty != 0.0001 {
		t.Errorf("off-peak decision = %+v, want background", d)
	}
}

func TestAdaptiveRHTracksShift(t *testing.T) {
	a, err := NewAdaptiveRH(AdaptiveConfig{
		RH:             RHConfig{Ton: 0.02, LengthPrior: 2, UploadPrior: 1},
		Slots:          24,
		RushSlots:      2,
		BackgroundDuty: 0.0001,
		LearnEpochs:    1,
		DriftTolerance: 0,
		DriftPatience:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(slots []int, epochs int, from int) {
		for e := 0; e < epochs; e++ {
			for _, s := range slots {
				for i := 0; i < 5; i++ {
					a.OnContactProbed(ProbeInfo{Slot: s, ContactLength: 2, UploadedBytes: 50})
				}
			}
			a.OnEpochStart(from + e + 1)
		}
	}
	feed([]int{7, 8}, 3, 0)
	mask := a.Mask()
	if !mask[7] || !mask[8] {
		t.Fatalf("initial mask wrong: %v", mask)
	}
	// Environment shifts to slots 9, 10 — after the EWMA crosses over
	// and the drift tracker's patience elapses, the mask follows.
	feed([]int{9, 10}, 12, 3)
	mask = a.Mask()
	if !mask[9] || !mask[10] {
		t.Errorf("mask did not follow the shift: %v", mask)
	}
	if a.Shifts() == 0 {
		t.Error("drift tracker should have recorded a shift")
	}
}
