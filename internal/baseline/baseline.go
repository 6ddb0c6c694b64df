// Package baseline implements the reinforcement-learning contact-probing
// baseline the paper's related work discusses (§VIII, citing Dyo &
// Mascolo's node-discovery service and Di Francesco et al.'s adaptive
// strategy): each time slot is an independent multi-armed bandit whose
// arms are candidate duty cycles; the per-epoch reward of a slot is the
// probed capacity earned minus a price on the energy spent.
//
// The paper argues such learners struggle in this setting — "a sensor
// node can only explore a small number of states and strategies" and
// must act "based on the inaccurate information learned with a small
// duty-cycle". This implementation exists to make that comparison
// concrete and runnable (experiment ext-rl).
package baseline

import (
	"fmt"

	"rushprobe/internal/core"
	"rushprobe/internal/rng"
)

// BanditConfig parameterizes the RL scheduler.
type BanditConfig struct {
	// Slots is the number of time slots per epoch.
	Slots int
	// Arms are the candidate duty cycles (0 is allowed and means
	// "sleep through the slot").
	Arms []float64
	// Epsilon is the exploration probability per slot per epoch.
	Epsilon float64
	// EnergyPrice converts energy (radio on-time seconds) into reward
	// units: reward = zeta - EnergyPrice*phi. The natural price is
	// 1/rho_target — probing is worth it only below that cost.
	EnergyPrice float64
	// SlotSeconds is the slot length, used to estimate the energy an
	// arm spends.
	SlotSeconds float64
	// Alpha is the learning rate of the per-arm value estimate.
	Alpha float64
	// Seed drives exploration.
	Seed uint64
}

func (c BanditConfig) validate() error {
	if c.Slots <= 0 {
		return fmt.Errorf("baseline: slots must be positive, got %d", c.Slots)
	}
	if len(c.Arms) < 2 {
		return fmt.Errorf("baseline: need at least two arms, got %d", len(c.Arms))
	}
	for i, a := range c.Arms {
		if a < 0 || a > 1 {
			return fmt.Errorf("baseline: arm %d duty %g out of [0, 1]", i, a)
		}
	}
	if c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("baseline: epsilon %g out of [0, 1]", c.Epsilon)
	}
	if c.EnergyPrice < 0 {
		return fmt.Errorf("baseline: energy price must be non-negative, got %g", c.EnergyPrice)
	}
	if c.SlotSeconds <= 0 {
		return fmt.Errorf("baseline: slot length must be positive, got %g", c.SlotSeconds)
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("baseline: alpha %g out of (0, 1]", c.Alpha)
	}
	return nil
}

// Bandit is the ε-greedy per-slot duty-cycle learner. It implements
// core.Scheduler.
type Bandit struct {
	cfg    BanditConfig
	src    *rng.Stream
	values [][]float64 // value estimate per slot per arm
	counts [][]int
	chosen []int     // arm chosen for each slot this epoch
	zeta   []float64 // probed capacity earned per slot this epoch
}

var _ core.Scheduler = (*Bandit)(nil)

// NewBandit returns an ε-greedy bandit scheduler.
func NewBandit(cfg BanditConfig) (*Bandit, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &Bandit{
		cfg:    cfg,
		src:    rng.Derive(cfg.Seed, "bandit"),
		values: make([][]float64, cfg.Slots),
		counts: make([][]int, cfg.Slots),
		chosen: make([]int, cfg.Slots),
		zeta:   make([]float64, cfg.Slots),
	}
	for s := range b.values {
		b.values[s] = make([]float64, len(cfg.Arms))
		b.counts[s] = make([]int, len(cfg.Arms))
	}
	b.pickArms()
	return b, nil
}

// Decide probes at the arm chosen for the slot this epoch.
func (b *Bandit) Decide(state core.NodeState) core.Decision {
	if state.Slot < 0 || state.Slot >= b.cfg.Slots {
		return core.Decision{}
	}
	duty := b.cfg.Arms[b.chosen[state.Slot]]
	if duty <= 0 {
		return core.Decision{}
	}
	return core.Decision{Active: true, Duty: duty}
}

// OnContactProbed credits the probed capacity to the slot's running
// reward.
func (b *Bandit) OnContactProbed(info core.ProbeInfo) {
	if info.Slot < 0 || info.Slot >= b.cfg.Slots {
		return
	}
	b.zeta[info.Slot] += info.ProbedTime
}

// OnEpochStart settles the finished epoch's rewards and draws the next
// epoch's arms.
func (b *Bandit) OnEpochStart(epoch int) {
	if epoch > 0 {
		b.settle()
	}
	b.pickArms()
}

// settle updates the value estimates with reward = zeta - price*phi,
// where phi is the energy the chosen arm spent (duty * slot length).
func (b *Bandit) settle() {
	for s := 0; s < b.cfg.Slots; s++ {
		arm := b.chosen[s]
		phi := b.cfg.Arms[arm] * b.cfg.SlotSeconds
		reward := b.zeta[s] - b.cfg.EnergyPrice*phi
		b.counts[s][arm]++
		b.values[s][arm] += b.cfg.Alpha * (reward - b.values[s][arm])
		b.zeta[s] = 0
	}
}

// pickArms draws each slot's arm: explore with probability epsilon,
// otherwise exploit the best-valued arm (ties to the lower index, which
// prefers cheaper arms).
func (b *Bandit) pickArms() {
	for s := 0; s < b.cfg.Slots; s++ {
		if b.src.Bool(b.cfg.Epsilon) {
			b.chosen[s] = b.src.Intn(len(b.cfg.Arms))
			continue
		}
		best := 0
		for a := 1; a < len(b.cfg.Arms); a++ {
			if b.values[s][a] > b.values[s][best] {
				best = a
			}
		}
		b.chosen[s] = best
	}
}

// ArmShare returns, for diagnostics, the fraction of slots currently
// assigned each arm.
func (b *Bandit) ArmShare() []float64 {
	out := make([]float64, len(b.cfg.Arms))
	for _, arm := range b.chosen {
		out[arm]++
	}
	for i := range out {
		out[i] /= float64(b.cfg.Slots)
	}
	return out
}

// Values returns a copy of the per-slot per-arm value estimates.
func (b *Bandit) Values() [][]float64 {
	out := make([][]float64, len(b.values))
	for s, vs := range b.values {
		out[s] = append([]float64(nil), vs...)
	}
	return out
}

// DefaultArms returns a standard arm set around a knee duty d: sleep,
// a quarter, half, the knee itself, and double.
func DefaultArms(knee float64) []float64 {
	clamp := func(v float64) float64 {
		if v > 1 {
			return 1
		}
		return v
	}
	return []float64{0, clamp(knee / 4), clamp(knee / 2), clamp(knee), clamp(2 * knee)}
}
