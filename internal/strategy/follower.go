package strategy

import (
	"errors"

	"rushprobe/internal/core"
)

// FollowPlan returns a scheduler that executes the plan's per-slot duty
// cycles under an optional energy-budget stop (phiMax <= 0 disables
// it). It is how served plans — a fleet's cached schedules, an oracle's
// true-scenario plan — are dropped into a simulation without
// re-deriving them from a scenario. The duty slice is copied, so shared
// plans (fleet schedules are immutable and shared) are safe to follow
// from many concurrent simulations.
func FollowPlan(p *Plan, phiMax float64) (*core.OPTFollower, error) {
	if p == nil {
		return nil, errors.New("strategy: nil plan")
	}
	if phiMax < 0 {
		phiMax = 0
	}
	return core.NewOPTFollower(p.Duty, phiMax)
}
