package sim

import (
	"rushprobe/internal/core"
	"rushprobe/internal/scenario"
	"rushprobe/internal/strategy"
)

// StrategyFactory returns a scheduler factory for any registered
// strategy name (or alias), parameterized for the scenario: every
// scheme plugged into the strategy registry is simulatable through it.
// For the paper's schemes, SNIP-AT's duty and SNIP-OPT's plan are
// computed offline from the scenario's analytical model, exactly as the
// paper parameterizes them for its simulations (§VII.A.2); SNIP-RH gets
// the engineered rush-hour mask, the scenario budget, and priors
// derived from the scenario (it learns the rest online).
func StrategyFactory(sc *scenario.Scenario, name string) (func() (core.Scheduler, error), error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	s, err := strategy.Lookup(name)
	if err != nil {
		return nil, err
	}
	f, err := s.Schedulers(sc)
	if err != nil {
		return nil, err
	}
	return f, nil
}
