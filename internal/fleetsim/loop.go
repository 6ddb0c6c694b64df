package fleetsim

import (
	"time"

	"rushprobe/internal/core"
	"rushprobe/internal/fleet"
	"rushprobe/internal/simtime"
	"rushprobe/internal/strategy"
)

// nodeLoop closes the loop for one node: it executes whatever duty plan
// the fleet currently serves the node, buffers the probed contacts the
// DES reports through the OnProbe tap, and at every epoch boundary
// flushes them into Fleet.Observe, advances the fleet's epoch clock,
// and fetches the next plan — so the plan in force at epoch e is the
// one the fleet learned from epochs < e, never from the epoch being
// simulated.
type nodeLoop struct {
	fleet  *fleet.Fleet
	id     string
	phiMax float64

	duty    []float64
	pending []fleet.Observation
	err     error

	// Per-epoch wall-clock seconds this node spent in each fleet
	// interaction (flush/ingest, AdvanceEpoch, Schedule). Timings are
	// measurements of the host machine, not simulated time — they ride
	// next to the deterministic outcome, never inside it.
	ingestSec   []float64
	advanceSec  []float64
	scheduleSec []float64
}

// newNodeLoop builds the closed-loop scheduler for one node over an
// epochs-long horizon.
func newNodeLoop(flt *fleet.Fleet, id string, phiMax float64, epochs int) *nodeLoop {
	return &nodeLoop{
		fleet:       flt,
		id:          id,
		phiMax:      phiMax,
		ingestSec:   make([]float64, epochs),
		advanceSec:  make([]float64, epochs),
		scheduleSec: make([]float64, epochs),
	}
}

// timingIndex maps an epoch-boundary event to the epoch its cost is
// attributed to: boundary e serves epoch e, and the final finish()
// pass (boundary == horizon) folds into the last epoch.
func (l *nodeLoop) timingIndex(epoch int) int {
	if epoch >= len(l.ingestSec) {
		return len(l.ingestSec) - 1
	}
	if epoch < 0 {
		return 0
	}
	return epoch
}

// Decide follows the served per-slot plan under the epoch energy
// budget, exactly like an OPT follower: the node is thin, all learning
// lives in the fleet.
func (l *nodeLoop) Decide(state core.NodeState) core.Decision {
	if state.Slot < 0 || state.Slot >= len(l.duty) {
		return core.Decision{}
	}
	d := l.duty[state.Slot]
	if d <= 0 {
		return core.Decision{}
	}
	if l.phiMax > 0 && state.EpochProbingOnTime >= l.phiMax {
		return core.Decision{}
	}
	return core.Decision{Active: true, Duty: d}
}

// OnContactProbed is a no-op: observations flow through the simulator's
// OnProbe tap (which carries the probe instant the fleet needs).
func (l *nodeLoop) OnContactProbed(core.ProbeInfo) {}

// OnEpochStart is the closed-loop heartbeat: report the finished
// epoch's probed contacts, advance the fleet's epoch clock for this
// node, and adopt the schedule the fleet now serves. Errors latch (the
// loop keeps flying the last served plan) and fail the node's run
// afterward.
func (l *nodeLoop) OnEpochStart(epoch int) {
	if l.err != nil {
		return
	}
	i := l.timingIndex(epoch)
	t0 := time.Now() //rushlint:allow wallclock — StageTimings telemetry; excluded from the determinism surface (zeroed in the parallel==serial test)
	l.flush()
	t1 := time.Now() //rushlint:allow wallclock — StageTimings telemetry; excluded from the determinism surface (zeroed in the parallel==serial test)
	l.ingestSec[i] += t1.Sub(t0).Seconds()
	if err := l.fleet.AdvanceEpoch(l.id, epoch); err != nil {
		l.err = err
		return
	}
	t2 := time.Now() //rushlint:allow wallclock — StageTimings telemetry; excluded from the determinism surface (zeroed in the parallel==serial test)
	l.advanceSec[i] += t2.Sub(t1).Seconds()
	sched, err := l.fleet.Schedule(l.id)
	if err != nil {
		l.err = err
		return
	}
	l.scheduleSec[i] += time.Since(t2).Seconds() //rushlint:allow wallclock — StageTimings telemetry; excluded from the determinism surface (zeroed in the parallel==serial test)
	l.duty = sched.Duty
}

// onProbe is the sim.Config.OnProbe tap: one probed contact becomes one
// fleet observation, stamped with the probe instant.
func (l *nodeLoop) onProbe(at simtime.Instant, info core.ProbeInfo) {
	l.pending = append(l.pending, fleet.Observation{
		Node:     l.id,
		Time:     at.Seconds(),
		Length:   info.ContactLength,
		Uploaded: info.UploadedBytes,
	})
}

// flush reports any buffered observations to the fleet.
func (l *nodeLoop) flush() {
	if len(l.pending) == 0 {
		return
	}
	l.fleet.Observe(l.pending)
	l.pending = l.pending[:0]
}

// finish flushes the final epoch's observations and advances the fleet
// past it, so the fleet's end state reflects the whole run (the DES
// stops exactly at the horizon, before the next boundary would fire).
func (l *nodeLoop) finish(epochs int) error {
	if l.err != nil {
		return l.err
	}
	i := l.timingIndex(epochs)
	t0 := time.Now() //rushlint:allow wallclock — StageTimings telemetry; excluded from the determinism surface (zeroed in the parallel==serial test)
	l.flush()
	t1 := time.Now() //rushlint:allow wallclock — StageTimings telemetry; excluded from the determinism surface (zeroed in the parallel==serial test)
	l.ingestSec[i] += t1.Sub(t0).Seconds()
	err := l.fleet.AdvanceEpoch(l.id, epochs)
	l.advanceSec[i] += time.Since(t1).Seconds() //rushlint:allow wallclock — StageTimings telemetry; excluded from the determinism surface (zeroed in the parallel==serial test)
	return err
}

// oracleLoop follows the plan an omniscient scheduler would fly: the
// strategy's plan for the node's true scenario, swapped for the
// post-drift plan the moment the pattern shifts. It is the per-node
// upper bound the closed loop's convergence is measured against.
type oracleLoop struct {
	active   *core.OPTFollower
	post     *core.OPTFollower // nil when the node's pattern is stable
	switchAt int
}

// newOracleLoop builds followers for the pre- and post-drift plans.
func newOracleLoop(pre, post *strategy.Plan, switchAt int, phiMax float64) (*oracleLoop, error) {
	preSched, err := strategy.FollowPlan(pre, phiMax)
	if err != nil {
		return nil, err
	}
	o := &oracleLoop{active: preSched, switchAt: switchAt}
	if post != nil {
		postSched, err := strategy.FollowPlan(post, phiMax)
		if err != nil {
			return nil, err
		}
		o.post = postSched
	}
	return o, nil
}

// Decide delegates to the plan currently in force.
func (o *oracleLoop) Decide(state core.NodeState) core.Decision { return o.active.Decide(state) }

// OnContactProbed delegates (followers ignore it).
func (o *oracleLoop) OnContactProbed(info core.ProbeInfo) { o.active.OnContactProbed(info) }

// OnEpochStart swaps in the post-drift plan at the drift epoch.
func (o *oracleLoop) OnEpochStart(epoch int) {
	if o.post != nil && epoch >= o.switchAt {
		o.active = o.post
	}
	o.active.OnEpochStart(epoch)
}
