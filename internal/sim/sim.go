// Package sim is the discrete-event simulation harness that replaces the
// paper's COOJA/Contiki setup (see DESIGN.md §2 for the substitution
// argument). It wires together:
//
//   - the contact arrival process (package contact),
//   - a sensor node — duty-cycled radio with SNIP beaconing, a data
//     buffer filled at the scenario's constant sensing rate, and upload
//     over probed contact time,
//   - an always-listening mobile node (implicit: a beacon transmitted
//     while a contact is ongoing is received unless injected loss drops
//     it),
//   - a scheduling mechanism (package core) consulted at CPU wake-ups,
//
// and collects the paper's evaluation metrics per epoch: probed contact
// capacity zeta, probing energy Phi (radio on-time attributed to
// probing), and derived per-unit cost rho.
package sim

import (
	"errors"
	"fmt"
	"math"

	"rushprobe/internal/contact"
	"rushprobe/internal/core"
	"rushprobe/internal/des"
	"rushprobe/internal/pool"
	"rushprobe/internal/radio"
	"rushprobe/internal/rng"
	"rushprobe/internal/scenario"
	"rushprobe/internal/simtime"
	"rushprobe/internal/stats"
)

// DefaultWakeInterval is how often the sensor CPU re-evaluates its
// scheduler between slot boundaries (§VI.B: "the CPU of a sensor node
// wakes up periodically to decide whether to carry out SNIP").
const DefaultWakeInterval = 60 * simtime.Second

// Config describes one simulation run.
type Config struct {
	// Scenario is the deployment under test.
	Scenario *scenario.Scenario
	// NewScheduler constructs a fresh scheduler for the run (schedulers
	// carry learned state, so each run needs its own instance).
	NewScheduler func() (core.Scheduler, error)
	// Epochs is the number of epochs to simulate (the paper uses 14).
	Epochs int
	// WarmupEpochs are excluded from the summary statistics.
	WarmupEpochs int
	// Seed drives all stochastic components.
	Seed uint64
	// WakeInterval is the CPU re-evaluation period (default 60 s).
	WakeInterval simtime.Duration
	// Shift optionally displaces the mobility pattern over time
	// (seasonal drift experiments).
	Shift contact.ShiftFunc
	// Parallelism bounds how many replications RunReplications runs
	// concurrently (single runs are always sequential inside). Zero or
	// negative means GOMAXPROCS; 1 forces serial execution. Results are
	// bit-identical for every setting: each replication derives its own
	// RNG sub-streams from (Seed, index) and the aggregate is folded in
	// replication order.
	Parallelism int
	// OnProbe, when non-nil, observes every successfully probed contact
	// at the instant it is probed, after the upload amount is known. It
	// is the simulator's tap for closed-loop co-simulation (package
	// fleetsim): the node's probed contacts stream out of the DES into
	// an online learner while the run is in flight. The hook must not
	// mutate simulator state; it fires before the scheduler's own
	// OnContactProbed callback (which runs when the transfer completes).
	OnProbe func(at simtime.Instant, info core.ProbeInfo)
}

func (c *Config) validate() error {
	if c.Scenario == nil {
		return errors.New("sim: nil scenario")
	}
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	if c.NewScheduler == nil {
		return errors.New("sim: nil scheduler factory")
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("sim: epochs must be positive, got %d", c.Epochs)
	}
	if c.WarmupEpochs < 0 || c.WarmupEpochs >= c.Epochs {
		return fmt.Errorf("sim: warmup epochs %d out of [0, %d)", c.WarmupEpochs, c.Epochs)
	}
	if c.WakeInterval < 0 {
		return fmt.Errorf("sim: negative wake interval %v", c.WakeInterval)
	}
	return nil
}

// EpochMetrics are the paper's metrics for one epoch (one day).
type EpochMetrics struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// Zeta is the probed contact capacity in seconds (sum of Tprobed).
	Zeta float64
	// Phi is the probing energy in seconds of radio on-time.
	Phi float64
	// UploadOnTime is radio on-time spent transferring data (not Phi).
	UploadOnTime float64
	// UploadedBytes is the data volume delivered to the mobile node.
	UploadedBytes float64
	// MeanLatency is the byte-weighted mean delivery latency of the
	// data uploaded in the epoch (seconds from sensing to upload) — the
	// delay-tolerance cost the paper's introduction discusses.
	MeanLatency float64
	// DroppedBytes is data discarded because the buffer capacity was
	// exceeded (0 with an unbounded buffer).
	DroppedBytes float64
	// Arrived is the number of contacts that began in the epoch.
	Arrived int
	// Probed is the number of contacts successfully probed.
	Probed int
	// BufferEnd is the buffered data at the epoch boundary (bytes).
	BufferEnd float64
	// PerSlotZeta attributes probed capacity to the slot of the probe.
	PerSlotZeta []float64
	// PerSlotProbes counts probed contacts per slot.
	PerSlotProbes []int
}

// Rho returns the epoch's per-unit probing cost.
func (m EpochMetrics) Rho() float64 {
	if m.Zeta <= 0 {
		return math.Inf(1)
	}
	return m.Phi / m.Zeta
}

// Summary aggregates per-epoch metrics (after warmup).
type Summary struct {
	// Epochs is the number of epochs summarized.
	Epochs int
	// MeanZeta, MeanPhi, MeanUploadedBytes, MeanArrived and MeanProbed
	// are per-epoch means.
	MeanZeta          float64
	MeanPhi           float64
	MeanUploadOnTime  float64
	MeanUploadedBytes float64
	MeanLatency       float64
	MeanDroppedBytes  float64
	MeanArrived       float64
	MeanProbed        float64
	// Rho is MeanPhi / MeanZeta.
	Rho float64
	// ZetaCI95 and PhiCI95 are 95% confidence half-widths across epochs.
	ZetaCI95 float64
	PhiCI95  float64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Epochs holds the per-epoch metrics (including warmup epochs).
	Epochs []EpochMetrics
	// Summary aggregates the post-warmup epochs.
	Summary Summary
}

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sched, err := cfg.NewScheduler()
	if err != nil {
		return nil, fmt.Errorf("sim: build scheduler: %w", err)
	}
	n, err := newNode(cfg, sched)
	if err != nil {
		return nil, err
	}
	if err := n.start(); err != nil {
		return nil, err
	}
	horizon := simtime.Instant(simtime.Duration(cfg.Epochs) * cfg.Scenario.Epoch)
	n.sim.RunUntil(horizon)
	n.finalize(horizon)
	return n.result(cfg)
}

// node is the simulated sensor node plus its environment.
type node struct {
	cfg   Config
	sim   *des.Simulator
	clock *simtime.Clock
	sched core.Scheduler
	meter *radio.Meter

	gen     *contact.Generator
	lossRng *rng.Stream

	// Radio/duty-cycle state.
	active     bool
	duty       float64
	nextBeacon des.EventRef
	radioOff   des.EventRef
	uploading  bool

	// Handlers bound once so the per-beacon scheduling in the hot path
	// does not allocate a method-value closure per event.
	beaconFn   des.Handler
	radioOffFn des.Handler

	// Data buffer with lazy accrual and FIFO latency tracking.
	buf *dataBuffer
	// Epoch-scope latency accumulation (byte-weighted).
	latencySum float64

	// Ongoing contacts (at most a handful; the deployment is sparse).
	ongoing []*liveContact

	// Per-epoch metric accumulation.
	epochIndex int
	cur        EpochMetrics
	done       []EpochMetrics
}

type liveContact struct {
	c      contact.Contact
	probed bool
}

func newNode(cfg Config, sched core.Scheduler) (*node, error) {
	clk, err := cfg.Scenario.Clock()
	if err != nil {
		return nil, err
	}
	gen, err := contact.NewGenerator(cfg.Scenario, rng.DeriveN(cfg.Seed, "contacts", 0))
	if err != nil {
		return nil, err
	}
	if cfg.Shift != nil {
		gen.SetShift(cfg.Shift)
	}
	n := &node{
		cfg:     cfg,
		sim:     des.New(),
		clock:   clk,
		sched:   sched,
		meter:   radio.NewMeter(),
		gen:     gen,
		lossRng: rng.DeriveN(cfg.Seed, "beacon-loss", 0),
		buf:     newDataBuffer(cfg.Scenario.DataRate(), cfg.Scenario.BufferCap),
	}
	n.beaconFn = n.onBeacon
	n.radioOffFn = n.onRadioOff
	n.resetEpochMetrics(0)
	return n, nil
}

func (n *node) start() error {
	// Epoch boundary ticker (created first so it outranks the slot
	// ticker at coinciding instants).
	if _, err := n.sim.NewTicker(0, n.cfg.Scenario.Epoch, "epoch", n.onEpochBoundary); err != nil {
		return err
	}
	if _, err := n.sim.NewTicker(0, n.cfg.Scenario.SlotLen(), "slot", n.onWake); err != nil {
		return err
	}
	wake := n.cfg.WakeInterval
	if wake == 0 {
		wake = DefaultWakeInterval
	}
	if _, err := n.sim.NewTicker(0, wake, "cpu-wake", n.onWake); err != nil {
		return err
	}
	// Contact arrival chain.
	n.scheduleNextContact()
	return nil
}

func (n *node) scheduleNextContact() {
	c, ok := n.gen.Next()
	if !ok {
		return
	}
	if _, err := n.sim.ScheduleAt(c.Start, "contact-start", func(now simtime.Instant) {
		n.onContactStart(now, c)
	}); err != nil {
		// Generator times are nondecreasing, so this cannot be in the
		// past; a failure means the chain is broken — stop generating.
		return
	}
}

func (n *node) onContactStart(now simtime.Instant, c contact.Contact) {
	lc := &liveContact{c: c}
	n.ongoing = append(n.ongoing, lc)
	n.cur.Arrived++
	if _, err := n.sim.ScheduleAt(c.End(), "contact-end", func(simtime.Instant) {
		n.removeContact(lc)
	}); err == nil {
		// Chain the next arrival only after successfully scheduling this
		// one's end, preserving bounded queue growth.
		n.scheduleNextContact()
	}
}

func (n *node) removeContact(lc *liveContact) {
	for i, o := range n.ongoing {
		if o == lc {
			n.ongoing = append(n.ongoing[:i], n.ongoing[i+1:]...)
			return
		}
	}
}

// accrueBuffer brings the data buffer up to date.
func (n *node) accrueBuffer(now simtime.Instant) float64 {
	return n.buf.accrue(now)
}

// nodeState snapshots the state the scheduler sees.
func (n *node) nodeState(now simtime.Instant) core.NodeState {
	return core.NodeState{
		Slot:               n.clock.SlotIndex(now),
		Epoch:              n.clock.EpochIndex(now),
		BufferBytes:        n.accrueBuffer(now),
		EpochProbingOnTime: n.meter.ProbingOnTime(now),
	}
}

// onWake re-evaluates the scheduler (CPU wake-up or slot boundary).
func (n *node) onWake(now simtime.Instant) {
	n.applyDecision(now, false /* resume */)
}

// applyDecision reconciles the radio with the scheduler's decision. When
// resume is true the node is returning from an upload and, if it stays
// active, the next beacon is deferred by Toff instead of firing
// immediately (the radio was just on).
func (n *node) applyDecision(now simtime.Instant, resume bool) {
	if n.uploading {
		return // the upload-completion handler re-applies
	}
	d := n.sched.Decide(n.nodeState(now))
	if !d.Active || d.Duty <= 0 {
		n.stopCycle(now)
		return
	}
	if d.Duty > 1 {
		d.Duty = 1
	}
	if n.active && math.Abs(d.Duty-n.duty) <= 1e-12 && !resume {
		return // no change
	}
	n.startCycle(now, d.Duty, resume)
}

func (n *node) stopCycle(now simtime.Instant) {
	if !n.active {
		return
	}
	n.sim.Cancel(n.nextBeacon)
	n.sim.Cancel(n.radioOff)
	n.nextBeacon, n.radioOff = des.EventRef{}, des.EventRef{}
	if n.meter.State() != radio.Off {
		n.meter.TurnOff(now)
	}
	n.active = false
	n.duty = 0
}

func (n *node) startCycle(now simtime.Instant, duty float64, resume bool) {
	n.sim.Cancel(n.nextBeacon)
	n.sim.Cancel(n.radioOff)
	if n.meter.State() != radio.Off {
		n.meter.TurnOff(now)
	}
	n.active = true
	n.duty = duty
	first := now
	if resume {
		// SNIP turns the radio off for Toff after an on-period.
		dc, err := radio.NewDutyCycler(n.cfg.Scenario.Radio.Ton, duty)
		if err == nil {
			first = now.Add(dc.Toff())
		}
	}
	ev, err := n.sim.ScheduleAt(first, "beacon", n.beaconFn)
	if err != nil {
		n.active = false
		return
	}
	n.nextBeacon = ev
}

// onRadioOff ends an unprobed on-period (bound once as radioOffFn).
func (n *node) onRadioOff(at simtime.Instant) {
	if n.meter.State() != radio.Off && !n.uploading {
		n.meter.TurnOff(at)
	}
}

// onBeacon is the start of a radio on-period: SNIP transmits a beacon
// immediately after the radio turns on (§III).
func (n *node) onBeacon(now simtime.Instant) {
	if !n.active {
		return
	}
	ton := simtime.Duration(n.cfg.Scenario.Radio.Ton)
	n.meter.TurnOn(now, radio.Transmitting, radio.Probing)

	// Every in-range mobile node hears the beacon (unless it is lost)
	// and answers; contention among several answers is resolved per the
	// scenario policy (§II's assumption removal).
	lc := n.chooseResponder(now)
	lost := n.cfg.Scenario.BeaconLossProb > 0 && n.lossRng.Bool(n.cfg.Scenario.BeaconLossProb)
	if lc != nil && !lost {
		n.probe(now, lc)
		return
	}

	// No probe: listen out the on-period, then sleep until the next
	// cycle start.
	off, err := n.sim.ScheduleAt(now.Add(ton), "radio-off", n.radioOffFn)
	if err == nil {
		n.radioOff = off
	}
	dc, err := radio.NewDutyCycler(n.cfg.Scenario.Radio.Ton, n.duty)
	if err != nil {
		return
	}
	next, err := n.sim.ScheduleAt(now.Add(dc.Cycle()), "beacon", n.beaconFn)
	if err == nil {
		n.nextBeacon = next
	}
}

// chooseResponder returns the contact whose mobile node wins the beacon
// exchange, or nil when no probe happens. With a single candidate (the
// paper's §II assumption) it is simply that contact; with several, the
// scenario's contention policy decides.
func (n *node) chooseResponder(now simtime.Instant) *liveContact {
	var candidates []*liveContact
	for _, lc := range n.ongoing {
		if lc.probed || !lc.c.End().After(now) {
			continue
		}
		candidates = append(candidates, lc)
	}
	switch len(candidates) {
	case 0:
		return nil
	case 1:
		return candidates[0]
	}
	switch n.cfg.Scenario.Contention {
	case scenario.ContentionNone:
		// The acks collide; the beacon is wasted and every mobile node
		// waits for the next cycle.
		return nil
	case scenario.ContentionRandom:
		return candidates[n.lossRng.Intn(len(candidates))]
	default: // ContentionResolve
		best := candidates[0]
		for _, lc := range candidates[1:] {
			if lc.c.End().After(best.c.End()) {
				best = lc
			}
		}
		return best
	}
}

// probe handles a successful probe: accounts Tprobed, uploads buffered
// data for up to Tprobed, and notifies the scheduler when the transfer
// completes.
func (n *node) probe(now simtime.Instant, lc *liveContact) {
	lc.probed = true
	tProbed := lc.c.End().Sub(now).Seconds()
	if tProbed < 0 {
		tProbed = 0
	}
	slot := n.clock.SlotIndex(now)
	n.cur.Zeta += tProbed
	n.cur.Probed++
	n.cur.PerSlotZeta[slot] += tProbed
	n.cur.PerSlotProbes[slot]++

	buffered := n.accrueBuffer(now)
	rate := n.cfg.Scenario.UploadRate
	uploadDur := math.Min(tProbed, buffered/rate)
	uploadedBytes := uploadDur * rate
	info := core.ProbeInfo{
		Slot:          slot,
		ContactLength: lc.c.Length.Seconds(),
		ProbedTime:    tProbed,
		UploadedBytes: uploadedBytes,
	}

	// Cancel the probing cycle while the transfer runs.
	n.sim.Cancel(n.nextBeacon)
	n.sim.Cancel(n.radioOff)
	n.nextBeacon, n.radioOff = des.EventRef{}, des.EventRef{}

	if uploadDur <= 0 {
		// Nothing to send: treat like an ordinary on-period. Account a
		// minimal on-time of Ton, then resume cycling.
		if n.cfg.OnProbe != nil {
			n.cfg.OnProbe(now, info)
		}
		ton := simtime.Duration(n.cfg.Scenario.Radio.Ton)
		end := now.Add(ton)
		n.uploading = true
		if _, err := n.sim.ScheduleAt(end, "probe-idle-end", func(at simtime.Instant) {
			n.meter.TurnOff(at)
			n.uploading = false
			n.sched.OnContactProbed(info)
			n.applyDecision(at, true /* resume */)
		}); err != nil {
			n.uploading = false
		}
		return
	}

	// Drain FIFO and record delivery latency (measured at upload start;
	// the transfer itself adds at most Tprobed, negligible next to the
	// hours data waits in the buffer).
	got, meanLat := n.buf.drain(now, uploadedBytes)
	uploadedBytes = got
	info.UploadedBytes = got
	if n.cfg.OnProbe != nil {
		n.cfg.OnProbe(now, info)
	}
	n.cur.UploadedBytes += got
	n.latencySum += meanLat * got
	n.meter.TurnOn(now, radio.Transmitting, radio.Uploading)
	n.uploading = true
	if _, err := n.sim.ScheduleAt(now.Add(simtime.Duration(uploadDur)), "upload-end", func(at simtime.Instant) {
		n.meter.TurnOff(at)
		n.uploading = false
		n.sched.OnContactProbed(info)
		n.applyDecision(at, true /* resume */)
	}); err != nil {
		n.uploading = false
	}
}

// onEpochBoundary closes the finished epoch's books and opens the next.
func (n *node) onEpochBoundary(now simtime.Instant) {
	epoch := n.clock.EpochIndex(now)
	if epoch > 0 {
		n.closeEpoch(now)
	}
	n.sched.OnEpochStart(epoch)
	n.applyDecision(now, false)
}

// closeEpoch snapshots metrics for the epoch that just ended and resets
// the accumulators.
func (n *node) closeEpoch(now simtime.Instant) {
	probing, uploading := n.meterTotals(now)
	n.cur.Phi = probing
	n.cur.UploadOnTime = uploading
	n.cur.BufferEnd = n.accrueBuffer(now)
	if n.cur.UploadedBytes > 0 {
		n.cur.MeanLatency = n.latencySum / n.cur.UploadedBytes
	}
	n.cur.DroppedBytes = n.buf.takeDropped()
	n.done = append(n.done, n.cur)
	n.meter.ResetCounters(now)
	n.latencySum = 0
	n.resetEpochMetrics(n.epochIndex + 1)
}

func (n *node) meterTotals(now simtime.Instant) (probing, uploading float64) {
	return n.meter.ProbingOnTime(now), n.meter.UploadOnTime(now)
}

func (n *node) resetEpochMetrics(epoch int) {
	n.epochIndex = epoch
	n.cur = EpochMetrics{
		Epoch:         epoch,
		PerSlotZeta:   make([]float64, n.clock.Slots()),
		PerSlotProbes: make([]int, n.clock.Slots()),
	}
}

// finalize closes the last epoch at the horizon (the epoch ticker for
// the next boundary never fires because the run stops exactly there).
func (n *node) finalize(horizon simtime.Instant) {
	if n.meter.State() != radio.Off {
		n.meter.TurnOff(horizon)
	}
	if len(n.done) < n.cfg.Epochs {
		n.closeEpoch(horizon)
	}
}

func (n *node) result(cfg Config) (*Result, error) {
	if len(n.done) < cfg.Epochs {
		return nil, fmt.Errorf("sim: only %d of %d epochs completed", len(n.done), cfg.Epochs)
	}
	epochs := n.done[:cfg.Epochs]
	var zeta, phi, up, upBytes, latency, dropped, arrived, probed stats.Welford
	for _, m := range epochs[cfg.WarmupEpochs:] {
		zeta.Observe(m.Zeta)
		phi.Observe(m.Phi)
		up.Observe(m.UploadOnTime)
		upBytes.Observe(m.UploadedBytes)
		latency.Observe(m.MeanLatency)
		dropped.Observe(m.DroppedBytes)
		arrived.Observe(float64(m.Arrived))
		probed.Observe(float64(m.Probed))
	}
	rho := math.Inf(1)
	if zeta.Mean() > 0 {
		rho = phi.Mean() / zeta.Mean()
	}
	return &Result{
		Epochs: epochs,
		Summary: Summary{
			Epochs:            zeta.N(),
			MeanZeta:          zeta.Mean(),
			MeanPhi:           phi.Mean(),
			MeanUploadOnTime:  up.Mean(),
			MeanUploadedBytes: upBytes.Mean(),
			MeanLatency:       latency.Mean(),
			MeanDroppedBytes:  dropped.Mean(),
			MeanArrived:       arrived.Mean(),
			MeanProbed:        probed.Mean(),
			Rho:               rho,
			ZetaCI95:          zeta.CI95(),
			PhiCI95:           phi.CI95(),
		},
	}, nil
}

// Replicated holds the cross-replication aggregate of repeated runs.
type Replicated struct {
	// Runs holds each replication's result.
	Runs []*Result
	// MeanZeta, MeanPhi and Rho aggregate the replication summaries.
	MeanZeta float64
	MeanPhi  float64
	Rho      float64
	// ZetaCI95 and PhiCI95 are across-replication confidence intervals.
	ZetaCI95 float64
	PhiCI95  float64
}

// RunReplications executes reps independent runs with derived seeds and
// aggregates their summaries. Replications fan out across the bounded
// worker pool (cfg.Parallelism workers, default GOMAXPROCS); each
// replication's seed depends only on (cfg.Seed, index) and the
// summaries are folded in replication order, so the output is
// bit-identical to a serial run.
func RunReplications(cfg Config, reps int) (*Replicated, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("sim: replications must be positive, got %d", reps)
	}
	runs := make([]*Result, reps)
	err := pool.ForEach(reps, cfg.Parallelism, func(r int) error {
		c := cfg
		c.Seed = uint64(rng.DeriveN(cfg.Seed, "replication", r).Intn(1 << 31))
		res, err := Run(c)
		if err != nil {
			return fmt.Errorf("sim: replication %d: %w", r, err)
		}
		runs[r] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Replicated{Runs: runs}
	var zeta, phi stats.Welford
	for _, res := range runs {
		zeta.Observe(res.Summary.MeanZeta)
		phi.Observe(res.Summary.MeanPhi)
	}
	out.MeanZeta = zeta.Mean()
	out.MeanPhi = phi.Mean()
	out.Rho = math.Inf(1)
	if out.MeanZeta > 0 {
		out.Rho = out.MeanPhi / out.MeanZeta
	}
	out.ZetaCI95 = zeta.CI95()
	out.PhiCI95 = phi.CI95()
	return out, nil
}
