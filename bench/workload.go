package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rushprobe"
	"rushprobe/internal/rng"
)

// spec is one workload: a topology and a traffic mix. Every workload
// runs the same phases — set-up, an open-loop phase of the three
// request streams, a closed-loop ingest phase, then snapshot/restart
// cycles — so every workload reports every end-to-end metric; the
// rates and the topology decide which layer dominates.
type spec struct {
	name string
	// routed puts two shard daemons behind a rushprobed -route router.
	routed bool
	// history is how many simulated days every node reports at set-up,
	// plus its phase (under a day).
	history float64
	// fillerPerNode adds that many bulk mature nodes per population
	// node, built in-process at set-up and handed to the daemon as a
	// snapshot log.
	fillerPerNode int
	// Open-loop rates in requests per second. Observe requests carry
	// perNode contacts from each of batchNodes nodes; schedules requests
	// name schedulesNodes nodes.
	observeRate, scheduleRate, schedulesRate float64
	perNode, schedulesNodes                  int
	// coldReads sends the schedule streams to never-seen node IDs.
	coldReads bool
	// snaplogInterval is the daemons' delta-append period (0: off).
	snaplogInterval time.Duration
	// open and closed are the shares of the run the two load phases
	// take; the snapshot/restart cycles get the rest.
	open, closed float64
}

var specs = []spec{
	{
		name: "ingest", history: 0,
		observeRate: 250, scheduleRate: 100, schedulesRate: 100, perNode: 16, schedulesNodes: 16, coldReads: true,
		open: 0.6, closed: 0.3,
	},
	{
		name: "serve", history: 3,
		observeRate: 100, scheduleRate: 300, schedulesRate: 100, perNode: 4, schedulesNodes: 16,
		open: 0.6, closed: 0.3,
	},
	{
		name: "routed", routed: true, history: 3,
		observeRate: 100, scheduleRate: 300, schedulesRate: 100, perNode: 4, schedulesNodes: 16,
		snaplogInterval: 2 * time.Second,
		open:            0.6, closed: 0.3,
	},
	{
		// A restart cycle of this fleet takes about 0.4 s on a 2-vCPU box,
		// so restart leaves 40% of the run to cycles, where the others
		// leave 10%.
		name: "restart", history: 3, fillerPerNode: 5,
		observeRate: 100, scheduleRate: 200, schedulesRate: 100, perNode: 4, schedulesNodes: 16,
		open: 0.4, closed: 0.2,
	},
}

// logf reports progress on standard error, with the time since start.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench %7.2fs: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

var started = time.Now()

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// config is one run's settings.
type config struct {
	bin     string
	dir     string
	seed    uint64
	seconds float64
	trace   bool
	// nodes is the population size (the smoke test runs 1/20 of it).
	nodes  int
	setups int
}

// The final-state gates read back a seeded sample of nodes and compare
// them with the in-process fleet: gateSample after the load phases, and
// restartSample after the last restart. Each comparison costs a plan
// solve on both sides, so the gates check samples, not every node.
const (
	gateSample    = 500
	restartSample = 1000
)

// maxIngestRate bounds how many observations per second the closed-loop
// phase can need; the supply is generated up front so encoding never
// competes with the measurement.
const maxIngestRate = 600_000

// run is everything one run measured.
type run struct {
	cfg   config
	spec  spec
	setup []float64

	open      [conns][]sample
	openDur   time.Duration
	closed    [conns][]sample
	closedDur time.Duration
	snapshots []float64
	restarts  []float64
	rssMB     float64

	attempted, failed int
	gateErr           error
	// cpu is, per load phase, the CPU cores the daemons and the harness
	// kept busy on average.
	cpu       map[string][2]float64
	layers    map[string]float64
	reconcile map[string]reconciliation
}

// runWorkload executes one run of the workload. An error means the run
// could not be carried out at all; a failed correctness gate is
// recorded in run.gateErr.
func runWorkload(ctx context.Context, cfg config, sp spec) (*run, error) {
	r := &run{cfg: cfg, spec: sp}
	defer func() { logf("run finished") }()

	pop, err := newPopulation(cfg.seed, cfg.nodes)
	if err != nil {
		return nil, err
	}
	hist := pop.history(sp.history)
	logf("population and history generated")
	streams := pop.streamers(sp.perNode)
	picker := &readPicker{src: rng.Derive(cfg.seed, "bench-reads"), n: cfg.nodes, cold: sp.coldReads}
	openDur := time.Duration(sp.open * cfg.seconds * float64(time.Second))
	closedDur := time.Duration(sp.closed * cfg.seconds * float64(time.Second))
	cycleDur := time.Duration(cfg.seconds*float64(time.Second)) - openDur - closedDur
	queues, openBatches, err := planOpenLoop(sp, openDur, streams, picker)
	if err != nil {
		return nil, err
	}
	var supply [conns][]batch
	per := int(math.Ceil(maxIngestRate*closedDur.Seconds()/float64(batchNodes*sp.perNode)/conns)) + 1
	for c := range supply {
		if supply[c], err = streams[c].take(per); err != nil {
			return nil, err
		}
	}

	logf("load inputs generated")
	cs := newConns()
	defer closeConns(cs)
	var topo *topology
	var ref *reference
	defer func() {
		if topo != nil {
			topo.stop()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if topo != nil {
			topo.stop()
			closeConns(cs)
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		topo, ref, err = setUp(ctx, cfg, sp, dir, cs, pop, hist)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	base := topo.entry()
	logf("set-up done: %.3v s", r.setup)

	before, err := healthz(ctx, cs[0], base)
	if err != nil {
		return nil, err
	}
	var snapBefore, snapAfter map[string]float64
	if cfg.trace {
		if snapBefore, err = snaplogCounters(ctx, cs[0], topo); err != nil {
			return nil, err
		}
	}
	resumeGC := pauseGC()
	cpu0, err := r.cpuNow(topo)
	if err != nil {
		return nil, err
	}
	w := window{from: time.Now()}
	r.open = openLoop(ctx, base, cs, queues)
	r.openDur = time.Since(w.from)
	cpu1, err := r.cpuNow(topo)
	if err != nil {
		return nil, err
	}
	r.closed, r.closedDur = closedLoop(ctx, base, cs, supply, closedDur)
	w.to = time.Now()
	cpu2, err := r.cpuNow(topo)
	if err != nil {
		return nil, err
	}
	resumeGC()
	r.cpu = map[string][2]float64{
		"open":   {(cpu1[0] - cpu0[0]) / r.openDur.Seconds(), (cpu1[1] - cpu0[1]) / r.openDur.Seconds()},
		"closed": {(cpu2[0] - cpu1[0]) / r.closedDur.Seconds(), (cpu2[1] - cpu1[1]) / r.closedDur.Seconds()},
	}
	logf("load phases done: open %v, closed %v", r.openDur, r.closedDur)
	after, err := healthz(ctx, cs[0], base)
	if err != nil {
		return nil, err
	}
	spans := newSpanStats()
	if cfg.trace {
		for _, d := range topo.shards {
			ss, err := drainSpans(ctx, cs[0], d.base())
			if err != nil {
				return nil, err
			}
			spans.add(ss, w)
		}
		if snapAfter, err = snaplogCounters(ctx, cs[0], topo); err != nil {
			return nil, err
		}
	}
	r.count()

	// Gates on the quiesced daemon: every observation accepted, batch and
	// per-node reads agree, and every plan equals the in-process fleet's.
	var sent []batch
	for c := 0; c < conns; c++ {
		sent = append(append(sent, openBatches[c]...), supply[c][:len(r.closed[c])]...)
	}
	r.gateErr = r.gateIngest(sent, before, after)
	for _, b := range sent {
		if err := ref.observe(b.obs); err != nil {
			return nil, err
		}
	}
	logf("reference fed")
	ids := make([]string, len(pop.nodes))
	for i, nd := range pop.nodes {
		ids[i] = nd.id
	}
	if r.gateErr == nil {
		r.gateErr = checkServed(ctx, base, cs, ref, sampleIDs(cfg.seed, "bench-gate-sample", ids, 0, gateSample))
	}

	logf("gates done")
	if cfg.trace {
		if r.layers, err = measureLayers(ctx, r, topo, ref, spans, sent, before, after, snapBefore, snapAfter); err != nil {
			return nil, fmt.Errorf("per-layer ladder: %w", err)
		}
	}

	if err := r.cycles(ctx, topo, cs, cycleDur); err != nil {
		return nil, err
	}
	logf("cycles done: snapshot %.3v s, restart %.3v s", r.snapshots, r.restarts)
	if r.gateErr == nil {
		sample := sampleIDs(cfg.seed, "bench-restart-sample", ids, sp.fillerPerNode*cfg.nodes, restartSample)
		if err := checkServed(ctx, topo.entry(), cs, ref, sample); err != nil {
			r.gateErr = fmt.Errorf("after restart: %w", err)
		}
	}
	return r, nil
}

// planOpenLoop lays the three streams out at fixed spacing, offset so
// that no two requests come due at the same instant. Observe requests
// travel on connection 0, each batch taken alternately from one of the
// two node groups; the schedule streams share connection 1. Reads never
// queue behind an ingest batch on the client's side, and every node's
// reports stay on one connection, in order. batches holds each group's
// observe batches in send order.
func planOpenLoop(sp spec, d time.Duration, streams [conns]*streamer, picker *readPicker) (queues [conns][]request, batches [conns][]batch, err error) {
	stream := func(rate, phase float64, c int, mk func(k int) (request, error)) error {
		n := int(rate * d.Seconds())
		for k := 0; k < n; k++ {
			req, err := mk(k)
			if err != nil {
				return err
			}
			req.due = time.Duration((float64(k) + phase) / rate * float64(time.Second))
			queues[c] = append(queues[c], req)
		}
		return nil
	}
	err = stream(sp.observeRate, 0.375, 0, func(k int) (request, error) {
		g := k % conns
		b, err := streams[g].take(1)
		if err != nil {
			return request{}, err
		}
		batches[g] = append(batches[g], b[0])
		return request{kind: kObserve, path: "/v1/observe", body: b[0].body}, nil
	})
	if err != nil {
		return queues, batches, err
	}
	err = stream(sp.scheduleRate, 0, 1, func(int) (request, error) {
		return request{kind: kSchedule, path: "/v1/schedule/" + picker.node()}, nil
	})
	if err != nil {
		return queues, batches, err
	}
	err = stream(sp.schedulesRate, 0.125, 1, func(int) (request, error) {
		body, err := json.Marshal(map[string][]string{"nodes": picker.nodes(sp.schedulesNodes)})
		return request{kind: kSchedules, path: "/v1/schedules", body: body}, err
	})
	sort.SliceStable(queues[1], func(i, j int) bool { return queues[1][i].due < queues[1][j].due })
	return queues, batches, err
}

// setUp builds the workload's state in-process — the SNIP-RH
// overrides, every node's history and, on restart, the filler nodes —
// writes each shard's part as a durable snapshot log, starts the
// daemons, which restore it at start, and warms their plan caches. It
// returns the in-process twin of the daemons' state. Loading the state
// over HTTP instead would spend most of every set-up on JSON decoding,
// which the ingest workload already measures.
func setUp(ctx context.Context, cfg config, sp spec, dir string, cs [conns]*conn, pop *population, hist []obs) (*topology, *reference, error) {
	shards := 1
	if sp.routed {
		shards = 2
	}
	ring := 1024
	if cfg.trace {
		ring = traceRing
	}
	topo, err := newTopology(cfg.bin, dir, shards, sp.routed, sp.snaplogInterval, ring)
	if err != nil {
		return nil, nil, err
	}
	ref, err := newReference(pop, shards, topo.owner())
	if err != nil {
		return nil, nil, err
	}
	if err := ref.observe(hist); err != nil {
		return nil, nil, err
	}
	if err := ref.addFiller(cfg.seed, sp.fillerPerNode*cfg.nodes); err != nil {
		return nil, nil, err
	}
	for i, f := range ref.fleets {
		if err := writeSnapshot(f, topo.shards[i].snaplog); err != nil {
			return nil, nil, err
		}
	}
	if _, err := topo.start(ctx); err != nil {
		return nil, nil, err
	}
	if err := warmUp(ctx, topo, cs, ref); err != nil {
		topo.stop()
		return nil, nil, err
	}
	return topo, ref, nil
}

// addFiller folds n filler bulk nodes into their owners' fleets.
func (r *reference) addFiller(seed uint64, n int) error {
	var buf []rushprobe.Observation
	for i := 0; i < n; i++ {
		buf = fillerObservations(seed, i, buf[:0])
		if got := r.fleet(fillerID(i)).Observe(buf); got != len(buf) {
			return fmt.Errorf("filler: accepted %d of %d observations", got, len(buf))
		}
	}
	return nil
}

// writeSnapshot writes the fleet as a durable snapshot log at path.
func writeSnapshot(f *rushprobe.Fleet, path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.SnapshotBinary(file); err != nil {
		file.Close()
		return err
	}
	if err := file.Sync(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// warmUp serves every population node its plan once, from its owning
// shard, so the measurement starts with the plan cache holding what a
// running daemon would hold instead of with thousands of solves queued
// behind the first requests.
func warmUp(ctx context.Context, topo *topology, cs [conns]*conn, ref *reference) error {
	ids := make([][]string, len(topo.shards))
	for i, nd := range ref.pop.nodes {
		ids[ref.shard[i]] = append(ids[ref.shard[i]], nd.id)
	}
	for i, d := range topo.shards {
		if _, err := getSchedules(ctx, d.base(), cs, ids[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// health is the part of /v1/healthz the gates and ladder read.
type health struct {
	Observations  int64 `json:"observations"`
	PlanSolves    int64 `json:"planSolves"`
	PlanCacheHits int64 `json:"planCacheHits"`
}

func healthz(ctx context.Context, c *conn, base string) (health, error) {
	var h health
	err := getJSON(ctx, c, base+"/v1/healthz", &h)
	return h, err
}

// count tallies the measured requests of both load phases.
func (r *run) count() {
	for c := 0; c < conns; c++ {
		for _, ss := range [][]sample{r.open[c], r.closed[c]} {
			for i := range ss {
				r.attempted++
				if !ss[i].ok() {
					r.failed++
				}
			}
		}
	}
}

// gateIngest checks that the daemon accepted every observation it was
// sent: in each reply, and in its own counter.
func (r *run) gateIngest(sent []batch, before, after health) error {
	want, got := 0, 0
	for _, b := range sent {
		want += len(b.obs)
	}
	for c := 0; c < conns; c++ {
		for _, ss := range [][]sample{r.open[c], r.closed[c]} {
			for i := range ss {
				if ss[i].kind == kObserve {
					got += ss[i].accepted
				}
			}
		}
	}
	if r.failed > 0 {
		return fmt.Errorf("%d of %d measured requests failed", r.failed, r.attempted)
	}
	if got != want {
		return fmt.Errorf("daemon accepted %d of %d observations sent", got, want)
	}
	if d := after.Observations - before.Observations; d != int64(want) {
		return fmt.Errorf("daemon counted %d accepted observations, %d were sent", d, want)
	}
	return nil
}

// cpuNow reads the CPU seconds used so far by the daemons and by the
// harness.
func (r *run) cpuNow(topo *topology) ([2]float64, error) {
	daemons, err := topo.cpuSeconds()
	if err != nil {
		return [2]float64{}, err
	}
	self, err := cpuSeconds(os.Getpid())
	return [2]float64{daemons, self}, err
}

// sampleIDs draws n node IDs (population, then filler) from a stream
// named for the check they serve.
func sampleIDs(seed uint64, name string, ids []string, filler, n int) []string {
	src := rng.Derive(seed, name)
	total := len(ids) + filler
	if n > total {
		n = total
	}
	out := make([]string, 0, n)
	for _, i := range src.Perm(total)[:n] {
		if i < len(ids) {
			out = append(out, ids[i])
		} else {
			out = append(out, fillerID(i-len(ids)))
		}
	}
	return out
}

// cycles persists and cold-starts the topology until the cycle budget
// is spent (at least three times): POST /v1/snapshot, kill, restart from
// the snapshot logs, wait for every daemon's first healthy reply.
func (r *run) cycles(ctx context.Context, topo *topology, cs [conns]*conn, budget time.Duration) error {
	t0 := time.Now()
	for i := 0; i < 3 || time.Since(t0) < budget; i++ {
		if i == 16 {
			break
		}
		r.attempted++
		ts := time.Now()
		if err := postJSON(ctx, cs[0], topo.entry()+"/v1/snapshot", nil, nil); err != nil {
			r.failed++
			if r.gateErr == nil {
				r.gateErr = fmt.Errorf("snapshot: %w", err)
			}
			return nil
		}
		r.snapshots = append(r.snapshots, time.Since(ts).Seconds())
		if err := r.sampleRSS(topo); err != nil {
			return err
		}
		topo.stop()
		closeConns(cs)
		d, err := topo.start(ctx)
		r.attempted++
		if err != nil {
			r.failed++
			return fmt.Errorf("restart: %w", err)
		}
		r.restarts = append(r.restarts, d.Seconds())
	}
	return r.sampleRSS(topo)
}

func (r *run) sampleRSS(topo *topology) error {
	mb, err := topo.hwmMB()
	if err != nil {
		return err
	}
	r.rssMB = math.Max(r.rssMB, mb)
	return nil
}

// Load phases are cut into slices and a metric is the median over the
// slices, so one disturbed second of a shared machine moves a run's
// number little.
const (
	latencySlice = time.Second
	rateSlice    = 250 * time.Millisecond
	// minSlice is the fewest samples a latency slice needs to count.
	minSlice = 20
)

// latencySlices groups one stream's open-loop latencies (ms) by the
// second they were due in.
func (r *run) latencySlices(k kind) [][]float64 {
	out := make([][]float64, int(r.openDur/latencySlice)+1)
	for c := range r.open {
		for i := range r.open[c] {
			if s := &r.open[c][i]; s.kind == k && s.ok() {
				j := int(s.due / latencySlice)
				out[j] = append(out[j], float64(s.latency())/1e6)
			}
		}
	}
	return out
}

// sliceMedian is the median over slices of a statistic of each slice,
// counting only slices with at least minSlice samples.
func sliceMedian(slices [][]float64, stat func([]float64) float64) (float64, error) {
	var vs []float64
	for _, xs := range slices {
		if len(xs) >= minSlice {
			vs = append(vs, stat(xs))
		}
	}
	if len(vs) == 0 {
		return 0, fmt.Errorf("no slice has %d samples", minSlice)
	}
	return median(vs), nil
}

// ingestRate is the closed-loop phase's accepted observations per
// second: the median over its whole rateSlice slices.
func (r *run) ingestRate() float64 {
	n := int(r.closedDur / rateSlice)
	if n == 0 {
		return 0
	}
	acc := make([]float64, n)
	for c := range r.closed {
		for i := range r.closed[c] {
			if j := int(r.closed[c][i].done / rateSlice); j < n {
				acc[j] += float64(r.closed[c][i].accepted)
			}
		}
	}
	return median(acc) / rateSlice.Seconds()
}

// endToEnd computes every end-to-end metric of the run.
func (r *run) endToEnd() (map[string]float64, error) {
	m := map[string]float64{
		"ingest_obs_per_s": r.ingestRate(),
		"restart_s":        median(r.restarts),
		"snapshot_s":       median(r.snapshots),
		"rss_mb":           r.rssMB,
		"setup_s":          median(r.setup),
	}
	// Every stream reports its median. Only observe also reports its
	// mean: the read streams' means follow how many plan solves and
	// garbage collections a run happens to catch, and varied between
	// runs about twice as much as the medians.
	for k := kObserve; k < kinds; k++ {
		stats := map[string]func([]float64) float64{"_p50_ms": p50}
		if k == kObserve {
			stats["_mean_ms"] = mean
		}
		slices := r.latencySlices(k)
		for name, stat := range stats {
			v, err := sliceMedian(slices, stat)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", kindNames[k], err)
			}
			m[kindNames[k]+name] = v
		}
	}
	for name, v := range m {
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured %v", name, v)
		}
	}
	return m, nil
}
