package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rushprobe"
	"rushprobe/internal/dist"
	"rushprobe/internal/learn"
	"rushprobe/internal/model"
	"rushprobe/internal/rng"
	"rushprobe/internal/scenario"
	"rushprobe/internal/shardroute"
	"rushprobe/internal/simtime"
	"rushprobe/internal/snaplog"
	"rushprobe/internal/strategy"
	"rushprobe/internal/telemetry"
)

// The traced run attributes the end-to-end numbers to layers in two
// ways, both from outside the program: it drains the spans the daemons
// already record (/debug/traces) for the measured window, and it times
// calls into each layer's public functions in-process on the run's own
// inputs.

// traceRing is the daemons' span ring in traced runs: large enough to
// hold every span of the measured phases, so spans are drained once at
// the end instead of polled during the measurement.
const traceRing = 1 << 18

// layerMetrics names every per-layer metric, in report order.
var layerMetrics = []struct{ name, unit string }{
	{"rushprobed.observe_http_self_us", "us"},
	{"rushprobed.observe_decode_us", "us"},
	{"rushprobed.schedule_http_self_us", "us"},
	{"rushprobed.schedules_http_self_us", "us"},
	{"rushprobed.wire_us", "us"},
	{"rushprobed.schedule_wire_us", "us"},
	{"rushprobed.queue_ms", "ms"},
	{"fleet.observe_us", "us"},
	{"fleet.observe_ns_per_obs", "ns"},
	{"fleet.schedule_us.node", "us"},
	{"fleet.schedule_us.hit", "us"},
	{"fleet.schedule_us.miss", "us"},
	{"fleet.schedule_us.bootstrap", "us"},
	{"fleet.schedule_share.node", "ratio"},
	{"fleet.schedule_share.hit", "ratio"},
	{"fleet.schedule_share.miss", "ratio"},
	{"fleet.schedule_share.bootstrap", "ratio"},
	{"fleet.plan_hit_ratio", "ratio"},
	{"fleet.solves", "count"},
	{"strategy.solve_ms.SNIP-OPT", "ms"},
	{"strategy.solve_ms.SNIP-RH", "ms"},
	{"learn.observe_contact_ns", "ns"},
	{"shardroute.router_observe_us", "us"},
	{"shardroute.router_schedule_us", "us"},
	{"shardroute.router_schedules_us", "us"},
	{"shardroute.backend_observe_us", "us"},
	{"shardroute.backend_schedule_us", "us"},
	{"shardroute.backend_schedules_us", "us"},
	{"shardroute.ring_owner_ns", "ns"},
	{"snaplog.read_mb_s", "MB/s"},
	{"snaplog.write_mb_s", "MB/s"},
	{"snaplog.fsync_ms", "ms"},
	{"snaplog.deltas", "count"},
	{"snaplog.delta_nodes", "count"},
	{"snaplog.compactions", "count"},
	{"binsnap.encode_ns_per_node", "ns"},
	{"binsnap.restore_ns_per_node", "ns"},
	{"binsnap.bytes_per_node", "B"},
}

var cacheSources = []string{"node", "hit", "miss", "bootstrap"}

// drainSpans reads every span a shard still holds.
func drainSpans(ctx context.Context, c *conn, base string) ([]telemetry.Span, error) {
	var tr struct {
		Total uint64           `json:"total"`
		Spans []telemetry.Span `json:"spans"`
	}
	if err := getJSON(ctx, c, fmt.Sprintf("%s/debug/traces?n=%d", base, traceRing), &tr); err != nil {
		return nil, err
	}
	if tr.Total > uint64(len(tr.Spans)) && tr.Total >= traceRing {
		return nil, fmt.Errorf("span ring of %s overflowed (%d recorded)", base, tr.Total)
	}
	return tr.Spans, nil
}

// snaplogCounters reads the shards' snapshot-log counters, summed.
func snaplogCounters(ctx context.Context, c *conn, topo *topology) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range topo.shards {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base()+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return nil, err
		}
		fams, err := telemetry.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for _, name := range []string{"deltas", "delta_nodes", "compactions"} {
			if f := fams["rushprobe_snaplog_"+name+"_total"]; f != nil && len(f.Samples) > 0 {
				out[name] += f.Samples[0].Value
			}
		}
	}
	return out, nil
}

// window is the wall-clock span of the measured load phases.
type window struct{ from, to time.Time }

func (w window) holds(s telemetry.Span) bool {
	return !s.Start.Before(w.from) && !s.Start.After(w.to)
}

// spanStats accumulates span-derived samples over the shards.
type spanStats struct {
	// self is the http span minus the fleet stage inside it, per stream.
	self [kinds][]float64
	// http holds the http spans by stream, and by request ID.
	http   [kinds][]float64
	byID   [kinds]map[string]float64
	stages map[string][]float64
}

func newSpanStats() *spanStats {
	st := &spanStats{stages: map[string][]float64{}}
	for k := range st.byID {
		st.byID[k] = map[string]float64{}
	}
	return st
}

func spanEnd(s telemetry.Span) time.Time { return s.Start.Add(s.Duration) }

// add folds one shard's spans from the measured window. Request IDs are
// per daemon, so each shard is joined on its own.
func (st *spanStats) add(spans []telemetry.Span, w window) {
	byReq := map[string][]telemetry.Span{}
	var https, batchSched []telemetry.Span
	for _, s := range spans {
		if !w.holds(s) {
			continue
		}
		us := float64(s.Duration) / 1e3
		switch s.Stage {
		case "http":
			https = append(https, s)
		case "ingest":
			st.stages["ingest"] = append(st.stages["ingest"], us)
			byReq[s.Request] = append(byReq[s.Request], s)
		case "schedule":
			st.stages["schedule."+s.Cache] = append(st.stages["schedule."+s.Cache], us)
			if s.Request == "" {
				batchSched = append(batchSched, s)
			} else {
				byReq[s.Request] = append(byReq[s.Request], s)
			}
		}
	}
	// Batch plans carry no request ID: a schedules request owns the
	// schedule spans that lie inside it, unless another batch request
	// overlaps it and the owner is ambiguous.
	sort.Slice(batchSched, func(i, j int) bool { return batchSched[i].Start.Before(batchSched[j].Start) })
	var batches []telemetry.Span
	for _, h := range https {
		if h.Detail == "POST /v1/schedules" {
			batches = append(batches, h)
		}
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i].Start.Before(batches[j].Start) })
	batchInner := map[string]float64{}
	for i, h := range batches {
		if (i > 0 && spanEnd(batches[i-1]).After(h.Start)) || (i+1 < len(batches) && batches[i+1].Start.Before(spanEnd(h))) {
			continue
		}
		inner := 0.0
		j := sort.Search(len(batchSched), func(j int) bool { return !batchSched[j].Start.Before(h.Start) })
		for ; j < len(batchSched) && !spanEnd(batchSched[j]).After(spanEnd(h)); j++ {
			inner += float64(batchSched[j].Duration) / 1e3
		}
		batchInner[h.Request] = inner
	}
	for _, h := range https {
		var k kind
		var inner float64
		switch {
		case h.Detail == "POST /v1/observe", strings.HasPrefix(h.Detail, "GET /v1/schedule/"):
			k = kObserve
			if h.Detail != "POST /v1/observe" {
				k = kSchedule
			}
			kids := byReq[h.Request]
			if len(kids) != 1 {
				continue
			}
			inner = float64(kids[0].Duration) / 1e3
		case h.Detail == "POST /v1/schedules":
			k = kSchedules
			v, ok := batchInner[h.Request]
			if !ok {
				continue
			}
			inner = v
		default:
			continue
		}
		us := float64(h.Duration) / 1e3
		st.self[k] = append(st.self[k], us-inner)
		st.http[k] = append(st.http[k], us)
		st.byID[k][h.Request] = us
	}
}

// spanLayers derives the span-based metrics: http self time per stream,
// fleet stage durations by cache outcome, and the wire time — client
// service time minus the daemon's http span.
func spanLayers(m map[string]float64, st *spanStats, r *run) {
	m["rushprobed.observe_http_self_us"] = p50(st.self[kObserve])
	m["rushprobed.schedule_http_self_us"] = p50(st.self[kSchedule])
	m["rushprobed.schedules_http_self_us"] = p50(st.self[kSchedules])
	m["fleet.observe_us"] = p50(st.stages["ingest"])
	total := 0
	for _, src := range cacheSources {
		total += len(st.stages["schedule."+src])
	}
	for _, src := range cacheSources {
		xs := st.stages["schedule."+src]
		m["fleet.schedule_us."+src] = p50(xs)
		m["fleet.schedule_share."+src] = 0
		if total > 0 {
			m["fleet.schedule_share."+src] = float64(len(xs)) / float64(total)
		}
	}

	// Joined by request ID when the client talks to the daemon directly.
	// Through the router the client sees the router's IDs, so the join is
	// by distribution — the client's median service time minus the
	// shards' median http span — and includes the router hop.
	var wire, service [kinds][]float64
	for c := range r.open {
		for i := range r.open[c] {
			s := &r.open[c][i]
			if !s.ok() {
				continue
			}
			us := float64(s.service()) / 1e3
			service[s.kind] = append(service[s.kind], us)
			if h, ok := st.byID[s.kind][s.reqID]; ok && !r.spec.routed {
				wire[s.kind] = append(wire[s.kind], us-h)
			}
		}
	}
	for k, name := range map[kind]string{kObserve: "rushprobed.wire_us", kSchedule: "rushprobed.schedule_wire_us"} {
		if r.spec.routed {
			m[name] = p50(service[k]) - p50(st.http[k])
		} else {
			m[name] = p50(wire[k])
		}
	}

	// The ladder should add up: wire + http self time + the fleet stage
	// against what the client saw from send to reply.
	var all []float64
	for _, src := range cacheSources {
		all = append(all, st.stages["schedule."+src]...)
	}
	r.reconcile = map[string]reconciliation{
		"observe":  {p50(service[kObserve]), m["rushprobed.wire_us"] + m["rushprobed.observe_http_self_us"] + m["fleet.observe_us"]},
		"schedule": {p50(service[kSchedule]), m["rushprobed.schedule_wire_us"] + m["rushprobed.schedule_http_self_us"] + p50(all)},
	}
}

// reconciliation compares the client's median service time (µs) with
// the sum of the layer medians along the request's path.
type reconciliation struct {
	ClientUS float64 `json:"clientUs"`
	LayersUS float64 `json:"layersUs"`
}

// measureLayers computes every per-layer metric of a traced run from
// its spans, the daemons' counters before and after the measured
// phases, and the in-process ladder.
func measureLayers(ctx context.Context, r *run, topo *topology, ref *reference, st *spanStats, sent []batch, before, after health, snapBefore, snapAfter map[string]float64) (map[string]float64, error) {
	m := map[string]float64{}
	spanLayers(m, st, r)
	var queue []float64
	for c := range r.open {
		for i := range r.open[c] {
			queue = append(queue, float64(r.open[c][i].sent-r.open[c][i].due)/1e6)
		}
	}
	m["rushprobed.queue_ms"] = mean(queue)
	solves := float64(after.PlanSolves - before.PlanSolves)
	hits := float64(after.PlanCacheHits - before.PlanCacheHits)
	m["fleet.solves"] = solves
	m["fleet.plan_hit_ratio"] = 0
	if hits+solves > 0 {
		m["fleet.plan_hit_ratio"] = hits / (hits + solves)
	}
	for _, name := range []string{"deltas", "delta_nodes", "compactions"} {
		m["snaplog."+name] = snapAfter[name] - snapBefore[name]
	}
	if err := inProcessLayers(ctx, m, r, topo, ref, sent); err != nil {
		return nil, err
	}
	for _, lm := range layerMetrics {
		if _, ok := m[lm.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
	}
	return m, nil
}

// p50 is the median of a sample, 0 for none (a layer the workload does
// not exercise).
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, 0.5)
}

// timeEach runs f n times and returns the median duration of one call.
func timeEach(n int, f func(i int) error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// inProcessLayers times the layers' public functions on the run's own
// inputs.
func inProcessLayers(ctx context.Context, m map[string]float64, r *run, topo *topology, ref *reference, sent []batch) error {
	pop := ref.pop
	// HTTP/JSON: decode the exact observe bodies the daemon received.
	n := min(len(sent), 200)
	d, err := timeEach(n, func(i int) error {
		var b observeBody
		return json.Unmarshal(sent[i].body, &b)
	})
	if err != nil {
		return err
	}
	m["rushprobed.observe_decode_us"] = us(d)

	// Fleet ingest: a fresh fleet folding the same batches.
	f, err := newFleet()
	if err != nil {
		return err
	}
	var batches [][]rushprobe.Observation
	n = 0
	for _, b := range sent {
		if n >= 500_000 {
			break
		}
		batches = append(batches, pop.observations(b.obs, nil))
		n += len(b.obs)
	}
	t0 := time.Now()
	for _, b := range batches {
		f.Observe(b)
	}
	m["fleet.observe_ns_per_obs"] = float64(time.Since(t0)) / float64(n)

	// Learner fold: the rush-hour ranker alone, fed the same contacts.
	l, err := learn.NewRushHourLearner(24, 4)
	if err != nil {
		return err
	}
	clk, err := simtime.NewClock(simtime.Day, 24)
	if err != nil {
		return err
	}
	calls := 0
	t0 = time.Now()
	for _, b := range sent {
		for _, o := range b.obs {
			l.ObserveContact(clk.SlotIndex(simtime.Instant(o.time)), o.length)
			calls++
			if calls%64 == 0 {
				l.EndEpoch()
			}
		}
		if calls >= 500_000 {
			break
		}
	}
	m["learn.observe_contact_ns"] = float64(time.Since(t0)) / float64(calls)

	// Solver: plans for learned-shape scenarios of the population.
	scs := make([]*scenario.Scenario, 0, 40)
	for i := 0; i < len(pop.nodes) && len(scs) < cap(scs); i += max(1, len(pop.nodes)/cap(scs)) {
		prof, err := ref.fleet(pop.nodes[i].id).Profile(pop.nodes[i].id)
		if err != nil {
			return err
		}
		scs = append(scs, learnedShape(prof))
	}
	for _, name := range []string{string(rushprobe.SNIPOPT), string(rushprobe.SNIPRH)} {
		st, err := strategy.Lookup(name)
		if err != nil {
			return err
		}
		d, err := timeEach(len(scs), func(i int) error {
			_, err := st.Plan(scs[i])
			return err
		})
		if err != nil {
			return err
		}
		m["strategy.solve_ms."+name] = float64(d) / 1e6
	}

	if err := snapshotLayers(m, ref.fleets[0], r.cfg.dir); err != nil {
		return err
	}
	return routerLayers(ctx, m, topo, pop, r.cfg.seed)
}

// learnedShape rebuilds the scenario a fleet solves for a profile: the
// learned per-slot capacity on a 1 s grid and the mean contact length
// on a 0.1 s grid, with the base deployment's budget and target.
func learnedShape(p rushprobe.NodeProfile) *scenario.Scenario {
	meanLen := math.Max(math.Round(p.MeanContactLength*10)/10, 0.1)
	slots := make([]scenario.Slot, len(p.SlotCapacity))
	for i, c := range p.SlotCapacity {
		slots[i].RushHour = p.RushMask[i]
		if cq := math.Round(c); cq > 0 {
			slots[i].Interval = dist.Fixed{Value: meanLen * 3600 / cq}
			slots[i].Length = dist.Fixed{Value: meanLen}
		}
	}
	return &scenario.Scenario{
		Name: "learned", Epoch: simtime.Day, Slots: slots, Radio: model.DefaultConfig(),
		PhiMax: daySeconds / 1000.0, ZetaTarget: 24, UploadRate: scenario.DefaultUploadRate,
	}
}

// snapshotLayers times the binary snapshot codec on a reference fleet's
// state (the first shard's), the snapshot log's framing over those
// bytes, and an fsync of them.
func snapshotLayers(m map[string]float64, ref *rushprobe.Fleet, dir string) error {
	nodes := float64(ref.Stats().Nodes)
	var enc, res []float64
	var data []byte
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := ref.SnapshotBinary(&buf); err != nil {
			return err
		}
		enc = append(enc, float64(time.Since(t0))/nodes)
		data = buf.Bytes()
		f, err := newFleet()
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := f.RestoreBinary(bytes.NewReader(data)); err != nil {
			return err
		}
		res = append(res, float64(time.Since(t0))/nodes)
	}
	m["binsnap.encode_ns_per_node"] = median(enc)
	m["binsnap.restore_ns_per_node"] = median(res)
	m["binsnap.bytes_per_node"] = float64(len(data)) / nodes

	var frames []snaplog.Frame
	var rd, wr []float64
	mb := float64(len(data)) / 1e6
	for i := 0; i < 3; i++ {
		frames = frames[:0]
		t0 := time.Now()
		rr := snaplog.NewReader(bytes.NewReader(data))
		for {
			fr, err := rr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			frames = append(frames, fr)
		}
		rd = append(rd, mb/time.Since(t0).Seconds())
		var out bytes.Buffer
		out.Grow(len(data))
		t0 = time.Now()
		w := snaplog.NewWriter(&out)
		for _, fr := range frames {
			if err := w.WriteFrame(fr.Type, fr.Payload); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		wr = append(wr, mb/time.Since(t0).Seconds())
	}
	m["snaplog.read_mb_s"] = median(rd)
	m["snaplog.write_mb_s"] = median(wr)

	var syncs []float64
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("fsync%d.snaplog", i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		syncs = append(syncs, float64(time.Since(t0))/1e6)
		if err := f.Close(); err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	m["snaplog.fsync_ms"] = median(syncs)
	return nil
}

// routerLayers times shardroute.Router calls over two HTTP backends
// against the same calls made on one backend directly, alternating the
// two. Every call targets nodes the first shard owns, so the router
// makes one backend call and the difference is its own cost. Without a
// routed topology both ring members point at the one daemon. This
// ladder step is the one place the harness opens more than two
// connections.
func routerLayers(ctx context.Context, m map[string]float64, topo *topology, pop *population, seed uint64) error {
	// On routed the ring members are named by URL, as rushprobed -route
	// names them, so the router places nodes where the daemons hold them.
	// The backends use the HTTP client rushprobed -route gives them.
	names := []string{"shard0", "shard1"}
	urls := []string{topo.shards[0].base(), topo.shards[0].base()}
	if len(topo.shards) == 2 {
		urls[1] = topo.shards[1].base()
		names = urls
	}
	rt := shardroute.NewRouter(0, nil)
	for i, u := range urls {
		if err := rt.AddShard(names[i], &shardroute.HTTPBackend{BaseURL: u}); err != nil {
			return err
		}
	}
	direct := &shardroute.HTTPBackend{BaseURL: urls[0]}
	first := func(node string) bool {
		owner, ok := rt.Owner(node)
		return ok && owner == names[0]
	}

	// Observe batches for nodes only the ladder uses, so the run's own
	// nodes keep the state the gates checked.
	var ladder []string
	for k := 0; len(ladder) < batchNodes; k++ {
		if id := fmt.Sprintf("ladder%03d", k); first(id) {
			ladder = append(ladder, id)
		}
	}
	const reps = 200
	batches := make([][]rushprobe.Observation, 2*reps)
	for rep := range batches {
		const perNode = 16
		for _, id := range ladder {
			for j := 0; j < perNode; j++ {
				batches[rep] = append(batches[rep], rushprobe.Observation{
					Node:   id,
					Time:   float64(rep*perNode+j) * 600,
					Length: 2, Uploaded: -1,
				})
			}
		}
	}
	var targets []string
	for _, nd := range pop.nodes {
		if first(nd.id) {
			targets = append(targets, nd.id)
		}
	}
	src := rng.Derive(seed, "bench-ladder")
	pick := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = targets[src.Intn(len(targets))]
		}
		return out
	}
	ids := pick(reps)
	sets := make([][]string, reps/4)
	for i := range sets {
		sets[i] = pick(64)
	}
	// Solve the targets' plans first, so that neither side pays for
	// solves the other would then find cached.
	warm := append([]string(nil), ids...)
	for _, set := range sets {
		warm = append(warm, set...)
	}
	for lo := 0; lo < len(warm); lo += 256 {
		if _, err := direct.ScheduleBatch(ctx, warm[lo:min(lo+256, len(warm))]); err != nil {
			return fmt.Errorf("ladder warm-up: %w", err)
		}
	}

	pairs := []struct {
		name            string
		n               int
		router, backend func(i int) error
	}{
		{"observe", reps,
			func(i int) error { _, err := rt.Observe(ctx, batches[2*i]); return err },
			func(i int) error { _, err := direct.Observe(ctx, batches[2*i+1]); return err }},
		{"schedule", reps,
			func(i int) error { _, err := rt.Schedule(ctx, ids[i]); return err },
			func(i int) error { _, err := direct.Schedule(ctx, ids[i]); return err }},
		{"schedules", len(sets),
			func(i int) error { _, err := rt.ScheduleBatch(ctx, sets[i]); return err },
			func(i int) error { _, err := direct.ScheduleBatch(ctx, sets[i]); return err }},
	}
	for _, p := range pairs {
		var rd, bd []float64
		for i := 0; i < p.n; i++ {
			t0 := time.Now()
			err := p.router(i)
			t1 := time.Now()
			if err == nil {
				err = p.backend(i)
			}
			if err != nil {
				return fmt.Errorf("ladder %s: %w", p.name, err)
			}
			rd = append(rd, us(t1.Sub(t0)))
			bd = append(bd, us(time.Since(t1)))
		}
		m["shardroute.router_"+p.name+"_us"] = median(rd)
		m["shardroute.backend_"+p.name+"_us"] = median(bd)
	}

	ring := shardroute.NewRing(0)
	for _, s := range []string{"shard0", "shard1"} {
		if err := ring.Add(s); err != nil {
			return err
		}
	}
	const passes = 50
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, nd := range pop.nodes {
			ring.Owner(nd.id)
		}
	}
	m["shardroute.ring_owner_ns"] = float64(time.Since(t0)) / float64(passes*len(pop.nodes))
	return nil
}
