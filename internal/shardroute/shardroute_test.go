package shardroute

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rushprobe/internal/fleet"
	"rushprobe/internal/scenario"
	"rushprobe/internal/strategy"
	"rushprobe/internal/telemetry"
	"rushprobe/internal/wire"
)

func newShardFleet(t testing.TB) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(fleet.Config{Base: scenario.Roadside(), DriftDetector: "cusum"})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// --- ring -------------------------------------------------------------

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("node-%06d", i)
	}
	return keys
}

func ownerMap(t *testing.T, r *Ring, keys []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		owner, ok := r.Owner(k)
		if !ok {
			t.Fatalf("Owner(%q) found no shard on a populated ring", k)
		}
		out[k] = owner
	}
	return out
}

// TestRingStability is the consistent-hashing contract: removing one
// shard moves ONLY the keys it owned, adding it back restores the
// original routing exactly, and load stays roughly balanced.
func TestRingStability(t *testing.T) {
	shards := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	r := NewRing(0)
	for _, s := range shards {
		if err := r.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	keys := ringKeys(10000)
	before := ownerMap(t, r, keys)

	// Balance: 128 vnodes keeps every shard within a loose band of the
	// 20% ideal share.
	load := map[string]int{}
	for _, owner := range before {
		load[owner]++
	}
	for _, s := range shards {
		share := float64(load[s]) / float64(len(keys))
		if share < 0.05 || share > 0.40 {
			t.Errorf("shard %s owns %.1f%% of keys, outside [5%%, 40%%]", s, 100*share)
		}
	}

	if err := r.Remove("charlie"); err != nil {
		t.Fatal(err)
	}
	after := ownerMap(t, r, keys)
	moved := 0
	for _, k := range keys {
		if before[k] == "charlie" {
			if after[k] == "charlie" {
				t.Fatalf("key %s still routes to removed shard", k)
			}
			moved++
			continue
		}
		if after[k] != before[k] {
			t.Fatalf("key %s moved %s -> %s although its shard stayed", k, before[k], after[k])
		}
	}
	if moved == 0 {
		t.Fatal("removal moved no keys — charlie owned nothing?")
	}

	// Re-adding restores the exact original routing: the ring is a pure
	// function of membership.
	if err := r.Add("charlie"); err != nil {
		t.Fatal(err)
	}
	restored := ownerMap(t, r, keys)
	for _, k := range keys {
		if restored[k] != before[k] {
			t.Fatalf("key %s routes to %s after re-add, originally %s", k, restored[k], before[k])
		}
	}
}

func TestRingErrors(t *testing.T) {
	r := NewRing(8)
	if _, ok := r.Owner("x"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if err := r.Add(""); err == nil {
		t.Fatal("empty shard name accepted")
	}
	if err := r.Add("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("a"); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	if err := r.Remove("ghost"); err == nil {
		t.Fatal("removing an absent shard succeeded")
	}
	if got := r.Shards(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Shards() = %v, want [a]", got)
	}
	if owner, ok := r.Owner("anything"); !ok || owner != "a" {
		t.Fatalf("single-shard ring routed to %q, %v", owner, ok)
	}
}

// --- router over local shards -----------------------------------------

// newLocalRouter builds a router over n in-process fleets and returns
// both, so tests can compare routed answers against the shard directly.
func newLocalRouter(t testing.TB, n int) (*Router, map[string]*fleet.Fleet) {
	t.Helper()
	rt := NewRouter(0, nil)
	fleets := make(map[string]*fleet.Fleet, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard-%d", i)
		f := newShardFleet(t)
		fleets[name] = f
		if err := rt.AddShard(name, &LocalBackend{Fleet: f, Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	return rt, fleets
}

// routedTraffic generates the same kind of patterned batch the fleet
// tests use, addressed to many nodes so it spreads across shards.
func routedTraffic(nodes int, seed int64) ([]string, []fleet.Observation) {
	r := rand.New(rand.NewSource(seed))
	ids := make([]string, nodes)
	var batch []fleet.Observation
	for i := range ids {
		id := fmt.Sprintf("node-%06d", i)
		ids[i] = id
		class := i % 16
		days := 1 + r.Intn(5)
		for d := 0; d < days; d++ {
			for h := 0; h < 24; h++ {
				n := 1
				if h == class%24 || h == (class+11)%24 {
					n = 3 + class%5
				}
				for c := 0; c < n; c++ {
					batch = append(batch, fleet.Observation{
						Node:     id,
						Time:     float64(d)*86400 + float64(h)*3600 + float64(c)*60,
						Length:   1.0 + float64(class%7),
						Uploaded: float64(r.Intn(2)*4096) - float64(r.Intn(2)),
					})
				}
			}
		}
	}
	return ids, batch
}

func TestRouterRoutesToOwners(t *testing.T) {
	rt, fleets := newLocalRouter(t, 3)
	ctx := context.Background()
	ids, batch := routedTraffic(300, 7)

	accepted, err := rt.Observe(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != len(batch) {
		t.Fatalf("accepted %d of %d observations", accepted, len(batch))
	}

	// Every node's state must live exactly on its ring owner. Profile
	// answers for unknown nodes too (bootstrap profile), so presence is
	// read off the accepted-observation counter.
	for _, id := range ids {
		owner, ok := rt.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		for name, f := range fleets {
			prof, err := f.Profile(id)
			if err != nil {
				t.Fatal(err)
			}
			if name == owner && prof.Observations == 0 {
				t.Fatalf("node %s has no state on its owner %s", id, owner)
			}
			if name != owner && prof.Observations != 0 {
				t.Fatalf("node %s leaked onto non-owner shard %s", id, name)
			}
		}
	}

	// Merged stats must see the whole fleet.
	stats, err := rt.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != len(ids) {
		t.Fatalf("merged stats count %d nodes, want %d", stats.Nodes, len(ids))
	}
	if stats.Observations != int64(len(batch)) {
		t.Fatalf("merged stats count %d observations, want %d", stats.Observations, len(batch))
	}
	per, err := rt.ShardStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, s := range per {
		sum += s.Nodes
	}
	if sum != stats.Nodes {
		t.Fatalf("per-shard node counts sum to %d, merged says %d", sum, stats.Nodes)
	}

	// Routed Schedule / SetStrategy / Profile agree with asking the
	// owning shard directly.
	for _, id := range ids[:25] {
		owner, _ := rt.Owner(id)
		direct, err := fleets[owner].Schedule(id)
		if err != nil {
			t.Fatal(err)
		}
		routed, err := rt.Schedule(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, direct), mustJSON(t, routed)) {
			t.Fatalf("routed schedule for %s differs from owner's", id)
		}
	}
	inForce, err := rt.SetStrategy(ctx, ids[0], strategy.NameRH)
	if err != nil {
		t.Fatal(err)
	}
	if inForce != strategy.NameRH {
		t.Fatalf("SetStrategy returned %q", inForce)
	}
	prof, err := rt.Profile(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if prof.Strategy != strategy.NameRH {
		t.Fatalf("profile strategy %q after override", prof.Strategy)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRouterScheduleBatchPreservesOrder(t *testing.T) {
	rt, _ := newLocalRouter(t, 4)
	ctx := context.Background()
	ids, batch := routedTraffic(200, 11)
	if _, err := rt.Observe(ctx, batch); err != nil {
		t.Fatal(err)
	}

	// Shuffle so consecutive inputs hit different shards.
	shuffled := append([]string(nil), ids...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	plans, err := rt.ScheduleBatch(ctx, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != len(shuffled) {
		t.Fatalf("got %d plans for %d nodes", len(plans), len(shuffled))
	}
	for i, id := range shuffled {
		single, err := rt.Schedule(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if plans[i] == nil {
			t.Fatalf("plan %d (%s) is nil", i, id)
		}
		if !bytes.Equal(mustJSON(t, plans[i]), mustJSON(t, single)) {
			t.Fatalf("batch plan %d (%s) differs from single-node schedule", i, id)
		}
	}

	// Empty batch is a no-op, not an error.
	if plans, err := rt.ScheduleBatch(ctx, nil); err != nil || plans != nil {
		t.Fatalf("empty batch: %v, %v", plans, err)
	}
}

func TestRouterNoShards(t *testing.T) {
	rt := NewRouter(0, nil)
	ctx := context.Background()
	if _, err := rt.Observe(ctx, []fleet.Observation{{Node: "a", Time: 1, Length: 1, Uploaded: -1}}); err == nil {
		t.Fatal("Observe on empty router succeeded")
	}
	if _, err := rt.Schedule(ctx, "a"); err == nil {
		t.Fatal("Schedule on empty router succeeded")
	}
	if _, err := rt.ScheduleBatch(ctx, []string{"a"}); err == nil {
		t.Fatal("ScheduleBatch on empty router succeeded")
	}
	if err := rt.RemoveShard("ghost"); err == nil {
		t.Fatal("RemoveShard on empty router succeeded")
	}
	if err := rt.AddShard("x", nil); err == nil {
		t.Fatal("nil backend accepted")
	}
}

func TestLocalBackendPersistSnapshot(t *testing.T) {
	b := &LocalBackend{Fleet: newShardFleet(t), Name: "lonely"}
	err := b.PersistSnapshot(context.Background())
	if err == nil || !strings.Contains(err.Error(), "lonely") {
		t.Fatalf("nil Persist should fail naming the shard, got %v", err)
	}
	called := false
	b.Persist = func(context.Context) error { called = true; return nil }
	if err := b.PersistSnapshot(context.Background()); err != nil || !called {
		t.Fatalf("Persist hook not invoked: %v", err)
	}
}

// --- routed restore equivalence (the sharding half of the
// restore-equivalence property) ----------------------------------------

// TestRoutedRestoreEquivalence ingests a fleet through the router,
// snapshots every shard with the binary log, restores each snapshot
// into a fresh shard behind a fresh router, and requires byte-identical
// schedules for every node. This is the crash/upgrade story for a
// sharded deployment: per-shard logs, same answers after restart.
func TestRoutedRestoreEquivalence(t *testing.T) {
	nodes := 2000
	if testing.Short() {
		nodes = 500
	}
	ctx := context.Background()
	rtA, fleetsA := newLocalRouter(t, 3)
	ids, batch := routedTraffic(nodes, 42)
	if _, err := rtA.Observe(ctx, batch); err != nil {
		t.Fatal(err)
	}
	// Strategy overrides must survive the routed restore too.
	for i := 0; i < len(ids); i += 97 {
		if _, err := rtA.SetStrategy(ctx, ids[i], strategy.NameAT); err != nil {
			t.Fatal(err)
		}
	}
	before, err := rtA.ScheduleBatch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}

	// Per-shard binary snapshots, restored into a fresh topology with
	// the same membership (so the ring routes identically).
	rtB := NewRouter(0, nil)
	for name, f := range fleetsA {
		var buf bytes.Buffer
		if err := f.WriteBinarySnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		fresh := newShardFleet(t)
		info, err := fresh.ReadBinarySnapshot(&buf)
		if err != nil {
			t.Fatalf("shard %s restore: %v", name, err)
		}
		if info.Truncated {
			t.Fatalf("shard %s snapshot unexpectedly torn", name)
		}
		if err := rtB.AddShard(name, &LocalBackend{Fleet: fresh, Name: name}); err != nil {
			t.Fatal(err)
		}
	}

	after, err := rtB.ScheduleBatch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, before), mustJSON(t, after)) {
		t.Fatal("routed schedules differ after per-shard binary snapshot restore")
	}

	statsA, err := rtA.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	statsB, err := rtB.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if statsA.Nodes != statsB.Nodes || statsA.Observations != statsB.Observations || statsA.Stale != statsB.Stale {
		t.Fatalf("restored topology counters diverge: %+v vs %+v", statsA, statsB)
	}
}

// --- HTTP backend ------------------------------------------------------

// shardDaemon is a minimal stand-in for rushprobed speaking the same
// JSON wire shapes, backing onto a real fleet.
type shardDaemon struct {
	f         *fleet.Fleet
	persisted int
	failWith  string // when set, every call returns 500 with this error
}

func (d *shardDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	writeJSON := func(status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(v)
	}
	fail := func(status int, err string) {
		writeJSON(status, wire.ErrorResponse{Error: err})
	}
	if d.failWith != "" {
		fail(http.StatusInternalServerError, d.failWith)
		return
	}
	switch {
	case r.URL.Path == "/v1/observe":
		var req wire.ObserveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(http.StatusOK, wire.ObserveResponse{
			Received: len(req.Observations),
			Accepted: d.f.Observe(req.Observations),
		})
	case strings.HasPrefix(r.URL.Path, "/v1/schedule/"):
		node := strings.TrimPrefix(r.URL.Path, "/v1/schedule/")
		sched, err := d.f.Schedule(node)
		if err != nil {
			fail(http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(http.StatusOK, wire.ScheduleResponse{Node: node, Schedule: sched})
	case r.URL.Path == "/v1/schedules":
		var req wire.NodeList
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		scheds, err := d.f.ScheduleBatch(req.Nodes)
		if err != nil {
			fail(http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(http.StatusOK, wire.SchedulesResponse{Schedules: scheds})
	case strings.HasPrefix(r.URL.Path, "/v1/strategy/"):
		node := strings.TrimPrefix(r.URL.Path, "/v1/strategy/")
		var req wire.StrategyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		inForce, err := d.f.SetStrategy(node, req.Strategy)
		if err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(http.StatusOK, wire.StrategyResponse{Node: node, Strategy: inForce})
	case strings.HasPrefix(r.URL.Path, "/v1/profile/"):
		node := strings.TrimPrefix(r.URL.Path, "/v1/profile/")
		prof, err := d.f.Profile(node)
		if err != nil {
			fail(http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(http.StatusOK, prof)
	case r.URL.Path == "/v1/healthz":
		writeJSON(http.StatusOK, wire.HealthResponse{Status: "ok", Stats: d.f.Stats()})
	case r.URL.Path == "/v1/snapshot":
		d.persisted++
		writeJSON(http.StatusOK, wire.SnapshotResponse{Nodes: d.f.Stats().Nodes})
	default:
		fail(http.StatusNotFound, "unknown path "+r.URL.Path)
	}
}

// TestRouterMixedHTTPAndLocalShards drives a topology where one shard
// is in-process and two live behind HTTP daemons — the router must not
// care which is which.
func TestRouterMixedHTTPAndLocalShards(t *testing.T) {
	ctx := context.Background()
	rt := NewRouter(0, nil)

	local := newShardFleet(t)
	if err := rt.AddShard("local-0", &LocalBackend{Fleet: local, Name: "local-0"}); err != nil {
		t.Fatal(err)
	}
	daemons := map[string]*shardDaemon{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("http-%d", i)
		d := &shardDaemon{f: newShardFleet(t)}
		srv := httptest.NewServer(d)
		t.Cleanup(srv.Close)
		daemons[name] = d
		if err := rt.AddShard(name, &HTTPBackend{BaseURL: srv.URL}); err != nil {
			t.Fatal(err)
		}
	}

	ids, batch := routedTraffic(150, 23)
	accepted, err := rt.Observe(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != len(batch) {
		t.Fatalf("accepted %d of %d", accepted, len(batch))
	}

	stats, err := rt.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != len(ids) {
		t.Fatalf("merged stats across mixed shards: %d nodes, want %d", stats.Nodes, len(ids))
	}

	plans, err := rt.ScheduleBatch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		single, err := rt.Schedule(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, plans[i]), mustJSON(t, single)) {
			t.Fatalf("mixed-shard batch plan for %s differs from single fetch", id)
		}
	}

	// Strategy + profile round-trip through whichever transport owns
	// the node.
	inForce, err := rt.SetStrategy(ctx, ids[3], strategy.NameAT)
	if err != nil {
		t.Fatal(err)
	}
	if inForce != strategy.NameAT {
		t.Fatalf("SetStrategy over mixed shards returned %q", inForce)
	}
	prof, err := rt.Profile(ctx, ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if prof.Node != ids[3] || prof.Strategy != strategy.NameAT {
		t.Fatalf("profile over mixed shards: %+v", prof)
	}

	// PersistSnapshots reaches the HTTP shards' snapshot endpoints; the
	// local shard has no Persist hook, so the fan-out must surface it
	// while still persisting the others.
	err = rt.PersistSnapshots(ctx)
	if err == nil || !strings.Contains(err.Error(), "local-0") {
		t.Fatalf("expected the unpersistable shard named in the error, got %v", err)
	}
	for name, d := range daemons {
		if d.persisted != 1 {
			t.Fatalf("daemon %s persisted %d times, want 1", name, d.persisted)
		}
	}
}

func TestRouterSurfacesShardErrors(t *testing.T) {
	ctx := context.Background()
	rt := NewRouter(0, nil)
	d := &shardDaemon{f: newShardFleet(t), failWith: "disk on fire"}
	srv := httptest.NewServer(d)
	t.Cleanup(srv.Close)
	if err := rt.AddShard("sick", &HTTPBackend{BaseURL: srv.URL}); err != nil {
		t.Fatal(err)
	}

	_, err := rt.Observe(ctx, []fleet.Observation{{Node: "n", Time: 1, Length: 1, Uploaded: -1}})
	if err == nil || !strings.Contains(err.Error(), "sick") || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("observe error should name the shard and carry the daemon message, got %v", err)
	}
	if _, err := rt.ScheduleBatch(ctx, []string{"n"}); err == nil {
		t.Fatal("batch against a failing shard succeeded")
	}
	if _, err := rt.Stats(ctx); err == nil {
		t.Fatal("stats against a failing shard succeeded")
	}
	if err := rt.PersistSnapshots(ctx); err == nil {
		t.Fatal("snapshot fan-out against a failing shard succeeded")
	}
}

// TestHTTPBackendForwardsRequestID pins the router hop's request-ID
// propagation: every HTTPBackend call, the binary handoff calls
// included, carries the context's request ID as X-Request-ID, so a
// shard's spans share the ID of the router span that caused them.
func TestHTTPBackendForwardsRequestID(t *testing.T) {
	replies := map[string]string{
		"/v1/observe":        `{"received":1,"accepted":1}`,
		"/v1/schedule/n":     `{"node":"n","mechanism":"SNIP-AT"}`,
		"/v1/schedules":      `{"schedules":[{}]}`,
		"/v1/strategy/n":     `{"node":"n","strategy":"SNIP-RH"}`,
		"/v1/profile/n":      `{"node":"n"}`,
		"/v1/healthz":        `{}`,
		"/v1/snapshot":       `{}`,
		"/v1/nodes":          `{"nodes":[]}`,
		"/v1/migrate/export": `frames`,
		"/v1/migrate/import": `{"imported":0}`,
		"/v1/migrate/remove": `{"removed":0}`,
	}
	var mu sync.Mutex
	seen := map[string]string{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = r.Header.Get(wire.RequestIDHeader)
		mu.Unlock()
		_, _ = w.Write([]byte(replies[r.URL.Path]))
	}))
	t.Cleanup(srv.Close)
	b := &HTTPBackend{BaseURL: srv.URL}
	ctx := telemetry.WithRequestID(context.Background(), "req-42")
	calls := []error{
		second(b.Observe(ctx, []fleet.Observation{{Node: "n", Time: 1, Length: 1, Uploaded: -1}})),
		second(b.Schedule(ctx, "n")),
		second(b.ScheduleBatch(ctx, []string{"n"})),
		second(b.SetStrategy(ctx, "n", "rh")),
		second(b.Profile(ctx, "n")),
		second(b.Stats(ctx)),
		b.PersistSnapshot(ctx),
		second(b.ListNodes(ctx)),
		second(b.ExportNodes(ctx, []string{"n"})),
		second(b.ImportFrames(ctx, []byte("frames"))),
		second(b.RemoveNodes(ctx, []string{"n"})),
	}
	for i, err := range calls {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	for path := range replies {
		if got := seen[path]; got != "req-42" {
			t.Errorf("%s carried X-Request-ID %q, want req-42", path, got)
		}
	}
}

// second returns the error of a two-valued call.
func second[T any](_ T, err error) error { return err }

// TestHTTPBackendStatusError checks a shard's non-2xx reply surfaces as
// a *StatusError carrying the shard's status and its own message, with
// the error text naming the call.
func TestHTTPBackendStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: "strategy: unknown"})
	}))
	t.Cleanup(srv.Close)
	_, err := (&HTTPBackend{BaseURL: srv.URL}).SetStrategy(context.Background(), "n", "bogus")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest || se.Message != "strategy: unknown" {
		t.Fatalf("error %v (%T), want a 400 StatusError with the shard's message", err, err)
	}
	if want := "shardroute: POST /v1/strategy/n: HTTP 400: strategy: unknown"; err.Error() != want {
		t.Fatalf("error text %q, want %q", err, want)
	}
}

func TestHTTPBackendRejectsShortBatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"schedules":[]}`)) // wrong cardinality
	}))
	t.Cleanup(srv.Close)
	b := &HTTPBackend{BaseURL: srv.URL}
	_, err := b.ScheduleBatch(context.Background(), []string{"a", "b"})
	if err == nil || !strings.Contains(err.Error(), "0 schedules for 2 nodes") {
		t.Fatalf("cardinality mismatch not caught: %v", err)
	}
}

// TestHTTPBackendReusesConnection pins the router hop's connection
// reuse: sequential Observe and ScheduleBatch calls ride one keep-alive
// TCP connection, counted with the server's ConnState hook. Small
// replies carry a Content-Length and decode to EOF on their own; a
// ScheduleBatch reply over 100 nodes is chunked, and the JSON decoder
// stops before its terminator, so only draining the body to EOF lets
// the transport park the connection (without it, every such call
// dialled anew). A backend with no Client shares one package-level
// default instead of building one per call.
func TestHTTPBackendReusesConnection(t *testing.T) {
	if (&HTTPBackend{}).client() != (&HTTPBackend{}).client() {
		t.Fatal("backends without a Client do not share the default client")
	}
	for _, tc := range []struct{ nodes, rounds int }{{4, 200}, {100, 20}} {
		var opened atomic.Int64
		srv := httptest.NewUnstartedServer(&shardDaemon{f: newShardFleet(t)})
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				opened.Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)

		b := &HTTPBackend{BaseURL: srv.URL}
		ctx := context.Background()
		ids := make([]string, tc.nodes)
		for i := range ids {
			ids[i] = fmt.Sprintf("n%d", i)
		}
		for i := 0; i < tc.rounds; i++ {
			batch := make([]fleet.Observation, len(ids))
			for j, id := range ids {
				batch[j] = fleet.Observation{Node: id, Time: float64(i*len(ids)+j) * 60, Length: 2, Uploaded: -1}
			}
			if _, err := b.Observe(ctx, batch); err != nil {
				t.Fatal(err)
			}
			if _, err := b.ScheduleBatch(ctx, ids); err != nil {
				t.Fatal(err)
			}
		}
		if n := opened.Load(); n != 1 {
			t.Errorf("%d sequential calls over %d nodes opened %d TCP connections, want 1", 2*tc.rounds, tc.nodes, n)
		}
	}
}

func TestRouterCollectMetrics(t *testing.T) {
	rt, _ := newLocalRouter(t, 2)
	ctx := context.Background()
	_, batch := routedTraffic(40, 5)
	if _, err := rt.Observe(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Schedule(ctx, "node-000000"); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	reg.AddFunc(rt.Collect)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"rushprobe_router_shards 2",
		`rushprobe_router_routed_observations{shard="shard-0"}`,
		`rushprobe_router_routed_observations{shard="shard-1"}`,
		`rushprobe_router_routed_schedules{shard=`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRouterMidRequestRemoval covers the race where a shard leaves the
// ring between routing and dispatch: the router must fail loudly, not
// panic or silently drop.
func TestRouterMidRequestRemoval(t *testing.T) {
	rt, _ := newLocalRouter(t, 2)
	ctx := context.Background()
	_, batch := routedTraffic(50, 9)
	if _, err := rt.Observe(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if err := rt.RemoveShard("shard-1"); err != nil {
		t.Fatal(err)
	}
	// Every request still answers (shard-0 absorbs the keys), but nodes
	// that lived on shard-1 now read as fresh bootstrap nodes.
	stats, err := rt.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes == 0 {
		t.Fatal("all state vanished after removing one of two shards")
	}
	if got := rt.Shards(); len(got) != 1 || got[0] != "shard-0" {
		t.Fatalf("Shards() = %v after removal", got)
	}
	if _, err := rt.Schedule(ctx, "node-000001"); err != nil {
		t.Fatal(err)
	}

	var unknown error
	if _, err := rt.Observe(ctx, nil); err != nil {
		unknown = err
	}
	if unknown != nil {
		t.Fatalf("empty batch after removal errored: %v", unknown)
	}
}
