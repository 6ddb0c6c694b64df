package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rushprobe"
	"rushprobe/internal/wire"
)

// migrationTopology is a routed topology under test: shard daemons
// (each with its own snapshot log) behind one router daemon.
type migrationTopology struct {
	routerURL string
	shardURLs []string
	fleets    []*rushprobe.Fleet
	servers   []*server
	dir       string
}

func newMigrationTopology(t *testing.T, shards int) *migrationTopology {
	t.Helper()
	top := &migrationTopology{dir: t.TempDir()}
	for i := 0; i < shards; i++ {
		top.addShard(t, fmt.Sprintf("shard-%d", i))
	}
	rt, err := buildRouter(strings.Join(top.shardURLs, ","))
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(newRoutingServer(rt, nil))
	t.Cleanup(router.Close)
	top.routerURL = router.URL
	return top
}

// addShard starts one more shard daemon (NOT attached to the ring) and
// returns its base URL.
func (top *migrationTopology) addShard(t *testing.T, name string) string {
	t.Helper()
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t)
	srv := newServer(f)
	st := newSnaplogStore(f, filepath.Join(top.dir, name+".snaplog"), logger)
	if err := st.compact(); err != nil {
		t.Fatal(err)
	}
	srv.snaplog = st
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	top.fleets = append(top.fleets, f)
	top.servers = append(top.servers, srv)
	top.shardURLs = append(top.shardURLs, ts.URL)
	return ts.URL
}

// routerSchedules fetches each node's schedule through the router,
// keyed by ID — the byte-identity comparator.
func routerSchedules(t *testing.T, routerURL string, ids []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(ids))
	for _, id := range ids {
		resp, err := http.Get(routerURL + "/v1/schedule/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/schedule/%s: HTTP %d: %s", id, resp.StatusCode, body)
		}
		out[id] = body
	}
	return out
}

func postRing(t *testing.T, routerURL string, add, remove []string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(wire.RingChangeRequest{Add: add, Remove: remove})
	if err != nil {
		t.Fatal(err)
	}
	resp := mustPost(t, routerURL+"/v1/ring", body)
	return resp, readBody(t, resp)
}

// TestRebalancePreservesSchedules is the tentpole acceptance test: a
// routed 2-shard topology grows to 3 through POST /v1/ring while live
// load runs, and every pre-existing node's schedule comes back
// byte-identical afterwards — the handoff moved learned state, nothing
// relearned.
func TestRebalancePreservesSchedules(t *testing.T) {
	top := newMigrationTopology(t, 2)
	ids := ingestNodes(t, top.routerURL, 40)
	want := routerSchedules(t, top.routerURL, ids)
	nodesBefore := 0
	for _, f := range top.fleets {
		nodesBefore += f.Stats().Nodes
	}
	if nodesBefore != len(ids) {
		t.Fatalf("setup: shards hold %d nodes, ingested %d", nodesBefore, len(ids))
	}

	// Live load during the rebalance: observations to fresh nodes (a
	// pre-existing node's schedule may legitimately change if it learns
	// more) and schedule reads across the pre-existing set.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(wire.ObserveRequest{Observations: []rushprobe.Observation{
					{Node: fmt.Sprintf("live-%d-%d", g, i%13), Time: float64(i%86400) + 1, Length: 1.5, Uploaded: -1},
				}})
				or := mustPost(t, top.routerURL+"/v1/observe", body)
				if or.StatusCode != http.StatusOK {
					t.Errorf("live observe during rebalance: HTTP %d: %s", or.StatusCode, readBody(t, or))
					return
				}
				readBody(t, or)
				sr, err := http.Get(top.routerURL + "/v1/schedule/" + ids[(g*7+i)%len(ids)])
				if err != nil {
					t.Errorf("live schedule read during rebalance: %v", err)
					return
				}
				if sr.StatusCode != http.StatusOK {
					t.Errorf("live schedule read during rebalance: HTTP %d", sr.StatusCode)
					readBody(t, sr)
					return
				}
				readBody(t, sr)
			}
		}(g)
	}

	thirdURL := top.addShard(t, "shard-2")
	resp, body := postRing(t, top.routerURL, []string{thirdURL}, nil)
	close(stop)
	wg.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/ring: HTTP %d: %s", resp.StatusCode, body)
	}
	var report wire.RebalanceReport
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Shards) != 3 || report.Moved == 0 || len(report.CleanupErrors) != 0 {
		t.Fatalf("rebalance report %s", body)
	}

	// Membership reads back through GET /v1/ring.
	rresp, err := http.Get(top.routerURL + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	var ring wire.RingResponse
	if err := json.Unmarshal(readBody(t, rresp), &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Shards) != 3 {
		t.Fatalf("GET /v1/ring after grow: %v", ring.Shards)
	}

	// The acceptance bar: zero relearns — byte-identical schedules for
	// every pre-existing node.
	for id, b := range routerSchedules(t, top.routerURL, ids) {
		if !bytes.Equal(b, want[id]) {
			t.Fatalf("schedule for %s changed across rebalance:\nbefore %s\nafter  %s", id, want[id], b)
		}
	}
	// The new shard took real state and the old owners gave it up.
	// (Stats().Nodes would overcount: live-load nodes land on shard-2
	// after the flip too, so count pre-existing IDs only. report.Moved
	// may exceed that count — a live-load node observed before the
	// rebalance enumerated its keys gets migrated like any other — so
	// the pre-existing movers are a lower bound, not an equality.)
	var movedIDs []string
	for _, id := range ids {
		if p, err := top.fleets[2].Profile(id); err == nil && p.Observations > 0 {
			movedIDs = append(movedIDs, id)
		}
	}
	if len(movedIDs) == 0 || len(movedIDs) > report.Moved {
		t.Fatalf("shard-2 holds %d pre-existing nodes, report says %d moved", len(movedIDs), report.Moved)
	}
	preExisting := 0
	for _, f := range top.fleets[:2] {
		for _, id := range ids {
			if p, err := f.Profile(id); err == nil && p.Observations > 0 {
				preExisting++
			}
		}
	}
	if preExisting+len(movedIDs) < len(ids) {
		t.Fatalf("lost nodes: %d still on old shards, %d moved, ingested %d", preExisting, len(movedIDs), len(ids))
	}

	// The import reached shard-2's snapshot log before the handoff
	// acknowledged: a fresh fleet restored from that log serves the
	// moved nodes' schedules identically — a crash right after the
	// commit loses nothing.
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	replay := newTestFleet(t)
	sb := newSnaplogStore(replay, filepath.Join(top.dir, "shard-2.snaplog"), logger)
	if restored, err := sb.restore(); err != nil || !restored {
		t.Fatalf("restore shard-2 log: restored=%v err=%v", restored, err)
	}
	if got, wantLive := schedulesOf(t, replay, movedIDs), schedulesOf(t, top.fleets[2], movedIDs); !bytes.Equal(got, wantLive) {
		t.Fatal("shard-2's log does not replay to its live post-import schedules")
	}
}

// killableShard fronts a real shard daemon but can be told to kill the
// connection mid-import — the network shape of a daemon dying (kill
// -9) in the middle of a handoff.
type killableShard struct {
	inner       http.Handler
	killImports atomic.Bool
}

func (k *killableShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.killImports.Load() && r.URL.Path == "/v1/migrate/import" {
		// Swallow part of the body, then abort the connection without a
		// response — exactly what the exporter sees when the importing
		// daemon is killed mid-handoff.
		buf := make([]byte, 1024)
		_, _ = r.Body.Read(buf)
		panic(http.ErrAbortHandler)
	}
	k.inner.ServeHTTP(w, r)
}

// TestRebalanceCrashMidHandoffConverges injects a crash into the
// import half of a handoff: the ring must not flip (old owners stay
// authoritative and keep serving identical schedules), and re-running
// the same membership change once the new daemon is back converges.
func TestRebalanceCrashMidHandoffConverges(t *testing.T) {
	top := newMigrationTopology(t, 2)
	ids := ingestNodes(t, top.routerURL, 30)
	want := routerSchedules(t, top.routerURL, ids)

	// The third daemon joins through a killable front, so the router
	// dials the front and the test can sever connections mid-import.
	top.addShard(t, "shard-2")
	kill := &killableShard{inner: top.servers[2]}
	kill.killImports.Store(true)
	proxy := httptest.NewServer(kill)
	t.Cleanup(proxy.Close)

	resp, body := postRing(t, top.routerURL, []string{proxy.URL}, nil)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("rebalance against a dying importer succeeded: %s", body)
	}
	if !strings.Contains(string(body), "still authoritative") {
		t.Fatalf("abort should name the authoritative shard: %s", body)
	}
	// Commit point not reached: membership unchanged, old owners serve
	// byte-identical schedules, the crashed shard admitted nothing.
	rresp, err := http.Get(top.routerURL + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	var ring wire.RingResponse
	if err := json.Unmarshal(readBody(t, rresp), &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Shards) != 2 {
		t.Fatalf("failed rebalance changed membership: %v", ring.Shards)
	}
	for id, b := range routerSchedules(t, top.routerURL, ids) {
		if !bytes.Equal(b, want[id]) {
			t.Fatalf("schedule for %s changed after an aborted handoff", id)
		}
	}
	if n := top.fleets[2].Stats().Nodes; n != 0 {
		t.Fatalf("crashed importer holds %d nodes", n)
	}

	// The daemon comes back; the same change re-runs and converges.
	kill.killImports.Store(false)
	resp, body = postRing(t, top.routerURL, []string{proxy.URL}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("converging re-run failed: HTTP %d: %s", resp.StatusCode, body)
	}
	if n := top.fleets[2].Stats().Nodes; n == 0 {
		t.Fatal("re-run moved nothing onto the recovered shard")
	}
	for id, b := range routerSchedules(t, top.routerURL, ids) {
		if !bytes.Equal(b, want[id]) {
			t.Fatalf("schedule for %s changed after the converging re-run", id)
		}
	}
}

// escapeNodeForURL mirrors the client-side escaping HTTPBackend uses:
// percent-escape the ID, with dot segments forced into escapes so the
// mux's path cleaner cannot rewrite them into a different route.
func escapeNodeForURL(node string) string {
	switch node {
	case ".":
		return "%2E"
	case "..":
		return "%2E%2E"
	}
	return url.PathEscape(node)
}

// TestRoutedAwkwardNodeIDsRoundTrip drives node IDs full of URL
// hazards — slashes, percent signs, spaces, dot segments — through the
// full chain: client → router (unescape) → HTTPBackend (re-escape) →
// shard daemon (unescape). Every hop must hand the next one the exact
// original ID.
func TestRoutedAwkwardNodeIDsRoundTrip(t *testing.T) {
	top := newMigrationTopology(t, 2)
	awkward := []string{"bus/42%full", "..", "a b+c", "tram#7?x=1", "%2F"}

	var batch []rushprobe.Observation
	for _, id := range awkward {
		for _, o := range traceObservations(t, "", 3, 4) {
			o.Node = id
			batch = append(batch, o)
		}
	}
	body, err := json.Marshal(wire.ObserveRequest{Observations: batch})
	if err != nil {
		t.Fatal(err)
	}
	resp := mustPost(t, top.routerURL+"/v1/observe", body)
	var or wire.ObserveResponse
	if err := json.Unmarshal(readBody(t, resp), &or); err != nil {
		t.Fatal(err)
	}
	if or.Accepted != len(batch) {
		t.Fatalf("accepted %d of %d observations for awkward IDs", or.Accepted, len(batch))
	}

	for _, id := range awkward {
		resp, err := http.Get(top.routerURL + "/v1/schedule/" + escapeNodeForURL(id))
		if err != nil {
			t.Fatal(err)
		}
		b := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET schedule for %q: HTTP %d: %s", id, resp.StatusCode, b)
		}
		var sched wire.ScheduleResponse
		if err := json.Unmarshal(b, &sched); err != nil {
			t.Fatal(err)
		}
		if sched.Node != id {
			t.Fatalf("schedule served for %q, asked for %q", sched.Node, id)
		}
		// The observations must have landed on the SAME identity the
		// schedule read resolves: the profile shows them.
		presp, err := http.Get(top.routerURL + "/v1/profile/" + escapeNodeForURL(id))
		if err != nil {
			t.Fatal(err)
		}
		pb := readBody(t, presp)
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("GET profile for %q: HTTP %d: %s", id, presp.StatusCode, pb)
		}
		var prof rushprobe.NodeProfile
		if err := json.Unmarshal(pb, &prof); err != nil {
			t.Fatal(err)
		}
		if prof.Observations == 0 {
			t.Fatalf("profile for %q shows no observations: identity split across the chain", id)
		}
	}

	// A malformed escape must be rejected, never resolved to a
	// different node. Go's client refuses to even send such a URL, so
	// speak raw HTTP to prove the server side.
	conn, err := net.Dial("tcp", strings.TrimPrefix(top.routerURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /v1/schedule/bad%%zz HTTP/1.0\r\nHost: router\r\n\r\n")
	raw, err := io.ReadAll(conn)
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "400") {
		t.Fatalf("malformed escape not rejected:\n%s", raw)
	}

	// Same round trip straight against a shard daemon (no router).
	direct, err := http.Get(top.shardURLs[0] + "/v1/schedule/" + escapeNodeForURL("bus/42%full"))
	if err != nil {
		t.Fatal(err)
	}
	db := readBody(t, direct)
	if direct.StatusCode != http.StatusOK {
		t.Fatalf("direct shard GET: HTTP %d: %s", direct.StatusCode, db)
	}
}

// TestRouterHealthzReportsPartialShardCoverage pins the healthz
// partiality contract: with a shard down, status degrades and
// shardsReporting < shardsTotal flags the merged counters as a partial
// view, never fleet truth.
func TestRouterHealthzReportsPartialShardCoverage(t *testing.T) {
	up := httptest.NewServer(newServer(newTestFleet(t)))
	t.Cleanup(up.Close)
	down := httptest.NewServer(http.NotFoundHandler())
	downURL := down.URL
	down.Close() // nothing listens here anymore

	rt, err := buildRouter(up.URL + "," + downURL)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(newRoutingServer(rt, nil))
	t.Cleanup(router.Close)

	resp, err := http.Get(router.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr wire.RouterHealthResponse
	if err := json.Unmarshal(readBody(t, resp), &hr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(hr.Status, "degraded") {
		t.Fatalf("healthz status %q with a shard down", hr.Status)
	}
	if hr.ShardsTotal != 2 || hr.ShardsReporting != 1 {
		t.Fatalf("healthz shard coverage %d/%d, want 1/2", hr.ShardsReporting, hr.ShardsTotal)
	}
	if len(hr.PerShard) != 1 {
		t.Fatalf("perShard should list only reporting shards, got %v", hr.PerShard)
	}
}
