package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rushprobe"
	"rushprobe/internal/wire"
)

// rawRequest sends one request over a fresh connection, target written
// verbatim (Go's client refuses to send a malformed escape), and
// returns the status and body.
func rawRequest(t *testing.T, base, method, target, body string) (int, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		method, target, len(body), body)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, readBody(t, resp)
}

// startRouter serves a -route mode server over the shard URLs.
func startRouter(t *testing.T, tel *rushprobe.Telemetry, shardURLs ...string) (*httptest.Server, *server) {
	t.Helper()
	rt, err := buildRouter(strings.Join(shardURLs, ","))
	if err != nil {
		t.Fatal(err)
	}
	s := newRoutingServer(rt, tel)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s
}

// startShard serves a shard-mode daemon over f.
func startShard(t *testing.T, f *rushprobe.Fleet) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(f))
	t.Cleanup(ts.Close)
	return ts
}

// TestBothModesAnswerAlike is the /v1 contract over both modes: a
// daemon and a router in front of it give byte-identical status and
// body for client errors, whether the router answers them itself (bad
// method, path or body) or passes the shard's answer through (an
// unknown strategy).
func TestBothModesAnswerAlike(t *testing.T) {
	daemon := startShard(t, newTestFleet(t))
	router, _ := startRouter(t, nil, daemon.URL)
	cases := []struct {
		name, method, target, body string
		status                     int
	}{
		{"observe wrong method", "GET", "/v1/observe", "", http.StatusMethodNotAllowed},
		{"schedule wrong method", "POST", "/v1/schedule/n1", "", http.StatusMethodNotAllowed},
		{"schedules wrong method", "GET", "/v1/schedules", "", http.StatusMethodNotAllowed},
		{"strategy wrong method", "GET", "/v1/strategy/n1", "", http.StatusMethodNotAllowed},
		{"snapshot wrong method", "GET", "/v1/snapshot", "", http.StatusMethodNotAllowed},
		{"schedule missing node", "GET", "/v1/schedule/", "", http.StatusBadRequest},
		{"profile missing node", "GET", "/v1/profile/", "", http.StatusBadRequest},
		{"strategy missing node", "POST", "/v1/strategy/", `{"strategy":"rh"}`, http.StatusBadRequest},
		{"malformed escape", "GET", "/v1/schedule/bad%zz", "", http.StatusBadRequest},
		{"schedules bad JSON", "POST", "/v1/schedules", `{not json`, http.StatusBadRequest},
		{"strategy bad JSON", "POST", "/v1/strategy/n1", `{not json`, http.StatusBadRequest},
		{"unknown strategy", "POST", "/v1/strategy/n1", `{"strategy":"bogus"}`, http.StatusBadRequest},
		{"unknown path", "GET", "/v1/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dStatus, dBody := rawRequest(t, daemon.URL, tc.method, tc.target, tc.body)
			rStatus, rBody := rawRequest(t, router.URL, tc.method, tc.target, tc.body)
			if dStatus != tc.status {
				t.Fatalf("daemon: HTTP %d, want %d: %s", dStatus, tc.status, dBody)
			}
			if rStatus != dStatus || !bytes.Equal(rBody, dBody) {
				t.Fatalf("router answered HTTP %d %q, daemon HTTP %d %q", rStatus, rBody, dStatus, dBody)
			}
		})
	}
}

// TestRouterOfRouters fronts two -route servers, each over two shard
// daemons, with a third -route server. Router is a Backend's serving
// half, so the outer router treats the inner ones as shards: batch
// schedules come back byte-identical to direct shard reads, healthz
// merges every shard's counters, and a client error deep in the tree
// reaches the caller as the single daemon's 400.
func TestRouterOfRouters(t *testing.T) {
	var fleets []*rushprobe.Fleet
	var shardURLs, innerURLs []string
	for i := 0; i < 2; i++ {
		var urls []string
		for j := 0; j < 2; j++ {
			f := newTestFleet(t)
			fleets = append(fleets, f)
			urls = append(urls, startShard(t, f).URL)
		}
		shardURLs = append(shardURLs, urls...)
		inner, _ := startRouter(t, nil, urls...)
		innerURLs = append(innerURLs, inner.URL)
	}
	outer, _ := startRouter(t, nil, innerURLs...)
	ids := ingestNodes(t, outer.URL, 40)
	for i, f := range fleets {
		if f.Stats().Nodes == 0 {
			t.Fatalf("shard %d received no nodes", i)
		}
	}

	// Batch schedules through both router layers equal the plans read
	// straight off each node's shard daemon.
	owner := map[string]string{}
	for i, f := range fleets {
		for _, id := range f.NodeIDs() {
			owner[id] = shardURLs[i]
		}
	}
	want := wire.SchedulesResponse{Schedules: make([]*rushprobe.Schedule, len(ids))}
	for i, id := range ids {
		resp, err := http.Get(owner[id] + "/v1/schedule/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var one wire.ScheduleResponse
		if err := json.Unmarshal(readBody(t, resp), &one); err != nil {
			t.Fatal(err)
		}
		want.Schedules[i] = one.Schedule
	}
	var wantBody bytes.Buffer
	if err := json.NewEncoder(&wantBody).Encode(want); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(wire.NodeList{Nodes: ids})
	resp := mustPost(t, outer.URL+"/v1/schedules", body)
	if got := readBody(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(got, wantBody.Bytes()) {
		t.Fatalf("outer /v1/schedules: HTTP %d, body differs from direct shard reads:\n got %s\nwant %s", resp.StatusCode, got, wantBody.Bytes())
	}

	// healthz merges the counters of every shard, two hops down.
	var total rushprobe.FleetStats
	for _, f := range fleets {
		st := f.Stats()
		total.Nodes += st.Nodes
		total.Observations += st.Observations
	}
	hresp, err := http.Get(outer.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr wire.RouterHealthResponse
	if err := json.Unmarshal(readBody(t, hresp), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.ShardsTotal != 2 || hr.ShardsReporting != 2 ||
		hr.Nodes != len(ids) || hr.Nodes != total.Nodes || hr.Observations != total.Observations {
		t.Fatalf("outer healthz %+v, want ok over 2 inner routers with %d nodes and %d observations", hr, total.Nodes, total.Observations)
	}

	// An unknown strategy is the shard's 400, passed through both hops
	// with the single daemon's message.
	const bogus = `{"strategy":"bogus"}`
	dStatus, dBody := rawRequest(t, owner[ids[0]], "POST", "/v1/strategy/"+ids[0], bogus)
	oStatus, oBody := rawRequest(t, outer.URL, "POST", "/v1/strategy/"+ids[0], bogus)
	if dStatus != http.StatusBadRequest || oStatus != dStatus || !bytes.Equal(oBody, dBody) {
		t.Fatalf("unknown strategy: outer router HTTP %d %q, shard daemon HTTP %d %q", oStatus, oBody, dStatus, dBody)
	}
}

// tracesFor returns the stages /debug/traces at base recorded under the
// request ID, leaving out the trace reads themselves: minted IDs are a
// per-process sequence, so a shard's own reads can reuse a router's ID.
func tracesFor(t *testing.T, base, id string) map[string]bool {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces?n=100")
	if err != nil {
		t.Fatal(err)
	}
	var tr tracesResponse
	if err := json.Unmarshal(readBody(t, resp), &tr); err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.Request == id && sp.Detail != "GET /debug/traces" {
			stages[sp.Stage] = true
		}
	}
	return stages
}

// TestRequestIDCrossesRouterHop sends one routed schedule request and
// finds its ID in the router's trace ring and in the owning shard's,
// where the fleet's schedule stage carries it too; the other shard
// never sees it. A well-formed caller ID is adopted end to end, and a
// malformed one is replaced by a minted ID.
func TestRequestIDCrossesRouterHop(t *testing.T) {
	var shardURLs []string
	for i := 0; i < 2; i++ {
		shardURLs = append(shardURLs, startShard(t, newTelemeteredFleet(t, rushprobe.TelemetryConfig{})).URL)
	}
	router, rs := startRouter(t, rushprobe.NewTelemetry(rushprobe.TelemetryConfig{}), shardURLs...)

	const node = "rid-node"
	owner, _ := rs.router.Owner(node)
	for _, tc := range []struct {
		name, sent string
		adopted    bool
	}{
		{"minted", "", false},
		{"adopted", "client-7.a:b_c-d", true},
		{"malformed", "bad id!", false},
		{"too long", strings.Repeat("x", 65), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, router.URL+"/v1/schedule/"+node, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.sent != "" {
				req.Header.Set(wire.RequestIDHeader, tc.sent)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
				t.Fatalf("routed schedule: HTTP %d: %s", resp.StatusCode, body)
			}
			id := resp.Header.Get(wire.RequestIDHeader)
			if tc.adopted && id != tc.sent {
				t.Fatalf("X-Request-ID %q, want the caller's %q", id, tc.sent)
			}
			if !tc.adopted && !strings.HasPrefix(id, "req-") {
				t.Fatalf("X-Request-ID %q, want a minted req-N", id)
			}
			if stages := tracesFor(t, router.URL, id); !stages["http"] {
				t.Fatalf("router trace ring has no http span for %s: %v", id, stages)
			}
			for _, u := range shardURLs {
				stages := tracesFor(t, u, id)
				if u == owner && (!stages["http"] || !stages["schedule"]) {
					t.Fatalf("owning shard has no http+schedule spans for %s: %v", id, stages)
				}
				if u != owner && len(stages) > 0 {
					t.Fatalf("shard %s that does not own %s recorded %v for %s", u, node, stages, id)
				}
			}
		})
	}
}

// TestOpsMuxInRouterMode checks the ops listener serves a router:
// /metrics with the routing families, the trace ring and pprof.
func TestOpsMuxInRouterMode(t *testing.T) {
	shard := startShard(t, newTestFleet(t))
	_, rs := startRouter(t, nil, shard.URL)
	ops := httptest.NewServer(newOpsMux(rs))
	defer ops.Close()

	fams, err := scrapeMetrics(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rushprobe_router_shards", "rushprobe_router_routed_observations", "rushprobe_router_routed_schedules"} {
		if _, ok := fams[name]; !ok {
			t.Errorf("router ops /metrics missing %s", name)
		}
	}
	var tr tracesResponse
	if err := getJSON(ops.URL+"/debug/traces", &tr); err != nil {
		t.Fatalf("router ops /debug/traces: %v", err)
	}
	resp, err := http.Get(ops.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router ops /debug/pprof/: HTTP %d", resp.StatusCode)
	}
}
