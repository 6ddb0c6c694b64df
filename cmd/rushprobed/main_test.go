package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rushprobe"
	"rushprobe/internal/contact"
	"rushprobe/internal/rng"
	"rushprobe/internal/scenario"
	"rushprobe/internal/simtime"
	"rushprobe/internal/wire"
)

// newSnaplogServer starts a daemon server over f the way run() does
// with -snaplog path: restore from the log, then compact it.
func newSnaplogServer(t *testing.T, f *rushprobe.Fleet, path string) *server {
	t.Helper()
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(f)
	if err := s.openSnaplog(path, logger); err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestFleet(t *testing.T) *rushprobe.Fleet {
	t.Helper()
	f, err := rushprobe.NewFleet(rushprobe.Roadside(rushprobe.WithZetaTarget(24)))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// traceObservations generates the road-side contact trace for one seed
// and labels it with the node ID.
func traceObservations(t *testing.T, node string, seed uint64, days int) []rushprobe.Observation {
	t.Helper()
	gen, err := contact.NewGenerator(scenario.Roadside(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	contacts := gen.GenerateUntil(simtime.Instant(simtime.Duration(days) * simtime.Day))
	obs := make([]rushprobe.Observation, len(contacts))
	for i, c := range contacts {
		obs[i] = rushprobe.Observation{Node: node, Time: c.Start.Seconds(), Length: c.Length.Seconds(), Uploaded: -1}
	}
	return obs
}

func mustPost(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEndToEndThousandNodesRestartFromSnapshot is the daemon's
// acceptance test: ingest tracegen-style traces for 1000 nodes over
// HTTP into a daemon backed by a snapshot log, fetch every schedule,
// snapshot, restart a fresh daemon from the log, and verify it serves
// byte-identical schedules.
func TestEndToEndThousandNodesRestartFromSnapshot(t *testing.T) {
	const (
		nodes         = 1000
		distinctSeeds = 50
		days          = 4
		batchNodes    = 25 // nodes per observe request
	)
	snapPath := filepath.Join(t.TempDir(), "fleet.snaplog")
	s1 := newSnaplogServer(t, newTestFleet(t), snapPath)
	srv1 := httptest.NewServer(s1)
	defer srv1.Close()

	// Generate one trace per distinct seed and fan each out to
	// nodes/distinctSeeds node IDs — realistic (distinct nodes share
	// mobility patterns) and it exercises cache sharing at scale.
	seedObs := make([][]rushprobe.Observation, distinctSeeds)
	for s := range seedObs {
		seedObs[s] = traceObservations(t, "", uint64(s+1), days)
	}
	var batch []rushprobe.Observation
	for n := 0; n < nodes; n++ {
		id := fmt.Sprintf("node-%04d", n)
		for _, o := range seedObs[n%distinctSeeds] {
			o.Node = id
			batch = append(batch, o)
		}
		if (n+1)%batchNodes == 0 {
			body, err := json.Marshal(wire.ObserveRequest{Observations: batch})
			if err != nil {
				t.Fatal(err)
			}
			resp := mustPost(t, srv1.URL+"/v1/observe", body)
			var or wire.ObserveResponse
			if err := json.Unmarshal(readBody(t, resp), &or); err != nil {
				t.Fatal(err)
			}
			if or.Accepted != len(batch) {
				t.Fatalf("batch ending at node %d: accepted %d of %d", n, or.Accepted, len(batch))
			}
			batch = batch[:0]
		}
	}

	schedules := make(map[string]string, nodes)
	learned := 0
	for n := 0; n < nodes; n++ {
		id := fmt.Sprintf("node-%04d", n)
		resp, err := http.Get(srv1.URL + "/v1/schedule/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule %s: HTTP %d: %s", id, resp.StatusCode, body)
		}
		schedules[id] = string(body)
		var sr scheduleResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("schedule %s: %v", id, err)
		}
		if sr.Mechanism == string(rushprobe.SNIPOPT) {
			learned++
		}
	}
	// Four days of observations complete three epochs — every node must
	// have graduated from bootstrap.
	if learned != nodes {
		t.Fatalf("%d of %d nodes serve learned plans", learned, nodes)
	}

	var hr healthResponse
	resp, err := http.Get(srv1.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readBody(t, resp), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Nodes != nodes {
		t.Fatalf("healthz nodes = %d, want %d", hr.Nodes, nodes)
	}
	// The plan cache must collapse the fleet to (at most) one solve per
	// distinct mobility pattern.
	if hr.PlanSolves > distinctSeeds {
		t.Fatalf("plan solves = %d, want <= %d distinct patterns", hr.PlanSolves, distinctSeeds)
	}
	if wantHits := int64(nodes) - hr.PlanSolves; hr.PlanCacheHits < wantHits {
		t.Fatalf("plan cache hits = %d, want >= %d", hr.PlanCacheHits, wantHits)
	}

	// Snapshot over HTTP, then "restart": a fresh daemon restored from
	// the log must serve byte-identical schedules.
	resp = mustPost(t, srv1.URL+"/v1/snapshot", nil)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: HTTP %d: %s", resp.StatusCode, body)
	}
	s2 := newSnaplogServer(t, newTestFleet(t), snapPath)
	if got := s2.fleet.Stats().Nodes; got != nodes {
		t.Fatalf("restarted daemon restored %d nodes, want %d", got, nodes)
	}
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	for id, want := range schedules {
		resp, err := http.Get(srv2.URL + "/v1/schedule/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(readBody(t, resp)); got != want {
			t.Fatalf("node %s schedule changed across restart:\n got %s\nwant %s", id, got, want)
		}
	}
}

func TestColdNodeScheduleNever500s(t *testing.T) {
	srv := httptest.NewServer(newServer(newTestFleet(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/schedule/brand-new-node")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold node: HTTP %d: %s", resp.StatusCode, body)
	}
	var sr scheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Mechanism != string(rushprobe.SNIPAT) {
		t.Fatalf("cold node mechanism = %s, want bootstrap %s", sr.Mechanism, rushprobe.SNIPAT)
	}
	if len(sr.Duty) != 24 {
		t.Fatalf("cold node duty has %d slots, want 24", len(sr.Duty))
	}
}

// TestUnknownRouteReturnsJSONError is the regression test for the
// empty-body 404: every unrouted path must answer with the API's JSON
// error payload, not the mux's default text/plain page.
func TestUnknownRouteReturnsJSONError(t *testing.T) {
	srv := httptest.NewServer(newServer(newTestFleet(t)))
	defer srv.Close()
	for _, path := range []string{"/v1/nodes/n1", "/v1/schedul/n1", "/nope", "/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: Content-Type %q, want application/json", path, ct)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("GET %s: body %q is not the JSON error shape: %v", path, body, err)
		}
		if er.Error == "" {
			t.Fatalf("GET %s: empty error message", path)
		}
	}
}

// TestStrategyEndpoint covers per-node strategy selection over HTTP:
// setting an alias canonicalizes it, the served schedule switches plan
// family, unknown strategies 400, and /v1/strategies lists the
// registry.
func TestStrategyEndpoint(t *testing.T) {
	f := newTestFleet(t)
	srv := httptest.NewServer(newServer(f))
	defer srv.Close()

	// Past bootstrap so learned plans are served (default 3 epochs).
	obs := traceObservations(t, "n1", 3, 5)
	body, err := json.Marshal(wire.ObserveRequest{Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	if resp := mustPost(t, srv.URL+"/v1/observe", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: HTTP %d", resp.StatusCode)
	} else {
		readBody(t, resp)
	}

	resp := mustPost(t, srv.URL+"/v1/strategy/n1", []byte(`{"strategy":"rh"}`))
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("set strategy: HTTP %d: %s", resp.StatusCode, data)
	}
	var sr strategyResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Node != "n1" || sr.Strategy != string(rushprobe.SNIPRH) {
		t.Fatalf("set strategy = %+v, want n1 serving %s", sr, rushprobe.SNIPRH)
	}

	schedResp, err := http.Get(srv.URL + "/v1/schedule/n1")
	if err != nil {
		t.Fatal(err)
	}
	var sched scheduleResponse
	if err := json.Unmarshal(readBody(t, schedResp), &sched); err != nil {
		t.Fatal(err)
	}
	if sched.Mechanism != string(rushprobe.SNIPRH) {
		t.Fatalf("schedule after override serves %s, want %s", sched.Mechanism, rushprobe.SNIPRH)
	}

	if resp := mustPost(t, srv.URL+"/v1/strategy/n1", []byte(`{"strategy":"SNIP-BOGUS"}`)); resp.StatusCode != http.StatusBadRequest {
		readBody(t, resp)
		t.Fatalf("unknown strategy: HTTP %d, want 400", resp.StatusCode)
	} else {
		readBody(t, resp)
	}
	if resp := mustPost(t, srv.URL+"/v1/strategy/", []byte(`{"strategy":"rh"}`)); resp.StatusCode != http.StatusBadRequest {
		readBody(t, resp)
		t.Fatalf("missing node: HTTP %d, want 400", resp.StatusCode)
	} else {
		readBody(t, resp)
	}

	listResp, err := http.Get(srv.URL + "/v1/strategies")
	if err != nil {
		t.Fatal(err)
	}
	var lr strategiesResponse
	if err := json.Unmarshal(readBody(t, listResp), &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Strategies) < 4 {
		t.Fatalf("strategies list = %v, want at least the paper's four", lr.Strategies)
	}
}

func TestObserveEndpointValidation(t *testing.T) {
	srv := httptest.NewServer(newServer(newTestFleet(t)))
	defer srv.Close()
	resp := mustPost(t, srv.URL+"/v1/observe", []byte("{not json"))
	if readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: HTTP %d, want 400", resp.StatusCode)
	}
	getResp, err := http.Get(srv.URL + "/v1/observe")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, getResp); getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET observe: HTTP %d, want 405", getResp.StatusCode)
	}
}

func TestScheduleRequiresNodeID(t *testing.T) {
	srv := httptest.NewServer(newServer(newTestFleet(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/schedule/")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing node: HTTP %d, want 400", resp.StatusCode)
	}
}

func TestSnapshotEndpointRequiresPath(t *testing.T) {
	srv := httptest.NewServer(newServer(newTestFleet(t)))
	defer srv.Close()
	resp := mustPost(t, srv.URL+"/v1/snapshot", nil)
	body := string(readBody(t, resp))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("snapshot without -snaplog: HTTP %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(body, "without -snaplog") || strings.Contains(body, "-snapshot") {
		t.Fatalf("snapshot without -snaplog: body %s, want an error naming only -snaplog", body)
	}
}

func TestProfileEndpoint(t *testing.T) {
	f := newTestFleet(t)
	srv := httptest.NewServer(newServer(f))
	defer srv.Close()
	f.Observe(traceObservations(t, "n1", 3, 2))
	resp, err := http.Get(srv.URL + "/v1/profile/n1")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: HTTP %d: %s", resp.StatusCode, body)
	}
	var prof rushprobe.NodeProfile
	if err := json.Unmarshal(body, &prof); err != nil {
		t.Fatal(err)
	}
	if prof.Observations == 0 || len(prof.SlotCapacity) != 24 {
		t.Fatalf("profile = %+v, want observations and 24 slot capacities", prof)
	}
}

// TestSmokeMode runs the -smoke path end to end, including reading a
// tracegen-format CSV.
func TestSmokeMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-smoke-nodes", "4"}, &out); err != nil {
		t.Fatalf("smoke: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "smoke: OK") {
		t.Fatalf("smoke output missing OK: %s", out.String())
	}
}

func TestSmokeModeWithTraceFile(t *testing.T) {
	// Write a small CSV in tracegen's format.
	path := filepath.Join(t.TempDir(), "trace.csv")
	var sb strings.Builder
	sb.WriteString("start_s,length_s\n")
	for d := 0; d < 4; d++ {
		for h := 0; h < 24; h++ {
			sb.WriteString(fmt.Sprintf("%d,2\n", d*86400+h*3600+30))
		}
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-smoke-nodes", "2", "-trace", path}, &out); err != nil {
		t.Fatalf("smoke with trace: %v\n%s", err, out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-mechanism", "SNIP-XX"}, io.Discard); err == nil {
		t.Error("bad mechanism accepted")
	}
	if err := run([]string{"-smoke", "-smoke-nodes", "0"}, io.Discard); err == nil {
		t.Error("zero smoke nodes accepted")
	}
}

// TestLoadSnapshotSurfacesCorruptFiles: a snapshot log that exists but
// cannot be restored must be a clear startup error naming the path — a
// silent fresh start would throw away the whole fleet's learned state.
// An empty file is the classic crash artifact: pre-fsync, a crash
// right after the rename could leave exactly that on disk.
func TestLoadSnapshotSurfacesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	valid := filepath.Join(dir, "valid.snaplog")
	f := newTestFleet(t)
	f.Observe(traceObservations(t, "n1", 7, 2))
	newSnaplogServer(t, f, valid)
	data, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"torn-meta.snaplog": data[:5],
		"garbage.snaplog":   []byte("not a snapshot log at all\n"),
		"empty.snaplog":     nil,
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		err := newServer(newTestFleet(t)).openSnaplog(path, logger)
		if err == nil {
			t.Errorf("%s: corrupt snapshot log restored silently", name)
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the snapshot log path", name, err)
		}
	}
	// A missing file stays a fresh start.
	if s := newSnaplogServer(t, newTestFleet(t), filepath.Join(dir, "absent.snaplog")); s.fleet.Stats().Nodes != 0 {
		t.Errorf("missing snapshot log must be a fresh start, restored %d nodes", s.fleet.Stats().Nodes)
	}
}

// TestSaveLoadSnapshotRoundTrip: a compaction's fsync+rename output
// must be exactly what a restart restores, and no temp file may linger
// next to the log.
func TestSaveLoadSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.snaplog")
	f := newTestFleet(t)
	f.Observe(traceObservations(t, "n1", 7, 5))
	s := newSnaplogServer(t, f, path)
	if err := s.persistSnapshot(); err != nil {
		t.Fatal(err)
	}
	restored := newSnaplogServer(t, newTestFleet(t), path).fleet
	want, err := f.Schedule("n1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Schedule("n1")
	if err != nil {
		t.Fatal(err)
	}
	if want.Fingerprint != got.Fingerprint || want.Mechanism != got.Mechanism {
		t.Fatalf("restored schedule differs: %+v vs %+v", got, want)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot log directory has %d entries, want only the log", len(entries))
	}
}
