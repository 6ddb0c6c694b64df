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
	"rushprobe/internal/wire"
)

// ingestNodes drives a few distinct traffic patterns into the fleet
// over HTTP and returns the node IDs.
func ingestNodes(t *testing.T, baseURL string, nodes int) []string {
	t.Helper()
	ids := make([]string, nodes)
	var batch []rushprobe.Observation
	for n := range ids {
		ids[n] = fmt.Sprintf("node-%04d", n)
		for _, o := range traceObservations(t, "", uint64(n%5+1), 4) {
			o.Node = ids[n]
			batch = append(batch, o)
		}
	}
	body, err := json.Marshal(wire.ObserveRequest{Observations: batch})
	if err != nil {
		t.Fatal(err)
	}
	resp := mustPost(t, baseURL+"/v1/observe", body)
	var or wire.ObserveResponse
	if err := json.Unmarshal(readBody(t, resp), &or); err != nil {
		t.Fatal(err)
	}
	if or.Accepted != len(batch) {
		t.Fatalf("accepted %d of %d observations", or.Accepted, len(batch))
	}
	return ids
}

func TestSchedulesBatchEndpoint(t *testing.T) {
	srv := httptest.NewServer(newServer(newTestFleet(t)))
	defer srv.Close()
	ids := ingestNodes(t, srv.URL, 12)

	// Batch answers must match per-node fetches, in request order.
	reversed := make([]string, len(ids))
	for i, id := range ids {
		reversed[len(ids)-1-i] = id
	}
	body, _ := json.Marshal(schedulesRequest{Nodes: reversed})
	resp := mustPost(t, srv.URL+"/v1/schedules", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/schedules: HTTP %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var sr schedulesResponse
	if err := json.Unmarshal(readBody(t, resp), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Schedules) != len(reversed) {
		t.Fatalf("got %d schedules for %d nodes", len(sr.Schedules), len(reversed))
	}
	for i, id := range reversed {
		single, err := http.Get(srv.URL + "/v1/schedule/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var one scheduleResponse
		if err := json.Unmarshal(readBody(t, single), &one); err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(sr.Schedules[i])
		want, _ := json.Marshal(one.Schedule)
		if !bytes.Equal(got, want) {
			t.Fatalf("batch schedule %d (%s) differs from single fetch", i, id)
		}
	}

	// Method and empty-body behavior.
	getResp, err := http.Get(srv.URL + "/v1/schedules")
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedules: HTTP %d", getResp.StatusCode)
	}
	readBody(t, getResp)
	empty := mustPost(t, srv.URL+"/v1/schedules", []byte(`{"nodes":[]}`))
	var er schedulesResponse
	if err := json.Unmarshal(readBody(t, empty), &er); err != nil {
		t.Fatal(err)
	}
	if er.Schedules == nil || len(er.Schedules) != 0 {
		t.Fatalf("empty batch returned %v", er.Schedules)
	}
}

// schedulesOf fetches a JSON-comparable view of every node's plan
// straight off the fleet.
func schedulesOf(t *testing.T, f *rushprobe.Fleet, ids []string) []byte {
	t.Helper()
	scheds, err := f.ScheduleBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(scheds)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// populateFleet ingests directly (no HTTP) for the snaplog unit tests.
func populateFleet(t *testing.T, f *rushprobe.Fleet, nodes int) []string {
	t.Helper()
	ids := make([]string, nodes)
	var batch []rushprobe.Observation
	for n := range ids {
		ids[n] = fmt.Sprintf("node-%04d", n)
		for _, o := range traceObservations(t, "", uint64(n%5+1), 4) {
			o.Node = ids[n]
			batch = append(batch, o)
		}
	}
	if got := f.Observe(batch); got != len(batch) {
		t.Fatalf("accepted %d of %d", got, len(batch))
	}
	return ids
}

func TestSnaplogPersistRestoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.snaplog")
	var logBuf bytes.Buffer
	logger, err := newLogger(&logBuf, "text", "debug")
	if err != nil {
		t.Fatal(err)
	}

	fa := newTestFleet(t)
	ids := populateFleet(t, fa, 60)
	want := schedulesOf(t, fa, ids)
	sa := newSnaplogStore(fa, path, logger)
	if err := sa.compact(); err != nil {
		t.Fatal(err)
	}
	if err := sa.close(); err != nil {
		t.Fatal(err)
	}

	fb := newTestFleet(t)
	sb := newSnaplogStore(fb, path, logger)
	restored, err := sb.restore()
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("restore reported a fresh start with a log on disk")
	}
	if got := schedulesOf(t, fb, ids); !bytes.Equal(got, want) {
		t.Fatal("schedules differ after snaplog restore")
	}

	// A missing file is a fresh start, not an error.
	fresh := newSnaplogStore(newTestFleet(t), filepath.Join(t.TempDir(), "absent.snaplog"), logger)
	restored, err = fresh.restore()
	if err != nil || restored {
		t.Fatalf("missing log: restored=%v err=%v", restored, err)
	}
}

func TestSnaplogTornTailRecoveredLoudly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.snaplog")
	var logBuf bytes.Buffer
	logger, err := newLogger(&logBuf, "text", "debug")
	if err != nil {
		t.Fatal(err)
	}

	fa := newTestFleet(t)
	ids := populateFleet(t, fa, 40)
	want := schedulesOf(t, fa, ids)
	sa := newSnaplogStore(fa, path, logger)
	if err := sa.compact(); err != nil {
		t.Fatal(err)
	}
	if err := sa.close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a delta cut off halfway through.
	if _, err := fa.SetStrategy(ids[0], string(rushprobe.SNIPRH)); err != nil {
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if _, err := fa.SnapshotBinaryDelta(&delta); err != nil {
		t.Fatal(err)
	}
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write(delta.Bytes()[:delta.Len()/2]); err != nil {
		t.Fatal(err)
	}
	file.Close()

	fb := newTestFleet(t)
	sb := newSnaplogStore(fb, path, logger)
	restored, err := sb.restore()
	if err != nil || !restored {
		t.Fatalf("torn tail must recover the prefix: restored=%v err=%v", restored, err)
	}
	if got := schedulesOf(t, fb, ids); !bytes.Equal(got, want) {
		t.Fatal("recovered prefix does not match the pre-tear fleet")
	}
	if !strings.Contains(logBuf.String(), "torn tail") {
		t.Fatalf("torn-tail recovery was silent; log:\n%s", logBuf.String())
	}
}

func TestSnaplogCorruptionIsFatalNamingPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.snaplog")
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	fa := newTestFleet(t)
	populateFleet(t, fa, 20)
	sa := newSnaplogStore(fa, path, logger)
	if err := sa.compact(); err != nil {
		t.Fatal(err)
	}
	if err := sa.close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sb := newSnaplogStore(newTestFleet(t), path, logger)
	_, err = sb.restore()
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt log must fail naming the path, got %v", err)
	}
}

func TestSnaplogDeltaAppendAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.snaplog")
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t)
	ids := populateFleet(t, f, 30)
	st := newSnaplogStore(f, path, logger)
	if err := st.compact(); err != nil {
		t.Fatal(err)
	}

	// Idle interval: nothing dirty, nothing written.
	if err := st.appendDelta(); err != nil {
		t.Fatal(err)
	}
	if _, _, deltas, _, _ := st.stats(); deltas != 0 {
		t.Fatalf("idle appendDelta wrote %d deltas", deltas)
	}

	// Dirty every node twice: the first delta fits under the base, the
	// second pushes the tail past it and must trigger a compaction.
	for round := 0; round < 2; round++ {
		for _, id := range ids {
			if _, err := f.SetStrategy(id, string(rushprobe.SNIPRH)); err != nil {
				t.Fatal(err)
			}
			if _, err := f.SetStrategy(id, ""); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.appendDelta(); err != nil {
			t.Fatal(err)
		}
	}
	base, appended, deltas, deltaNodes, compactions := st.stats()
	if deltas < 2 || deltaNodes < int64(len(ids)) {
		t.Fatalf("delta bookkeeping off: deltas=%d nodes=%d", deltas, deltaNodes)
	}
	// One compaction from setup, one triggered when the second delta
	// pushed the tail past the base.
	if compactions != 2 {
		t.Fatalf("tail outgrew the base but compactions=%d, want 2 (base=%d appended=%d)", compactions, base, appended)
	}
	if appended != 0 {
		t.Fatalf("compaction left appended=%d", appended)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	// The compacted log restores to the same schedules.
	want := schedulesOf(t, f, ids)
	fb := newTestFleet(t)
	sb := newSnaplogStore(fb, path, logger)
	if restored, err := sb.restore(); err != nil || !restored {
		t.Fatalf("restore after compaction: %v %v", restored, err)
	}
	if got := schedulesOf(t, fb, ids); !bytes.Equal(got, want) {
		t.Fatal("schedules differ after delta+compaction cycle")
	}
}

func TestSnapshotEndpointWithSnaplog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.snaplog")
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t)
	srv := newServer(f)
	st := newSnaplogStore(f, path, logger)
	if err := st.compact(); err != nil {
		t.Fatal(err)
	}
	srv.snaplog = st
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ids := ingestNodes(t, ts.URL, 10)

	resp := mustPost(t, ts.URL+"/v1/snapshot", nil)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/snapshot: HTTP %d: %s", resp.StatusCode, body)
	}
	var snap snapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Path != path || snap.Nodes != len(ids) {
		t.Fatalf("snapshot response %+v", snap)
	}

	// healthz reports persistence configured; metrics expose the
	// snaplog families.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	if err := json.Unmarshal(readBody(t, hresp), &hr); err != nil {
		t.Fatal(err)
	}
	if !hr.Snapshot.Configured || hr.Snapshot.Saves != 1 {
		t.Fatalf("healthz snapshot block %+v", hr.Snapshot)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, mresp))
	for _, fam := range []string{
		"rushprobe_snaplog_base_bytes",
		"rushprobe_snaplog_compactions_total",
		"rushprobe_fleet_dirty_nodes",
	} {
		if !strings.Contains(metrics, fam) {
			t.Fatalf("/metrics missing %s", fam)
		}
	}

	// The log written over HTTP restores.
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	fb := newTestFleet(t)
	sb := newSnaplogStore(fb, path, logger)
	if restored, err := sb.restore(); err != nil || !restored {
		t.Fatalf("restore: %v %v", restored, err)
	}
	if got, want := schedulesOf(t, fb, ids), schedulesOf(t, f, ids); !bytes.Equal(got, want) {
		t.Fatal("snaplog written via POST /v1/snapshot does not restore equivalently")
	}
}

// TestHealthzSnapshotPhases restarts a daemon from a snapshot log and
// checks /v1/healthz splits the restore (read+decode, admit) and the
// startup compaction (encode+write, fsync, rename), every phase present
// and the phases summing to no more than each total.
func TestHealthzSnapshotPhases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.snaplog")
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	fa := newTestFleet(t)
	populateFleet(t, fa, 60)
	sa := newSnaplogStore(fa, path, logger)
	if err := sa.compact(); err != nil {
		t.Fatal(err)
	}
	if err := sa.close(); err != nil {
		t.Fatal(err)
	}

	// The restart sequence of run(): restore, then compact.
	fb := newTestFleet(t)
	sb := newSnaplogStore(fb, path, logger)
	if restored, err := sb.restore(); err != nil || !restored {
		t.Fatalf("restore: %v %v", restored, err)
	}
	if err := sb.compact(); err != nil {
		t.Fatal(err)
	}
	srv := newServer(fb)
	srv.snaplog = sb
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Snapshot struct {
			LastRestorePhases map[string]float64 `json:"lastRestorePhases"`
			LastSavePhases    map[string]float64 `json:"lastSavePhases"`
		} `json:"snapshot"`
	}
	if err := json.Unmarshal(readBody(t, resp), &body); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		got    map[string]float64
		phases []string
	}{
		{"lastRestorePhases", body.Snapshot.LastRestorePhases, []string{"readDecodeSeconds", "admitSeconds"}},
		{"lastSavePhases", body.Snapshot.LastSavePhases, []string{"encodeWriteSeconds", "fsyncSeconds", "renameSeconds"}},
	} {
		total, ok := c.got["totalSeconds"]
		if !ok || total <= 0 {
			t.Fatalf("%s: totalSeconds missing or not positive: %v", c.name, c.got)
		}
		sum := 0.0
		for _, ph := range c.phases {
			v, ok := c.got[ph]
			if !ok || v < 0 {
				t.Fatalf("%s: phase %s missing or negative: %v", c.name, ph, c.got)
			}
			sum += v
		}
		if sum > total {
			t.Fatalf("%s: phases sum to %gs, more than the %gs total", c.name, sum, total)
		}
	}
}

func TestRouterModeEndToEnd(t *testing.T) {
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Two shard daemons, each with its own snapshot log.
	var shardURLs []string
	shardFleets := make([]*rushprobe.Fleet, 2)
	for i := range shardFleets {
		f := newTestFleet(t)
		shardFleets[i] = f
		srv := newServer(f)
		st := newSnaplogStore(f, filepath.Join(dir, fmt.Sprintf("shard-%d.snaplog", i)), logger)
		if err := st.compact(); err != nil {
			t.Fatal(err)
		}
		srv.snaplog = st
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		shardURLs = append(shardURLs, ts.URL)
	}

	rt, err := buildRouter(strings.Join(shardURLs, ","))
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(newRouterServer(rt, logger))
	defer router.Close()

	ids := ingestNodes(t, router.URL, 40)

	// Both shards must hold part of the fleet.
	for i, f := range shardFleets {
		if f.Stats().Nodes == 0 {
			t.Fatalf("shard %d received no nodes", i)
		}
	}

	// Router healthz merges the counters.
	hresp, err := http.Get(router.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr routerHealthResponse
	if err := json.Unmarshal(readBody(t, hresp), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Nodes != len(ids) || len(hr.Shards) != 2 {
		t.Fatalf("router healthz %+v", hr)
	}

	// Batch schedules through the router match per-node fetches.
	body, _ := json.Marshal(schedulesRequest{Nodes: ids})
	resp := mustPost(t, router.URL+"/v1/schedules", body)
	var sr schedulesResponse
	if err := json.Unmarshal(readBody(t, resp), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Schedules) != len(ids) {
		t.Fatalf("router batch returned %d plans for %d nodes", len(sr.Schedules), len(ids))
	}
	for i, id := range ids[:10] {
		single, err := http.Get(router.URL + "/v1/schedule/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var one scheduleResponse
		if err := json.Unmarshal(readBody(t, single), &one); err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(sr.Schedules[i])
		want, _ := json.Marshal(one.Schedule)
		if !bytes.Equal(got, want) {
			t.Fatalf("router batch plan for %s differs from single fetch", id)
		}
	}

	// Strategy + profile route through.
	resp = mustPost(t, router.URL+"/v1/strategy/"+ids[0], []byte(`{"strategy":"SNIP-RH"}`))
	var strat strategyResponse
	if err := json.Unmarshal(readBody(t, resp), &strat); err != nil {
		t.Fatal(err)
	}
	if strat.Strategy != string(rushprobe.SNIPRH) {
		t.Fatalf("router strategy response %+v", strat)
	}

	// Snapshot fan-out persists every shard's log.
	resp = mustPost(t, router.URL+"/v1/snapshot", nil)
	snapBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router snapshot: HTTP %d: %s", resp.StatusCode, snapBody)
	}
	var rsnap routerSnapshotResponse
	if err := json.Unmarshal(snapBody, &rsnap); err != nil {
		t.Fatal(err)
	}
	if rsnap.Shards != 2 {
		t.Fatalf("router snapshot fan-out hit %d shards", rsnap.Shards)
	}

	// Router metrics expose the routing families.
	mresp, err := http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, mresp))
	if !strings.Contains(metrics, "rushprobe_router_shards 2") ||
		!strings.Contains(metrics, "rushprobe_router_routed_observations") {
		t.Fatalf("router /metrics missing routing families:\n%s", metrics)
	}
}

func TestRunRejectsRouteWithFleetFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-route", "http://127.0.0.1:1", "-smoke"},
		{"-route", "http://127.0.0.1:1", "-snaplog", "x.snaplog"},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "-route is exclusive") {
			t.Fatalf("run(%v) = %v, want exclusivity error", args, err)
		}
	}
	// -snapshot named the retired JSON snapshot file: an old command
	// line must stop at flag parsing, not start with an empty fleet.
	for _, args := range [][]string{
		{"-snapshot", "x.json"},
		{"-route", "http://127.0.0.1:1", "-snapshot", "x.json"},
	} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -snapshot") {
			t.Fatalf("run(%v) = %v, want an undefined-flag error", args, err)
		}
	}
	if err := run([]string{"-route", "   ,  "}, io.Discard); err == nil || !strings.Contains(err.Error(), "no shards") {
		t.Fatalf("blank shard list accepted: %v", err)
	}
}
