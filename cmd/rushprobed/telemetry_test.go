package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rushprobe"
	"rushprobe/internal/wire"
)

// newTelemeteredFleet builds a fleet armed with a telemetry bundle, as
// run() does for the real daemon.
func newTelemeteredFleet(t *testing.T, cfg rushprobe.TelemetryConfig) *rushprobe.Fleet {
	t.Helper()
	f, err := rushprobe.NewFleet(
		rushprobe.Roadside(rushprobe.WithZetaTarget(24)),
		rushprobe.WithTelemetry(rushprobe.NewTelemetry(cfg)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMetricsExpositionStrict drives the daemon end to end and then
// holds /metrics to the same bar CI's smoke step uses: the exposition
// must parse under the strict text-format parser, carry every required
// family, and its histograms must be internally coherent with real
// observations in them.
func TestMetricsExpositionStrict(t *testing.T) {
	f := newTelemeteredFleet(t, rushprobe.TelemetryConfig{})
	srv := httptest.NewServer(newServer(f))
	defer srv.Close()

	obs := traceObservations(t, "tel-node", 2, 4)
	body, err := json.Marshal(wire.ObserveRequest{Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, mustPost(t, srv.URL+"/v1/observe", body))
	resp, err := http.Get(srv.URL + "/v1/schedule/tel-node")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)

	fams, err := scrapeMetrics(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range requiredFamilies {
		if _, ok := fams[name]; !ok {
			t.Errorf("exposition missing required family %s", name)
		}
	}
	for _, name := range []string{
		"rushprobe_ingest_batch_seconds",
		"rushprobe_schedule_seconds",
		"rushprobe_solve_seconds",
		"rushprobe_advance_epoch_seconds",
	} {
		fam, ok := fams[name]
		if !ok {
			t.Fatalf("exposition missing stage histogram %s", name)
		}
		if err := fam.ValidateHistogram(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if h := fams["rushprobe_ingest_batch_seconds"].Histogram(); h.Count < 1 {
		t.Errorf("ingest histogram empty after an observe batch")
	}
	if h := fams["rushprobe_schedule_seconds"].Histogram(); h.Count < 1 {
		t.Errorf("schedule histogram empty after a schedule fetch")
	}
	// Capacity and runtime gauges ride the same scrape.
	if fam, ok := fams["rushprobe_profile_bytes_per_node"]; !ok || len(fam.Samples) == 0 {
		t.Error("bytes-per-node gauge missing or empty")
	}
	if _, ok := fams["rushprobe_goroutines"]; !ok {
		t.Error("runtime goroutine gauge missing")
	}
	if _, ok := fams["rushprobe_shard_nodes"]; !ok {
		t.Error("shard-balance gauge missing")
	}
}

// TestTracesEndpoint checks the request-tracing loop: every response
// carries an X-Request-ID, and /debug/traces returns spans (newest
// first) whose fleet stages carry the same request ID as their http
// parent.
func TestTracesEndpoint(t *testing.T) {
	f := newTelemeteredFleet(t, rushprobe.TelemetryConfig{})
	srv := httptest.NewServer(newServer(f))
	defer srv.Close()

	obs := traceObservations(t, "trace-node", 5, 2)
	body, err := json.Marshal(wire.ObserveRequest{Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	resp := mustPost(t, srv.URL+"/v1/observe", body)
	observeID := resp.Header.Get("X-Request-ID")
	readBody(t, resp)
	if observeID == "" {
		t.Fatal("observe response has no X-Request-ID")
	}

	resp, err = http.Get(srv.URL + "/debug/traces?n=50")
	if err != nil {
		t.Fatal(err)
	}
	var tr tracesResponse
	if err := json.Unmarshal(readBody(t, resp), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Total == 0 || len(tr.Spans) == 0 {
		t.Fatalf("trace ring empty: %+v", tr)
	}
	// Newest first: the traces request itself is recorded after the
	// observe, so the observe's spans must come later in the slice.
	stagesForObserve := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.Request == observeID {
			stagesForObserve[sp.Stage] = true
		}
	}
	if !stagesForObserve["http"] || !stagesForObserve["ingest"] {
		t.Fatalf("observe request %s missing http/ingest spans; got stages %v", observeID, stagesForObserve)
	}

	// Bad n is a 400, not a panic or a silent default.
	resp, err = http.Get(srv.URL + "/debug/traces?n=zero")
	if err != nil {
		t.Fatal(err)
	}
	if readBody(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestHealthzSnapshotBlock covers the snapshot observability surface
// end to end: a fresh daemon with -snaplog reports configured but not
// restored, a save stamps age/duration and counts, and a restarted
// daemon reports restoredAtStartup.
func TestHealthzSnapshotBlock(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "fleet.snaplog")
	f := newTestFleet(t)
	srv := httptest.NewServer(newSnaplogServer(t, f, snapPath)) // missing log: fresh start
	defer srv.Close()

	var hr healthResponse
	readHealth := func() {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hr = healthResponse{}
		if err := json.Unmarshal(readBody(t, resp), &hr); err != nil {
			t.Fatal(err)
		}
	}
	readHealth()
	if !hr.Snapshot.Configured || hr.Snapshot.RestoredAtStartup {
		t.Fatalf("fresh daemon snapshot block: %+v, want configured and not restored", hr.Snapshot)
	}
	if hr.Snapshot.Saves != 0 || hr.Snapshot.LastSaveAgeSeconds != -1 {
		t.Fatalf("fresh daemon reports saves: %+v", hr.Snapshot)
	}

	f.Observe(traceObservations(t, "n1", 11, 4))
	readBody(t, mustPost(t, srv.URL+"/v1/snapshot", nil))
	readHealth()
	if hr.Snapshot.Saves != 1 {
		t.Fatalf("after one save, saves = %d", hr.Snapshot.Saves)
	}
	if hr.Snapshot.LastSaveAgeSeconds < 0 || hr.Snapshot.LastSaveAgeSeconds > 60 {
		t.Fatalf("save age %.3fs out of range", hr.Snapshot.LastSaveAgeSeconds)
	}
	if hr.Snapshot.LastSaveDurationSeconds <= 0 {
		t.Fatalf("save duration %.9fs, want > 0", hr.Snapshot.LastSaveDurationSeconds)
	}

	// "Restart": a fresh server over the same path restores at startup.
	srv2 := httptest.NewServer(newSnaplogServer(t, newTestFleet(t), snapPath))
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr2 healthResponse
	if err := json.Unmarshal(readBody(t, resp), &hr2); err != nil {
		t.Fatal(err)
	}
	if !hr2.Snapshot.RestoredAtStartup {
		t.Fatalf("restarted daemon snapshot block: %+v, want restoredAtStartup", hr2.Snapshot)
	}
	if hr2.Snapshot.LastRestoreDurationSeconds <= 0 {
		t.Fatalf("restore duration %.9fs, want > 0", hr2.Snapshot.LastRestoreDurationSeconds)
	}
	if hr2.Nodes != 1 {
		t.Fatalf("restored daemon tracks %d nodes, want 1", hr2.Nodes)
	}
}

// TestSlowRequestLogged pins the -slow-request auto-log: with a
// threshold every request exceeds, handling any request must emit a
// structured "slow span" record carrying the request ID and route.
func TestSlowRequestLogged(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	f := newTelemeteredFleet(t, rushprobe.TelemetryConfig{SlowSpan: time.Nanosecond, Logger: logger})
	srv := httptest.NewServer(newServer(f))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	id := resp.Header.Get("X-Request-ID")
	logs := logBuf.String()
	if !strings.Contains(logs, "slow span") {
		t.Fatalf("no slow-span record logged:\n%s", logs)
	}
	if !strings.Contains(logs, id) || !strings.Contains(logs, "/v1/healthz") {
		t.Fatalf("slow-span record missing request ID %q or route:\n%s", id, logs)
	}
}

// TestUntelemeteredFleetStillServesMetrics: a server over a fleet
// without WithTelemetry (library embedding, old tests) must still
// expose the full exposition shape — stage histograms just stay empty.
func TestUntelemeteredFleetStillServesMetrics(t *testing.T) {
	srv := httptest.NewServer(newServer(newTestFleet(t)))
	defer srv.Close()
	fams, err := scrapeMetrics(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fam, ok := fams["rushprobe_ingest_batch_seconds"]
	if !ok {
		t.Fatal("untelemetered server dropped the ingest histogram family")
	}
	if err := fam.ValidateHistogram(); err != nil {
		t.Fatal(err)
	}
	if h := fam.Histogram(); h.Count != 0 {
		t.Fatalf("detached histogram counted %v observations", h.Count)
	}
}

// TestNewLoggerFlagValidation rejects unknown formats and levels.
func TestNewLoggerFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := newLogger(&buf, "yaml", "info"); err == nil {
		t.Error("unknown log format accepted")
	}
	if _, err := newLogger(&buf, "json", "loud"); err == nil {
		t.Error("unknown log level accepted")
	}
	logger, err := newLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("hidden")
	logger.Warn("visible", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "visible") {
		t.Fatalf("level filtering wrong:\n%s", out)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &rec); err != nil {
		t.Fatalf("JSON handler emitted non-JSON: %v\n%s", err, out)
	}
	if rec["k"] != "v" {
		t.Fatalf("structured attr lost: %v", rec)
	}
}
