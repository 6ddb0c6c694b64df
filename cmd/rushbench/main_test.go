package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rushprobe"
	"rushprobe/internal/contact"
	"rushprobe/internal/wire"
)

// newFleetServer is a minimal in-test rushprobed: the daemon's
// endpoints rushbench talks to, backed by a real telemetry-armed Fleet
// (so /metrics serves real stage histograms for the scrape tests).
func newFleetServer(t *testing.T, opts ...rushprobe.FleetOption) *httptest.Server {
	t.Helper()
	tel := rushprobe.NewTelemetry(rushprobe.TelemetryConfig{})
	opts = append([]rushprobe.FleetOption{rushprobe.WithTelemetry(tel)}, opts...)
	f, err := rushprobe.NewFleet(rushprobe.Roadside(rushprobe.WithZetaTarget(24)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := tel.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/v1/observe", func(w http.ResponseWriter, r *http.Request) {
		var req wire.ObserveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		acc := f.Observe(req.Observations)
		json.NewEncoder(w).Encode(wire.ObserveResponse{Received: len(req.Observations), Accepted: acc})
	})
	mux.HandleFunc("/v1/schedule/", func(w http.ResponseWriter, r *http.Request) {
		node := strings.TrimPrefix(r.URL.Path, "/v1/schedule/")
		sched, err := f.Schedule(node)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(sched)
	})
	mux.HandleFunc("/v1/schedules", func(w http.ResponseWriter, r *http.Request) {
		var req wire.NodeList
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		scheds, err := f.ScheduleBatch(req.Nodes)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(wire.SchedulesResponse{Schedules: scheds})
	})
	mux.HandleFunc("/v1/profile/", func(w http.ResponseWriter, r *http.Request) {
		node := strings.TrimPrefix(r.URL.Path, "/v1/profile/")
		prof, err := f.Profile(node)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(prof)
	})
	mux.HandleFunc("/v1/strategy/", func(w http.ResponseWriter, r *http.Request) {
		node := strings.TrimPrefix(r.URL.Path, "/v1/strategy/")
		var req wire.StrategyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		inForce, err := f.SetStrategy(node, req.Strategy)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(wire.StrategyResponse{Node: node, Strategy: inForce})
	})
	return httptest.NewServer(mux)
}

// TestBenchAgainstFleet replays the generated trace against an
// in-process fleet server: every request and every observation must be
// accepted, and the JSON summary must carry throughput, latencies, and
// one report per strategy group.
func TestBenchAgainstFleet(t *testing.T) {
	srv := newFleetServer(t)
	defer srv.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", srv.URL,
		"-rate", "2000",
		"-duration", "500ms",
		"-concurrency", "3",
		"-batch", "50",
		"-nodes", "8",
		"-strategies", "SNIP-OPT,rh",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	var s Summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary is not JSON: %v\n%s", err, out.String())
	}
	if s.Requests.Sent == 0 || s.Requests.Failed != 0 {
		t.Fatalf("requests = %+v, want >0 sent and 0 failed", s.Requests)
	}
	if s.Observations.Accepted != int64(s.Observations.Sent) {
		t.Fatalf("accepted %d of %d observations (replay must never go stale)",
			s.Observations.Accepted, s.Observations.Sent)
	}
	if s.ThroughputOPS <= 0 || s.LatencyMs.P50 < 0 || s.LatencyMs.Max <= 0 {
		t.Fatalf("throughput/latency not measured: %+v", s)
	}
	if len(s.Strategies) != 2 {
		t.Fatalf("strategy reports = %+v, want 2 groups", s.Strategies)
	}
	for _, r := range s.Strategies {
		if r.Nodes != 4 {
			t.Fatalf("group %s has %d nodes, want 4", r.Strategy, r.Nodes)
		}
		if r.MeanZeta <= 0 || r.MeanPhi <= 0 {
			t.Fatalf("group %s has empty plan aggregates: %+v", r.Strategy, r)
		}
	}
	// 7 generated days at batch 50 crosses epoch boundaries many times;
	// the deltas of the second group are measured against the first.
	if s.Strategies[0].DeltaPhiPct != 0 {
		t.Fatalf("first group must be the delta baseline, got %+v", s.Strategies[0])
	}
	bs := s.BatchSchedule
	if bs == nil || !bs.Supported {
		t.Fatalf("batch schedule report missing or unsupported: %+v", bs)
	}
	if bs.Nodes != 8 || bs.Verified != 8 || bs.Mismatched != 0 {
		t.Fatalf("batch schedules did not match the per-node path: %+v", bs)
	}
}

// TestBenchScrapesServerTelemetry closes the metrics loop: the summary
// must embed server-side stage histogram deltas scraped around the run,
// and the deltas must cover only this run's work (a second replay
// against the same warm daemon reports its own counts, not cumulative
// ones).
func TestBenchScrapesServerTelemetry(t *testing.T) {
	srv := newFleetServer(t)
	defer srv.Close()

	runOnce := func() Summary {
		t.Helper()
		var out bytes.Buffer
		err := run([]string{
			"-addr", srv.URL,
			"-rate", "1000",
			"-duration", "300ms",
			"-concurrency", "2",
			"-batch", "50",
			"-nodes", "4",
		}, &out)
		if err != nil {
			t.Fatalf("run: %v\noutput: %s", err, out.String())
		}
		var s Summary
		if err := json.Unmarshal(out.Bytes(), &s); err != nil {
			t.Fatalf("summary is not JSON: %v", err)
		}
		return s
	}

	for pass, s := range []Summary{runOnce(), runOnce()} {
		if s.Server == nil || !s.Server.Scraped {
			t.Fatalf("pass %d: server telemetry not scraped: %+v", pass, s.Server)
		}
		stages := make(map[string]ServerStage, len(s.Server.Stages))
		for _, st := range s.Server.Stages {
			stages[st.Stage] = st
		}
		ingest, ok := stages["rushprobe_ingest_batch_seconds"]
		if !ok {
			t.Fatalf("pass %d: no ingest stage in server report: %+v", pass, s.Server.Stages)
		}
		// Every observe request is one fleet ingest batch; a cumulative
		// (non-delta) report would double on the second pass.
		if int(ingest.Count) != s.Requests.Sent {
			t.Fatalf("pass %d: ingest delta counts %v batches for %d requests",
				pass, ingest.Count, s.Requests.Sent)
		}
		if ingest.MeanMs < 0 || ingest.P99Ms < ingest.P50Ms {
			t.Fatalf("pass %d: incoherent ingest latencies: %+v", pass, ingest)
		}
		if _, ok := stages["rushprobe_schedule_seconds"]; !ok {
			t.Fatalf("pass %d: no schedule stage despite schedule fetches: %+v", pass, s.Server.Stages)
		}
	}
}

// TestBenchSurvivesMetricslessDaemon pins the best-effort contract: a
// daemon without /metrics (or an older one) degrades the server report
// to Scraped=false with a reason — never a failed run.
func TestBenchSurvivesMetricslessDaemon(t *testing.T) {
	srv := newFleetServer(t)
	defer srv.Close()
	// Front the fleet server with a proxy that 404s /metrics only.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			http.NotFound(w, r)
			return
		}
		var resp *http.Response
		var err error
		if r.Method == http.MethodPost {
			resp, err = http.Post(srv.URL+r.URL.Path, "application/json", r.Body)
		} else {
			resp, err = http.Get(srv.URL + r.URL.Path)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer proxy.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", proxy.URL,
		"-rate", "500",
		"-duration", "200ms",
		"-batch", "50",
		"-nodes", "2",
	}, &out)
	if err != nil {
		t.Fatalf("run must not fail on a metricsless daemon: %v\n%s", err, out.String())
	}
	var s Summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary is not JSON: %v", err)
	}
	if s.Server == nil || s.Server.Scraped || s.Server.Error == "" {
		t.Fatalf("server report must degrade with a reason: %+v", s.Server)
	}
	if s.Requests.Failed != 0 {
		t.Fatalf("replay failed alongside the degraded scrape: %+v", s.Requests)
	}
}

// TestBenchRetriesTransientFailures fronts the fleet server with a
// flaky proxy that sheds every first attempt (429 + Retry-After, then
// a 500) and asserts the replay completes with zero hard failures,
// counting the noise as retries and shed responses instead.
func TestBenchRetriesTransientFailures(t *testing.T) {
	srv := newFleetServer(t)
	defer srv.Close()

	var mu sync.Mutex
	tries := make(map[string]int) // per-body attempt count
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/observe" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			mu.Lock()
			tries[string(body)]++
			n := tries[string(body)]
			mu.Unlock()
			switch n {
			case 1:
				w.Header().Set("Retry-After", "0")
				http.Error(w, "shedding", http.StatusTooManyRequests)
				return
			case 2:
				http.Error(w, "hiccup", http.StatusInternalServerError)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		// Strip the test server's implicit proxy role: re-issue against
		// the real fleet server.
		resp, err := http.Post(srv.URL+r.URL.Path, "application/json", r.Body)
		if r.Method == http.MethodGet {
			resp, err = http.Get(srv.URL + r.URL.Path)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	defer flaky.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", flaky.URL,
		"-rate", "1000",
		"-duration", "300ms",
		"-concurrency", "2",
		"-batch", "50",
		"-nodes", "4",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	var s Summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary is not JSON: %v", err)
	}
	if s.Requests.Failed != 0 {
		t.Fatalf("failed = %d, want 0 (transient errors must be retried)", s.Requests.Failed)
	}
	if s.Requests.Retries < 2*s.Requests.Sent {
		t.Fatalf("retries = %d for %d requests, want >= 2 per request (429 then 500)",
			s.Requests.Retries, s.Requests.Sent)
	}
	if s.Requests.Shed < s.Requests.Sent {
		t.Fatalf("shed = %d for %d requests, want one 429 counted per request",
			s.Requests.Shed, s.Requests.Sent)
	}
	if s.Observations.Accepted != int64(s.Observations.Sent) {
		t.Fatalf("accepted %d of %d observations after retries",
			s.Observations.Accepted, s.Observations.Sent)
	}
}

// TestBenchGivesUpAfterRetryBudget pins the terminal path: a target
// that always sheds must exhaust the budget and count hard failures.
func TestBenchGivesUpAfterRetryBudget(t *testing.T) {
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/healthz":
			w.WriteHeader(http.StatusOK)
		case strings.HasPrefix(r.URL.Path, "/v1/schedule/"):
			json.NewEncoder(w).Encode(map[string]any{"mechanism": "SNIP-OPT", "zeta": 1.0, "phi": 1.0})
		default:
			http.Error(w, "no", http.StatusServiceUnavailable)
		}
	}))
	defer always.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", always.URL,
		"-rate", "100",
		"-duration", "100ms",
		"-batch", "10",
		"-nodes", "1",
		"-retries", "1",
	}, &out)
	if err == nil {
		t.Fatal("a permanently shedding daemon must fail the run")
	}
	var s Summary
	if jerr := json.Unmarshal(out.Bytes(), &s); jerr != nil {
		t.Fatalf("summary is not JSON: %v", jerr)
	}
	if s.Requests.Failed == 0 {
		t.Fatalf("failed = 0 against a dead ingest path: %+v", s.Requests)
	}
	if s.Requests.Retries == 0 {
		t.Fatal("no retries recorded before giving up")
	}
}

// TestRetryDelay pins the backoff policy: exponential from the base,
// capped, jittered into [0.5x, 1.5x), and a longer Retry-After wins
// (itself capped).
func TestRetryDelay(t *testing.T) {
	if d := retryDelay(1, "", 0); d != retryBase/2 {
		t.Errorf("attempt 1 zero-jitter delay = %v, want %v", d, retryBase/2)
	}
	if d := retryDelay(2, "", 0.5); d != 2*retryBase {
		t.Errorf("attempt 2 mid-jitter delay = %v, want %v", d, 2*retryBase)
	}
	if d := retryDelay(20, "", 0.999); d > retryCap+retryCap/2 {
		t.Errorf("attempt 20 delay = %v, exceeds the jittered cap", d)
	}
	if d := retryDelay(1, "1", 0); d != time.Second {
		t.Errorf("Retry-After 1s not honored: got %v", d)
	}
	if d := retryDelay(1, "3600", 0); d != retryCap {
		t.Errorf("hour-long Retry-After must clamp to %v, got %v", retryCap, d)
	}
	if d := retryDelay(1, "garbage", 0); d != retryBase/2 {
		t.Errorf("unparseable Retry-After changed the delay: %v", d)
	}
}

// TestRotateTrace checks the drift-inject regime transform: same
// contact count and per-day volume, start-sorted, times shifted within
// their day.
func TestRotateTrace(t *testing.T) {
	contacts, _, err := loadContacts("", 1)
	if err != nil {
		t.Fatal(err)
	}
	rot := rotateTrace(contacts, driftShiftSeconds)
	if len(rot) != len(contacts) {
		t.Fatalf("rotation changed the contact count: %d -> %d", len(contacts), len(rot))
	}
	days := func(cs []contact.Contact) map[int]int {
		m := make(map[int]int)
		for _, c := range cs {
			m[int(c.Start.Seconds()/86400)]++
		}
		return m
	}
	orig, moved := days(contacts), days(rot)
	for d, n := range orig {
		if moved[d] != n {
			t.Fatalf("day %d volume changed: %d -> %d (rotation must stay within the day)", d, n, moved[d])
		}
	}
	for i := 1; i < len(rot); i++ {
		if rot[i].Start < rot[i-1].Start {
			t.Fatalf("rotated trace not sorted at %d: %v < %v", i, rot[i].Start, rot[i-1].Start)
		}
	}
	// The regimes must actually differ: the hour-of-day histogram moves.
	hour := func(cs []contact.Contact) [24]int {
		var h [24]int
		for _, c := range cs {
			h[int(math.Mod(c.Start.Seconds(), 86400)/3600)]++
		}
		return h
	}
	if hour(contacts) == hour(rot) {
		t.Fatal("rotation left the time-of-day profile unchanged")
	}
}

// TestBenchDriftInjectSoak is the closed loop: replay against a fleet
// with the CUSUM detector on, rotate every node's regime mid-run, and
// require the daemon to notice. This is the same contract `make soak`
// asserts against a real rushprobed process.
func TestBenchDriftInjectSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak replay takes ~1s")
	}
	srv := newFleetServer(t, rushprobe.WithDriftDetector("cusum"))
	defer srv.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", srv.URL,
		"-rate", "20000",
		"-duration", "400ms",
		"-concurrency", "2",
		"-batch", "100",
		"-nodes", "2",
		"-drift-inject",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput: %s", err, out.String())
	}
	var s Summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("summary is not JSON: %v", err)
	}
	if s.Drift == nil {
		t.Fatal("-drift-inject produced no drift report")
	}
	if s.Drift.NodesInjected != 2 {
		t.Fatalf("injected %d of 2 nodes", s.Drift.NodesInjected)
	}
	if s.Drift.NodesDetected < 1 || s.Drift.DriftEvents < 1 {
		t.Fatalf("no drift detected after injection: %+v", *s.Drift)
	}
	if s.Drift.NodesDetected > 0 && s.Drift.MeanLatencyEpochs <= 0 {
		t.Fatalf("detected nodes without a latency figure: %+v", *s.Drift)
	}
}

// TestBenchDriftInjectFailsWithoutDetector asserts the soak's teeth:
// against a fleet with no detector the run must exit non-zero, because
// injected drift going unnoticed is exactly the regression the soak
// exists to catch.
func TestBenchDriftInjectFailsWithoutDetector(t *testing.T) {
	if testing.Short() {
		t.Skip("soak replay takes ~1s")
	}
	srv := newFleetServer(t)
	defer srv.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", srv.URL,
		"-rate", "20000",
		"-duration", "300ms",
		"-batch", "100",
		"-nodes", "2",
		"-drift-inject",
	}, &out)
	if err == nil {
		t.Fatal("drift injected with no detector must fail the run")
	}
	var s Summary
	if jerr := json.Unmarshal(out.Bytes(), &s); jerr != nil {
		t.Fatalf("summary is not JSON: %v", jerr)
	}
	if s.Drift == nil || s.Drift.NodesDetected != 0 {
		t.Fatalf("detector-less fleet reported detections: %+v", s.Drift)
	}
}

// TestBenchFailsOnUnhealthyTarget asserts the generator reports an
// unreachable daemon instead of hammering it.
func TestBenchFailsOnUnhealthyTarget(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-addr", "http://127.0.0.1:1",
		"-duration", "100ms",
		"-wait", "200ms",
	}, &out)
	if err == nil {
		t.Fatal("unreachable daemon should error")
	}
}

// TestFillLatenciesNearestRank pins the percentile definition: on 50
// sorted samples of 1..50 ms, nearest-rank gives p50=25, p90=45,
// p99=50. The old truncating index int(p*(len-1)) read p99 from index
// 48 (= 49 ms), underestimating tail latency on every small sample.
func TestFillLatenciesNearestRank(t *testing.T) {
	lats := make([]time.Duration, 50)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	var s Summary
	fillLatencies(&s, lats)
	if s.LatencyMs.P50 != 25 {
		t.Errorf("p50 = %v ms, want 25", s.LatencyMs.P50)
	}
	if s.LatencyMs.P90 != 45 {
		t.Errorf("p90 = %v ms, want 45", s.LatencyMs.P90)
	}
	if s.LatencyMs.P99 != 50 {
		t.Errorf("p99 = %v ms, want 50 (nearest rank), not 49 (truncated index)", s.LatencyMs.P99)
	}
	if s.LatencyMs.Max != 50 {
		t.Errorf("max = %v ms, want 50", s.LatencyMs.Max)
	}
	// A single sample reports itself at every percentile.
	var one Summary
	fillLatencies(&one, []time.Duration{7 * time.Millisecond})
	if one.LatencyMs.P50 != 7 || one.LatencyMs.P99 != 7 {
		t.Errorf("single-sample percentiles = %+v, want all 7 ms", one.LatencyMs)
	}
	// Empty input leaves the zero value.
	var empty Summary
	fillLatencies(&empty, nil)
	if empty.LatencyMs.P99 != 0 {
		t.Errorf("empty input set p99 = %v", empty.LatencyMs.P99)
	}
}
