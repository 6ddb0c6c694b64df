package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rushprobe"
	"rushprobe/internal/wire"
)

// TestMetricsEndpoint scrapes /metrics end to end: ingest a trace,
// fetch a schedule, set a strategy override, and check the exposition
// carries the fleet's counters and the per-strategy node gauge.
func TestMetricsEndpoint(t *testing.T) {
	f, err := rushprobe.NewFleet(
		rushprobe.Roadside(rushprobe.WithZetaTarget(24)),
		rushprobe.WithDriftDetector("cusum"),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(f))
	defer srv.Close()

	obs := traceObservations(t, "metrics-node", 1, 4)
	body, err := json.Marshal(wire.ObserveRequest{Observations: obs})
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, mustPost(t, srv.URL+"/v1/observe", body))
	resp, err := http.Get(srv.URL + "/v1/schedule/metrics-node")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	readBody(t, mustPost(t, srv.URL+"/v1/strategy/metrics-node", []byte(`{"strategy":"SNIP-RH"}`)))

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	// Exact match: Prometheus scrapers negotiate on the version parameter,
	// so a drifting content type is a real interop regression.
	if ct := resp.Header.Get("Content-Type"); ct != expositionContentType {
		t.Fatalf("content type %q, want exactly %q", ct, expositionContentType)
	}
	text := string(readBody(t, resp))
	for _, want := range []string{
		"rushprobe_nodes 1\n",
		"rushprobe_observations_accepted_total " + strconv.Itoa(len(obs)) + "\n",
		"rushprobe_plan_solves_total ",
		"rushprobe_drift_events_total 0\n",
		"rushprobe_observe_shed_total 0\n",
		"rushprobe_observe_inflight 0\n",
		`rushprobe_strategy_nodes{strategy="SNIP-RH"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "# TYPE rushprobe_observations_accepted_total counter") {
		t.Error("metrics missing TYPE line for the accepted counter")
	}
}

// TestObserveShedsAtCapacity fills the ingest semaphore and checks the
// daemon turns the next observe away with 429 + Retry-After, keeps
// serving reads, counts the shed in /metrics, and accepts again once a
// slot frees.
func TestObserveShedsAtCapacity(t *testing.T) {
	s := newServer(newTestFleet(t))
	s.observeSem = make(chan struct{}, 1)
	srv := httptest.NewServer(s)
	defer srv.Close()

	body, err := json.Marshal(wire.ObserveRequest{Observations: []rushprobe.Observation{
		{Node: "shed-node", Time: 30, Length: 2, Uploaded: -1},
	}})
	if err != nil {
		t.Fatal(err)
	}

	s.observeSem <- struct{}{} // occupy the only ingest slot
	resp := mustPost(t, srv.URL+"/v1/observe", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with ingest at capacity, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	}
	var er errorResponse
	if err := json.Unmarshal(readBody(t, resp), &er); err != nil || er.Error == "" {
		t.Fatalf("shed response is not the JSON error shape: %v %q", err, er.Error)
	}

	// Reads stay responsive while ingest is saturated.
	hresp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d during ingest saturation, want 200", hresp.StatusCode)
	}
	readBody(t, hresp)

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if text := string(readBody(t, mresp)); !strings.Contains(text, "rushprobe_observe_shed_total 1\n") {
		t.Errorf("metrics did not count the shed request:\n%s", text)
	}

	<-s.observeSem // free the slot
	resp = mustPost(t, srv.URL+"/v1/observe", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after draining, want 200", resp.StatusCode)
	}
	var or wire.ObserveResponse
	if err := json.Unmarshal(readBody(t, resp), &or); err != nil || or.Accepted != 1 {
		t.Fatalf("post-drain observe: %v %+v", err, or)
	}
}

// TestHTTPServerTimeoutsConfigured pins the production listener
// timeouts: every serving path builds through newHTTPServer, so a zero
// here would reopen the unbounded-connection regression.
func TestHTTPServerTimeoutsConfigured(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("listener timeouts not fully configured: %+v", srv)
	}
}

// TestSlowClientEvicted drives the slowloris scenario against a real
// listener: a client that dribbles a partial request line and then
// stalls must have its connection closed by ReadHeaderTimeout, not
// held open indefinitely.
func TestSlowClientEvicted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := newHTTPServer(newServer(newTestFleet(t)))
	httpSrv.ReadHeaderTimeout = 150 * time.Millisecond // production value, compressed for the test
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/healthz HT")); err != nil {
		t.Fatal(err)
	}
	// Stall mid-request-line; the server must hang up on its own.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may write a 408 before hanging up; drain until the
	// connection is closed and check the eviction happened quickly.
	start := time.Now()
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	if waited := time.Since(start); waited >= 5*time.Second {
		t.Fatalf("connection still open after %v; ReadHeaderTimeout did not evict", waited)
	}
}

// TestRouterObserveShedsAtCapacity is the router's ingest bound: with
// -max-inflight-observe 1 and the one admitted observe stuck on a
// blocked backend, the next observe is shed with 429 + Retry-After
// (counted in /metrics) instead of piling another body onto the hop,
// and observes flow again once the backend answers.
func TestRouterObserveShedsAtCapacity(t *testing.T) {
	entered := make(chan struct{})
	unblock := make(chan struct{})
	first := true
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/observe" {
			http.NotFound(w, r)
			return
		}
		io.Copy(io.Discard, r.Body)
		if first {
			first = false
			close(entered)
			<-unblock
		}
		writeJSON(w, http.StatusOK, wire.ObserveResponse{Received: 1, Accepted: 1})
	}))
	defer backend.Close()
	rt, err := buildRouter(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	logger, err := newLogger(io.Discard, "text", "info")
	if err != nil {
		t.Fatal(err)
	}
	rs := newRouterServer(rt, logger)
	rs.observeSem = make(chan struct{}, 1)
	router := httptest.NewServer(rs)
	defer router.Close()

	body, err := json.Marshal(wire.ObserveRequest{Observations: []rushprobe.Observation{
		{Node: "shed-node", Time: 30, Length: 2, Uploaded: -1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(router.URL+"/v1/observe", "application/json", strings.NewReader(string(body)))
		if err != nil {
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-entered // the first observe holds the only slot, stuck in the backend

	resp := mustPost(t, router.URL+"/v1/observe", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with the router at capacity, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	}
	var er errorResponse
	if err := json.Unmarshal(readBody(t, resp), &er); err != nil || er.Error == "" {
		t.Fatalf("shed response is not the JSON error shape: %v %q", err, er.Error)
	}
	mresp, err := http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if text := string(readBody(t, mresp)); !strings.Contains(text, "rushprobe_observe_shed_total 1\n") {
		t.Errorf("router metrics did not count the shed request:\n%s", text)
	}

	close(unblock)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held observe finished with %d, want 200", code)
	}
	resp = mustPost(t, router.URL+"/v1/observe", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after the backend answered, want 200", resp.StatusCode)
	}
	readBody(t, resp)
}
