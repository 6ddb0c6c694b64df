// Command rushprobed is the fleet daemon: an HTTP/JSON service that
// ingests batched contact observations from sensor nodes, maintains
// per-node rush-hour profiles, and serves each node its current probing
// schedule (bootstrap SNIP-AT until enough epochs are learned, then the
// strategy selected with -mechanism, overridable per node via
// POST /v1/strategy/{node}).
//
// Endpoints:
//
//	POST /v1/observe          {"observations":[{"node":"n1","time":3600,"length":2.1,"uploaded":512}, ...]}
//	GET  /v1/schedule/{node}  current per-slot duty plan + strategy
//	GET  /v1/profile/{node}   learned per-node state
//	POST /v1/strategy/{node}  {"strategy":"SNIP-RH"} sets the node's strategy ("" = fleet default)
//	GET  /v1/strategies       registered strategy names
//	GET  /v1/healthz          liveness + fleet counters
//	POST /v1/snapshot         compact learned state into the -snaplog log
//	GET  /metrics             Prometheus text exposition: counters, gauges, stage histograms
//	GET  /debug/traces?n=     most recent request/stage spans from the in-memory trace ring
//
// Every response is JSON, including errors and unknown routes
// ({"error": "..."}), except /metrics (Prometheus text format).
//
// The daemon degrades rather than collapses under overload: ingest
// concurrency is bounded (-max-inflight-observe), and excess observe
// requests are shed with 429 + Retry-After instead of queueing without
// bound; every request runs under a deadline (-request-timeout); and
// the listener enforces header/read/write/idle timeouts so slow or
// stalled clients cannot pin connections.
//
// Observability: every request gets an ID (returned as X-Request-ID and
// threaded through the fleet's stage spans), requests slower than
// -slow-request are logged automatically, and all logging is structured
// (-log-format text|json, -log-level). -ops-addr starts a second
// listener carrying net/http/pprof, /metrics, and /debug/traces, kept
// off the fleet-facing API port.
//
// With -snaplog the daemon restores learned state from a binary
// snapshot log at startup (if the log exists), appends dirty-node
// deltas every -snaplog-interval, and compacts the log on
// SIGINT/SIGTERM, so a restarted daemon serves bit-identical schedules.
// -smoke runs a self-contained end-to-end check over a real loopback
// listener and exits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rushprobe"
	"rushprobe/internal/contact"
	"rushprobe/internal/rng"
	"rushprobe/internal/scenario"
	"rushprobe/internal/simtime"
	"rushprobe/internal/telemetry"
	"rushprobe/internal/trace"
	"rushprobe/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rushprobed:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rushprobed", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		zeta       = fs.Float64("zeta", 24, "probed-capacity target in seconds per epoch")
		budget     = fs.Float64("budget-fraction", 1.0/1000, "energy budget as a fraction of the epoch")
		bootstrap  = fs.Int("bootstrap-epochs", 3, "epochs of SNIP-AT bootstrap before serving learned plans")
		shards     = fs.Int("shards", 16, "profile store shard count")
		mechanism  = fs.String("mechanism", string(rushprobe.SNIPOPT), "default strategy served after bootstrap: any registered name (see GET /v1/strategies)")
		snaplog    = fs.String("snaplog", "", "binary snapshot log: restored at startup, dirty-node deltas appended every -snaplog-interval, compacted on overflow/shutdown/POST /v1/snapshot")
		snaplogInt = fs.Duration("snaplog-interval", 30*time.Second, "how often to append dirty-node deltas to -snaplog (0 disables the loop)")
		route      = fs.String("route", "", "router mode: comma-separated shard base URLs; the daemon serves the same API by consistent-hash scatter-gather over the shards instead of a local fleet")
		driftDet   = fs.String("drift-detector", "cusum", "streaming drift detector relearning nodes whose rush pattern shifts: cusum, page-hinkley, or none")
		inflight   = fs.Int("max-inflight-observe", 64, "max concurrent observe requests before shedding with 429")
		reqTimeout = fs.Duration("request-timeout", 15*time.Second, "per-request handling deadline")
		smoke      = fs.Bool("smoke", false, "run a loopback end-to-end smoke test and exit")
		smokeTrace = fs.String("trace", "", "contact trace CSV for -smoke (e.g. from tracegen); default: generate internally")
		smokeNodes = fs.Int("smoke-nodes", 8, "how many synthetic nodes -smoke fans the trace out to")
		logFormat  = fs.String("log-format", "text", "structured log format: text or json")
		logLevel   = fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		slowReq    = fs.Duration("slow-request", 250*time.Millisecond, "log any request or fleet stage at least this slow (0 disables)")
		traceRing  = fs.Int("trace-ring", 1024, "in-memory span ring capacity served at /debug/traces")
		opsAddr    = fs.String("ops-addr", "", "separate operations listener (net/http/pprof, /metrics, /debug/traces); empty disables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *route != "" {
		if *smoke || *snaplog != "" {
			return errors.New("-route is exclusive of -smoke and -snaplog: the router holds no fleet state (each shard persists its own)")
		}
		return runRouter(*route, *addr, *reqTimeout, *inflight, logger)
	}
	tel := rushprobe.NewTelemetry(rushprobe.TelemetryConfig{
		TraceRing: *traceRing,
		SlowSpan:  *slowReq,
		Logger:    logger,
	})
	f, err := rushprobe.NewFleet(
		rushprobe.Roadside(rushprobe.WithZetaTarget(*zeta), rushprobe.WithBudgetFraction(*budget)),
		rushprobe.WithBootstrapEpochs(*bootstrap),
		rushprobe.WithShards(*shards),
		rushprobe.WithFleetMechanism(rushprobe.Mechanism(*mechanism)),
		rushprobe.WithDriftDetector(*driftDet),
		rushprobe.WithTelemetry(tel),
	)
	if err != nil {
		return err
	}
	srv := newServer(f)
	if *inflight > 0 {
		srv.observeSem = make(chan struct{}, *inflight)
	}
	if *reqTimeout > 0 {
		srv.requestTimeout = *reqTimeout
	}
	if *snaplog != "" {
		if err := srv.openSnaplog(*snaplog, logger); err != nil {
			return err
		}
	}
	var opsURL string
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			return err
		}
		opsSrv := newHTTPServer(newOpsMux(srv))
		go opsSrv.Serve(opsLn)
		defer opsSrv.Close()
		opsURL = "http://" + opsLn.Addr().String()
		logger.Info("ops listener up", "addr", opsLn.Addr().String())
	}
	if *smoke {
		return smokeTest(srv, *smokeTrace, *smokeNodes, opsURL, out)
	}

	httpSrv := newHTTPServer(srv)
	httpSrv.Addr = *addr
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if srv.snaplog != nil && *snaplogInt > 0 {
		go func() {
			ticker := time.NewTicker(*snaplogInt)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := srv.snaplog.appendDelta(); err != nil {
						logger.Error("snapshot log delta append failed", "err", err)
					}
				}
			}
		}()
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "mechanism", *mechanism, "snaplog", *snaplog)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if srv.snaplog != nil {
		if err := srv.snaplog.close(); err != nil {
			return err
		}
		logger.Info("snapshot log compacted", "path", *snaplog, "nodes", f.Stats().Nodes)
	}
	return nil
}

// runRouter is -route mode: serve the API over a consistent-hash
// router of shard daemons until SIGINT/SIGTERM.
func runRouter(shardList, addr string, reqTimeout time.Duration, inflight int, logger *slog.Logger) error {
	rt, err := buildRouter(shardList)
	if err != nil {
		return err
	}
	if len(rt.Shards()) == 0 {
		return errors.New("-route lists no shards")
	}
	rsrv := newRouterServer(rt, logger)
	if reqTimeout > 0 {
		rsrv.requestTimeout = reqTimeout
	}
	if inflight > 0 {
		rsrv.observeSem = make(chan struct{}, inflight)
	}
	httpSrv := newHTTPServer(rsrv)
	httpSrv.Addr = addr
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		logger.Info("routing", "addr", addr, "shards", rt.Shards())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutdownCtx)
}

// newLogger builds the daemon's structured logger from the -log-format
// and -log-level flags.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	return telemetry.NewLogger(w, format, level)
}

// maxObserveBody bounds an observe request body (64 MiB ≈ 700k
// observations per batch).
const maxObserveBody = 64 << 20

// Default degradation limits; run() overrides them from flags.
const (
	defaultMaxInflightObserve = 64
	defaultRequestTimeout     = 15 * time.Second
)

// Listener-level timeouts. ReadHeaderTimeout evicts slowloris-style
// clients that trickle header bytes; Read/Write bound a whole request
// and response (generous enough for a full 64 MiB observe batch over a
// slow link); Idle reclaims abandoned keep-alive connections.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 60 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer wraps the API in an http.Server with the listener
// timeouts applied — every serving path (daemon, smoke test, tests)
// must go through here so no listener runs unbounded.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// server routes the daemon's HTTP API onto a Fleet.
type server struct {
	fleet *rushprobe.Fleet
	start time.Time
	mux   *http.ServeMux

	// snaplog, when non-nil, is the incremental binary snapshot log
	// that persistSnapshot compacts; nil when the daemon runs without
	// -snaplog and persists nothing.
	snaplog *snaplogStore

	// tel is the telemetry bundle shared with the fleet (a detached one
	// when the fleet runs untelemetered, so /metrics and /debug/traces
	// keep their shape); registry renders the full /metrics exposition;
	// reqSeq mints request IDs.
	tel      *rushprobe.Telemetry
	logger   *slog.Logger
	registry *telemetry.Registry
	reqSeq   atomic.Uint64

	// requestTimeout bounds each request's context; observeSem bounds
	// concurrent ingest (nil disables shedding), shed counts requests
	// turned away at the semaphore, and inflight gauges current observe
	// handlers for /metrics.
	requestTimeout time.Duration
	observeSem     chan struct{}
	shed           atomic.Int64
	inflight       atomic.Int64

	// Snapshot bookkeeping for /v1/healthz and /metrics: whether a
	// snapshot restored at startup and how long it took, plus the time
	// and duration of the most recent save.
	snapMu         sync.Mutex
	snapRestored   bool
	snapRestoreDur time.Duration
	snapSaves      int64
	snapLastSave   time.Time
	snapSaveDur    time.Duration
}

func newServer(f *rushprobe.Fleet) *server {
	tel := f.Telemetry()
	if tel == nil {
		tel = rushprobe.NewTelemetry(rushprobe.TelemetryConfig{})
	}
	s := &server{
		fleet:          f,
		start:          time.Now(),
		mux:            http.NewServeMux(),
		tel:            tel,
		logger:         tel.Logger,
		registry:       telemetry.NewRegistry(),
		requestTimeout: defaultRequestTimeout,
		observeSem:     make(chan struct{}, defaultMaxInflightObserve),
	}
	// Exposition order: fleet counters and gauges first (the families the
	// daemon has always served), then the stage histograms, then runtime.
	s.registry.AddFunc(s.collectFleet)
	tel.Register(s.registry)
	telemetry.RegisterRuntime(s.registry)
	s.mux.HandleFunc("/v1/observe", s.handleObserve)
	s.mux.HandleFunc("/v1/schedule/", s.handleSchedule)
	s.mux.HandleFunc("/v1/schedules", s.handleSchedules)
	s.mux.HandleFunc("/v1/profile/", s.handleProfile)
	s.mux.HandleFunc("/v1/strategy/", s.handleStrategy)
	s.mux.HandleFunc("/v1/strategies", s.handleStrategies)
	s.mux.HandleFunc("/v1/nodes", s.handleNodes)
	s.mux.HandleFunc("/v1/migrate/export", s.handleMigrateExport)
	s.mux.HandleFunc("/v1/migrate/import", s.handleMigrateImport)
	s.mux.HandleFunc("/v1/migrate/remove", s.handleMigrateRemove)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/traces", s.handleTraces)
	// Catch-all: unknown routes get the API's JSON error payload, not
	// the mux's default text/plain 404 (or an empty body).
	s.mux.HandleFunc("/", s.handleNotFound)
	return s
}

// newOpsMux is the operations listener surface: pprof, the metrics
// exposition, and the trace ring — kept off the fleet-facing API
// listener so profiling endpoints are never reachable by nodes.
func newOpsMux(s *server) *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m.HandleFunc("/metrics", s.handleMetrics)
	m.HandleFunc("/debug/traces", s.handleTraces)
	return m
}

// handleNotFound answers any unrouted path with the standard JSON error
// shape, so clients can always decode the body.
func (s *server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, "unknown path %q", r.URL.Path)
}

// statusWriter captures the response status for the request span.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP runs every request under the server's deadline, so a
// handler stuck on a slow body or a canceled client cannot outlive its
// budget. It also mints the request ID (echoed as X-Request-ID and
// carried by the context into the fleet's stage spans) and records the
// whole request as an http span — which is what triggers the
// -slow-request auto-log.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if s.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.requestTimeout)
		defer cancel()
	}
	id := "req-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
	ctx = telemetry.WithRequestID(ctx, id)
	w.Header().Set("X-Request-ID", id)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	s.mux.ServeHTTP(sw, r.WithContext(ctx))
	s.tel.Traces.Record(telemetry.Span{
		Request:  id,
		Stage:    "http",
		Shard:    -1,
		Detail:   r.Method + " " + r.URL.Path,
		Status:   sw.status,
		Start:    t0,
		Duration: time.Since(t0),
	})
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !admitObserve(s.observeSem, &s.shed, s.logger, w, r) {
		return
	}
	defer releaseObserve(s.observeSem)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	obs, ok := decodeObserveBody(w, r, maxObserveBody)
	if !ok {
		return
	}
	accepted := s.fleet.ObserveContext(r.Context(), obs)
	writeJSON(w, http.StatusOK, wire.ObserveResponse{Received: len(obs), Accepted: accepted})
}

// admitObserve takes one of sem's slots for an observe request. When
// every slot is busy it sheds the request at once — 429 with a retry
// hint instead of queueing without bound, so under a traffic spike the
// server stays responsive (schedules, health, metrics) and pushes
// backpressure to the reporting nodes — counts it in shed, and returns
// false. A nil sem admits everything. Callers that were admitted
// release the slot with releaseObserve.
func admitObserve(sem chan struct{}, shed *atomic.Int64, logger *slog.Logger, w http.ResponseWriter, r *http.Request) bool {
	if sem == nil {
		return true
	}
	select {
	case sem <- struct{}{}:
		return true
	default:
	}
	// Shedding under a spike can be very frequent; log the first and
	// then a 1-in-100 sample so the event is visible without the log
	// amplifying the overload.
	if n := shed.Add(1); n == 1 || n%100 == 0 {
		logger.Warn("observe shed at ingest capacity",
			"shedTotal", n, "request", telemetry.RequestID(r.Context()))
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, "ingest at capacity, retry")
	return false
}

// releaseObserve frees the slot admitObserve took.
func releaseObserve(sem chan struct{}) {
	if sem != nil {
		<-sem
	}
}

// maxObservePresize caps the buffer decodeObserveBody allocates up
// front from Content-Length. Presizing makes reading a 21 KB body about
// 5x cheaper than letting the buffer grow (5 us against 25 us, 2
// allocations against 13, on a 2-core Xeon), but the header is
// client-controlled, so a larger declared body grows the buffer only as
// its bytes arrive.
const maxObservePresize = 1 << 20

// decodeObserveBody reads a whole POST /v1/observe body of at most
// limit bytes and decodes it with wire.DecodeObserve. On failure it
// answers 400 "decode: <error>" and returns false. An over-limit body
// fails as "request body too large" even when a complete JSON value
// precedes the excess, and one that declares an over-limit
// Content-Length fails before any of it is read.
func decodeObserveBody(w http.ResponseWriter, r *http.Request, limit int64) ([]rushprobe.Observation, bool) {
	if r.ContentLength > limit {
		writeError(w, http.StatusBadRequest, "decode: %v", &http.MaxBytesError{Limit: limit})
		return nil, false
	}
	presize := min(max(r.ContentLength, 0), maxObservePresize)
	// bytes.MinRead of slack lets ReadFrom see EOF without regrowing.
	buf := bytes.NewBuffer(make([]byte, 0, presize+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	var obs []rushprobe.Observation
	if err == nil {
		obs, err = wire.DecodeObserve(buf.Bytes())
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return nil, false
	}
	return obs, true
}

// scheduleResponse wraps a schedule with the node it was served for.
type scheduleResponse struct {
	Node string `json:"node"`
	*rushprobe.Schedule
}

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	node, err := wire.NodeParam(r.URL.EscapedPath(), "/v1/schedule/")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if node == "" {
		writeError(w, http.StatusBadRequest, "missing node ID")
		return
	}
	sched, err := s.fleet.ScheduleContext(r.Context(), node)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "schedule: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, scheduleResponse{Node: node, Schedule: sched})
}

// maxSchedulesBody bounds a batch schedule request body (8 MiB ≈
// hundreds of thousands of node IDs).
const maxSchedulesBody = 8 << 20

// schedulesRequest is the POST /v1/schedules body.
type schedulesRequest struct {
	Nodes []string `json:"nodes"`
}

// schedulesResponse returns the plans in the request's node order.
type schedulesResponse struct {
	Schedules []*rushprobe.Schedule `json:"schedules"`
}

// handleSchedules is the batch counterpart of /v1/schedule/{node}: one
// round trip for a whole fleet sweep, and the scatter-gather unit the
// -route mode's router uses against its shards.
func (s *server) handleSchedules(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req schedulesRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSchedulesBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	scheds, err := s.fleet.ScheduleBatch(req.Nodes)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "schedules: %v", err)
		return
	}
	if scheds == nil {
		scheds = []*rushprobe.Schedule{}
	}
	writeJSON(w, http.StatusOK, schedulesResponse{Schedules: scheds})
}

// strategyRequest is the POST /v1/strategy/{node} body.
type strategyRequest struct {
	// Strategy is a registered strategy name or alias; empty clears the
	// node's override (fleet default).
	Strategy string `json:"strategy"`
}

// strategyResponse reports the strategy now in force for the node.
type strategyResponse struct {
	Node     string `json:"node"`
	Strategy string `json:"strategy"`
}

func (s *server) handleStrategy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	node, err := wire.NodeParam(r.URL.EscapedPath(), "/v1/strategy/")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if node == "" {
		writeError(w, http.StatusBadRequest, "missing node ID")
		return
	}
	var req strategyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	inForce, err := s.fleet.SetStrategy(node, req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, "strategy: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, strategyResponse{Node: node, Strategy: inForce})
}

// strategiesResponse is the GET /v1/strategies body.
type strategiesResponse struct {
	Strategies []string `json:"strategies"`
}

func (s *server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, strategiesResponse{Strategies: rushprobe.Strategies()})
}

func (s *server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	node, err := wire.NodeParam(r.URL.EscapedPath(), "/v1/profile/")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if node == "" {
		writeError(w, http.StatusBadRequest, "missing node ID")
		return
	}
	prof, err := s.fleet.Profile(node)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "profile: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, prof)
}

// nodesResponse is the GET /v1/nodes body: every tracked node ID,
// sorted — the enumeration a router rebalance diffs against the new
// ring.
type nodesResponse struct {
	Nodes []string `json:"nodes"`
}

func (s *server) handleNodes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	ids := s.fleet.NodeIDs()
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, nodesResponse{Nodes: ids})
}

// migrateExportRequest is the POST /v1/migrate/export body.
type migrateExportRequest struct {
	Nodes []string `json:"nodes"`
}

// handleMigrateExport streams the named nodes as self-contained binary
// snapshot frames (the SnapshotBinary format) for a shard handoff. The
// exporting fleet is untouched: it stays authoritative until the
// migration commits and the router removes the nodes.
func (s *server) handleMigrateExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req migrateExportRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSchedulesBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if len(req.Nodes) == 0 {
		writeError(w, http.StatusBadRequest, "no nodes requested")
		return
	}
	data, err := s.fleet.ExportNodes(req.Nodes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "export: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// maxMigrateBody bounds an import payload (256 MiB ≈ a million-node
// shard's full frame set; a rebalance moves a fraction of that).
const maxMigrateBody = 256 << 20

// migrateImportResponse is the POST /v1/migrate/import reply.
type migrateImportResponse struct {
	Imported int `json:"imported"`
}

// handleMigrateImport admits binary frames produced by an export. The
// payload is validated whole before anything lands, and with -snaplog
// configured the imported nodes are appended to the log before the 200
// goes out — the router treats this reply as the durable half of its
// commit point, so acknowledging an unpersisted import would let a
// crash lose nodes both sides think were handed off.
func (s *server) handleMigrateImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxMigrateBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read: %v", err)
		return
	}
	n, err := s.fleet.ImportFrames(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "import: %v", err)
		return
	}
	if s.snaplog != nil {
		if err := s.snaplog.appendDelta(); err != nil {
			writeError(w, http.StatusInternalServerError, "imported %d nodes but could not persist them: %v", n, err)
			return
		}
	}
	s.logger.Info("migrate import", "nodes", n, "request", telemetry.RequestID(r.Context()))
	writeJSON(w, http.StatusOK, migrateImportResponse{Imported: n})
}

// migrateRemoveRequest is the POST /v1/migrate/remove body.
type migrateRemoveRequest struct {
	Nodes []string `json:"nodes"`
}

// migrateRemoveResponse is the POST /v1/migrate/remove reply.
type migrateRemoveResponse struct {
	Removed int `json:"removed"`
}

// handleMigrateRemove deletes the named nodes — the post-commit
// cleanup of a handoff. Unknown IDs are skipped, so re-running a
// partially cleaned migration converges.
func (s *server) handleMigrateRemove(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req migrateRemoveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSchedulesBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	n := s.fleet.RemoveNodes(req.Nodes)
	if n > 0 && s.snaplog != nil {
		// The log has no tombstone frame and restores last-record-wins,
		// so a restart would resurrect removed nodes from their old
		// frames. A compaction rewrites the log from current state. It
		// is deliberately non-fatal: the remove already succeeded in
		// memory and the nodes are unreachable through the ring, so a
		// failed rewrite degrades to stale-but-harmless log entries the
		// next compaction clears.
		if err := s.snaplog.compact(); err != nil {
			s.logger.Warn("migrate remove: snapshot log compaction failed", "nodes", n, "err", err)
		}
	}
	s.logger.Info("migrate remove", "nodes", n, "request", telemetry.RequestID(r.Context()))
	writeJSON(w, http.StatusOK, migrateRemoveResponse{Removed: n})
}

// healthResponse is the GET /v1/healthz body.
type healthResponse struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptimeSeconds"`
	Snapshot      snapshotHealth `json:"snapshot"`
	rushprobe.FleetStats
}

// snapshotHealth is the healthz view of snapshot persistence.
type snapshotHealth struct {
	// Configured reports whether the daemon runs with -snaplog at all.
	Configured bool `json:"configured"`
	// RestoredAtStartup is true when learned state was restored from the
	// snapshot log when the daemon started.
	RestoredAtStartup bool `json:"restoredAtStartup"`
	// Saves counts snapshot writes since startup (shutdown + POST
	// /v1/snapshot).
	Saves int64 `json:"saves"`
	// LastSaveAgeSeconds is the age of the newest save, -1 before the
	// first — the staleness alarm input for operators.
	LastSaveAgeSeconds float64 `json:"lastSaveAgeSeconds"`
	// LastSaveDurationSeconds and LastRestoreDurationSeconds are the
	// wall-clock costs of the most recent save and the startup restore.
	LastSaveDurationSeconds    float64 `json:"lastSaveDurationSeconds"`
	LastRestoreDurationSeconds float64 `json:"lastRestoreDurationSeconds"`
	// LastRestorePhases and LastSavePhases split the snapshot log's
	// startup restore and its most recent compaction (-snaplog only).
	LastRestorePhases *restorePhases `json:"lastRestorePhases,omitempty"`
	LastSavePhases    *savePhases    `json:"lastSavePhases,omitempty"`
}

// snapshotHealth snapshots the server's persistence bookkeeping.
func (s *server) snapshotHealth() snapshotHealth {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	h := snapshotHealth{
		Configured:                 s.snaplog != nil,
		RestoredAtStartup:          s.snapRestored,
		Saves:                      s.snapSaves,
		LastSaveAgeSeconds:         -1,
		LastSaveDurationSeconds:    s.snapSaveDur.Seconds(),
		LastRestoreDurationSeconds: s.snapRestoreDur.Seconds(),
	}
	if !s.snapLastSave.IsZero() {
		h.LastSaveAgeSeconds = time.Since(s.snapLastSave).Seconds()
	}
	if s.snaplog != nil {
		h.LastRestorePhases, h.LastSavePhases = s.snaplog.phases()
	}
	return h
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Snapshot:      s.snapshotHealth(),
		FleetStats:    s.fleet.Stats(),
	})
}

// expositionContentType is the Prometheus text-format content type.
const expositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// collectFleet emits the daemon's counter and gauge families. Labeled
// gauges use sorted values so consecutive scrapes of an unchanged fleet
// are byte-identical.
func (s *server) collectFleet(e *telemetry.Exposition) {
	st := s.fleet.Stats()
	e.Gauge("rushprobe_uptime_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())
	e.Gauge("rushprobe_nodes", "Tracked per-node profiles.", float64(st.Nodes))
	e.Counter("rushprobe_observations_accepted_total", "Contact observations folded into profiles.", float64(st.Observations))
	e.Counter("rushprobe_observations_stale_total", "Observations discarded for arriving in an already-folded epoch.", float64(st.Stale))
	e.Counter("rushprobe_observations_invalid_total", "Observations rejected outright.", float64(st.Invalid))
	e.Counter("rushprobe_plan_solves_total", "Optimizer solves.", float64(st.PlanSolves))
	e.Counter("rushprobe_plan_cache_hits_total", "Schedule requests served from the fingerprint cache.", float64(st.PlanCacheHits))
	e.Counter("rushprobe_plan_cache_misses_total", "Schedule requests that missed the fingerprint cache and solved.", float64(st.PlanSolves))
	e.Gauge("rushprobe_plan_cache_size", "Distinct plan fingerprints cached.", float64(st.CachedPlans))
	e.Counter("rushprobe_drift_events_total", "Drift-detector firings that relearned a node.", float64(st.DriftEvents))
	e.Counter("rushprobe_observe_shed_total", "Observe requests shed at the ingest concurrency bound.", float64(s.shed.Load()))
	e.Gauge("rushprobe_observe_inflight", "Observe requests currently being handled.", float64(s.inflight.Load()))

	byStrategy := s.fleet.StrategyNodes()
	names := make([]string, 0, len(byStrategy))
	for name := range byStrategy {
		names = append(names, name)
	}
	sort.Strings(names)
	strat := make([]telemetry.LabelValue, 0, len(names))
	for _, name := range names {
		strat = append(strat, telemetry.LabelValue{Label: name, Value: float64(byStrategy[name])})
	}
	e.LabeledGauge("rushprobe_strategy_nodes", "Nodes served per strategy in force.", "strategy", strat)

	shardCounts := s.fleet.ShardNodes()
	shards := make([]telemetry.LabelValue, len(shardCounts))
	for i, n := range shardCounts {
		shards[i] = telemetry.LabelValue{Label: strconv.Itoa(i), Value: float64(n)}
	}
	e.LabeledGauge("rushprobe_shard_nodes", "Nodes per profile-store shard.", "shard", shards)

	mem := s.fleet.Memory()
	e.Gauge("rushprobe_profile_bytes", "Estimated resident bytes of all node profiles.", float64(mem.ProfileBytes))
	e.Gauge("rushprobe_profile_bytes_per_node", "Estimated profile bytes per tracked node.", mem.BytesPerNode)

	sh := s.snapshotHealth()
	e.Counter("rushprobe_snapshot_saves_total", "Snapshots persisted since startup.", float64(sh.Saves))
	e.Gauge("rushprobe_snapshot_last_save_age_seconds", "Seconds since the last snapshot save (-1 before the first).", sh.LastSaveAgeSeconds)
	e.Gauge("rushprobe_snapshot_last_save_seconds", "Duration of the last snapshot save in seconds.", sh.LastSaveDurationSeconds)

	if s.snaplog != nil {
		base, appended, deltas, deltaNodes, compactions := s.snaplog.stats()
		e.Gauge("rushprobe_snaplog_base_bytes", "Bytes of the snapshot log's last full compaction.", float64(base))
		e.Gauge("rushprobe_snaplog_delta_bytes", "Delta bytes appended to the snapshot log since the last compaction.", float64(appended))
		e.Counter("rushprobe_snaplog_deltas_total", "Delta appends to the snapshot log since startup.", float64(deltas))
		e.Counter("rushprobe_snaplog_delta_nodes_total", "Node records written by delta appends since startup.", float64(deltaNodes))
		e.Counter("rushprobe_snaplog_compactions_total", "Snapshot log compactions since startup.", float64(compactions))
		e.Gauge("rushprobe_fleet_dirty_nodes", "Nodes changed since the last snapshot-log write.", float64(s.fleet.DirtyNodes()))
	}
}

// handleMetrics renders the registry — fleet counters, stage latency
// histograms, runtime gauges — in the Prometheus text exposition
// format, hand-rolled to keep the daemon dependency-free.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var b bytes.Buffer
	if err := s.registry.WriteText(&b); err != nil {
		writeError(w, http.StatusInternalServerError, "metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", expositionContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}

// tracesResponse is the GET /debug/traces body: the most recent spans,
// newest first, plus the all-time recorded count.
type tracesResponse struct {
	Total uint64           `json:"total"`
	Spans []telemetry.Span `json:"spans"`
}

func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	n := 64
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "n must be a positive integer, got %q", q)
			return
		}
		n = v
	}
	spans := s.tel.Traces.Last(n)
	if spans == nil {
		spans = []telemetry.Span{}
	}
	writeJSON(w, http.StatusOK, tracesResponse{Total: s.tel.Traces.Total(), Spans: spans})
}

// openSnaplog restores the fleet from the snapshot log at path (a
// missing log is a fresh start), records the restore for /v1/healthz,
// and compacts the log to establish the on-disk file and its append
// handle before attaching it to the server.
func (s *server) openSnaplog(path string, logger *slog.Logger) error {
	st := newSnaplogStore(s.fleet, path, logger)
	t0 := time.Now()
	restored, err := st.restore()
	if err != nil {
		return err
	}
	if restored {
		s.snapMu.Lock()
		s.snapRestored = true
		s.snapRestoreDur = time.Since(t0)
		s.snapMu.Unlock()
	}
	if err := st.compact(); err != nil {
		return err
	}
	s.snaplog = st
	return nil
}

// persistSnapshot compacts the snapshot log and records the save time
// and duration for /v1/healthz and /metrics. The caller has checked
// that the daemon runs with -snaplog.
func (s *server) persistSnapshot() error {
	t0 := time.Now()
	if err := s.snaplog.compact(); err != nil {
		return err
	}
	s.snapMu.Lock()
	s.snapSaves++
	s.snapLastSave = time.Now()
	s.snapSaveDur = s.snapLastSave.Sub(t0)
	s.snapMu.Unlock()
	return nil
}

type snapshotResponse struct {
	Nodes int    `json:"nodes"`
	Path  string `json:"path"`
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.snaplog == nil {
		writeError(w, http.StatusBadRequest, "daemon started without -snaplog")
		return
	}
	if err := s.persistSnapshot(); err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{Nodes: s.fleet.Stats().Nodes, Path: s.snaplog.path})
}

// smokeContacts loads the trace CSV (e.g. written by tracegen), or
// generates the canonical road-side trace when path is empty.
func smokeContacts(path string) ([]contact.Contact, error) {
	if path != "" {
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		return trace.Read(file)
	}
	gen, err := contact.NewGenerator(scenario.Roadside(), rng.New(1))
	if err != nil {
		return nil, err
	}
	return gen.GenerateUntil(simtime.Instant(4 * simtime.Day)), nil
}

// smokeTest exercises the daemon end to end over a real loopback
// listener: ingest a contact trace for a handful of nodes, fetch each
// node's schedule and profile, check the health counters, and validate
// the telemetry surface — /metrics must parse in strict text format
// with the required families and coherent histograms, and the trace
// ring must have recorded the run. When opsURL is non-empty the ops
// listener's /metrics and pprof endpoints are exercised too.
func smokeTest(srv *server, tracePath string, nodes int, opsURL string, out io.Writer) error {
	if nodes <= 0 {
		return fmt.Errorf("smoke: need at least one node, got %d", nodes)
	}
	contacts, err := smokeContacts(tracePath)
	if err != nil {
		return err
	}
	if len(contacts) == 0 {
		return errors.New("smoke: empty contact trace")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv)
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	obs := make([]rushprobe.Observation, 0, len(contacts)*nodes)
	for n := 0; n < nodes; n++ {
		id := fmt.Sprintf("smoke-%03d", n)
		for _, c := range contacts {
			obs = append(obs, rushprobe.Observation{
				Node:     id,
				Time:     c.Start.Seconds(),
				Length:   c.Length.Seconds(),
				Uploaded: -1,
			})
		}
	}
	body, err := json.Marshal(wire.ObserveRequest{Observations: obs})
	if err != nil {
		return err
	}
	var or wire.ObserveResponse
	if err := postJSON(base+"/v1/observe", body, &or); err != nil {
		return err
	}
	if or.Accepted != len(obs) {
		return fmt.Errorf("smoke: accepted %d of %d observations", or.Accepted, len(obs))
	}
	fmt.Fprintf(out, "smoke: ingested %d observations (%d contacts x %d nodes)\n", or.Accepted, len(contacts), nodes)

	learned := true
	for n := 0; n < nodes; n++ {
		id := fmt.Sprintf("smoke-%03d", n)
		var sr scheduleResponse
		if err := getJSON(base+"/v1/schedule/"+id, &sr); err != nil {
			return fmt.Errorf("smoke: schedule %s: %w", id, err)
		}
		if sr.Schedule == nil || len(sr.Duty) == 0 {
			return fmt.Errorf("smoke: node %s got an empty schedule", id)
		}
		if sr.Mechanism == string(rushprobe.SNIPAT) {
			learned = false
		}
		if n == 0 {
			fmt.Fprintf(out, "smoke: %s serves %s, zeta=%.2f phi=%.2f over %d slots\n",
				id, sr.Mechanism, sr.Zeta, sr.Phi, len(sr.Duty))
		}
	}
	var hr healthResponse
	if err := getJSON(base+"/v1/healthz", &hr); err != nil {
		return err
	}
	if hr.Status != "ok" || hr.Nodes != nodes {
		return fmt.Errorf("smoke: healthz reports %+v, want ok with %d nodes", hr, nodes)
	}
	// Every node ingested the same trace, so once past bootstrap the
	// plan cache must collapse the fleet to a single optimizer solve.
	if learned && (hr.PlanSolves != 1 || hr.PlanCacheHits != int64(nodes-1)) {
		return fmt.Errorf("smoke: plan cache not shared: %d solves, %d hits (want 1, %d)",
			hr.PlanSolves, hr.PlanCacheHits, nodes-1)
	}
	if hr.Snapshot.Configured != (srv.snaplog != nil) {
		return fmt.Errorf("smoke: healthz snapshot block reports configured=%v, snapshot log configured=%v",
			hr.Snapshot.Configured, srv.snaplog != nil)
	}
	fmt.Fprintf(out, "smoke: healthz ok — %d nodes, %d observations, %d plan solves, %d cache hits\n",
		hr.Nodes, hr.Observations, hr.PlanSolves, hr.PlanCacheHits)

	if err := smokeMetrics(base, out); err != nil {
		return err
	}
	var tr tracesResponse
	if err := getJSON(base+"/debug/traces?n=10", &tr); err != nil {
		return err
	}
	if tr.Total == 0 || len(tr.Spans) == 0 {
		return fmt.Errorf("smoke: trace ring is empty after the run (total %d, %d spans)", tr.Total, len(tr.Spans))
	}
	fmt.Fprintf(out, "smoke: traces ok — %d spans recorded, newest stage %q\n", tr.Total, tr.Spans[0].Stage)

	if opsURL != "" {
		if _, err := scrapeMetrics(opsURL + "/metrics"); err != nil {
			return fmt.Errorf("smoke: ops listener metrics: %w", err)
		}
		resp, err := http.Get(opsURL + "/debug/pprof/cmdline")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("smoke: pprof cmdline: HTTP %d", resp.StatusCode)
		}
		fmt.Fprintln(out, "smoke: ops listener ok (metrics + pprof)")
	}
	fmt.Fprintln(out, "smoke: OK")
	return nil
}

// requiredFamilies are the metric families a healthy daemon must
// expose; the smoke test (and CI's daemon smoke step behind it) fails
// if any is missing or malformed.
var requiredFamilies = []string{
	"rushprobe_ingest_batch_seconds",
	"rushprobe_plan_cache_hits_total",
	"rushprobe_plan_cache_misses_total",
	"rushprobe_profile_bytes_per_node",
	"rushprobe_drift_events_total",
}

// smokeMetrics scrapes and validates the daemon's exposition.
func smokeMetrics(base string, out io.Writer) error {
	fams, err := scrapeMetrics(base + "/metrics")
	if err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	for _, name := range requiredFamilies {
		if _, ok := fams[name]; !ok {
			return fmt.Errorf("smoke: /metrics is missing the %s family", name)
		}
	}
	ingest := fams["rushprobe_ingest_batch_seconds"]
	if err := ingest.ValidateHistogram(); err != nil {
		return fmt.Errorf("smoke: ingest histogram: %w", err)
	}
	ih := ingest.Histogram()
	if ih.Count < 1 {
		return errors.New("smoke: ingest histogram counted no batches after ingesting the trace")
	}
	fmt.Fprintf(out, "smoke: metrics ok — %d families, ingest p99 %.3f ms over %.0f batches\n",
		len(fams), ih.Quantile(0.99)*1e3, ih.Count)
	return nil
}

// scrapeMetrics fetches and strictly parses a Prometheus text
// exposition — the same parser rushbench uses, so smoke failures and
// bench scrapes agree on what well-formed means.
func scrapeMetrics(url string) (map[string]*telemetry.Family, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != expositionContentType {
		return nil, fmt.Errorf("metrics: Content-Type %q, want %q", ct, expositionContentType)
	}
	return telemetry.ParseText(resp.Body)
}

func postJSON(url string, body []byte, v any) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeResponse(resp, v)
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	return decodeResponse(resp, v)
}

func decodeResponse(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
