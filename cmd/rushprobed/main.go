// Command rushprobed is the fleet daemon: an HTTP/JSON service that
// ingests batched contact observations from sensor nodes, maintains
// per-node rush-hour profiles, and serves each node its current probing
// schedule (bootstrap SNIP-AT until enough epochs are learned, then the
// strategy selected with -strategy, overridable per node via
// POST /v1/strategy/{node}).
//
// It runs in one of two modes with one handler set. As a shard (the
// default) it serves its own fleet. With -route it is a router in front
// of shard daemons: every request scatters by consistent hash to the
// shards owning its nodes, and the answers, statuses and error texts
// are those of a single daemon (a shard's 4xx passes through; any other
// shard failure is a 502).
//
// Endpoints (both modes unless marked):
//
//	POST /v1/observe          {"observations":[{"node":"n1","time":3600,"length":2.1,"uploaded":512}, ...]}
//	GET  /v1/schedule/{node}  current per-slot duty plan + strategy
//	POST /v1/schedules        {"nodes":["n1",...]} plans in request order
//	GET  /v1/profile/{node}   learned per-node state
//	POST /v1/strategy/{node}  {"strategy":"SNIP-RH"} sets the node's strategy ("" = fleet default)
//	GET  /v1/strategies       registered strategy names
//	GET  /v1/healthz          liveness + fleet counters (a router merges its shards')
//	POST /v1/snapshot         compact learned state into the -snaplog log (a router fans out)
//	GET  /v1/nodes            shard only: tracked node IDs, sorted
//	POST /v1/migrate/{export,import,remove}  shard only: the handoff calls of a rebalance
//	GET|POST /v1/ring         router only: read or change ring membership (live rebalance)
//	GET  /metrics             Prometheus text exposition: counters, gauges, stage histograms
//	GET  /debug/traces?n=     most recent request/stage spans from the in-memory trace ring
//
// Every response is JSON (the shapes are declared in internal/wire),
// including errors and unknown routes ({"error": "..."}), except
// /metrics (Prometheus text format) and the binary migrate export.
//
// The daemon degrades rather than collapses under overload: ingest
// concurrency is bounded (-max-inflight-observe), and excess observe
// requests are shed with 429 + Retry-After instead of queueing without
// bound; every request runs under a deadline (-request-timeout); and
// the listener enforces header/read/write/idle timeouts so slow or
// stalled clients cannot pin connections.
//
// Observability: every request gets an ID (a well-formed incoming
// X-Request-ID is kept, otherwise one is minted), returned as
// X-Request-ID, threaded through the fleet's stage spans and forwarded
// by a router to its shards. Requests slower than -slow-request are
// logged automatically, and all logging is structured (-log-format
// text|json, -log-level). -ops-addr starts a second listener carrying
// net/http/pprof, /metrics, and /debug/traces, kept off the
// fleet-facing API port.
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
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rushprobe"
	"rushprobe/internal/contact"
	"rushprobe/internal/rng"
	"rushprobe/internal/scenario"
	"rushprobe/internal/shardroute"
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
		strat      = fs.String("strategy", rushprobe.SNIPOPT, "default strategy served after bootstrap: any registered name or alias (see GET /v1/strategies)")
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
	tel := rushprobe.NewTelemetry(rushprobe.TelemetryConfig{
		TraceRing: *traceRing,
		SlowSpan:  *slowReq,
		Logger:    logger,
	})
	var srv *server
	if *route != "" {
		if *smoke || *snaplog != "" {
			return errors.New("-route is exclusive of -smoke and -snaplog: the router holds no fleet state (each shard persists its own)")
		}
		rt, err := buildRouter(*route)
		if err != nil {
			return err
		}
		if len(rt.Shards()) == 0 {
			return errors.New("-route lists no shards")
		}
		srv = newRoutingServer(rt, tel)
	} else {
		f, err := rushprobe.NewFleet(
			rushprobe.Roadside(rushprobe.WithZetaTarget(*zeta), rushprobe.WithBudgetFraction(*budget)),
			rushprobe.WithBootstrapEpochs(*bootstrap),
			rushprobe.WithShards(*shards),
			rushprobe.WithFleetStrategy(*strat),
			rushprobe.WithDriftDetector(*driftDet),
			rushprobe.WithTelemetry(tel),
		)
		if err != nil {
			return err
		}
		srv = newServer(f)
		if *snaplog != "" {
			if err := srv.openSnaplog(*snaplog, logger); err != nil {
				return err
			}
		}
	}
	if *inflight > 0 {
		srv.observeSem = make(chan struct{}, *inflight)
	}
	if *reqTimeout > 0 {
		srv.requestTimeout = *reqTimeout
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
		if srv.router != nil {
			logger.Info("routing", "addr", *addr, "shards", srv.router.Shards())
		} else {
			logger.Info("listening", "addr", *addr, "strategy", *strat, "snaplog", *snaplog)
		}
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
		logger.Info("snapshot log compacted", "path", *snaplog, "nodes", srv.fleet.Stats().Nodes)
	}
	return nil
}

// newLogger builds the daemon's structured logger from the -log-format
// and -log-level flags.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	return telemetry.NewLogger(w, format, level)
}

// normalizeShardURL canonicalizes one shard base URL: trim whitespace,
// default the scheme to http://, strip trailing slashes. The -route
// flag and POST /v1/ring share it, so the same spelling always names
// the same ring member.
func normalizeShardURL(raw string) string {
	u := strings.TrimSpace(raw)
	if u == "" {
		return ""
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return strings.TrimRight(u, "/")
}

// buildRouter wires the -route shard list (comma-separated base URLs)
// into a consistent-hash router over HTTP backends. Shard names are
// the URLs themselves, so the ring is a pure function of the flag.
func buildRouter(shardList string) (*shardroute.Router, error) {
	rt := shardroute.NewRouter(0, nil)
	for _, raw := range strings.Split(shardList, ",") {
		u := normalizeShardURL(raw)
		if u == "" {
			continue
		}
		if err := rt.AddShard(u, &shardroute.HTTPBackend{BaseURL: u}); err != nil {
			return nil, err
		}
	}
	return rt, nil
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

// server serves the daemon's HTTP API in either mode. The routes both
// modes share read from backend: in shard mode a
// shardroute.LocalBackend over the daemon's own fleet, in -route mode
// the shardroute.Router that scatters to the shard daemons. Exactly one
// of fleet and router is set; routes that only one mode can serve
// (/v1/nodes and /v1/migrate/* for a shard, /v1/ring for a router)
// register only in that mode.
type server struct {
	backend shardroute.Service
	fleet   *rushprobe.Fleet
	router  *shardroute.Router
	start   time.Time
	mux     *http.ServeMux

	// snaplog, when non-nil, is the incremental binary snapshot log
	// that persistSnapshot compacts; nil when the daemon runs without
	// -snaplog and persists nothing.
	snaplog *snaplogStore

	// tel is the telemetry bundle (shared with the fleet in shard mode;
	// a detached one when none is given, so /metrics and /debug/traces
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

// newServer serves f in shard mode.
func newServer(f *rushprobe.Fleet) *server {
	s := newBaseServer(&shardroute.LocalBackend{Fleet: f}, f.Telemetry())
	s.fleet = f
	// Exposition order: fleet counters and gauges first (the families the
	// daemon has always served), then the stage histograms, then runtime.
	s.registry.AddFunc(s.collectFleet)
	s.tel.Register(s.registry)
	telemetry.RegisterRuntime(s.registry)
	s.mux.HandleFunc("/v1/nodes", s.handleNodes)
	s.mux.HandleFunc("/v1/migrate/export", s.handleMigrateExport)
	s.mux.HandleFunc("/v1/migrate/import", s.handleMigrateImport)
	s.mux.HandleFunc("/v1/migrate/remove", s.handleMigrateRemove)
	return s
}

// newRoutingServer serves rt in -route mode: the same handlers, every
// request scattered to the shard daemons owning its nodes. The router
// holds no learned state of its own — each shard persists its own
// snapshot. tel carries the trace ring and logger; nil runs detached.
func newRoutingServer(rt *shardroute.Router, tel *rushprobe.Telemetry) *server {
	s := newBaseServer(rt, tel)
	s.router = rt
	s.registry.AddFunc(rt.Collect)
	s.registry.AddFunc(func(e *telemetry.Exposition) {
		e.Counter("rushprobe_observe_shed_total", "Observe requests shed at the ingest concurrency bound.", float64(s.shed.Load()))
	})
	telemetry.RegisterRuntime(s.registry)
	s.mux.HandleFunc("/v1/ring", s.handleRing)
	return s
}

// newBaseServer builds the part of the server both modes share: the
// routes served over backend, the telemetry surface and the catch-all.
func newBaseServer(backend shardroute.Service, tel *rushprobe.Telemetry) *server {
	if tel == nil {
		tel = rushprobe.NewTelemetry(rushprobe.TelemetryConfig{})
	}
	s := &server{
		backend:        backend,
		start:          time.Now(),
		mux:            http.NewServeMux(),
		tel:            tel,
		logger:         tel.Logger,
		registry:       telemetry.NewRegistry(),
		requestTimeout: defaultRequestTimeout,
		observeSem:     make(chan struct{}, defaultMaxInflightObserve),
	}
	s.mux.HandleFunc("/v1/observe", s.handleObserve)
	s.mux.HandleFunc("/v1/schedule/", s.handleSchedule)
	s.mux.HandleFunc("/v1/schedules", s.handleSchedules)
	s.mux.HandleFunc("/v1/profile/", s.handleProfile)
	s.mux.HandleFunc("/v1/strategy/", s.handleStrategy)
	s.mux.HandleFunc("/v1/strategies", s.handleStrategies)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/traces", s.handleTraces)
	// Catch-all: unknown routes get the API's JSON error payload, not
	// the mux's default text/plain 404 (or an empty body).
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "unknown path %q", r.URL.Path)
	})
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
// budget. It adopts the caller's X-Request-ID when it is well formed
// (wire.ValidRequestID) and mints one otherwise; the ID is echoed,
// carried by the context into the fleet's stage spans and, in -route
// mode, forwarded to the shards. It records the whole request as an
// http span — which is what triggers the -slow-request auto-log.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if s.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.requestTimeout)
		defer cancel()
	}
	id := r.Header.Get(wire.RequestIDHeader)
	if !wire.ValidRequestID(id) {
		id = "req-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
	}
	ctx = telemetry.WithRequestID(ctx, id)
	w.Header().Set(wire.RequestIDHeader, id)
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

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, wire.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// fail answers a backend error, the one place its status is chosen. A
// shard's client error (a 4xx carrying the shard's own message, as a
// *shardroute.StatusError) passes through unchanged, so a caller gets
// the status and text a single daemon would give. Any other error is a
// 502 in -route mode (a shard failed) and status in shard mode (the
// local fleet failed); its message is "op: err".
func (s *server) fail(w http.ResponseWriter, err error, status int, op string) {
	var se *shardroute.StatusError
	if errors.As(err, &se) && se.Code >= 400 && se.Code < 500 && se.Message != "" {
		writeError(w, se.Code, "%s", se.Message)
		return
	}
	if s.router != nil {
		status = http.StatusBadGateway
	}
	writeError(w, status, "%s: %v", op, err)
}

// allow answers 405 unless the request uses method.
func allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	writeError(w, http.StatusMethodNotAllowed, "%s required", method)
	return false
}

// nodeParam extracts the node ID that follows prefix in the request
// path, answering 400 itself when it is malformed or missing.
func nodeParam(w http.ResponseWriter, r *http.Request, prefix string) (string, bool) {
	node, err := wire.NodeParam(r.URL.EscapedPath(), prefix)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return "", false
	}
	if node == "" {
		writeError(w, http.StatusBadRequest, "missing node ID")
		return "", false
	}
	return node, true
}

// decodeJSON decodes a JSON request body of at most limit bytes into
// v, answering 400 "decode: <error>" itself on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return false
	}
	return true
}

func (s *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) || !s.admitObserve(w, r) {
		return
	}
	defer s.releaseObserve()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	obs, ok := decodeObserveBody(w, r, maxObserveBody)
	if !ok {
		return
	}
	accepted, err := s.backend.Observe(r.Context(), obs)
	if err != nil {
		// Partial scatter failure: some shards folded their slice, some
		// did not. The accepted count tells reporters what landed.
		s.logger.Warn("observe failed", "accepted", accepted, "err", err, "request", telemetry.RequestID(r.Context()))
		s.fail(w, err, http.StatusInternalServerError, fmt.Sprintf("observe: accepted %d of %d", accepted, len(obs)))
		return
	}
	writeJSON(w, http.StatusOK, wire.ObserveResponse{Received: len(obs), Accepted: accepted})
}

// admitObserve takes one of observeSem's slots for an observe request.
// When every slot is busy it sheds the request at once — 429 with a
// retry hint instead of queueing without bound, so under a traffic
// spike the server stays responsive (schedules, health, metrics) and
// pushes backpressure to the reporting nodes — counts it in shed, and
// returns false. A nil semaphore admits everything. Callers that were
// admitted release the slot with releaseObserve.
func (s *server) admitObserve(w http.ResponseWriter, r *http.Request) bool {
	if s.observeSem == nil {
		return true
	}
	select {
	case s.observeSem <- struct{}{}:
		return true
	default:
	}
	// Shedding under a spike can be very frequent; log the first and
	// then a 1-in-100 sample so the event is visible without the log
	// amplifying the overload.
	if n := s.shed.Add(1); n == 1 || n%100 == 0 {
		s.logger.Warn("observe shed at ingest capacity",
			"shedTotal", n, "request", telemetry.RequestID(r.Context()))
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, "ingest at capacity, retry")
	return false
}

// releaseObserve frees the slot admitObserve took.
func (s *server) releaseObserve() {
	if s.observeSem != nil {
		<-s.observeSem
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

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	node, ok := nodeParam(w, r, "/v1/schedule/")
	if !ok {
		return
	}
	sched, err := s.backend.Schedule(r.Context(), node)
	if err != nil {
		s.fail(w, err, http.StatusInternalServerError, "schedule")
		return
	}
	writeJSON(w, http.StatusOK, wire.ScheduleResponse{Node: node, Schedule: sched})
}

// maxSchedulesBody bounds a batch schedule request body (8 MiB ≈
// hundreds of thousands of node IDs).
const maxSchedulesBody = 8 << 20

// handleSchedules is the batch counterpart of /v1/schedule/{node}: one
// round trip for a whole fleet sweep, and the scatter-gather unit the
// -route mode's router uses against its shards.
func (s *server) handleSchedules(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	var req wire.NodeList
	if !decodeJSON(w, r, maxSchedulesBody, &req) {
		return
	}
	scheds, err := s.backend.ScheduleBatch(r.Context(), req.Nodes)
	if err != nil {
		s.fail(w, err, http.StatusInternalServerError, "schedules")
		return
	}
	if scheds == nil {
		scheds = []*rushprobe.Schedule{}
	}
	writeJSON(w, http.StatusOK, wire.SchedulesResponse{Schedules: scheds})
}

func (s *server) handleStrategy(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	node, ok := nodeParam(w, r, "/v1/strategy/")
	if !ok {
		return
	}
	var req wire.StrategyRequest
	if !decodeJSON(w, r, 4096, &req) {
		return
	}
	inForce, err := s.backend.SetStrategy(r.Context(), node, req.Strategy)
	if err != nil {
		s.fail(w, err, http.StatusBadRequest, "strategy")
		return
	}
	writeJSON(w, http.StatusOK, wire.StrategyResponse{Node: node, Strategy: inForce})
}

func (s *server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, wire.StrategiesResponse{Strategies: rushprobe.Strategies()})
}

func (s *server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	node, ok := nodeParam(w, r, "/v1/profile/")
	if !ok {
		return
	}
	prof, err := s.backend.Profile(r.Context(), node)
	if err != nil {
		s.fail(w, err, http.StatusInternalServerError, "profile")
		return
	}
	writeJSON(w, http.StatusOK, prof)
}

// handleNodes lists every tracked node ID, sorted — the enumeration a
// router rebalance diffs against the new ring.
func (s *server) handleNodes(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	ids := s.fleet.NodeIDs()
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, wire.NodeList{Nodes: ids})
}

// handleMigrateExport streams the named nodes as self-contained binary
// snapshot frames (the SnapshotBinary format) for a shard handoff. The
// exporting fleet is untouched: it stays authoritative until the
// migration commits and the router removes the nodes.
func (s *server) handleMigrateExport(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	var req wire.NodeList
	if !decodeJSON(w, r, maxSchedulesBody, &req) {
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

// handleMigrateImport admits binary frames produced by an export. The
// payload is validated whole before anything lands, and with -snaplog
// configured the imported nodes are appended to the log before the 200
// goes out — the router treats this reply as the durable half of its
// commit point, so acknowledging an unpersisted import would let a
// crash lose nodes both sides think were handed off.
func (s *server) handleMigrateImport(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
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
	writeJSON(w, http.StatusOK, wire.ImportResponse{Imported: n})
}

// handleMigrateRemove deletes the named nodes — the post-commit
// cleanup of a handoff. Unknown IDs are skipped, so re-running a
// partially cleaned migration converges.
func (s *server) handleMigrateRemove(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	var req wire.NodeList
	if !decodeJSON(w, r, maxSchedulesBody, &req) {
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
	writeJSON(w, http.StatusOK, wire.RemoveResponse{Removed: n})
}

// handleRing reads (GET) or changes (POST) a router's ring membership.
// POST entries are normalized like the -route flag, so the same
// spelling addresses the same shard, and run a full Rebalance: learned
// state drains from old owners to new before the ring flips, so every
// already-learned node keeps its schedule across the change (see
// shardroute.Router.Rebalance).
func (s *server) handleRing(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, wire.RingResponse{Shards: s.router.Shards()})
	case http.MethodPost:
		var req wire.RingChangeRequest
		if !decodeJSON(w, r, 1<<20, &req) {
			return
		}
		add := make(map[string]shardroute.Backend, len(req.Add))
		for _, raw := range req.Add {
			u := normalizeShardURL(raw)
			if u == "" {
				writeError(w, http.StatusBadRequest, "empty shard URL in add list")
				return
			}
			add[u] = &shardroute.HTTPBackend{BaseURL: u}
		}
		remove := make([]string, 0, len(req.Remove))
		for _, raw := range req.Remove {
			u := normalizeShardURL(raw)
			if u == "" {
				writeError(w, http.StatusBadRequest, "empty shard URL in remove list")
				return
			}
			remove = append(remove, u)
		}
		report, err := s.router.Rebalance(r.Context(), add, remove)
		if err != nil {
			s.logger.Warn("rebalance failed", "err", err, "request", telemetry.RequestID(r.Context()))
			writeError(w, http.StatusBadGateway, "rebalance: %v", err)
			return
		}
		s.logger.Info("rebalance committed",
			"shards", len(report.Shards), "moved", report.Moved,
			"cleanupErrors", len(report.CleanupErrors),
			"request", telemetry.RequestID(r.Context()))
		writeJSON(w, http.StatusOK, report)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

// snapshotHealth snapshots the server's persistence bookkeeping.
func (s *server) snapshotHealth() wire.SnapshotHealth {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	h := wire.SnapshotHealth{
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

// handleHealthz reports liveness and the fleet counters, flat in both
// modes. A shard adds its snapshot block; a router merges its shards'
// counters and lists the shards, degrading the status (still 200) when
// any shard does not answer.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	uptime := time.Since(s.start).Seconds()
	if s.router == nil {
		writeJSON(w, http.StatusOK, wire.HealthResponse{
			Status:        "ok",
			UptimeSeconds: uptime,
			Snapshot:      s.snapshotHealth(),
			Stats:         s.fleet.Stats(),
		})
		return
	}
	shards := s.router.Shards()
	per, err := s.router.ShardStats(r.Context())
	status := "ok"
	if err != nil {
		status = "degraded: " + err.Error()
	}
	writeJSON(w, http.StatusOK, wire.RouterHealthResponse{
		Status:          status,
		UptimeSeconds:   uptime,
		Shards:          shards,
		ShardsTotal:     len(shards),
		ShardsReporting: len(per),
		Stats:           shardroute.SumStats(per),
		PerShard:        per,
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
	if !allow(w, r, http.MethodGet) {
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
	if !allow(w, r, http.MethodGet) {
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

// handleSnapshot persists learned state: a shard compacts its -snaplog
// log, a router asks every shard to persist its own.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	if s.router != nil {
		if err := s.router.PersistSnapshots(r.Context()); err != nil {
			writeError(w, http.StatusBadGateway, "snapshot fan-out: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, wire.RouterSnapshotResponse{Shards: len(s.router.Shards())})
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
	writeJSON(w, http.StatusOK, wire.SnapshotResponse{Nodes: s.fleet.Stats().Nodes, Path: s.snaplog.path})
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
		var sr wire.ScheduleResponse
		if err := getJSON(base+"/v1/schedule/"+id, &sr); err != nil {
			return fmt.Errorf("smoke: schedule %s: %w", id, err)
		}
		if sr.Schedule == nil || len(sr.Duty) == 0 {
			return fmt.Errorf("smoke: node %s got an empty schedule", id)
		}
		if sr.Mechanism == rushprobe.SNIPAT {
			learned = false
		}
		if n == 0 {
			fmt.Fprintf(out, "smoke: %s serves %s, zeta=%.2f phi=%.2f over %d slots\n",
				id, sr.Mechanism, sr.Zeta, sr.Phi, len(sr.Duty))
		}
	}
	var hr wire.HealthResponse
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
