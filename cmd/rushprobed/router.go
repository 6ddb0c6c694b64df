package main

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rushprobe"
	"rushprobe/internal/shardroute"
	"rushprobe/internal/telemetry"
	"rushprobe/internal/wire"
)

// routerServer serves the daemon's API in -route mode: the same
// endpoints, but every request scatters to the shard daemons owning
// the nodes instead of touching a local fleet. The router holds no
// learned state of its own — each shard persists its own snapshot.
type routerServer struct {
	rt       *shardroute.Router
	mux      *http.ServeMux
	logger   *slog.Logger
	registry *telemetry.Registry
	start    time.Time
	reqSeq   atomic.Uint64

	// requestTimeout bounds each request's context; observeSem bounds
	// concurrent observe requests like the daemon's
	// -max-inflight-observe (nil disables shedding), and shed counts
	// the requests turned away.
	requestTimeout time.Duration
	observeSem     chan struct{}
	shed           atomic.Int64
}

func newRouterServer(rt *shardroute.Router, logger *slog.Logger) *routerServer {
	s := &routerServer{
		rt:             rt,
		mux:            http.NewServeMux(),
		logger:         logger,
		registry:       telemetry.NewRegistry(),
		start:          time.Now(),
		requestTimeout: defaultRequestTimeout,
		observeSem:     make(chan struct{}, defaultMaxInflightObserve),
	}
	s.registry.AddFunc(rt.Collect)
	s.registry.AddFunc(func(e *telemetry.Exposition) {
		e.Counter("rushprobe_observe_shed_total", "Observe requests shed at the ingest concurrency bound.", float64(s.shed.Load()))
	})
	telemetry.RegisterRuntime(s.registry)
	s.mux.HandleFunc("/v1/observe", s.handleObserve)
	s.mux.HandleFunc("/v1/schedule/", s.handleSchedule)
	s.mux.HandleFunc("/v1/schedules", s.handleSchedules)
	s.mux.HandleFunc("/v1/profile/", s.handleProfile)
	s.mux.HandleFunc("/v1/strategy/", s.handleStrategy)
	s.mux.HandleFunc("/v1/strategies", s.handleStrategies)
	s.mux.HandleFunc("/v1/ring", s.handleRing)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "unknown path %q", r.URL.Path)
	})
	return s
}

func (s *routerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if s.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.requestTimeout)
		defer cancel()
	}
	id := "req-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
	ctx = telemetry.WithRequestID(ctx, id)
	w.Header().Set("X-Request-ID", id)
	s.mux.ServeHTTP(w, r.WithContext(ctx))
}

func (s *routerServer) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !admitObserve(s.observeSem, &s.shed, s.logger, w, r) {
		return
	}
	defer releaseObserve(s.observeSem)
	obs, ok := decodeObserveBody(w, r, maxObserveBody)
	if !ok {
		return
	}
	accepted, err := s.rt.Observe(r.Context(), obs)
	if err != nil {
		// Partial scatter failure: some shards folded their slice, some
		// did not. Surface it as a bad gateway with the accepted count
		// so reporters know what landed.
		s.logger.Warn("routed observe failed on some shards", "accepted", accepted, "err", err)
		writeError(w, http.StatusBadGateway, "observe: accepted %d of %d: %v", accepted, len(obs), err)
		return
	}
	writeJSON(w, http.StatusOK, wire.ObserveResponse{Received: len(obs), Accepted: accepted})
}

func (s *routerServer) handleSchedule(w http.ResponseWriter, r *http.Request) {
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
	sched, err := s.rt.Schedule(r.Context(), node)
	if err != nil {
		writeError(w, http.StatusBadGateway, "schedule: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, scheduleResponse{Node: node, Schedule: sched})
}

func (s *routerServer) handleSchedules(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req schedulesRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSchedulesBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	scheds, err := s.rt.ScheduleBatch(r.Context(), req.Nodes)
	if err != nil {
		writeError(w, http.StatusBadGateway, "schedules: %v", err)
		return
	}
	if scheds == nil {
		scheds = []*rushprobe.Schedule{}
	}
	writeJSON(w, http.StatusOK, schedulesResponse{Schedules: scheds})
}

func (s *routerServer) handleProfile(w http.ResponseWriter, r *http.Request) {
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
	prof, err := s.rt.Profile(r.Context(), node)
	if err != nil {
		writeError(w, http.StatusBadGateway, "profile: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, prof)
}

func (s *routerServer) handleStrategy(w http.ResponseWriter, r *http.Request) {
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
	inForce, err := s.rt.SetStrategy(r.Context(), node, req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadGateway, "strategy: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, strategyResponse{Node: node, Strategy: inForce})
}

func (s *routerServer) handleStrategies(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, strategiesResponse{Strategies: rushprobe.Strategies()})
}

// routerHealthResponse is router-mode healthz: merged fleet counters
// plus the shard roster, so operators see both the whole and the
// parts. ShardsReporting < ShardsTotal marks the merged counters as a
// partial sum over the shards that answered — never fleet truth when
// any shard is down.
type routerHealthResponse struct {
	Status          string   `json:"status"`
	UptimeSeconds   float64  `json:"uptimeSeconds"`
	Shards          []string `json:"shards"`
	ShardsTotal     int      `json:"shardsTotal"`
	ShardsReporting int      `json:"shardsReporting"`
	rushprobe.FleetStats
	PerShard map[string]rushprobe.FleetStats `json:"perShard"`
}

func (s *routerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	shards := s.rt.Shards()
	per, perErr := s.rt.ShardStats(r.Context())
	var total rushprobe.FleetStats
	for _, st := range per {
		total.Nodes += st.Nodes
		total.Observations += st.Observations
		total.Stale += st.Stale
		total.Invalid += st.Invalid
		total.PlanSolves += st.PlanSolves
		total.PlanCacheHits += st.PlanCacheHits
		total.CachedPlans += st.CachedPlans
		total.DriftEvents += st.DriftEvents
	}
	status := "ok"
	if perErr != nil {
		status = "degraded: " + perErr.Error()
	}
	writeJSON(w, http.StatusOK, routerHealthResponse{
		Status:          status,
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Shards:          shards,
		ShardsTotal:     len(shards),
		ShardsReporting: len(per),
		FleetStats:      total,
		PerShard:        per,
	})
}

// ringResponse is the GET /v1/ring body (and the membership echo of a
// successful POST, inside rebalanceResponse).
type ringResponse struct {
	Shards []string `json:"shards"`
}

// ringChangeRequest is the POST /v1/ring body: shard base URLs to
// attach and/or detach. Entries are normalized exactly like the -route
// flag, so the same spelling addresses the same shard.
type ringChangeRequest struct {
	Add    []string `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

// handleRing reads (GET) or changes (POST) the ring membership. A POST
// runs a full Rebalance: learned state drains from old owners to new
// before the ring flips, so every already-learned node keeps its
// schedule across the change (see shardroute.Router.Rebalance).
func (s *routerServer) handleRing(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, ringResponse{Shards: s.rt.Shards()})
	case http.MethodPost:
		var req ringChangeRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "decode: %v", err)
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
		report, err := s.rt.Rebalance(r.Context(), add, remove)
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

type routerSnapshotResponse struct {
	Shards int `json:"shards"`
}

func (s *routerServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := s.rt.PersistSnapshots(r.Context()); err != nil {
		writeError(w, http.StatusBadGateway, "snapshot fan-out: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, routerSnapshotResponse{Shards: len(s.rt.Shards())})
}

func (s *routerServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", expositionContentType)
	w.WriteHeader(http.StatusOK)
	_ = s.registry.WriteText(w)
}

// normalizeShardURL canonicalizes one shard base URL the way the
// -route flag always has: trim whitespace, default the scheme to
// http://, strip trailing slashes. The -route flag and POST /v1/ring
// share it, so the same spelling always names the same ring member.
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
