package shardroute

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"rushprobe/internal/fleet"
	"rushprobe/internal/telemetry"
	"rushprobe/internal/wire"
)

// Service is the serving half of Backend: the calls the daemon's /v1
// handlers make. *Router implements it too, so a router serves through
// the same handlers as a shard, and a router can be another router's
// shard. Every method is context-bound so a slow shard cannot pin a
// scatter past the request deadline.
type Service interface {
	// Observe folds a batch (already routed: every observation in it
	// belongs to this shard) and returns how many were accepted.
	Observe(ctx context.Context, batch []fleet.Observation) (int, error)
	// Schedule returns the plan in force for one node.
	Schedule(ctx context.Context, node string) (*fleet.Schedule, error)
	// ScheduleBatch returns plans for the nodes in input order.
	ScheduleBatch(ctx context.Context, nodes []string) ([]*fleet.Schedule, error)
	// SetStrategy overrides one node's strategy and returns the name
	// now in force.
	SetStrategy(ctx context.Context, node, name string) (string, error)
	// Profile reports one node's learned state.
	Profile(ctx context.Context, node string) (fleet.NodeProfile, error)
	// Stats returns the shard's counters.
	Stats(ctx context.Context) (fleet.Stats, error)
}

var _ Service = (*Router)(nil)

// Backend is one fleet shard behind the router: the serving surface
// plus the persistence and handoff calls a rebalance needs, whether the
// shard lives in this process or behind a rushprobed daemon.
type Backend interface {
	Service
	// PersistSnapshot asks the shard to persist its learned state to
	// its own durable home (each shard owns its snapshot).
	PersistSnapshot(ctx context.Context) error
	// ListNodes returns every node ID the shard tracks, sorted — the
	// enumeration a rebalance diffs against the new ring.
	ListNodes(ctx context.Context) ([]string, error)
	// ExportNodes streams the named nodes' learned state as
	// self-contained binary snapshot frames (see fleet.ExportNodes).
	// The shard stays authoritative: nothing is deleted or marked
	// clean by an export.
	ExportNodes(ctx context.Context, ids []string) ([]byte, error)
	// ImportFrames admits exported frames, all-or-nothing, persisting
	// them durably before returning where the shard has persistence —
	// once the ownership flip commits, the new owner must survive a
	// crash without losing the handed-off state. Returns how many
	// nodes were imported.
	ImportFrames(ctx context.Context, data []byte) (int, error)
	// RemoveNodes deletes the named nodes (unknown IDs skipped),
	// returning how many existed — the post-commit cleanup of a
	// handoff.
	RemoveNodes(ctx context.Context, ids []string) (int, error)
}

// LocalFleet is the fleet a LocalBackend serves from: the method set
// *fleet.Fleet and the public *rushprobe.Fleet share.
type LocalFleet interface {
	ObserveContext(ctx context.Context, batch []fleet.Observation) int
	ScheduleContext(ctx context.Context, node string) (*fleet.Schedule, error)
	ScheduleBatch(nodes []string) ([]*fleet.Schedule, error)
	SetStrategy(node, name string) (string, error)
	Profile(node string) (fleet.NodeProfile, error)
	Stats() fleet.Stats
	NodeIDs() []string
	ExportNodes(ids []string) ([]byte, error)
	ImportFrames(data []byte) (int, error)
	RemoveNodes(ids []string) int
}

// LocalBackend adapts an in-process fleet to the Backend interface; the
// daemon serves its /v1 routes through one in shard mode. Persist, when
// non-nil, is invoked by PersistSnapshot and after ImportFrames; nil
// makes PersistSnapshot an error so a misconfigured shard cannot
// silently drop state.
type LocalBackend struct {
	Fleet   LocalFleet
	Name    string
	Persist func(ctx context.Context) error
}

var _ Backend = (*LocalBackend)(nil)

func (b *LocalBackend) Observe(ctx context.Context, batch []fleet.Observation) (int, error) {
	return b.Fleet.ObserveContext(ctx, batch), nil
}

func (b *LocalBackend) Schedule(ctx context.Context, node string) (*fleet.Schedule, error) {
	return b.Fleet.ScheduleContext(ctx, node)
}

func (b *LocalBackend) ScheduleBatch(_ context.Context, nodes []string) ([]*fleet.Schedule, error) {
	return b.Fleet.ScheduleBatch(nodes)
}

func (b *LocalBackend) SetStrategy(_ context.Context, node, name string) (string, error) {
	return b.Fleet.SetStrategy(node, name)
}

func (b *LocalBackend) Profile(_ context.Context, node string) (fleet.NodeProfile, error) {
	return b.Fleet.Profile(node)
}

func (b *LocalBackend) Stats(context.Context) (fleet.Stats, error) {
	return b.Fleet.Stats(), nil
}

func (b *LocalBackend) PersistSnapshot(ctx context.Context) error {
	if b.Persist == nil {
		return fmt.Errorf("shardroute: shard %q has no snapshot persistence configured", b.Name)
	}
	return b.Persist(ctx)
}

func (b *LocalBackend) ListNodes(context.Context) ([]string, error) {
	return b.Fleet.NodeIDs(), nil
}

func (b *LocalBackend) ExportNodes(_ context.Context, ids []string) ([]byte, error) {
	return b.Fleet.ExportNodes(ids)
}

func (b *LocalBackend) ImportFrames(ctx context.Context, data []byte) (int, error) {
	n, err := b.Fleet.ImportFrames(data)
	if err != nil {
		return 0, err
	}
	// Honor the durability half of the contract when this shard has a
	// persistence hook: the imported nodes are dirty, so a persist here
	// lands them before the router flips ownership.
	if b.Persist != nil {
		if err := b.Persist(ctx); err != nil {
			return 0, fmt.Errorf("shardroute: shard %q imported %d nodes but could not persist them: %w", b.Name, n, err)
		}
	}
	return n, nil
}

func (b *LocalBackend) RemoveNodes(_ context.Context, ids []string) (int, error) {
	return b.Fleet.RemoveNodes(ids), nil
}

// HTTPBackend adapts a remote rushprobed daemon to the Backend
// interface through its JSON API. BaseURL is the daemon's root (e.g.
// "http://10.0.0.7:8080"); Client defaults to a client with a 30 s
// timeout.
type HTTPBackend struct {
	BaseURL string
	Client  *http.Client
}

var _ Backend = (*HTTPBackend)(nil)

// defaultHTTPTimeout bounds a backend call when the caller supplies no
// client; scatter calls are additionally bounded by their context.
const defaultHTTPTimeout = 30 * time.Second

// defaultClient serves every HTTPBackend without its own Client. It
// pools connections in http.DefaultTransport, so sequential calls to a
// shard reuse one keep-alive connection.
var defaultClient = &http.Client{Timeout: defaultHTTPTimeout}

func (b *HTTPBackend) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return defaultClient
}

// StatusError is a shard daemon's non-2xx reply. Message is the
// daemon's own {"error"} string, empty when the body did not decode as
// one; a server passing a shard's client error through to its caller
// answers with Code and Message unchanged.
type StatusError struct {
	Method, Path string
	Code         int
	Message      string
}

func (e *StatusError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("shardroute: %s %s: HTTP %d", e.Method, e.Path, e.Code)
	}
	return fmt.Sprintf("shardroute: %s %s: HTTP %d: %s", e.Method, e.Path, e.Code, e.Message)
}

// do sends one request to the daemon: every call goes through here, so
// each carries the caller's request ID (telemetry.RequestID) and a
// non-2xx reply always becomes a *StatusError. On success the caller
// owns the response body.
func (b *HTTPBackend) do(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if id := telemetry.RequestID(ctx); id != "" {
		req.Header.Set(wire.RequestIDHeader, id)
	}
	resp, err := b.client().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		defer resp.Body.Close()
		se := &StatusError{Method: method, Path: path, Code: resp.StatusCode}
		var eb wire.ErrorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(data, &eb) == nil {
			se.Message = eb.Error
		}
		return nil, se
	}
	return resp, nil
}

// call performs one JSON round trip: in (when non-nil) is the request
// body, out (when non-nil) receives the reply.
func (b *HTTPBackend) call(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	contentType := ""
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body, contentType = data, "application/json"
	}
	resp, err := b.do(ctx, method, path, contentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return err
		}
	}
	// Read to EOF (the decoder may stop short of a trailing newline or
	// a chunked terminator) so the transport keeps the connection.
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

func (b *HTTPBackend) Observe(ctx context.Context, batch []fleet.Observation) (int, error) {
	var out wire.ObserveResponse
	if err := b.call(ctx, http.MethodPost, "/v1/observe", wire.ObserveRequest{Observations: batch}, &out); err != nil {
		return 0, err
	}
	return out.Accepted, nil
}

func (b *HTTPBackend) Schedule(ctx context.Context, node string) (*fleet.Schedule, error) {
	var out wire.ScheduleResponse
	if err := b.call(ctx, http.MethodGet, wire.NodePath("/v1/schedule/", node), nil, &out); err != nil {
		return nil, err
	}
	if out.Schedule == nil {
		return nil, fmt.Errorf("shardroute: shard returned no schedule for node %q", node)
	}
	return out.Schedule, nil
}

func (b *HTTPBackend) ScheduleBatch(ctx context.Context, nodes []string) ([]*fleet.Schedule, error) {
	var out wire.SchedulesResponse
	if err := b.call(ctx, http.MethodPost, "/v1/schedules", wire.NodeList{Nodes: nodes}, &out); err != nil {
		return nil, err
	}
	if len(out.Schedules) != len(nodes) {
		return nil, fmt.Errorf("shardroute: shard returned %d schedules for %d nodes", len(out.Schedules), len(nodes))
	}
	return out.Schedules, nil
}

func (b *HTTPBackend) SetStrategy(ctx context.Context, node, name string) (string, error) {
	var out wire.StrategyResponse
	if err := b.call(ctx, http.MethodPost, wire.NodePath("/v1/strategy/", node), wire.StrategyRequest{Strategy: name}, &out); err != nil {
		return "", err
	}
	return out.Strategy, nil
}

func (b *HTTPBackend) Profile(ctx context.Context, node string) (fleet.NodeProfile, error) {
	var out fleet.NodeProfile
	err := b.call(ctx, http.MethodGet, wire.NodePath("/v1/profile/", node), nil, &out)
	return out, err
}

func (b *HTTPBackend) Stats(ctx context.Context) (fleet.Stats, error) {
	// Both healthz bodies (a shard's and a router's) carry the fleet
	// counters flat, so either decodes straight into Stats.
	var out fleet.Stats
	err := b.call(ctx, http.MethodGet, "/v1/healthz", nil, &out)
	return out, err
}

func (b *HTTPBackend) PersistSnapshot(ctx context.Context) error {
	return b.call(ctx, http.MethodPost, "/v1/snapshot", nil, nil)
}

func (b *HTTPBackend) ListNodes(ctx context.Context) ([]string, error) {
	var out wire.NodeList
	if err := b.call(ctx, http.MethodGet, "/v1/nodes", nil, &out); err != nil {
		return nil, err
	}
	return out.Nodes, nil
}

// ExportNodes posts the ID list and returns the daemon's binary frame
// stream verbatim — the one call in the API whose response is bytes,
// not JSON.
func (b *HTTPBackend) ExportNodes(ctx context.Context, ids []string) ([]byte, error) {
	payload, err := json.Marshal(wire.NodeList{Nodes: ids})
	if err != nil {
		return nil, err
	}
	resp, err := b.do(ctx, http.MethodPost, "/v1/migrate/export", "application/json", payload)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// ImportFrames posts the raw frame stream; the daemon validates it in
// full, admits it, and persists it to its snapshot log before
// answering, so a 2xx here means the handoff is durable on the new
// owner.
func (b *HTTPBackend) ImportFrames(ctx context.Context, data []byte) (int, error) {
	resp, err := b.do(ctx, http.MethodPost, "/v1/migrate/import", "application/octet-stream", data)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out wire.ImportResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Imported, nil
}

func (b *HTTPBackend) RemoveNodes(ctx context.Context, ids []string) (int, error) {
	var out wire.RemoveResponse
	if err := b.call(ctx, http.MethodPost, "/v1/migrate/remove", wire.NodeList{Nodes: ids}, &out); err != nil {
		return 0, err
	}
	return out.Removed, nil
}
