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
	"rushprobe/internal/wire"
)

// Backend is one fleet shard behind the router: the serving surface a
// shard must expose, whether it lives in this process or behind a
// rushprobed daemon. Every method is context-bound so a slow shard
// cannot pin a scatter past the request deadline.
type Backend interface {
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

// LocalBackend adapts an in-process *fleet.Fleet to the Backend
// interface. Persist, when non-nil, is invoked by PersistSnapshot —
// the daemon wires it to its binary snapshot log writer; nil makes
// PersistSnapshot an error so a misconfigured shard cannot silently
// drop state.
type LocalBackend struct {
	Fleet   *fleet.Fleet
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

// errorBody is the daemon's JSON error payload.
type errorBody struct {
	Error string `json:"error"`
}

// call performs one JSON round trip. A non-2xx response surfaces the
// daemon's error string.
func (b *HTTPBackend) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return httpError(method, path, resp)
	}
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

// httpError turns a non-2xx daemon response into an error carrying the
// daemon's JSON error string when one decodes.
func httpError(method, path string, resp *http.Response) error {
	var eb errorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return fmt.Errorf("shardroute: %s %s: HTTP %d: %s", method, path, resp.StatusCode, eb.Error)
	}
	return fmt.Errorf("shardroute: %s %s: HTTP %d", method, path, resp.StatusCode)
}

func (b *HTTPBackend) Observe(ctx context.Context, batch []fleet.Observation) (int, error) {
	var out wire.ObserveResponse
	if err := b.call(ctx, http.MethodPost, "/v1/observe", wire.ObserveRequest{Observations: batch}, &out); err != nil {
		return 0, err
	}
	return out.Accepted, nil
}

func (b *HTTPBackend) Schedule(ctx context.Context, node string) (*fleet.Schedule, error) {
	var out fleet.Schedule
	if err := b.call(ctx, http.MethodGet, wire.NodePath("/v1/schedule/", node), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

type schedulesWire struct {
	Nodes []string `json:"nodes"`
}

type schedulesReply struct {
	Schedules []*fleet.Schedule `json:"schedules"`
}

func (b *HTTPBackend) ScheduleBatch(ctx context.Context, nodes []string) ([]*fleet.Schedule, error) {
	var out schedulesReply
	if err := b.call(ctx, http.MethodPost, "/v1/schedules", schedulesWire{Nodes: nodes}, &out); err != nil {
		return nil, err
	}
	if len(out.Schedules) != len(nodes) {
		return nil, fmt.Errorf("shardroute: shard returned %d schedules for %d nodes", len(out.Schedules), len(nodes))
	}
	return out.Schedules, nil
}

type strategyWire struct {
	Strategy string `json:"strategy"`
}

type strategyReply struct {
	Strategy string `json:"strategy"`
}

func (b *HTTPBackend) SetStrategy(ctx context.Context, node, name string) (string, error) {
	var out strategyReply
	if err := b.call(ctx, http.MethodPost, wire.NodePath("/v1/strategy/", node), strategyWire{Strategy: name}, &out); err != nil {
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
	// The daemon's healthz body embeds the fleet counters flat, so it
	// decodes straight into Stats.
	var out fleet.Stats
	err := b.call(ctx, http.MethodGet, "/v1/healthz", nil, &out)
	return out, err
}

func (b *HTTPBackend) PersistSnapshot(ctx context.Context) error {
	return b.call(ctx, http.MethodPost, "/v1/snapshot", nil, nil)
}

// nodesReply is the GET /v1/nodes body.
type nodesReply struct {
	Nodes []string `json:"nodes"`
}

func (b *HTTPBackend) ListNodes(ctx context.Context) ([]string, error) {
	var out nodesReply
	if err := b.call(ctx, http.MethodGet, "/v1/nodes", nil, &out); err != nil {
		return nil, err
	}
	return out.Nodes, nil
}

// migrateWire is the JSON body of the node-addressed migration calls.
type migrateWire struct {
	Nodes []string `json:"nodes"`
}

// ExportNodes posts the ID list and returns the daemon's binary frame
// stream verbatim — the one call in the API whose response is bytes,
// not JSON.
func (b *HTTPBackend) ExportNodes(ctx context.Context, ids []string) ([]byte, error) {
	const path = "/v1/migrate/export"
	payload, err := json.Marshal(migrateWire{Nodes: ids})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.BaseURL+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return nil, httpError(http.MethodPost, path, resp)
	}
	return io.ReadAll(resp.Body)
}

type importReply struct {
	Imported int `json:"imported"`
}

// ImportFrames posts the raw frame stream; the daemon validates it in
// full, admits it, and persists it to its snapshot log before
// answering, so a 2xx here means the handoff is durable on the new
// owner.
func (b *HTTPBackend) ImportFrames(ctx context.Context, data []byte) (int, error) {
	const path = "/v1/migrate/import"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.BaseURL+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := b.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return 0, httpError(http.MethodPost, path, resp)
	}
	var out importReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Imported, nil
}

type removeReply struct {
	Removed int `json:"removed"`
}

func (b *HTTPBackend) RemoveNodes(ctx context.Context, ids []string) (int, error) {
	var out removeReply
	if err := b.call(ctx, http.MethodPost, "/v1/migrate/remove", migrateWire{Nodes: ids}, &out); err != nil {
		return 0, err
	}
	return out.Removed, nil
}
