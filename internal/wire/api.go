package wire

import "rushprobe/internal/fleet"

// RequestIDHeader carries a request's ID (X-Request-ID): every response
// echoes it, a daemon adopts a well-formed incoming one (see
// ValidRequestID), and the router forwards it on each hop to a shard,
// so the spans of one call share one ID across processes. It is
// spelled in net/http's canonical form, which is what goes on the wire
// either way, so header lookups and sets need not allocate a canonical
// copy per request.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds an adopted request ID.
const maxRequestIDLen = 64

// ValidRequestID reports whether id may be adopted as a request ID:
// 1–64 bytes of [A-Za-z0-9._:-]. The header is client input that ends
// up in logs and the trace ring, so anything else is replaced by a
// minted ID.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// ErrorResponse is the body of every /v1 error reply, unknown routes
// included.
type ErrorResponse struct {
	Error string `json:"error"`
}

// NodeList is a bare list of node IDs: the POST /v1/schedules,
// /v1/migrate/export and /v1/migrate/remove bodies and the GET
// /v1/nodes reply (sorted there).
type NodeList struct {
	Nodes []string `json:"nodes"`
}

// ScheduleResponse is the GET /v1/schedule/{node} reply: the plan in
// force, flat, with the node it was served for.
type ScheduleResponse struct {
	Node string `json:"node"`
	*fleet.Schedule
}

// SchedulesResponse is the POST /v1/schedules reply: plans in the
// request's node order, never null.
type SchedulesResponse struct {
	Schedules []*fleet.Schedule `json:"schedules"`
}

// StrategyRequest is the POST /v1/strategy/{node} body.
type StrategyRequest struct {
	// Strategy is a registered strategy name or alias; empty clears the
	// node's override (fleet default).
	Strategy string `json:"strategy"`
}

// StrategyResponse reports the strategy now in force for the node.
type StrategyResponse struct {
	Node     string `json:"node"`
	Strategy string `json:"strategy"`
}

// StrategiesResponse is the GET /v1/strategies reply.
type StrategiesResponse struct {
	Strategies []string `json:"strategies"`
}

// ImportResponse is the POST /v1/migrate/import reply.
type ImportResponse struct {
	Imported int `json:"imported"`
}

// RemoveResponse is the POST /v1/migrate/remove reply.
type RemoveResponse struct {
	Removed int `json:"removed"`
}

// RingResponse is the GET /v1/ring reply.
type RingResponse struct {
	Shards []string `json:"shards"`
}

// RingChangeRequest is the POST /v1/ring body: shard base URLs to
// attach and/or detach.
type RingChangeRequest struct {
	Add    []string `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

// MoveReport is one (from, to) slice of a completed rebalance.
type MoveReport struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Nodes int    `json:"nodes"`
}

// RebalanceReport is the POST /v1/ring reply: a committed rebalance.
type RebalanceReport struct {
	// Shards is the membership after the change.
	Shards []string `json:"shards"`
	// Moved is the total number of nodes handed off.
	Moved int `json:"moved"`
	// Moves breaks Moved down per (from, to) pair.
	Moves []MoveReport `json:"moves,omitempty"`
	// CleanupErrors lists post-commit removal failures. The flip has
	// already happened, so these leave unreachable stale copies on old
	// owners (re-running the rebalance converges them away); they do
	// not fail it.
	CleanupErrors []string `json:"cleanupErrors,omitempty"`
}

// SnapshotResponse is a shard daemon's POST /v1/snapshot reply.
type SnapshotResponse struct {
	Nodes int    `json:"nodes"`
	Path  string `json:"path"`
}

// RouterSnapshotResponse is a router's POST /v1/snapshot reply: how
// many shards persisted.
type RouterSnapshotResponse struct {
	Shards int `json:"shards"`
}

// HealthResponse is a shard daemon's GET /v1/healthz reply. The fleet
// counters are flat, so the body also decodes straight into
// fleet.Stats.
type HealthResponse struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptimeSeconds"`
	Snapshot      SnapshotHealth `json:"snapshot"`
	fleet.Stats
}

// RouterHealthResponse is a router's GET /v1/healthz reply: merged
// fleet counters, flat like a shard's, plus the shard roster.
// ShardsReporting < ShardsTotal marks the merged counters as a partial
// sum over the shards that answered — never fleet truth when any shard
// is down.
type RouterHealthResponse struct {
	Status          string   `json:"status"`
	UptimeSeconds   float64  `json:"uptimeSeconds"`
	Shards          []string `json:"shards"`
	ShardsTotal     int      `json:"shardsTotal"`
	ShardsReporting int      `json:"shardsReporting"`
	fleet.Stats
	PerShard map[string]fleet.Stats `json:"perShard"`
}

// SnapshotHealth is the healthz view of snapshot persistence.
type SnapshotHealth struct {
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
	LastRestorePhases *RestorePhases `json:"lastRestorePhases,omitempty"`
	LastSavePhases    *SavePhases    `json:"lastSavePhases,omitempty"`
}

// RestorePhases splits a snapshot-log restore: reading, CRC-checking
// and decoding the frames, then validating the decoded nodes and
// swapping them into the fleet. Total is the whole restore as the store
// timed it, so the phases sum to at most Total.
type RestorePhases struct {
	ReadDecodeSeconds float64 `json:"readDecodeSeconds"`
	AdmitSeconds      float64 `json:"admitSeconds"`
	TotalSeconds      float64 `json:"totalSeconds"`
}

// SavePhases splits a compaction: encoding the full snapshot into the
// temp file, its fsync, and the rename over the log. Total is the whole
// compaction, handle reopen included.
type SavePhases struct {
	EncodeWriteSeconds float64 `json:"encodeWriteSeconds"`
	FsyncSeconds       float64 `json:"fsyncSeconds"`
	RenameSeconds      float64 `json:"renameSeconds"`
	TotalSeconds       float64 `json:"totalSeconds"`
}
