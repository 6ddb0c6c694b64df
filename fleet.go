package rushprobe

import (
	"context"
	"errors"
	"io"

	"rushprobe/internal/fleet"
)

// Observation is one probed contact reported by a fleet node: start
// time (seconds since the node's deployment), contact length, and
// optionally the bytes uploaded (negative = unknown; absent in JSON
// decodes as unknown).
type Observation = fleet.Observation

// Schedule is a served probing plan: per-slot duty cycles plus the
// plan's expected outcome. Schedules are shared and immutable — do not
// modify Duty.
type Schedule = fleet.Schedule

// NodeProfile is the externally visible learned state of one fleet
// node.
type NodeProfile = fleet.NodeProfile

// FleetStats aggregates fleet-wide counters: node and observation
// counts, and the plan cache's solve/hit balance.
type FleetStats = fleet.Stats

// FleetOption customizes a Fleet.
type FleetOption func(*fleet.Config)

// WithShards sets the number of independently locked profile shards
// (default 16).
func WithShards(n int) FleetOption {
	return func(c *fleet.Config) { c.Shards = n }
}

// WithBootstrapEpochs sets how many completed epochs a node must
// observe before its learned plan replaces the bootstrap SNIP-AT plan
// (default 3).
func WithBootstrapEpochs(n int) FleetOption {
	return func(c *fleet.Config) { c.BootstrapEpochs = n }
}

// WithRushSlots sets how many slots a learned profile marks as rush
// hours (default: the base scenario's rush-slot count).
func WithRushSlots(n int) FleetOption {
	return func(c *fleet.Config) { c.RushSlots = n }
}

// WithCapacityQuantum sets the quantization grid (seconds per epoch)
// applied to learned per-slot capacities before fingerprinting; coarser
// grids make more nodes share cached plans (default 1).
func WithCapacityQuantum(q float64) FleetOption {
	return func(c *fleet.Config) { c.CapacityQuantum = q }
}

// WithFleetMechanism selects the default strategy served after
// bootstrap: any registered strategy name (see Strategies) cast to
// Mechanism, default SNIPOPT. SNIPAT pins every node to the bootstrap
// plan (a control setting). Individual nodes override the default with
// Fleet.SetStrategy.
func WithFleetMechanism(m Mechanism) FleetOption {
	return func(c *fleet.Config) { c.Mechanism = string(m) }
}

// WithDriftDetector selects a streaming change-point detector watching
// every node's per-epoch observation streams ("cusum" or
// "page-hinkley"; "" or "none" disables, the default). When a node's
// detector fires, the fleet relearns that node from scratch instead of
// waiting for its stale rush mask to decay, and Stats counts the
// event.
func WithDriftDetector(name string) FleetOption {
	return func(c *fleet.Config) { c.DriftDetector = name }
}

// Fleet is a sharded in-memory store of per-node rush-hour profiles
// with a fingerprint-keyed plan cache: the online serving layer that
// turns the paper's §VII.B learning into schedules for a whole
// deployment. Nodes report contacts through Observe; Schedule returns
// the probing plan currently in force for a node, where nodes whose
// learned profiles quantize to the same scenario share one optimizer
// solve. Snapshot/Restore persist learned state across restarts,
// deterministically: a restored fleet serves bit-identical schedules.
//
// All methods are safe for concurrent use.
type Fleet struct {
	inner *fleet.Fleet
}

// NewFleet builds a fleet over the base deployment scenario, whose
// epoch/slot structure, radio, energy budget, and capacity target every
// node's learned plan inherits.
func NewFleet(base *Scenario, opts ...FleetOption) (*Fleet, error) {
	if base == nil || base.inner == nil {
		return nil, errors.New("rushprobe: nil scenario")
	}
	cfg := fleet.Config{Base: base.inner}
	for _, o := range opts {
		o(&cfg)
	}
	inner, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Fleet{inner: inner}, nil
}

// Observe folds a batch of contact observations into the fleet and
// returns how many were accepted. Invalid and stale observations are
// counted in Stats and skipped; ingest never fails. The steady-state
// path allocates nothing.
func (f *Fleet) Observe(batch []Observation) int { return f.inner.Observe(batch) }

// ObserveContext is Observe with request-scoped telemetry: with a
// WithTelemetry bundle armed, the batch is timed into the ingest
// histogram and traced under the context's request ID (see
// rushprobe/internal/telemetry request-ID helpers re-exported through
// the daemon). Without telemetry it is exactly Observe.
func (f *Fleet) ObserveContext(ctx context.Context, batch []Observation) int {
	return f.inner.ObserveContext(ctx, batch)
}

// Schedule returns the probing plan currently in force for the node.
// Cold or still-bootstrapping nodes receive the shared SNIP-AT
// bootstrap plan, so any node ID is servable.
func (f *Fleet) Schedule(node string) (*Schedule, error) { return f.inner.Schedule(node) }

// ScheduleContext is Schedule with request-scoped telemetry: serving is
// timed and traced with its cache outcome (bootstrap / node / hit /
// miss) when the fleet carries a telemetry bundle.
func (f *Fleet) ScheduleContext(ctx context.Context, node string) (*Schedule, error) {
	return f.inner.ScheduleContext(ctx, node)
}

// ScheduleBatch returns the plans for many nodes at once, in input
// order. It fails on the first unservable node.
func (f *Fleet) ScheduleBatch(nodes []string) ([]*Schedule, error) {
	return f.inner.ScheduleBatch(nodes)
}

// Profile reports a node's learned state without creating any.
func (f *Fleet) Profile(node string) (NodeProfile, error) { return f.inner.Profile(node) }

// SetStrategy overrides the strategy serving the node's schedule: any
// registered strategy name or alias (see Strategies), or the empty
// string to fall back to the fleet default. It returns the canonical
// name now in force. Setting a strategy admits an unknown node into the
// store, so nodes can be assigned strategies before their first report;
// the override is part of the fleet snapshot.
func (f *Fleet) SetStrategy(node, name string) (string, error) {
	return f.inner.SetStrategy(node, name)
}

// Stats returns fleet-wide counters.
func (f *Fleet) Stats() FleetStats { return f.inner.Stats() }

// StrategyNodes counts the nodes each canonical strategy name is
// currently serving (nodes without an override count under the fleet
// default). It takes each shard lock once; call it at scrape cadence,
// not per request.
func (f *Fleet) StrategyNodes() map[string]int { return f.inner.StrategyNodes() }

// ShardNodes returns the node count of each profile shard, in shard
// order — the shard-balance gauge.
func (f *Fleet) ShardNodes() []int { return f.inner.ShardNodes() }

// Memory estimates the profile store's resident size, including the
// bytes/node gauge. It takes each shard lock once; call it at scrape
// cadence.
func (f *Fleet) Memory() FleetMemoryStats { return f.inner.Memory() }

// Telemetry returns the bundle attached with WithTelemetry (nil when
// the fleet runs untelemetered).
func (f *Fleet) Telemetry() *Telemetry { return f.inner.Telemetry() }

// SnapshotRecovery reports what a binary restore recovered: node and
// frame counts, compaction generations seen, and whether a torn tail
// (crash mid-append) was dropped at TornOffset.
type SnapshotRecovery = fleet.RecoveryInfo

// SnapshotBinary streams the fleet's learned state as a full binary
// snapshot log: one meta frame, then every node in deterministic
// order, CRC-framed (see internal/snaplog). It never materializes the
// whole fleet, so peak memory stays flat at million-node scale.
// Snapshot bytes are deterministic and restores are float-exact: a
// restored fleet serves bit-identical schedules.
func (f *Fleet) SnapshotBinary(w io.Writer) error { return f.inner.WriteBinarySnapshot(w) }

// SnapshotBinaryDelta appends node frames for every node changed since
// the last SnapshotBinary or SnapshotBinaryDelta, returning how many
// were written. Appended to a log that starts with a full snapshot,
// the deltas replay last-record-wins on restore — the incremental
// persistence path between compactions.
func (f *Fleet) SnapshotBinaryDelta(w io.Writer) (int, error) { return f.inner.AppendBinaryDelta(w) }

// DirtyNodes counts nodes changed since the last binary snapshot or
// delta — the signal a persistence loop uses to skip idle intervals.
func (f *Fleet) DirtyNodes() int { return f.inner.DirtyNodes() }

// NodeIDs returns every tracked node ID, sorted. O(nodes), one shard
// lock at a time — call it for migrations and sweeps, not per request.
func (f *Fleet) NodeIDs() []string { return f.inner.NodeIDs() }

// ExportNodes serializes the named nodes as a self-contained binary
// snapshot slice (meta frame + one frame per node, the SnapshotBinary
// format) importable by ImportFrames on another fleet with the same
// configuration. Unknown IDs are an error; the exporting fleet's state
// and dirty bits are untouched, so it stays authoritative until the
// nodes are removed.
func (f *Fleet) ExportNodes(ids []string) ([]byte, error) { return f.inner.ExportNodes(ids) }

// ImportFrames admits nodes exported by ExportNodes into this fleet,
// returning how many distinct nodes were imported. The payload is
// validated in full before anything is admitted: a torn, corrupt, or
// configuration-mismatched import is rejected whole, leaving current
// state untouched. Existing nodes with the same IDs are overwritten,
// so re-running a crashed handoff converges.
func (f *Fleet) ImportFrames(data []byte) (int, error) { return f.inner.ImportFrames(data) }

// RemoveNodes deletes the named nodes (skipping unknown IDs) and
// returns how many existed — the post-commit cleanup step of a shard
// handoff.
func (f *Fleet) RemoveNodes(ids []string) int { return f.inner.RemoveNodes(ids) }

// RestoreBinary replaces the fleet's learned state with a binary
// snapshot log written by SnapshotBinary (plus any SnapshotBinaryDelta
// appends). A torn tail is dropped and reported in SnapshotRecovery;
// corruption or an empty log fails hard without touching current
// state — never a silent fresh start.
func (f *Fleet) RestoreBinary(r io.Reader) (*SnapshotRecovery, error) {
	return f.inner.ReadBinarySnapshot(r)
}
