package shardroute

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rushprobe/internal/fleet"
	"rushprobe/internal/telemetry"
	"rushprobe/internal/wire"
)

// shardState is the router's bookkeeping for one attached shard.
type shardState struct {
	backend Backend
	// routedObs / routedSched count operations this router sent to the
	// shard (not what the shard accepted) — the load-balance signal.
	routedObs   atomic.Int64
	routedSched atomic.Int64
}

// Router fronts N fleet shards behind one fleet-shaped API. Node IDs
// route through a consistent-hash ring, batch operations scatter by
// owner and gather back into input order, and snapshots fan out so
// each shard persists its own slice of the fleet. Safe for concurrent
// use; membership changes are safe against in-flight requests.
type Router struct {
	ring *Ring
	tel  *telemetry.Telemetry

	mu     sync.RWMutex
	shards map[string]*shardState

	// rebalanceMu serializes membership changes (Rebalance, AddShard,
	// RemoveShard) against each other; request traffic never takes it.
	rebalanceMu sync.Mutex
	// migrating is the handoff gate: non-nil while a rebalance is
	// copying state, carrying the set of displaced keys. Requests for a
	// gated key park on done until the handoff commits or aborts; every
	// other request sees one nil atomic load.
	migrating atomic.Pointer[migration]
	// drain is read-held for the life of every key-addressed request
	// (admit → backend reply). A rebalance write-locks it once, right
	// after raising the gate, so every request that resolved an owner
	// before the gate existed has fully landed before state is copied.
	drain sync.RWMutex
}

// migration is one in-flight handoff: the displaced keys and the
// channel closed when the ring flips (or the handoff aborts).
type migration struct {
	keys map[string]struct{}
	done chan struct{}
}

// covers reports whether any of the nodes is mid-handoff.
func (m *migration) covers(nodes []string) bool {
	for _, n := range nodes {
		if _, ok := m.keys[n]; ok {
			return true
		}
	}
	return false
}

// NewRouter builds an empty router. replicas <= 0 selects
// DefaultReplicas virtual nodes per shard; tel may be nil.
func NewRouter(replicas int, tel *telemetry.Telemetry) *Router {
	return &Router{
		ring:   NewRing(replicas),
		tel:    tel,
		shards: make(map[string]*shardState),
	}
}

// AddShard attaches a named backend and puts it on the ring. Keys that
// fall to the new shard are NOT migrated — their learned state stays
// on the old owner and they relearn; use Rebalance for a handoff that
// preserves it.
func (r *Router) AddShard(name string, b Backend) error {
	if b == nil {
		return fmt.Errorf("shardroute: nil backend for shard %q", name)
	}
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ring.Add(name); err != nil {
		return err
	}
	r.shards[name] = &shardState{backend: b}
	return nil
}

// RemoveShard detaches a shard. Keys it owned fall to their ring
// successors; the shard's learned state stays in its own snapshot and
// is NOT migrated — the displaced nodes relearn on their new shard.
// Use Rebalance to drain a shard with its state handed off.
func (r *Router) RemoveShard(name string) error {
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.ring.Remove(name); err != nil {
		return err
	}
	delete(r.shards, name)
	return nil
}

// admit is the entry gate of every key-addressed request. It parks
// while any of the nodes is mid-handoff (so reads cannot race the copy
// and writes cannot land on a half-exported owner), then read-locks
// drain for the request's duration; the caller must r.drain.RUnlock()
// once its backend call finishes. The gate is re-checked after the
// read lock lands because a handoff may raise it concurrently: a
// request that slips past the first check either wins the race (and is
// then drained out before any state copies) or sees the gate here and
// parks like everyone else.
func (r *Router) admit(ctx context.Context, nodes []string) error {
	for {
		if m := r.migrating.Load(); m != nil && m.covers(nodes) {
			select {
			case <-m.done:
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		r.drain.RLock()
		m := r.migrating.Load()
		if m == nil || !m.covers(nodes) {
			return nil
		}
		r.drain.RUnlock()
	}
}

// Owner reports which shard a node routes to.
func (r *Router) Owner(node string) (string, bool) {
	return r.ring.Owner(node)
}

// Shards returns the attached shard names, sorted.
func (r *Router) Shards() []string {
	return r.ring.Shards()
}

// shardFor resolves a node to its owning shard's state.
func (r *Router) shardFor(node string) (string, *shardState, error) {
	name, ok := r.ring.Owner(node)
	if !ok {
		return "", nil, errors.New("shardroute: no shards attached")
	}
	r.mu.RLock()
	st := r.shards[name]
	r.mu.RUnlock()
	if st == nil {
		return "", nil, fmt.Errorf("shardroute: shard %q left the ring mid-request", name)
	}
	return name, st, nil
}

// snapshotShards copies the current membership for a fan-out pass.
func (r *Router) snapshotShards() map[string]*shardState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]*shardState, len(r.shards))
	for name, st := range r.shards {
		out[name] = st
	}
	return out
}

// Observe partitions the batch by owning shard and scatters the
// sub-batches concurrently. It returns the total accepted count and
// the joined errors of every failed shard; observations routed to a
// failing shard are counted as routed but not accepted, so the caller
// can see the loss.
func (r *Router) Observe(ctx context.Context, batch []fleet.Observation) (int, error) {
	if len(batch) == 0 {
		return 0, nil
	}
	keys := make([]string, len(batch))
	for i := range batch {
		keys[i] = batch[i].Node
	}
	if err := r.admit(ctx, keys); err != nil {
		return 0, err
	}
	defer r.drain.RUnlock()
	parts := make(map[string][]fleet.Observation)
	for _, obs := range batch {
		name, ok := r.ring.Owner(obs.Node)
		if !ok {
			return 0, errors.New("shardroute: no shards attached")
		}
		parts[name] = append(parts[name], obs)
	}
	shards := r.snapshotShards()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
		errs     []error
	)
	for name, part := range parts {
		st := shards[name]
		if st == nil {
			mu.Lock()
			errs = append(errs, fmt.Errorf("shardroute: shard %q left the ring mid-request", name))
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(name string, st *shardState, part []fleet.Observation) {
			defer wg.Done()
			st.routedObs.Add(int64(len(part)))
			n, err := st.backend.Observe(ctx, part)
			mu.Lock()
			defer mu.Unlock()
			accepted += n
			if err != nil {
				errs = append(errs, fmt.Errorf("shardroute: shard %q observe: %w", name, err))
			}
		}(name, st, part)
	}
	wg.Wait()
	return accepted, errors.Join(errs...)
}

// Schedule routes one schedule request to the node's owner.
func (r *Router) Schedule(ctx context.Context, node string) (*fleet.Schedule, error) {
	if err := r.admit(ctx, []string{node}); err != nil {
		return nil, err
	}
	defer r.drain.RUnlock()
	_, st, err := r.shardFor(node)
	if err != nil {
		return nil, err
	}
	st.routedSched.Add(1)
	return st.backend.Schedule(ctx, node)
}

// ScheduleBatch partitions the nodes by owner, scatters per-shard
// batch requests concurrently, and gathers the plans back into input
// order. Any shard failure fails the whole batch (matching
// fleet.ScheduleBatch's all-or-nothing contract).
func (r *Router) ScheduleBatch(ctx context.Context, nodes []string) ([]*fleet.Schedule, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	if err := r.admit(ctx, nodes); err != nil {
		return nil, err
	}
	defer r.drain.RUnlock()
	// Partition, remembering each node's position in the input.
	type part struct {
		nodes []string
		idx   []int
	}
	parts := make(map[string]*part)
	for i, node := range nodes {
		name, ok := r.ring.Owner(node)
		if !ok {
			return nil, errors.New("shardroute: no shards attached")
		}
		p := parts[name]
		if p == nil {
			p = &part{}
			parts[name] = p
		}
		p.nodes = append(p.nodes, node)
		p.idx = append(p.idx, i)
	}
	shards := r.snapshotShards()

	out := make([]*fleet.Schedule, len(nodes))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for name, p := range parts {
		st := shards[name]
		if st == nil {
			mu.Lock()
			errs = append(errs, fmt.Errorf("shardroute: shard %q left the ring mid-request", name))
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(name string, st *shardState, p *part) {
			defer wg.Done()
			st.routedSched.Add(int64(len(p.nodes)))
			plans, err := st.backend.ScheduleBatch(ctx, p.nodes)
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("shardroute: shard %q schedule batch: %w", name, err))
				mu.Unlock()
				return
			}
			// The HTTP backend validates reply cardinality, but a local
			// (or custom) backend is under no such obligation — and a
			// short reply scattered unchecked would leave silent nil
			// holes in the gathered batch.
			if len(plans) != len(p.nodes) {
				mu.Lock()
				errs = append(errs, fmt.Errorf("shardroute: shard %q returned %d plans for %d nodes", name, len(plans), len(p.nodes)))
				mu.Unlock()
				return
			}
			// Each slot in out is written by exactly one goroutine, so
			// the scatter needs no lock here.
			for i, plan := range plans {
				out[p.idx[i]] = plan
			}
		}(name, st, p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// SetStrategy routes a strategy override to the node's owner.
func (r *Router) SetStrategy(ctx context.Context, node, name string) (string, error) {
	if err := r.admit(ctx, []string{node}); err != nil {
		return "", err
	}
	defer r.drain.RUnlock()
	_, st, err := r.shardFor(node)
	if err != nil {
		return "", err
	}
	return st.backend.SetStrategy(ctx, node, name)
}

// Profile routes a profile read to the node's owner.
func (r *Router) Profile(ctx context.Context, node string) (fleet.NodeProfile, error) {
	if err := r.admit(ctx, []string{node}); err != nil {
		return fleet.NodeProfile{}, err
	}
	defer r.drain.RUnlock()
	_, st, err := r.shardFor(node)
	if err != nil {
		return fleet.NodeProfile{}, err
	}
	return st.backend.Profile(ctx, node)
}

// Stats gathers every shard's counters concurrently and merges them
// into one fleet-wide view. CachedPlans is summed — shards solve
// independently, so equal fingerprints may be cached more than once
// across the fleet. All-or-nothing: when any shard fails, the totals
// come back zero alongside the error, never a partial sum masquerading
// as fleet truth — callers wanting the surviving shards' numbers use
// ShardStats, where partiality is explicit.
func (r *Router) Stats(ctx context.Context) (fleet.Stats, error) {
	per, err := r.ShardStats(ctx)
	if err != nil {
		return fleet.Stats{}, err
	}
	return SumStats(per), nil
}

// SumStats adds up per-shard counters into one fleet-wide view.
func SumStats(per map[string]fleet.Stats) fleet.Stats {
	var total fleet.Stats
	for _, s := range per {
		total.Nodes += s.Nodes
		total.Observations += s.Observations
		total.Stale += s.Stale
		total.Invalid += s.Invalid
		total.PlanSolves += s.PlanSolves
		total.PlanCacheHits += s.PlanCacheHits
		total.CachedPlans += s.CachedPlans
		total.DriftEvents += s.DriftEvents
	}
	return total
}

// ShardStats gathers per-shard counters concurrently. Shards that fail
// are absent from the map and reported in the joined error.
func (r *Router) ShardStats(ctx context.Context) (map[string]fleet.Stats, error) {
	shards := r.snapshotShards()
	out := make(map[string]fleet.Stats, len(shards))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for name, st := range shards {
		wg.Add(1)
		go func(name string, st *shardState) {
			defer wg.Done()
			s, err := st.backend.Stats(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("shardroute: shard %q stats: %w", name, err))
				return
			}
			out[name] = s
		}(name, st)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// PersistSnapshots asks every shard to persist its own snapshot,
// concurrently. All shards are attempted even when some fail; the
// failures come back joined so a partial persist is loud.
func (r *Router) PersistSnapshots(ctx context.Context) error {
	shards := r.snapshotShards()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for name, st := range shards {
		wg.Add(1)
		go func(name string, st *shardState) {
			defer wg.Done()
			if err := st.backend.PersistSnapshot(ctx); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("shardroute: shard %q snapshot: %w", name, err))
				mu.Unlock()
			}
		}(name, st)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Collect emits the router's metric families. Register it on a
// telemetry.Registry with AddFunc.
func (r *Router) Collect(e *telemetry.Exposition) {
	r.mu.RLock()
	names := make([]string, 0, len(r.shards))
	for name := range r.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	obs := make([]telemetry.LabelValue, 0, len(names))
	sched := make([]telemetry.LabelValue, 0, len(names))
	for _, name := range names {
		st := r.shards[name]
		obs = append(obs, telemetry.LabelValue{Label: name, Value: float64(st.routedObs.Load())})
		sched = append(sched, telemetry.LabelValue{Label: name, Value: float64(st.routedSched.Load())})
	}
	r.mu.RUnlock()

	e.Gauge("rushprobe_router_shards",
		"Number of shards attached to the router.", float64(len(names)))
	e.LabeledGauge("rushprobe_router_routed_observations",
		"Observations routed to each shard since router start.", "shard", obs)
	e.LabeledGauge("rushprobe_router_routed_schedules",
		"Schedule requests routed to each shard since router start.", "shard", sched)
}

// Rebalance changes the ring membership — attaching every shard in
// add, detaching every name in remove — with a drain/handoff migration
// so displaced nodes keep their learned state. The steps:
//
//  1. Enumerate every current shard's nodes and diff them against the
//     new membership → the displaced keys per (from, to) pair.
//  2. Raise the gate: requests touching a displaced key park; all
//     other traffic flows. Cycle the drain write lock so requests that
//     resolved an owner before the gate are fully landed.
//  3. Copy: export each displaced slice from its old owner and import
//     it into its new owner (which persists it before acknowledging).
//     The ring is untouched, so the OLD owner is still authoritative;
//     any failure aborts here with nothing changed.
//  4. Commit: atomically replace the ring membership and the backend
//     table, then release the gate — parked requests re-resolve
//     against the new ring.
//  5. Cleanup: remove the handed-off nodes from their old owners.
//     Post-commit failures are reported, not fatal.
//
// The ownership flip in step 4 is the commit point: a crash or error
// any time before it leaves the old topology fully serving (a re-run
// converges — imports overwrite), and after it the new owners hold
// byte-identical learned state, so every pre-existing node's schedule
// survives the move.
func (r *Router) Rebalance(ctx context.Context, add map[string]Backend, remove []string) (*wire.RebalanceReport, error) {
	r.rebalanceMu.Lock()
	defer r.rebalanceMu.Unlock()

	if len(add) == 0 && len(remove) == 0 {
		return nil, errors.New("shardroute: rebalance with no membership change")
	}
	current := r.snapshotShards()
	newSet := make(map[string]bool, len(current)+len(add))
	for name := range current {
		newSet[name] = true
	}
	for name, b := range add {
		if name == "" {
			return nil, errors.New("shardroute: empty shard name")
		}
		if b == nil {
			return nil, fmt.Errorf("shardroute: nil backend for shard %q", name)
		}
		if newSet[name] {
			return nil, fmt.Errorf("shardroute: shard %q already attached", name)
		}
		newSet[name] = true
	}
	for _, name := range remove {
		if _, attached := current[name]; !attached {
			return nil, fmt.Errorf("shardroute: shard %q is not attached", name)
		}
		if _, adding := add[name]; adding {
			return nil, fmt.Errorf("shardroute: shard %q both added and removed", name)
		}
		delete(newSet, name)
	}
	if len(newSet) == 0 {
		return nil, errors.New("shardroute: rebalance would empty the ring")
	}
	newMembers := make([]string, 0, len(newSet))
	for name := range newSet {
		newMembers = append(newMembers, name)
	}
	sort.Strings(newMembers)

	// Step 1: enumerate and diff. Keys listed here and displaced move
	// with their state; a node first observed after this point on a
	// displaced arc relearns (seconds of history at most) — or is swept
	// up by the next rebalance run.
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	var keys []string
	for _, name := range names {
		ids, err := current[name].backend.ListNodes(ctx)
		if err != nil {
			return nil, fmt.Errorf("shardroute: list nodes on shard %q: %w", name, err)
		}
		keys = append(keys, ids...)
	}
	moves, err := r.ring.Diff(newMembers, keys)
	if err != nil {
		return nil, err
	}

	// Step 2: gate the displaced keys, then drain pre-gate requests.
	hot := make(map[string]struct{})
	for _, mv := range moves {
		for _, k := range mv.Keys {
			hot[k] = struct{}{}
		}
	}
	done := make(chan struct{})
	r.migrating.Store(&migration{keys: hot, done: done})
	released := false
	release := func() {
		if !released {
			released = true
			r.migrating.Store(nil)
			close(done)
		}
	}
	defer release()
	r.drain.Lock()
	//lint:ignore SA2001 the empty critical section is the point: a
	// write-lock cycle is a barrier that waits out every read-held
	// request admitted before the gate went up.
	r.drain.Unlock()

	// Step 3: copy state old owner → new owner. New shards are not on
	// the ring yet, so their backends come from add.
	target := func(name string) Backend {
		if b, ok := add[name]; ok {
			return b
		}
		if st := current[name]; st != nil {
			return st.backend
		}
		return nil
	}
	for _, mv := range moves {
		if len(mv.Keys) == 0 {
			continue
		}
		from, to := current[mv.From], target(mv.To)
		if from == nil || to == nil {
			return nil, fmt.Errorf("shardroute: rebalance lost track of shard pair %q → %q", mv.From, mv.To)
		}
		data, err := from.backend.ExportNodes(ctx, mv.Keys)
		if err != nil {
			return nil, fmt.Errorf("shardroute: export %d nodes from shard %q: %w", len(mv.Keys), mv.From, err)
		}
		if _, err := to.ImportFrames(ctx, data); err != nil {
			return nil, fmt.Errorf("shardroute: import %d nodes into shard %q: %w (rebalance aborted, shard %q is still authoritative)", len(mv.Keys), mv.To, err, mv.From)
		}
	}

	// Step 4: commit. One locked swap of ring + backend table, then the
	// gate comes down and parked requests route to the new owners.
	r.mu.Lock()
	if err := r.ring.Replace(newMembers); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	for name, b := range add {
		r.shards[name] = &shardState{backend: b}
	}
	for _, name := range remove {
		delete(r.shards, name)
	}
	r.mu.Unlock()
	release()

	// Step 5: cleanup. The handles in current still reach detached
	// shards, so drained shards get cleaned too.
	report := &wire.RebalanceReport{Shards: newMembers}
	for _, mv := range moves {
		report.Moved += len(mv.Keys)
		report.Moves = append(report.Moves, wire.MoveReport{From: mv.From, To: mv.To, Nodes: len(mv.Keys)})
		if _, err := current[mv.From].backend.RemoveNodes(ctx, mv.Keys); err != nil {
			report.CleanupErrors = append(report.CleanupErrors,
				fmt.Sprintf("remove %d nodes from shard %q: %v", len(mv.Keys), mv.From, err))
		}
	}
	return report, nil
}
