package fleet

// Live-migration primitives: the fleet side of a shard handoff. A
// rebalance exports the displaced nodes' learned state from the old
// owner as self-contained binary snapshot frames (ExportNodes), admits
// them into the new owner (ImportFrames), and — only after the
// ownership flip commits — deletes them from the old owner
// (RemoveNodes). Each step is safe under concurrent Observe/Schedule
// traffic: export and import hold one shard lock at a time, and the
// exporting fleet's dirty bits are left untouched so the old owner
// stays fully authoritative (and fully persistable) until removal.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"

	"rushprobe/internal/snaplog"
)

// NodeIDs returns every tracked node ID, sorted. O(nodes), one shard
// lock at a time — the enumeration a rebalance uses to compute which
// keys a membership change displaces.
func (f *Fleet) NodeIDs() []string {
	var ids []string
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for id := range sh.nodes {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(ids)
	return ids
}

// ExportNodes serializes the named nodes as a self-contained binary
// snapshot: one meta frame, then one node frame per ID in sorted order
// (duplicates collapse), in the same format SnapshotBinary writes — so
// the bytes are importable by ImportFrames and restorable by any fleet
// with a matching configuration. Unknown IDs are an error: a handoff
// must never silently hand over less than it was asked to. Unlike the
// snapshot writers, dirty bits are NOT cleared — the exporting fleet
// remains authoritative (and its own snapshot log complete) until the
// nodes are removed.
func (f *Fleet) ExportNodes(ids []string) ([]byte, error) {
	sorted := make([]string, len(ids))
	copy(sorted, ids)
	sort.Strings(sorted)
	var buf bytes.Buffer
	sw := snaplog.NewWriter(&buf)
	if err := sw.WriteFrame(snaplog.FrameMeta, f.appendMetaFrame(nil)); err != nil {
		return nil, fmt.Errorf("fleet: export meta: %w", err)
	}
	var frame []byte
	prev := ""
	for i, id := range sorted {
		if i > 0 && id == prev {
			continue
		}
		prev = id
		sh := f.shardOf(id)
		sh.mu.Lock()
		p := sh.nodes[id]
		if p == nil {
			sh.mu.Unlock()
			return nil, fmt.Errorf("fleet: export: unknown node %s", id)
		}
		// The frame is built under the shard lock (pure in-memory encode)
		// and written to the buffer after release, so the lock never
		// covers the snaplog writer.
		var err error
		frame, err = appendProfileFrame(frame[:0], p)
		sh.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("fleet: export node %s: %w", id, err)
		}
		if err := sw.WriteFrame(snaplog.FrameNode, frame); err != nil {
			return nil, fmt.Errorf("fleet: export node %s: %w", id, err)
		}
	}
	if err := sw.Flush(); err != nil {
		return nil, fmt.Errorf("fleet: export flush: %w", err)
	}
	return buf.Bytes(), nil
}

// ImportFrames admits nodes exported by ExportNodes (or any binary
// snapshot slice) into a live fleet, returning how many distinct nodes
// were imported. The data must begin with a meta frame matching this
// fleet's configuration; every frame is bounds-checked, CRC-verified,
// and fully validated (learner shape, strategy names, drift registers)
// BEFORE any node is admitted, so a torn, corrupt, or incompatible
// payload rejects the whole import and leaves current state untouched —
// the abort path a failed handoff relies on to keep the old owner
// authoritative. Repeated node frames replay last-record-wins, and a
// node that already exists locally is overwritten (a crashed handoff
// re-run converges instead of erroring). Imported nodes land dirty, so
// the next delta append persists them.
func (f *Fleet) ImportFrames(data []byte) (int, error) {
	sr := snaplog.NewReader(bytes.NewReader(data))
	sawMeta := false
	var rs nodeRecords
	for {
		fr, err := sr.NextReuse()
		if err == io.EOF {
			break
		}
		if err != nil {
			var te *snaplog.TruncatedError
			if errors.As(err, &te) {
				// Unlike a crash-torn log tail, an import arrived over the
				// wire in one piece; a short payload means loss in transit.
				return 0, fmt.Errorf("fleet: import truncated at byte %d", te.Offset)
			}
			return 0, fmt.Errorf("fleet: import: %w", err)
		}
		switch fr.Type {
		case snaplog.FrameMeta:
			if err := f.decodeMetaFrame(fr.Payload); err != nil {
				return 0, fmt.Errorf("fleet: import meta at byte %d: %w", fr.Offset, err)
			}
			sawMeta = true
		case snaplog.FrameNode:
			if !sawMeta {
				return 0, fmt.Errorf("fleet: import starts with a node frame at byte %d, want a meta frame", fr.Offset)
			}
			if _, err := rs.decode(fr.Payload); err != nil {
				return 0, fmt.Errorf("fleet: import node frame at byte %d: %w", fr.Offset, err)
			}
			rs.keep(f) // last record wins, like the snapshot log
		}
	}
	if !sawMeta {
		return 0, errors.New("fleet: import contains no meta frame")
	}
	// Every node passed the gate before any is admitted: one bad node
	// rejects the whole import.
	built, err := rs.profiles()
	if err != nil {
		return 0, err
	}
	// Admit. Unlike Restore (whole-fleet replace, counters Stored), an
	// import lands on a live fleet, so the counters adjust by deltas —
	// subtracting any profile the import overwrites.
	for _, p := range built {
		sh := f.shardOf(p.id)
		sh.mu.Lock()
		if old := sh.nodes[p.id]; old != nil {
			f.accepted.Add(-old.observed)
			f.stale.Add(-old.stale)
			f.driftEvents.Add(-old.driftEvents)
		}
		sh.nodes[p.id] = p
		f.accepted.Add(p.observed)
		f.stale.Add(p.stale)
		f.driftEvents.Add(p.driftEvents)
		sh.mu.Unlock()
	}
	return len(built), nil
}

// RemoveNodes deletes the named nodes, returning how many existed.
// Unknown IDs are skipped, not errors: removal is the post-commit
// cleanup of a handoff, and a re-run after a partial cleanup must
// converge. Deleting the profile drops its cached plan pointer and its
// dirty bit with it (the shared fingerprint-keyed plan cache is
// untouched — entries there are owned by no single node), and the
// fleet counters give back the node's accepted/stale/drift tallies.
func (f *Fleet) RemoveNodes(ids []string) int {
	removed := 0
	for _, id := range ids {
		sh := f.shardOf(id)
		sh.mu.Lock()
		if p := sh.nodes[id]; p != nil {
			delete(sh.nodes, id)
			f.accepted.Add(-p.observed)
			f.stale.Add(-p.stale)
			f.driftEvents.Add(-p.driftEvents)
			removed++
		}
		sh.mu.Unlock()
	}
	return removed
}
