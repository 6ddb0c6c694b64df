package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"rushprobe/internal/snaplog"
)

// populateRandomFleet drives nodes through ingest with patterned but
// randomized traffic: 32 traffic classes (so the plan cache shares
// solves), random epoch counts including still-bootstrapping nodes,
// strategy overrides, quiet-gap advances, and stale reports. Returns
// the node IDs.
func populateRandomFleet(t testing.TB, f *Fleet, nodes int, seed int64) []string {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ids := make([]string, nodes)
	batch := make([]Observation, 0, 256)
	for i := range ids {
		id := fmt.Sprintf("node-%06d", i)
		ids[i] = id
		class := i % 32
		days := r.Intn(6) // 0..5 epochs: some never graduate
		length := 1.0 + float64(class%7)
		batch = batch[:0]
		for d := 0; d < days; d++ {
			for h := 0; h < 24; h++ {
				n := 1
				if h == class%24 || h == (class+11)%24 {
					n = 3 + class%5
				}
				for c := 0; c < n; c++ {
					batch = append(batch, Observation{
						Node:     id,
						Time:     float64(d)*86400 + float64(h)*3600 + float64(c)*60,
						Length:   length,
						Uploaded: float64(r.Intn(2)*4096) - float64(r.Intn(2)), // mix of known, zero, unknown(-1)
					})
				}
			}
		}
		f.Observe(batch)
		switch i % 17 {
		case 3:
			if _, err := f.SetStrategy(id, MechanismRH); err != nil {
				t.Fatal(err)
			}
		case 5:
			if _, err := f.SetStrategy(id, MechanismAT); err != nil {
				t.Fatal(err)
			}
		}
		if i%13 == 7 {
			// A quiet gap folded by the co-simulation clock hook.
			if err := f.AdvanceEpoch(id, days+1+r.Intn(3)); err != nil {
				t.Fatal(err)
			}
		}
		if i%23 == 11 && days > 1 {
			// A stale report (bumps the persisted stale counter).
			f.Observe([]Observation{{Node: id, Time: 10, Length: 1, Uploaded: -1}})
		}
	}
	return ids
}

// schedulesJSON serializes the batch plans for byte-level comparison.
func schedulesJSON(t testing.TB, f *Fleet, ids []string) []byte {
	t.Helper()
	scheds, err := f.ScheduleBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(scheds)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func binarySnapshotBytes(t testing.TB, f *Fleet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteBinarySnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinarySnapshotRestoreEquivalence is the restore-equivalence
// property at fleet scale: populate N random nodes, binary-snapshot,
// restore into a fresh fleet, and require byte-identical schedules for
// every node and a byte-identical re-snapshot.
func TestBinarySnapshotRestoreEquivalence(t *testing.T) {
	nodes := 10000
	if testing.Short() {
		nodes = 1500 // keeps the -race CI run inside its budget
	}
	cfg := Config{DriftDetector: "cusum"}
	f := newTestFleet(t, cfg)
	ids := populateRandomFleet(t, f, nodes, 42)
	// Nodes that drew zero traffic days and no explicit write never
	// enter the store; the snapshot carries the stored set.
	stored := f.Stats().Nodes
	want := schedulesJSON(t, f, ids)
	enc := binarySnapshotBytes(t, f)
	t.Logf("binary snapshot: %d stored nodes, %d bytes (%.1f bytes/node)", stored, len(enc), float64(len(enc))/float64(stored))

	// Fresh-process restore.
	f2 := newTestFleet(t, cfg)
	info, err := f2.ReadBinarySnapshot(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if info.Truncated || info.Nodes != stored || info.Generations != 1 {
		t.Fatalf("recovery info %+v, want %d nodes, 1 generation, no tear", info, stored)
	}
	if got := schedulesJSON(t, f2, ids); !bytes.Equal(got, want) {
		t.Fatal("schedules after binary restore differ from the live fleet")
	}
	// The restored fleet is clean w.r.t. the log it came from.
	if d := f2.DirtyNodes(); d != 0 {
		t.Fatalf("restored fleet reports %d dirty nodes, want 0", d)
	}
	// Re-snapshotting the restored fleet reproduces the bytes exactly.
	if enc2 := binarySnapshotBytes(t, f2); !bytes.Equal(enc2, enc) {
		t.Fatal("binary snapshot is not stable across restore")
	}
}

// TestBinarySnapshotDeltaReplay covers the incremental path: full
// snapshot, more traffic, delta append — replaying the concatenated
// log must land exactly on the live state (last record wins).
func TestBinarySnapshotDeltaReplay(t *testing.T) {
	cfg := Config{DriftDetector: "page-hinkley"}
	f := newTestFleet(t, cfg)
	populateRandomFleet(t, f, 200, 7)
	stored := f.Stats().Nodes
	var log bytes.Buffer
	if err := f.WriteBinarySnapshot(&log); err != nil {
		t.Fatal(err)
	}
	if d := f.DirtyNodes(); d != 0 {
		t.Fatalf("%d dirty nodes after full snapshot, want 0", d)
	}
	// Touch a subset: new traffic, a strategy flip, one brand-new node.
	f.Observe(syntheticDays("node-000003", 2, 8, 2.0))
	if _, err := f.SetStrategy("node-000005", MechanismRH); err != nil {
		t.Fatal(err)
	}
	f.Observe(syntheticDays("late-joiner", 4, 10, 1.5))
	dirty := f.DirtyNodes()
	if dirty != 3 {
		t.Fatalf("%d dirty nodes, want 3", dirty)
	}
	n, err := f.AppendBinaryDelta(&log)
	if err != nil {
		t.Fatal(err)
	}
	if n != dirty {
		t.Fatalf("delta wrote %d frames, want %d", n, dirty)
	}
	if d := f.DirtyNodes(); d != 0 {
		t.Fatalf("%d dirty nodes after delta, want 0", d)
	}
	// An empty delta writes nothing.
	mark := log.Len()
	if n, err := f.AppendBinaryDelta(&log); err != nil || n != 0 || log.Len() != mark {
		t.Fatalf("idle delta wrote %d frames / %d bytes (err %v)", n, log.Len()-mark, err)
	}

	ids := append([]string{"late-joiner"}, "node-000003", "node-000005", "node-000000")
	want := schedulesJSON(t, f, ids)
	f2 := newTestFleet(t, cfg)
	info, err := f2.ReadBinarySnapshot(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != stored+1 {
		t.Fatalf("replay restored %d nodes, want %d", info.Nodes, stored+1)
	}
	if got := schedulesJSON(t, f2, ids); !bytes.Equal(got, want) {
		t.Fatal("schedules after snapshot+delta replay differ from the live fleet")
	}
	live, err := f.Profile("node-000003")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := f2.Profile("node-000003")
	if err != nil {
		t.Fatal(err)
	}
	if live.Epochs != restored.Epochs || live.Observations != restored.Observations {
		t.Fatalf("delta-superseded node differs: live %+v restored %+v", live, restored)
	}
}

// TestBinarySnapshotCompactionGeneration: a log holding two full
// snapshots (compaction appended in place) restores to the later one.
func TestBinarySnapshotCompactionGeneration(t *testing.T) {
	f := newTestFleet(t, Config{})
	populateRandomFleet(t, f, 50, 3)
	var log bytes.Buffer
	if err := f.WriteBinarySnapshot(&log); err != nil {
		t.Fatal(err)
	}
	f.Observe(syntheticDays("node-000001", 3, 12, 2.5))
	if err := f.WriteBinarySnapshot(&log); err != nil { // second generation, same stream
		t.Fatal(err)
	}
	f2 := newTestFleet(t, Config{})
	info, err := f2.ReadBinarySnapshot(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Generations != 2 {
		t.Fatalf("generations = %d, want 2", info.Generations)
	}
	a, _ := f.Profile("node-000001")
	b, _ := f2.Profile("node-000001")
	if a.Epochs != b.Epochs || a.Observations != b.Observations {
		t.Fatalf("restore did not take the later generation: live %+v restored %+v", a, b)
	}
}

// TestBinarySnapshotCrashRecovery truncates the log at every frame
// boundary and at points inside frames: boundary cuts restore the
// prefix cleanly, mid-frame cuts restore the prefix AND report the
// tear, and a log torn before the meta frame completes is an error —
// never a silent fresh start.
func TestBinarySnapshotCrashRecovery(t *testing.T) {
	cfg := Config{DriftDetector: "cusum"}
	f := newTestFleet(t, cfg)
	populateRandomFleet(t, f, 30, 11)
	enc := binarySnapshotBytes(t, f)

	// Frame boundaries via the snaplog reader.
	boundaries := map[int]bool{}
	sr := snaplog.NewReader(bytes.NewReader(enc))
	var metaEnd int64
	for {
		if _, err := sr.Next(); err != nil {
			break
		}
		boundaries[int(sr.Offset())] = true
		if metaEnd == 0 {
			metaEnd = sr.Offset()
		}
	}

	step := 1
	if testing.Short() {
		step = 7
	}
	for cut := 0; cut <= len(enc); cut += step {
		f2 := newTestFleet(t, cfg)
		info, err := f2.ReadBinarySnapshot(bytes.NewReader(enc[:cut]))
		if int64(cut) < metaEnd {
			// No complete meta frame: nothing recoverable, must error.
			if err == nil {
				t.Fatalf("cut %d (inside meta): restore succeeded, want error", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if boundaries[cut] {
			if info.Truncated {
				t.Fatalf("cut %d (boundary): spurious tear report %+v", cut, info)
			}
		} else if !info.Truncated {
			t.Fatalf("cut %d (mid-frame): tear not reported", cut)
		}
	}

	// Byte corruption anywhere must fail hard and leave the target
	// fleet's existing state untouched.
	f3 := newTestFleet(t, cfg)
	populateRandomFleet(t, f3, 5, 99)
	before := schedulesJSON(t, f3, []string{"node-000000", "node-000001"})
	mut := bytes.Clone(enc)
	mut[metaEnd+20] ^= 0xff // inside the first node frame
	if _, err := f3.ReadBinarySnapshot(bytes.NewReader(mut)); err == nil {
		t.Fatal("corrupt log restored without error")
	}
	if after := schedulesJSON(t, f3, []string{"node-000000", "node-000001"}); !bytes.Equal(before, after) {
		t.Fatal("failed restore mutated the fleet")
	}

	// Empty log: loud error.
	if _, err := newTestFleet(t, cfg).ReadBinarySnapshot(bytes.NewReader(nil)); err == nil ||
		!strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty log: err = %v, want 'empty' error", err)
	}

	// A log that leads with a node frame (no meta) is rejected.
	var noMeta bytes.Buffer
	w := snaplog.NewWriter(&noMeta)
	var scratch []byte
	func() {
		f.shards[0].mu.Lock()
		defer f.shards[0].mu.Unlock()
		for _, p := range f.shards[0].nodes {
			scratch, _ = appendProfileFrame(nil, p)
			break
		}
	}()
	if err := w.WriteFrame(snaplog.FrameNode, scratch); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := newTestFleet(t, cfg).ReadBinarySnapshot(bytes.NewReader(noMeta.Bytes())); err == nil {
		t.Fatal("node-frame-first log restored without error")
	}
}

// TestBinarySnapshotMismatchedConfigRejected: the meta frame guards
// against restoring into a differently configured fleet.
func TestBinarySnapshotMismatchedConfigRejected(t *testing.T) {
	f := newTestFleet(t, Config{})
	populateRandomFleet(t, f, 5, 1)
	enc := binarySnapshotBytes(t, f)
	other := newTestFleet(t, Config{RushSlots: f.cfg.RushSlots + 1})
	if _, err := other.ReadBinarySnapshot(bytes.NewReader(enc)); err == nil {
		t.Fatal("restore into a fleet with different rush slots succeeded")
	}
}

// TestBinarySnapshotWriteErrorPropagates: a failing sink surfaces on
// write, and the caller can retry a full snapshot afterwards (dirty
// flags lost to the failed attempt are acceptable because compaction
// rewrites everything).
func TestBinarySnapshotWriteErrorPropagates(t *testing.T) {
	f := newTestFleet(t, Config{})
	populateRandomFleet(t, f, 20, 5)
	for _, limit := range []int{0, 10, 100, 1000} {
		if err := f.WriteBinarySnapshot(&limitedWriter{limit: limit}); err == nil {
			t.Fatalf("limit %d: snapshot to failing sink succeeded", limit)
		}
	}
	// Retry to a real sink still produces a complete restorable log.
	enc := binarySnapshotBytes(t, f)
	f2 := newTestFleet(t, Config{})
	if _, err := f2.ReadBinarySnapshot(bytes.NewReader(enc)); err != nil {
		t.Fatalf("retry after failed snapshot: %v", err)
	}
}

type limitedWriter struct{ limit, n int }

var errSinkFull = errors.New("sink full")

func (l *limitedWriter) Write(p []byte) (int, error) {
	if l.n+len(p) > l.limit {
		return 0, errSinkFull
	}
	l.n += len(p)
	return len(p), nil
}

// TestBinarySnapshotMemoryFlat is the memory-spike regression test: a
// full binary save streams one shard at a time through one frame
// buffer, so what it allocates must not grow with the fleet the way
// its output does. From N to 5N nodes the allocation growth must stay
// under 1/4 of the growth in bytes written; a save that buffered its
// frames, or built a per-node object, would grow at least as fast as
// its output. (A cusum save allocates about the same at 1,000 and
// 5,000 nodes, while its output grows fivefold.)
func TestBinarySnapshotMemoryFlat(t *testing.T) {
	nodes := 1000
	if testing.Short() {
		nodes = 200
	}
	type save struct{ alloc, written int64 }
	measure := func(n int) save {
		f := newTestFleet(t, Config{DriftDetector: "cusum"})
		populateRandomFleet(t, f, n, 77)
		_ = f.WriteBinarySnapshot(io.Discard) // warm first-call setup
		var before, after runtime.MemStats
		var w countingWriter
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := f.WriteBinarySnapshot(&w); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return save{int64(after.TotalAlloc - before.TotalAlloc), w.n}
	}
	small, large := measure(nodes), measure(5*nodes)
	allocGrowth, byteGrowth := large.alloc-small.alloc, large.written-small.written
	t.Logf("save of %d nodes: %d B allocated, %d B written; %d nodes: %d B allocated, %d B written",
		nodes, small.alloc, small.written, 5*nodes, large.alloc, large.written)
	if allocGrowth*4 >= byteGrowth {
		t.Fatalf("allocation grew by %d B from %d to %d nodes, want < 1/4 of the %d B growth in output",
			allocGrowth, nodes, 5*nodes, byteGrowth)
	}
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
