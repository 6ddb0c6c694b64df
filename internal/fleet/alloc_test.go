package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"rushprobe/internal/strategy"
	"rushprobe/internal/telemetry"
)

// Allocation pins for the serving hot paths. Each replaces a
// "0 allocs/op" claim that used to live only in a benchmark's output:
// testing.AllocsPerRun fails the build where a benchmark only reports.

// warmBatch returns a 256-observation batch over 64 nodes and a refill
// function that moves it forward in time, mirroring BenchmarkFleetObserve.
func warmBatch() ([]Observation, func()) {
	const nodes = 64
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%03d", i)
	}
	batch := make([]Observation, 256)
	now := 0.0
	fill := func() {
		for j := range batch {
			batch[j] = Observation{Node: ids[j%nodes], Time: now, Length: 2, Uploaded: -1}
			now += 3.3
		}
	}
	fill()
	return batch, fill
}

func TestObserveAllocatesNothing(t *testing.T) {
	f := newTestFleet(t, Config{})
	batch, fill := warmBatch()
	f.Observe(batch) // admit every node up front
	allocs := testing.AllocsPerRun(200, func() {
		fill()
		if got := f.Observe(batch); got != len(batch) {
			t.Fatalf("accepted %d of %d", got, len(batch))
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.0f times per 256-observation batch, want 0", allocs)
	}
}

func TestInstrumentedObserveAllocatesNothing(t *testing.T) {
	f, _ := newTelemeteredFleet(t, Config{})
	ctx := telemetry.WithRequestID(context.Background(), "req-1")
	batch, fill := warmBatch()
	f.ObserveContext(ctx, batch)
	allocs := testing.AllocsPerRun(200, func() {
		fill()
		if got := f.ObserveContext(ctx, batch); got != len(batch) {
			t.Fatalf("accepted %d of %d", got, len(batch))
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented ObserveContext allocates %.0f times per batch, want 0", allocs)
	}
}

// TestCachedScheduleAllocatesNothing pins the steady-state read: a
// graduated node whose plan is already pinned is served from its
// profile, by a bare and by an instrumented fleet, without allocating.
func TestCachedScheduleAllocatesNothing(t *testing.T) {
	instrumented, _ := newTelemeteredFleet(t, Config{})
	ctx := telemetry.WithRequestID(context.Background(), "req-1")
	for _, c := range []struct {
		name string
		f    *Fleet
	}{
		{"bare", newTestFleet(t, Config{})},
		{"instrumented", instrumented},
	} {
		c.f.Observe(syntheticDays("n1", 4, 10, 2.0))
		if s, err := c.f.ScheduleContext(ctx, "n1"); err != nil || s.Mechanism != strategy.NameOPT {
			t.Fatalf("%s warm-up schedule = %+v, %v; want a learned SNIP-OPT plan", c.name, s, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := c.f.ScheduleContext(ctx, "n1"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s fleet: serving a pinned plan allocates %.0f times, want 0", c.name, allocs)
		}
	}
}

// TestSnapshotEncodeAllocs pins the streaming binary encoder: frames
// are written straight from the live profiles through reused buffers,
// so a full snapshot allocates a per-snapshot constant (the frame
// writer, one ID buffer, the encoder's scratch) and nothing per node.
// Quadrupling the fleet must not add a single allocation.
func TestSnapshotEncodeAllocs(t *testing.T) {
	allocs := func(nodes int) float64 {
		f := codecFleet(t, nodes)
		return testing.AllocsPerRun(5, func() {
			if err := f.WriteBinarySnapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(2000)
	if large > small {
		t.Fatalf("a full snapshot allocates %.0f times at 2000 nodes against %.0f at 500: the encoder allocates per node", large, small)
	}
}

// restoreAllocsPerNode pins what a binary restore allocates per node,
// measured at 9.20 on this CUSUM fleet. Nine objects are the live state
// itself: the ID string; the profile (its length and upload estimators
// live inside it); the rush-hour learner with its epoch accumulator and
// the EWMA vector's three lanes; the drift monitor and its three
// detectors (one allocation). The rest is strategy-override names and
// shard map growth. Decoding allocates nothing per node: frame payloads
// share one buffer and drift registers decode into fixed arrays.
const restoreAllocsPerNode = 9.25

// TestSnapshotRestoreAllocs pins restore's allocations per node.
func TestSnapshotRestoreAllocs(t *testing.T) {
	src := codecFleet(t, 2000)
	nodes := src.Stats().Nodes
	log := binarySnapshotBytes(t, src)
	dst, err := New(src.cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := dst.ReadBinarySnapshot(bytes.NewReader(log)); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(nodes); per > restoreAllocsPerNode {
		t.Fatalf("restore allocates %.2f times per node, pinned at %.1f", per, restoreAllocsPerNode)
	} else {
		t.Logf("restore allocates %.2f times per node (%d nodes)", per, nodes)
	}
}
