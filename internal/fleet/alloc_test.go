package fleet

import (
	"context"
	"fmt"
	"testing"

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
		if s, err := c.f.ScheduleContext(ctx, "n1"); err != nil || s.Mechanism != MechanismOPT {
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
