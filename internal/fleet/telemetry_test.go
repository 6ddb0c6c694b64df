package fleet

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rushprobe/internal/drift"
	"rushprobe/internal/strategy"
	"rushprobe/internal/telemetry"
)

func newTelemeteredFleet(t *testing.T, cfg Config) (*Fleet, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(telemetry.Config{TraceRing: 256})
	cfg.Telemetry = tel
	return newTestFleet(t, cfg), tel
}

// TestTelemetryIsBehaviorNeutral feeds one stream to a bare and a
// telemetered fleet: arming telemetry must change no served schedule,
// learned profile or snapshot byte.
func TestTelemetryIsBehaviorNeutral(t *testing.T) {
	bare := newTestFleet(t, Config{DriftDetector: drift.KindCUSUM})
	armed, _ := newTelemeteredFleet(t, Config{DriftDetector: drift.KindCUSUM})
	nodes := []string{"n1", "n2", "n3"}
	for i, node := range nodes {
		batch := syntheticDays(node, 3+i, 8, 1.5+float64(i))
		bare.Observe(batch)
		armed.ObserveContext(context.Background(), batch)
	}
	if _, err := bare.SetStrategy("n2", strategy.NameRH); err != nil {
		t.Fatal(err)
	}
	if _, err := armed.SetStrategy("n2", strategy.NameRH); err != nil {
		t.Fatal(err)
	}
	for _, node := range append(nodes, "never-seen") {
		want, err := bare.Schedule(node)
		if err != nil {
			t.Fatal(err)
		}
		got, err := armed.ScheduleContext(context.Background(), node)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: telemetered fleet serves %+v, bare fleet %+v", node, got, want)
		}
		wantProf, err := bare.Profile(node)
		if err != nil {
			t.Fatal(err)
		}
		gotProf, err := armed.Profile(node)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotProf, wantProf) {
			t.Errorf("%s: telemetered profile %+v, bare %+v", node, gotProf, wantProf)
		}
	}
	if !bytes.Equal(binarySnapshotBytes(t, armed), binarySnapshotBytes(t, bare)) {
		t.Error("telemetry changed the snapshot bytes")
	}
}

func TestTelemetryRecordsStageHistogramsAndSpans(t *testing.T) {
	f, tel := newTelemeteredFleet(t, Config{})
	ctx := telemetry.WithRequestID(context.Background(), "req-7")

	batch := syntheticDays("n1", 4, 10, 2.0)
	if got := f.ObserveContext(ctx, batch); got != len(batch) {
		t.Fatalf("accepted %d of %d", got, len(batch))
	}
	if _, err := f.ScheduleContext(ctx, "n1"); err != nil { // miss: first solve
		t.Fatal(err)
	}
	if err := f.AdvanceEpoch("n1", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ScheduleContext(ctx, "n1"); err != nil { // re-derive after epoch
		t.Fatal(err)
	}
	if _, err := f.ReadBinarySnapshot(bytes.NewReader(binarySnapshotBytes(t, f))); err != nil {
		t.Fatal(err)
	}

	counts := map[string]uint64{}
	for _, h := range tel.Histograms() {
		counts[h.Name()] = h.Snapshot().Count
	}
	for name, want := range map[string]uint64{
		"rushprobe_ingest_batch_seconds":     1,
		"rushprobe_schedule_seconds":         2,
		"rushprobe_advance_epoch_seconds":    1,
		"rushprobe_snapshot_save_seconds":    1,
		"rushprobe_snapshot_restore_seconds": 1,
	} {
		if counts[name] != want {
			t.Errorf("%s count = %d, want %d", name, counts[name], want)
		}
	}
	if counts["rushprobe_solve_seconds"] == 0 {
		t.Error("no solve was timed despite a plan-cache miss")
	}

	spans := tel.Traces.Last(64)
	stages := map[string]int{}
	var ingestSpan, schedSpan *telemetry.Span
	for i := range spans {
		s := &spans[i]
		stages[s.Stage]++
		switch s.Stage {
		case "ingest":
			ingestSpan = s
		case "schedule":
			if schedSpan == nil {
				schedSpan = s // newest-first: the post-advance schedule
			}
		}
	}
	for _, stage := range []string{"ingest", "schedule", "solve", "epoch", "snapshot-save", "snapshot-restore"} {
		if stages[stage] == 0 {
			t.Errorf("no %s span recorded (got %v)", stage, stages)
		}
	}
	if ingestSpan == nil || ingestSpan.Request != "req-7" || ingestSpan.Count != len(batch) {
		t.Errorf("ingest span = %+v, want request req-7 and count %d", ingestSpan, len(batch))
	}
	if schedSpan == nil || schedSpan.Node != "n1" || schedSpan.Cache == "" {
		t.Errorf("schedule span = %+v, want node n1 with a cache outcome", schedSpan)
	}
}

func TestScheduleSpanCacheOutcomes(t *testing.T) {
	f, tel := newTelemeteredFleet(t, Config{})
	ctx := context.Background()

	if _, err := f.ScheduleContext(ctx, "ghost"); err != nil {
		t.Fatal(err)
	}
	f.Observe(syntheticDays("a", 4, 10, 2.0))
	f.Observe(syntheticDays("b", 4, 10, 2.0))
	if _, err := f.ScheduleContext(ctx, "a"); err != nil { // solve
		t.Fatal(err)
	}
	if _, err := f.ScheduleContext(ctx, "b"); err != nil { // same fingerprint: hit
		t.Fatal(err)
	}
	if _, err := f.ScheduleContext(ctx, "b"); err != nil { // per-node pointer
		t.Fatal(err)
	}

	got := map[string]bool{}
	for _, s := range tel.Traces.Last(64) {
		if s.Stage == "schedule" {
			got[s.Cache] = true
		}
	}
	for _, want := range []string{"bootstrap", "miss", "hit", "node"} {
		if !got[want] {
			t.Errorf("no schedule span with cache=%q (got %v)", want, got)
		}
	}
}

func TestTelemetryLogsDriftEvents(t *testing.T) {
	var buf bytes.Buffer
	tel := telemetry.New(telemetry.Config{
		TraceRing: 64,
		Logger:    slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	f := newTestFleet(t, Config{DriftDetector: drift.KindCUSUM, Telemetry: tel})
	const node = "n-drift"
	f.Observe(patternDays(node, 0, 12, 6, 2, roadRush))
	f.Observe(patternDays(node, 12, 10, 6, 2, rotatedRush))
	prof, err := f.Profile(node)
	if err != nil {
		t.Fatal(err)
	}
	if prof.DriftEvents == 0 {
		t.Fatal("rotation did not fire the detector; cannot test logging")
	}
	out := buf.String()
	if !strings.Contains(out, "drift detected") || !strings.Contains(out, node) {
		t.Fatalf("drift firing not logged: %q", out)
	}
}

func TestMemoryAndShardNodes(t *testing.T) {
	f := newTestFleet(t, Config{DriftDetector: drift.KindCUSUM})
	if m := f.Memory(); m.Nodes != 0 || m.ProfileBytes != 0 || m.BytesPerNode != 0 {
		t.Fatalf("empty fleet memory = %+v", m)
	}
	const n = 10
	for i := 0; i < n; i++ {
		f.Observe(syntheticDays(fmt.Sprintf("node-%d", i), 2, 5, 2.0))
	}
	m := f.Memory()
	if m.Nodes != n {
		t.Fatalf("nodes = %d, want %d", m.Nodes, n)
	}
	// Each profile holds a 24-slot learner (EWMAs + slices) plus two
	// estimators and three drift detectors; anything under ~200 B/node
	// means the estimate is broken, anything over ~64 KB means it
	// double-counts wildly.
	if m.BytesPerNode < 200 || m.BytesPerNode > 65536 {
		t.Fatalf("bytes/node = %g, outside sanity band", m.BytesPerNode)
	}
	if m.ProfileBytes != int64(m.BytesPerNode*float64(n)) {
		t.Fatalf("profile bytes %d inconsistent with bytes/node %g", m.ProfileBytes, m.BytesPerNode)
	}
	shards := f.ShardNodes()
	if len(shards) != 16 {
		t.Fatalf("shard count = %d, want default 16", len(shards))
	}
	sum := 0
	for _, c := range shards {
		sum += c
	}
	if sum != n {
		t.Fatalf("shard node counts sum to %d, want %d", sum, n)
	}
}

// TestMetricsReadsUnderConcurrentMutation pins that the read-side
// surface the daemon scrapes — Stats, StrategyNodes, ShardNodes,
// Memory — neither races nor deadlocks against concurrent SetStrategy,
// Observe, and Schedule traffic. Run under -race (make race).
func TestMetricsReadsUnderConcurrentMutation(t *testing.T) {
	f, tel := newTelemeteredFleet(t, Config{BootstrapEpochs: 1})
	const writers, readers, nodes = 4, 4, 8
	var stop atomic.Bool
	var writerWg, readerWg sync.WaitGroup

	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			strategies := []string{strategy.NameRH, strategy.NameOPT, ""}
			for i := 0; i < 50; i++ {
				node := fmt.Sprintf("n%d", (w+i)%nodes)
				f.ObserveContext(context.Background(), syntheticDays(node, 2, 5, 2.0))
				if _, err := f.SetStrategy(node, strategies[i%len(strategies)]); err != nil {
					t.Error(err)
				}
				if _, err := f.ScheduleContext(context.Background(), node); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for !stop.Load() {
				st := f.Stats()
				if st.Nodes < 0 || st.Observations < 0 {
					t.Errorf("implausible stats: %+v", st)
					return
				}
				total := 0
				for _, c := range f.StrategyNodes() {
					total += c
				}
				if total > nodes {
					t.Errorf("strategy nodes total %d exceeds node count %d", total, nodes)
					return
				}
				f.ShardNodes()
				f.Memory()
				tel.Traces.Last(16)
			}
		}()
	}

	// Readers hammer the metrics surface for as long as the writers
	// keep mutating, then drain.
	writerWg.Wait()
	stop.Store(true)
	readerWg.Wait()

	if st := f.Stats(); st.Nodes != nodes {
		t.Fatalf("nodes = %d, want %d", st.Nodes, nodes)
	}
}
