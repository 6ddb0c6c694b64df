package sim

import (
	"reflect"
	"testing"

	"rushprobe/internal/scenario"
	"rushprobe/internal/strategy"
)

// Parallel replications must be byte-identical to serial ones: each
// replication's seed depends only on (base seed, index) and aggregation
// happens in replication order.
func TestRunReplicationsParallelMatchesSerial(t *testing.T) {
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	cfg := testConfig(t, sc, strategy.NameRH, 2)

	cfg.Parallelism = 1
	serial, err := RunReplications(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		cfg.Parallelism = workers
		parallel, err := RunReplications(cfg, 5)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("parallelism %d: replicated results differ from serial", workers)
		}
	}
}

// Each replication must use a distinct derived seed (otherwise the
// replication CI collapses to zero width).
func TestRunReplicationsSeedsDiffer(t *testing.T) {
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	cfg := testConfig(t, sc, strategy.NameRH, 2)
	rep, err := RunReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, r := range rep.Runs {
		seen[r.Summary.MeanZeta] = true
	}
	if len(seen) < 2 {
		t.Errorf("replications look identical: %v", seen)
	}
}

// BenchmarkReplicationsParallel measures the replication fan-out at
// the default pool width (GOMAXPROCS); compare with
// BenchmarkReplicationsSerial for the multi-core speedup.
func BenchmarkReplicationsParallel(b *testing.B) {
	benchmarkReplications(b, 0)
}

// BenchmarkReplicationsSerial is the single-worker reference point.
func BenchmarkReplicationsSerial(b *testing.B) {
	benchmarkReplications(b, 1)
}

func benchmarkReplications(b *testing.B, parallelism int) {
	sc := scenario.Roadside(scenario.WithZetaTarget(24))
	factory, err := StrategyFactory(sc, strategy.NameRH)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Scenario:     sc,
		NewScheduler: factory,
		Epochs:       2,
		Seed:         12345,
		Parallelism:  parallelism,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunReplications(cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}
