package fleet

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"rushprobe/internal/drift"
	"rushprobe/internal/scenario"
)

// benchCodecNodes is the fleet size of the codec micro-benchmarks: large
// enough that per-node costs dominate the per-snapshot constant, small
// enough for a 1 s benchtime to run tens of iterations.
const benchCodecNodes = 4096

// codecFleet builds a CUSUM fleet of n randomized nodes (see
// populateRandomFleet) over the roadside deployment.
func codecFleet(tb testing.TB, n int) *Fleet {
	tb.Helper()
	f, err := New(Config{Base: scenario.Roadside(), DriftDetector: drift.KindCUSUM})
	if err != nil {
		tb.Fatal(err)
	}
	populateRandomFleet(tb, f, n, 1)
	return f
}

// reportPerNode adds ns/node and allocs/node to a benchmark whose every
// iteration encodes or restores `nodes` nodes.
func reportPerNode(b *testing.B, nodes int, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(nodes)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/node")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/node")
}

// BenchmarkSnapshotEncode is the binary snapshot codec's encode rung:
// a full WriteBinarySnapshot of a 4,096-node CUSUM fleet into a
// discarding writer (framing and CRC included, no I/O).
func BenchmarkSnapshotEncode(b *testing.B) {
	f := codecFleet(b, benchCodecNodes)
	nodes := f.Stats().Nodes
	var before runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if err := f.WriteBinarySnapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerNode(b, nodes, &before)
}

// BenchmarkSnapshotRestore is the decode-and-admit rung: a full
// ReadBinarySnapshot of the same fleet's log into a fresh fleet, the
// shape of a cold restart (building each fresh fleet is not timed, but
// its allocations count).
func BenchmarkSnapshotRestore(b *testing.B) {
	src := codecFleet(b, benchCodecNodes)
	nodes := src.Stats().Nodes
	var buf bytes.Buffer
	if err := src.WriteBinarySnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	log := buf.Bytes()
	var before runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dst, err := New(src.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := dst.ReadBinarySnapshot(bytes.NewReader(log)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerNode(b, nodes, &before)
}
