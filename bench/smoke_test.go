package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestBenchSmoke runs every workload of BENCHMARK.json traced, with
// 1/20 of the population and short phases. It checks the correctness
// gates, and that every end-to-end and per-layer metric BENCHMARK.json
// names is measured.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and runs every workload; skipped with -short")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var bf struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	bin, err := buildDaemon("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range bf.Workloads {
		sp, err := lookupSpec(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config{
			bin: bin, dir: t.TempDir(), seed: 1, seconds: 2, trace: true,
			nodes: 4096 / 20, setups: 1,
		}
		ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
		r, err := runWorkload(ctx, cfg, sp)
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.gateErr != nil {
			t.Errorf("%s: correctness gate: %v", w.Name, r.gateErr)
		}
		e2e, err := r.endToEnd()
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for _, m := range bf.EndToEnd {
			if _, ok := e2e[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s not measured", w.Name, m.Name)
			}
		}
		for _, m := range bf.PerLayer {
			if _, ok := r.layers[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not measured", w.Name, m.Name)
			}
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("smoke run took %v, want at most 30s", d)
	}
}
