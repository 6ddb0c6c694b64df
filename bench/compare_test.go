package main

import "testing"

// runs returns n synthetic run values: base plus a repeating noise
// pattern of the given relative amplitude.
func runs(n int, base, noise float64) []float64 {
	pattern := []float64{0, 1, -1, 0.5, -0.5, 0.8, -0.8, 0.2, -0.2, 0.4}
	out := make([]float64, n)
	for i := range out {
		out[i] = base * (1 + noise*pattern[i%len(pattern)])
	}
	return out
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, new []float64
		lower    bool
		want     verdict
	}{
		{"2x slower latency", runs(10, 1, 0.02), runs(10, 2, 0.02), true, worse},
		{"identical", runs(10, 1, 0.02), runs(10, 1, 0.02), true, unchanged},
		{"2x faster latency", runs(10, 2, 0.02), runs(10, 1, 0.02), true, improved},
		{"half the throughput", runs(10, 100, 0.02), runs(10, 50, 0.02), false, worse},
		{"within the bound", runs(10, 1, 0.01), runs(10, 1.05, 0.01), true, unchanged},
		// Spread far wider than the bound: a similar median proves
		// nothing either way.
		{"overlapping noise", runs(10, 1, 0.5), runs(10, 1.02, 0.5), true, unresolved},
	} {
		if got := judge(c.old, c.new, c.lower, 0.1, 0); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSetupFloor(t *testing.T) {
	// 0.2 s on a 1 s set-up is 20%, but below the 0.25 s floor.
	if got := judge(runs(10, 1, 0.01), runs(10, 1.2, 0.01), true, 0.1, setupFloorS); got != unchanged {
		t.Errorf("set-up 1.0 s -> 1.2 s: %s, want unchanged", got)
	}
	if got := judge(runs(10, 1, 0.01), runs(10, 1.3, 0.01), true, 0.1, setupFloorS); got != worse {
		t.Errorf("set-up 1.0 s -> 1.3 s: %s, want worse", got)
	}
}

func TestCompareRejectsHigherErrorRatio(t *testing.T) {
	var bf benchmarkFile
	bf.EndToEnd = append(bf.EndToEnd, struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"observe_p50_ms", "lower", 0.1})
	mk := func(failed int) []record {
		var out []record
		for i, v := range runs(10, 1, 0.01) {
			out = append(out, record{
				Workload: "serve", Seed: uint64(i), Attempted: 1000, Failed: failed,
				EndToEnd: map[string]float64{"observe_p50_ms": v},
			})
		}
		return out
	}
	got := map[string]verdict{}
	for _, c := range compareRecords(bf, mk(0), mk(3)) {
		got[c.Metric] = c.Verdict
	}
	if got["observe_p50_ms"] != unchanged || got["error_ratio"] != worse {
		t.Errorf("verdicts %v; want observe_p50_ms unchanged and error_ratio worse", got)
	}
	for _, c := range compareRecords(bf, mk(3), mk(3)) {
		if c.Verdict != unchanged {
			t.Errorf("same runs on both sides: %s %s", c.Metric, c.Verdict)
		}
	}
}
