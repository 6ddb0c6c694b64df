// Command bench is the repository's benchmark: it builds rushprobed,
// starts the daemons of one workload on loopback, drives them from this
// one process over at most two HTTP connections, checks that everything
// they served is correct, and prints the workload's metrics.
//
//	go run . -root .. -workload serve -seed 1 -seconds 10 -trace 0
//	go run . compare old.jsonl new.jsonl
//
// Run from the bench directory with -root .. , or through run.sh from
// the repository root (which also keeps every build artifact inside
// the checkout). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones, with -trace 1 the per-layer ones.
// Every run also appends a full record (environment, phases, raw
// samples) as one JSON line to the records file, which compare reads.
// The exit status is non-zero when a correctness gate fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// runDeadline keeps one run inside the three minutes a run may take,
// with time left to stop the daemons.
const runDeadline = 170 * time.Second

// endToEndUnits are the end-to-end metrics and their units.
var endToEndUnits = map[string]string{
	"observe_p50_ms":   "ms",
	"observe_mean_ms":  "ms",
	"schedule_p50_ms":  "ms",
	"schedules_p50_ms": "ms",
	"ingest_obs_per_s": "1/s",
	"restart_s":        "s",
	"snapshot_s":       "s",
	"rss_mb":           "MB",
	"setup_s":          "s",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: ingest, serve, routed, or restart")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 10, "length of the measured phases of one run")
		traceArg = fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		root     = fs.String("root", ".", "repository root holding cmd/rushprobed")
		records  = fs.String("records", "", "file the run record is appended to (default <root>/.bench_build/runs.jsonl)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := lookupSpec(*workload)
	if err != nil || *seconds <= 0 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -workload ingest|serve|routed|restart, -seconds > 0, -trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(conns)
	if *records == "" {
		*records = filepath.Join(*root, ".bench_build", "runs.jsonl")
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *traceArg == 1,
		nodes: 4096, setups: 3,
	}
	res, err := benchmark(*root, cfg, sp, *records, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// benchmark builds the daemon, runs the workload once, prints a
// human-readable summary, appends the run record, and returns the
// result line.
func benchmark(root string, cfg config, sp spec, records string, out io.Writer) (*result, error) {
	buildDir, err := filepath.Abs(filepath.Join(root, ".bench_build"))
	if err != nil {
		return nil, err
	}
	if cfg.bin, err = buildDaemon(root, filepath.Join(buildDir, "bin")); err != nil {
		return nil, err
	}
	cfg.dir = filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	total0, steal0 := cpuTimes()
	r, err := runWorkload(ctx, cfg, sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	total1, steal1 := cpuTimes()
	e2e, metricsErr := r.endToEnd()
	if metricsErr != nil {
		e2e = map[string]float64{}
	}
	res := &result{Correct: r.gateErr == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if cfg.trace {
		for _, lm := range layerMetrics {
			res.Metrics[lm.name] = metricValue{r.layers[lm.name], lm.unit}
		}
	} else {
		for name, v := range e2e {
			res.Metrics[name] = metricValue{v, endToEndUnits[name]}
		}
	}
	rec := newRecord(root, r, res, e2e)
	if total1 > total0 {
		rec.StealPct = 100 * (steal1 - steal0) / (total1 - total0)
	}
	if cfg.trace {
		rec.TraceOverheadPct = traceOverhead(records, sp.name, e2e)
	}
	// A traced run reports per-layer metrics; its end-to-end set is kept
	// only for the tracing-overhead comparison.
	failMetrics := metricsErr != nil && r.gateErr == nil && !cfg.trace
	if failMetrics {
		rec.Gate = "metrics: " + metricsErr.Error()
	}
	if err := appendRecord(records, rec); err != nil {
		return nil, err
	}
	if failMetrics {
		return nil, metricsErr
	}
	printSummary(out, r, res)
	return res, nil
}

func printSummary(out io.Writer, r *run, res *result) {
	fmt.Fprintf(out, "workload %s seed %d: %d requests, %d failed, set-ups %.3v s\n",
		r.spec.name, r.cfg.seed, res.Attempted, res.Failed, r.setup)
	if r.gateErr != nil {
		fmt.Fprintf(out, "correctness gate FAILED: %v\n", r.gateErr)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}
