package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// record is the full account of one run, one JSON line in the records
// file: enough to recompute every reported number and to tell which
// machine and commit produced it.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Env      env     `json:"env"`

	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Gate      string `json:"gate,omitempty"`

	// Metrics is what the run reported; EndToEnd is always the
	// end-to-end set, so traced runs can be compared with untraced ones.
	Metrics  map[string]metricValue `json:"metrics"`
	EndToEnd map[string]float64     `json:"endToEnd"`

	Phases    map[string]phase `json:"phases"`
	SetupS    []float64        `json:"setupS"`
	RestartS  []float64        `json:"restartS"`
	SnapshotS []float64        `json:"snapshotS"`

	// Reconcile checks a traced run's layers against the client's view.
	Reconcile map[string]reconciliation `json:"reconcile,omitempty"`

	// CPUCores is, per load phase, the CPU cores the daemons and the
	// harness kept busy on average.
	CPUCores map[string][2]float64 `json:"cpuCores"`

	// StealPct is the share of CPU time the hypervisor gave to other
	// guests while the run went on: the first suspect of an outlier run.
	StealPct float64 `json:"stealPct"`

	// TraceOverheadPct is the traced run's observe p50 against the
	// median of the untraced runs of the workload in the same records
	// file (absent without any).
	TraceOverheadPct *float64 `json:"trace_overhead_pct,omitempty"`
}

type env struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// phase describes one stream of a load phase: its sample count, how
// late the generator sent (due to sent), and the raw latencies in µs.
type phase struct {
	Requests     int     `json:"requests"`
	Failed       int     `json:"failed"`
	LateP50Ms    float64 `json:"lateP50Ms"`
	LateP99Ms    float64 `json:"lateP99Ms"`
	LateMaxMs    float64 `json:"lateMaxMs"`
	ServiceP50Ms float64 `json:"serviceP50Ms"`
	// P99Ms is the latency p99 over the whole phase, absent when fewer
	// than ten samples lie beyond it.
	P99Ms        *float64 `json:"p99Ms,omitempty"`
	Seconds      float64  `json:"seconds"`
	Observations int      `json:"observations,omitempty"`
	LatenciesUS  []int64  `json:"latenciesUs"`
}

func newRecord(root string, r *run, res *result, e2e map[string]float64) *record {
	rec := &record{
		Workload: r.spec.name, Seed: r.cfg.seed, Trace: r.cfg.trace, Seconds: r.cfg.seconds,
		Env: env{
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			CPU: cpuModel(), Commit: commit(root),
		},
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: res.Metrics, EndToEnd: e2e,
		Phases: map[string]phase{},
		SetupS: r.setup, RestartS: r.restarts, SnapshotS: r.snapshots,
		Reconcile: r.reconcile,
		CPUCores:  r.cpu,
	}
	if r.gateErr != nil {
		rec.Gate = r.gateErr.Error()
	}
	for k := kObserve; k < kinds; k++ {
		rec.Phases["open."+kindNames[k]] = summarize(r.open, k, r.openDur.Seconds())
	}
	rec.Phases["closed.observe"] = summarize(r.closed, kObserve, r.closedDur.Seconds())
	return rec
}

func summarize(samples [conns][]sample, k kind, secs float64) phase {
	p := phase{Seconds: secs}
	var late, service, latency []float64
	for c := range samples {
		for i := range samples[c] {
			s := &samples[c][i]
			if s.kind != k {
				continue
			}
			p.Requests++
			p.Observations += s.accepted
			if !s.ok() {
				p.Failed++
				continue
			}
			late = append(late, float64(s.sent-s.due)/1e6)
			service = append(service, float64(s.service())/1e6)
			p.LatenciesUS = append(p.LatenciesUS, s.latency().Microseconds())
			latency = append(latency, float64(s.latency())/1e6)
		}
	}
	if len(late) > 0 {
		p.LateP50Ms = percentile(late, 0.5)
		p.LateP99Ms = percentile(late, 0.99)
		p.LateMaxMs = late[len(late)-1]
		p.ServiceP50Ms = percentile(service, 0.5)
	}
	if v, err := tailPercentile(latency, 0.99); err == nil {
		p.P99Ms = &v
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit, or "unknown" outside a git
// checkout.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads a records file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// traceOverhead compares a traced run's observe p50 with the untraced
// runs of the workload already in the records file.
func traceOverhead(path, workload string, e2e map[string]float64) *float64 {
	recs, err := readRecords(path)
	if err != nil {
		return nil
	}
	var base []float64
	for _, rec := range recs {
		if rec.Workload == workload && !rec.Trace && rec.Correct {
			base = append(base, rec.EndToEnd["observe_p50_ms"])
		}
	}
	if len(base) == 0 || e2e["observe_p50_ms"] == 0 {
		return nil
	}
	pct := 100 * (e2e["observe_p50_ms"]/median(base) - 1)
	return &pct
}

// cpuTimes reads the aggregate CPU time counters (in ticks) from
// /proc/stat: all of them summed, and steal.
func cpuTimes() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
