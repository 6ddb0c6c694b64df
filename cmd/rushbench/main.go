// Command rushbench is a trace-replay load generator for rushprobed: it
// streams a contact trace (generated internally or recorded with
// tracegen) against a running daemon as batched observe requests at a
// configurable rate and concurrency, optionally splits the synthetic
// node population across probing strategies, and reports throughput,
// request-latency percentiles, and per-strategy energy/goodput deltas
// as a JSON summary on stdout.
//
// Usage:
//
//	rushprobed -addr :8080 &
//	rushbench -addr http://127.0.0.1:8080 -rate 1000 -duration 10s
//	rushbench -trace trace.csv -nodes 64 -strategies SNIP-OPT,SNIP-RH
//	rushbench -drift-inject -duration 10s
//
// Transient failures (connection errors, 429, 5xx) are retried with
// capped exponential backoff honoring Retry-After, so a daemon that
// sheds load under pressure reads as backpressure in the summary
// (requests.retries, requests.shed), not as hard failures.
//
// With -drift-inject the replay becomes a drift soak: halfway through
// the run every node's trace regime is swapped for a slot-rotated copy
// (rush hours move to a different time of day), and after the replay
// the summary's drift section reports how many nodes the daemon's
// detector caught and at what epoch latency. The exit status is
// non-zero if drift was injected but no node was detected, so CI can
// assert the closed loop end to end (`make soak`).
//
// The exit status is also non-zero if any request fails after retries,
// so CI can assert a clean run (`make loadtest`).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rushprobe"
	"rushprobe/internal/contact"
	"rushprobe/internal/rng"
	"rushprobe/internal/scenario"
	"rushprobe/internal/simtime"
	"rushprobe/internal/telemetry"
	"rushprobe/internal/trace"
	"rushprobe/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rushbench:", err)
		os.Exit(1)
	}
}

// config carries the resolved flags.
type config struct {
	base        string
	rate        float64
	duration    time.Duration
	concurrency int
	batch       int
	nodes       int
	tracePath   string
	seed        uint64
	strategies  []string
	wait        time.Duration
	retries     int
	driftInject bool
	logger      *slog.Logger
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rushbench", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8080", "base URL of the rushprobed daemon")
		rate        = fs.Float64("rate", 1000, "target observation ingest rate (observations/second)")
		duration    = fs.Duration("duration", 10*time.Second, "how long to stream observations")
		concurrency = fs.Int("concurrency", 4, "concurrent HTTP workers")
		batch       = fs.Int("batch", 100, "observations per observe request")
		nodes       = fs.Int("nodes", 64, "synthetic node population the trace is fanned out to")
		tracePath   = fs.String("trace", "", "contact trace CSV to replay (e.g. from tracegen); default: generate the road-side trace")
		seed        = fs.Uint64("seed", 1, "seed for the internally generated trace")
		strategies  = fs.String("strategies", "", "comma-separated strategies to split the node population across (default: fleet default only)")
		wait        = fs.Duration("wait", 5*time.Second, "how long to wait for the daemon's /v1/healthz before starting")
		retries     = fs.Int("retries", 4, "max retries per request for transient failures (connect errors, 429, 5xx)")
		driftInject = fs.Bool("drift-inject", false, "swap every node to a slot-rotated trace regime at half the run and report the daemon's drift-detection latency")
		logFormat   = fs.String("log-format", "text", "progress log format on stderr: text or json")
		logLevel    = fs.String("log-level", "info", "minimum progress log level: debug, info, warn, or error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	cfg := config{
		base:        strings.TrimSuffix(*addr, "/"),
		rate:        *rate,
		duration:    *duration,
		concurrency: *concurrency,
		batch:       *batch,
		nodes:       *nodes,
		tracePath:   *tracePath,
		seed:        *seed,
		wait:        *wait,
		retries:     *retries,
		driftInject: *driftInject,
		logger:      logger,
	}
	if !strings.HasPrefix(cfg.base, "http://") && !strings.HasPrefix(cfg.base, "https://") {
		cfg.base = "http://" + cfg.base
	}
	if cfg.rate <= 0 || cfg.duration <= 0 || cfg.concurrency < 1 || cfg.batch < 1 || cfg.nodes < 1 {
		return fmt.Errorf("rate, duration, concurrency, batch, and nodes must be positive")
	}
	if cfg.retries < 0 {
		return fmt.Errorf("retries must be non-negative")
	}
	if *strategies != "" {
		for _, s := range strings.Split(*strategies, ",") {
			cfg.strategies = append(cfg.strategies, strings.TrimSpace(s))
		}
	}
	summary, err := bench(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(summary); err != nil {
		return err
	}
	if summary.Requests.Failed > 0 {
		return fmt.Errorf("%d of %d requests failed", summary.Requests.Failed, summary.Requests.Sent)
	}
	if d := summary.Drift; d != nil && d.NodesInjected > 0 && d.NodesDetected == 0 {
		return fmt.Errorf("drift injected into %d nodes but no detector fired (is the daemon running with -drift-detector?)", d.NodesInjected)
	}
	if bs := summary.BatchSchedule; bs != nil && bs.Mismatched > 0 {
		return fmt.Errorf("batch schedule verification: %d of %d plans differ from the per-node schedules", bs.Mismatched, bs.Nodes)
	}
	return nil
}

// Summary is the JSON report rushbench emits.
type Summary struct {
	Config struct {
		Target      string  `json:"target"`
		RatePerSec  float64 `json:"ratePerSec"`
		DurationSec float64 `json:"durationSec"`
		Concurrency int     `json:"concurrency"`
		Batch       int     `json:"batch"`
		Nodes       int     `json:"nodes"`
		TraceSource string  `json:"traceSource"`
	} `json:"config"`
	Requests struct {
		Sent int `json:"sent"`
		// Failed counts requests that never succeeded, after retries.
		Failed int `json:"failed"`
		// Retries counts re-sent attempts that followed a transient
		// failure; Shed counts the 429 responses among them. A loaded
		// daemon shows up here, not in Failed.
		Retries int `json:"retries"`
		Shed    int `json:"shed"`
	} `json:"requests"`
	Observations struct {
		Sent     int   `json:"sent"`
		Accepted int64 `json:"accepted"`
	} `json:"observations"`
	ElapsedSec    float64 `json:"elapsedSec"`
	ThroughputRPS float64 `json:"throughputRps"`
	ThroughputOPS float64 `json:"throughputObsPerSec"`
	LatencyMs     struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latencyMs"`
	Strategies    []StrategyReport     `json:"strategies"`
	BatchSchedule *BatchScheduleReport `json:"batchSchedule,omitempty"`
	Drift         *DriftReport         `json:"drift,omitempty"`
	Server        *ServerReport        `json:"server"`
}

// BatchScheduleReport verifies the daemon's batch schedule endpoint:
// one POST /v1/schedules naming every replayed node must return the
// same plans, in input order, as the per-node GETs. Probing is best
// effort — a daemon that predates the endpoint (or can't answer)
// reports Supported=false with the reason, never a failed run — but a
// plan that differs between the two paths is a serving bug and fails
// the run.
type BatchScheduleReport struct {
	Supported  bool    `json:"supported"`
	Error      string  `json:"error,omitempty"`
	Nodes      int     `json:"nodes"`
	LatencyMs  float64 `json:"latencyMs"`
	Verified   int     `json:"verified"`
	Mismatched int     `json:"mismatched"`
}

// ServerReport closes the telemetry loop: rushbench scrapes the
// daemon's /metrics before and after the replay and reports the
// server-side stage latency deltas next to its own client-side
// latencies, so a slow run can be attributed (network vs ingest vs
// solve) from the summary alone. Scraping is best effort — a daemon
// without the histogram families, or one behind a proxy that blocks
// /metrics, yields Scraped=false with the reason, never a failed run.
type ServerReport struct {
	Scraped bool   `json:"scraped"`
	Error   string `json:"error,omitempty"`
	// Stages holds the per-stage histogram deltas attributable to this
	// run (stages idle during the replay are omitted).
	Stages []ServerStage `json:"stages,omitempty"`
}

// ServerStage is one stage histogram's delta over the replay window.
type ServerStage struct {
	Stage  string  `json:"stage"`
	Count  float64 `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
}

// serverStageFamilies are the daemon histogram families the server
// report covers, in report order.
var serverStageFamilies = []string{
	"rushprobe_ingest_batch_seconds",
	"rushprobe_schedule_seconds",
	"rushprobe_solve_seconds",
	"rushprobe_advance_epoch_seconds",
	"rushprobe_snapshot_save_seconds",
	"rushprobe_snapshot_restore_seconds",
}

// scrapeStageHistograms fetches /metrics and extracts the stage
// histograms under the strict text-format parser (shared with the
// daemon's own smoke validation).
func scrapeStageHistograms(client *http.Client, base string) (map[string]telemetry.ParsedHistogram, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	out := make(map[string]telemetry.ParsedHistogram, len(serverStageFamilies))
	for _, name := range serverStageFamilies {
		fam, ok := fams[name]
		if !ok || fam.Type != "histogram" {
			continue
		}
		if err := fam.ValidateHistogram(); err != nil {
			return nil, fmt.Errorf("metrics: %s: %w", name, err)
		}
		out[name] = fam.Histogram()
	}
	return out, nil
}

// serverReport diffs the post-run scrape against the pre-run one.
func serverReport(client *http.Client, base string, before map[string]telemetry.ParsedHistogram, beforeErr error) *ServerReport {
	r := &ServerReport{}
	if beforeErr != nil {
		r.Error = fmt.Sprintf("pre-run scrape: %v", beforeErr)
		return r
	}
	after, err := scrapeStageHistograms(client, base)
	if err != nil {
		r.Error = fmt.Sprintf("post-run scrape: %v", err)
		return r
	}
	r.Scraped = true
	for _, name := range serverStageFamilies {
		ah, ok := after[name]
		if !ok {
			continue
		}
		d := ah
		if bh, ok := before[name]; ok {
			d = ah.Sub(bh)
		}
		if d.Count == 0 {
			continue
		}
		r.Stages = append(r.Stages, ServerStage{
			Stage:  name,
			Count:  d.Count,
			MeanMs: d.Mean() * 1e3,
			P50Ms:  d.Quantile(0.50) * 1e3,
			P90Ms:  d.Quantile(0.90) * 1e3,
			P99Ms:  d.Quantile(0.99) * 1e3,
		})
	}
	return r
}

// DriftReport summarizes a -drift-inject soak: how many nodes had
// their trace regime rotated mid-run, how many the daemon's drift
// detector caught afterwards, and the detection latency in epochs.
type DriftReport struct {
	// NodesInjected counts nodes whose replay switched to the rotated
	// regime (a node too lightly loaded to get a second-half batch is
	// not injected).
	NodesInjected int `json:"nodesInjected"`
	// NodesDetected counts injected nodes whose profile shows a
	// detector firing at or after the node's inject epoch.
	NodesDetected int `json:"nodesDetected"`
	// DriftEvents is the total detector-firing count across injected
	// nodes.
	DriftEvents int64 `json:"driftEvents"`
	// MeanLatencyEpochs averages (firstDriftEpoch - injectEpoch + 1)
	// over the detected nodes whose first firing came after injection;
	// MaxLatencyEpochs is the worst such node. Zero when nothing was
	// detected.
	MeanLatencyEpochs float64 `json:"meanLatencyEpochs"`
	MaxLatencyEpochs  int     `json:"maxLatencyEpochs"`
	// FalseAlarms counts detector firings recorded before any
	// injection happened.
	FalseAlarms int `json:"falseAlarms"`
}

// StrategyReport aggregates the schedules served to one strategy group
// after the replay: the group's mean expected energy (phi) and goodput
// (zeta, probed contact capacity — the upload opportunity), plus deltas
// against the first group.
type StrategyReport struct {
	Strategy     string  `json:"strategy"`
	Nodes        int     `json:"nodes"`
	MeanZeta     float64 `json:"meanZeta"`
	MeanPhi      float64 `json:"meanPhi"`
	Rho          float64 `json:"rho,omitempty"`
	DeltaZetaPct float64 `json:"deltaZetaPct"`
	DeltaPhiPct  float64 `json:"deltaPhiPct"`
}

// loadContacts reads the replay trace from the CSV path, or generates
// the canonical road-side trace (7 days) when path is empty.
func loadContacts(path string, seed uint64) ([]contact.Contact, string, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		cs, err := trace.Read(f)
		return cs, path, err
	}
	gen, err := contact.NewGenerator(scenario.Roadside(), rng.New(seed))
	if err != nil {
		return nil, "", err
	}
	return gen.GenerateUntil(simtime.Instant(7 * simtime.Day)), "generated:roadside-7d", nil
}

// nodeCursor replays one node's view of the trace: consecutive draws
// walk the contacts in order and wrap around with a whole-epoch time
// offset, so a node's observation times are strictly nondecreasing
// across passes (the fleet discards backward-in-time reports as stale).
type nodeCursor struct {
	id       string
	contacts []contact.Contact
	pos      int
	offset   float64
	last     float64 // start time of the last emitted observation
}

func (c *nodeCursor) next(span float64) rushprobe.Observation {
	o := rushprobe.Observation{
		Node:     c.id,
		Time:     c.contacts[c.pos].Start.Seconds() + c.offset,
		Length:   c.contacts[c.pos].Length.Seconds(),
		Uploaded: -1,
	}
	c.last = o.Time
	c.pos++
	if c.pos == len(c.contacts) {
		c.pos = 0
		c.offset += span
	}
	return o
}

// swap replaces the cursor's trace mid-replay, restarting it at the
// next whole-day boundary past the last emitted observation so times
// stay nondecreasing and epoch-aligned. It returns the epoch (day)
// index of the regime change: the epoch the swap cut short, since that
// truncated epoch is the first whose streams deviate from the old
// regime (the rotated trace proper begins one epoch later).
func (c *nodeCursor) swap(contacts []contact.Contact) int {
	c.contacts = contacts
	c.pos = 0
	c.offset = (math.Floor(c.last/86400) + 1) * 86400
	return int(c.last / 86400)
}

// rotateTrace shifts every contact's time of day by shift seconds
// (mod one day, same day index) and restores start order: the rush
// hours move to a different part of the day while the daily contact
// volume and length distribution stay identical — drift only a
// slot-level detector can see before throughput decays.
func rotateTrace(contacts []contact.Contact, shift float64) []contact.Contact {
	out := make([]contact.Contact, len(contacts))
	for i, c := range contacts {
		day := math.Floor(c.Start.Seconds() / 86400)
		tod := math.Mod(c.Start.Seconds()-day*86400+shift, 86400)
		out[i] = contact.Contact{
			Start:  simtime.Instant(day*86400 + tod),
			Length: c.Length,
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// driftShiftSeconds is how far -drift-inject rotates the rush hours
// (a quarter day: far enough that the old rush mask misses the new
// peak entirely).
const driftShiftSeconds = 6 * 3600

// batchPlan is one pre-marshaled observe request with its pacing slot.
type batchPlan struct {
	index int
	node  int
	body  []byte
	count int
	at    time.Duration
}

// bench runs the replay and collects the summary.
func bench(cfg config) (*Summary, error) {
	contacts, source, err := loadContacts(cfg.tracePath, cfg.seed)
	if err != nil {
		return nil, err
	}
	if len(contacts) == 0 {
		return nil, fmt.Errorf("empty contact trace")
	}
	// Wrap-around span: the trace length rounded up to whole days, so
	// replay passes stay epoch-aligned.
	last := contacts[len(contacts)-1]
	span := math.Ceil((last.Start.Seconds()+last.Length.Seconds())/86400) * 86400

	if err := waitHealthy(cfg.base, cfg.wait); err != nil {
		return nil, err
	}
	log := cfg.logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	// Pre-run scrape: the baseline the post-run scrape is diffed against
	// so the server report covers only this replay's work. Best effort —
	// the error is carried into the report, not fatal.
	scrapeClient := &http.Client{Timeout: 10 * time.Second}
	before, beforeErr := scrapeStageHistograms(scrapeClient, cfg.base)
	if beforeErr != nil {
		log.Warn("pre-run metrics scrape failed; server report will be empty", "err", beforeErr)
	}

	// Assign strategies to node groups before the replay starts.
	groups := cfg.strategies
	if len(groups) == 0 {
		groups = []string{""}
	}
	nodeIDs := make([]string, cfg.nodes)
	cursors := make([]nodeCursor, cfg.nodes)
	for n := range nodeIDs {
		nodeIDs[n] = fmt.Sprintf("bench-%04d", n)
		cursors[n] = nodeCursor{id: nodeIDs[n], contacts: contacts}
	}
	for n, id := range nodeIDs {
		name := groups[n%len(groups)]
		if name == "" {
			continue
		}
		if err := setStrategy(cfg.base, id, name); err != nil {
			return nil, err
		}
	}

	// Pre-build every batch so node cursors advance serially (replay
	// order per node is what keeps observations non-stale); workers then
	// only pace and POST. Batch i belongs to node i % nodes, and a
	// node's batches always land on the same worker, preserving
	// per-node send order under concurrency.
	total := int(math.Ceil(cfg.rate * cfg.duration.Seconds() / float64(cfg.batch)))
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(cfg.batch) / cfg.rate * float64(time.Second))

	// Drift soak: a batch paced into the second half of the run draws
	// from the rotated regime; the first such batch per node swaps that
	// node's cursor and records the inject epoch.
	var rotated []contact.Contact
	injectEpoch := make([]int, cfg.nodes)
	for n := range injectEpoch {
		injectEpoch[n] = -1
	}
	if cfg.driftInject {
		rotated = rotateTrace(contacts, driftShiftSeconds)
	}

	plans := make([]batchPlan, total)
	obsSent := 0
	for i := range plans {
		node := i % cfg.nodes
		at := time.Duration(i) * interval
		if cfg.driftInject && at >= cfg.duration/2 && injectEpoch[node] < 0 {
			injectEpoch[node] = cursors[node].swap(rotated)
		}
		obs := make([]rushprobe.Observation, cfg.batch)
		for j := range obs {
			obs[j] = cursors[node].next(span)
		}
		body, err := json.Marshal(wire.ObserveRequest{Observations: obs})
		if err != nil {
			return nil, err
		}
		plans[i] = batchPlan{index: i, node: node, body: body, count: len(obs), at: at}
		obsSent += len(obs)
	}
	log.Info("replay starting",
		"target", cfg.base,
		"nodes", cfg.nodes,
		"batches", total,
		"observations", obsSent,
		"ratePerSec", cfg.rate,
		"durationSec", cfg.duration.Seconds(),
		"driftInject", cfg.driftInject)

	// Replay: worker w owns the batches of nodes n with n % concurrency
	// == w, in index order.
	var (
		mu        sync.Mutex
		latencies []time.Duration
		failed    int
		retries   int
		shed      int
		accepted  int64
	)
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range plans {
				p := &plans[i]
				if p.node%cfg.concurrency != w {
					continue
				}
				if d := time.Until(start.Add(p.at)); d > 0 {
					time.Sleep(d)
				}
				t0 := time.Now()
				acc, tx, err := postObserve(client, cfg.base, p.body, cfg.retries)
				lat := time.Since(t0)
				mu.Lock()
				latencies = append(latencies, lat)
				retries += tx.retries
				shed += tx.shed
				if err != nil {
					failed++
				} else {
					accepted += int64(acc)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	log.Info("replay done",
		"elapsedSec", elapsed.Seconds(),
		"sent", len(plans),
		"failed", failed,
		"retries", retries,
		"shed", shed)

	s := &Summary{}
	s.Config.Target = cfg.base
	s.Config.RatePerSec = cfg.rate
	s.Config.DurationSec = cfg.duration.Seconds()
	s.Config.Concurrency = cfg.concurrency
	s.Config.Batch = cfg.batch
	s.Config.Nodes = cfg.nodes
	s.Config.TraceSource = source
	s.Requests.Sent = len(plans)
	s.Requests.Failed = failed
	s.Requests.Retries = retries
	s.Requests.Shed = shed
	s.Observations.Sent = obsSent
	s.Observations.Accepted = accepted
	s.ElapsedSec = elapsed.Seconds()
	if elapsed > 0 {
		s.ThroughputRPS = float64(len(plans)) / elapsed.Seconds()
		s.ThroughputOPS = float64(obsSent) / elapsed.Seconds()
	}
	fillLatencies(s, latencies)

	reports, err := strategyReports(client, cfg.base, groups, nodeIDs)
	if err != nil {
		return nil, err
	}
	s.Strategies = reports

	s.BatchSchedule = batchScheduleReport(client, cfg.base, nodeIDs)
	if bs := s.BatchSchedule; bs.Supported {
		log.Info("batch schedules cross-checked",
			"nodes", bs.Nodes, "verified", bs.Verified,
			"mismatched", bs.Mismatched, "latencyMs", bs.LatencyMs)
	} else {
		log.Warn("batch schedule endpoint unavailable", "reason", bs.Error)
	}

	if cfg.driftInject {
		dr, err := driftReport(client, cfg.base, nodeIDs, injectEpoch)
		if err != nil {
			return nil, err
		}
		s.Drift = dr
		log.Info("drift soak scored",
			"nodesInjected", dr.NodesInjected,
			"nodesDetected", dr.NodesDetected,
			"meanLatencyEpochs", dr.MeanLatencyEpochs)
	}

	s.Server = serverReport(scrapeClient, cfg.base, before, beforeErr)
	if s.Server.Scraped {
		log.Info("server telemetry scraped", "stages", len(s.Server.Stages))
	} else {
		log.Warn("server telemetry unavailable", "reason", s.Server.Error)
	}
	return s, nil
}

// driftReport reads every injected node's profile back from the daemon
// and scores its detector: a node counts as detected when a firing is
// recorded at or after the epoch its regime rotated.
func driftReport(client *http.Client, base string, nodeIDs []string, injectEpoch []int) (*DriftReport, error) {
	dr := &DriftReport{}
	latencySum, latencyN := 0, 0
	for n, id := range nodeIDs {
		if injectEpoch[n] < 0 {
			continue
		}
		dr.NodesInjected++
		var prof rushprobe.NodeProfile
		if err := getJSON(client, base+wire.NodePath("/v1/profile/", id), &prof); err != nil {
			return nil, fmt.Errorf("profile %s: %w", id, err)
		}
		if prof.DriftEvents == 0 {
			continue
		}
		dr.DriftEvents += prof.DriftEvents
		if prof.LastDriftEpoch < injectEpoch[n] {
			dr.FalseAlarms++
			continue
		}
		dr.NodesDetected++
		if prof.FirstDriftEpoch < injectEpoch[n] {
			// The first firing predates the injection (a false alarm);
			// the node still detected the real shift, but its latency
			// is unmeasurable from the profile.
			dr.FalseAlarms++
			continue
		}
		lat := prof.FirstDriftEpoch - injectEpoch[n] + 1
		latencySum += lat
		latencyN++
		if lat > dr.MaxLatencyEpochs {
			dr.MaxLatencyEpochs = lat
		}
	}
	if latencyN > 0 {
		dr.MeanLatencyEpochs = float64(latencySum) / float64(latencyN)
	}
	return dr, nil
}

// fillLatencies computes the latency percentiles in milliseconds using
// the nearest-rank definition: the p-th percentile of n sorted samples
// is sample ceil(p*n) (1-based). A truncating index like
// int(p*(n-1)) systematically underestimates high percentiles on small
// samples — the p99 of 50 samples would read the 49th value, not the
// 50th.
func fillLatencies(s *Summary, lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	pct := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(lats)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return float64(lats[i]) / float64(time.Millisecond)
	}
	s.LatencyMs.P50 = pct(0.50)
	s.LatencyMs.P90 = pct(0.90)
	s.LatencyMs.P99 = pct(0.99)
	s.LatencyMs.Max = float64(lats[len(lats)-1]) / float64(time.Millisecond)
}

// strategyReports fetches every node's served schedule and aggregates
// expected goodput/energy per strategy group, with deltas against the
// first group.
func strategyReports(client *http.Client, base string, groups, nodeIDs []string) ([]StrategyReport, error) {
	type agg struct {
		zeta, phi float64
		n         int
		name      string
	}
	aggs := make([]agg, len(groups))
	for n, id := range nodeIDs {
		g := n % len(groups)
		var sched wire.ScheduleResponse
		if err := getJSON(client, base+wire.NodePath("/v1/schedule/", id), &sched); err != nil {
			return nil, fmt.Errorf("schedule %s: %w", id, err)
		}
		if sched.Schedule == nil {
			return nil, fmt.Errorf("schedule %s: reply carries no plan", id)
		}
		aggs[g].zeta += sched.Zeta
		aggs[g].phi += sched.Phi
		aggs[g].n++
		aggs[g].name = sched.Mechanism
	}
	out := make([]StrategyReport, len(groups))
	for g := range aggs {
		r := StrategyReport{Strategy: aggs[g].name, Nodes: aggs[g].n}
		if groups[g] != "" {
			r.Strategy = groups[g]
		}
		if aggs[g].n > 0 {
			r.MeanZeta = aggs[g].zeta / float64(aggs[g].n)
			r.MeanPhi = aggs[g].phi / float64(aggs[g].n)
		}
		if r.MeanZeta > 0 {
			r.Rho = r.MeanPhi / r.MeanZeta
		}
		out[g] = r
	}
	for g := range out {
		if out[0].MeanZeta > 0 {
			out[g].DeltaZetaPct = 100 * (out[g].MeanZeta - out[0].MeanZeta) / out[0].MeanZeta
		}
		if out[0].MeanPhi > 0 {
			out[g].DeltaPhiPct = 100 * (out[g].MeanPhi - out[0].MeanPhi) / out[0].MeanPhi
		}
	}
	return out, nil
}

// batchScheduleReport cross-checks POST /v1/schedules against the
// per-node GET path: same nodes, same plans, same order. Endpoint or
// transport trouble degrades to Supported=false with a reason;
// mismatched plans are counted for the caller to fail on.
func batchScheduleReport(client *http.Client, base string, nodeIDs []string) *BatchScheduleReport {
	rep := &BatchScheduleReport{Nodes: len(nodeIDs)}
	body, err := json.Marshal(wire.NodeList{Nodes: nodeIDs})
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/schedules", "application/json", bytes.NewReader(body))
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	defer resp.Body.Close()
	rep.LatencyMs = float64(time.Since(t0)) / float64(time.Millisecond)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		rep.Error = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		return rep
	}
	var got wire.SchedulesResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		rep.Error = "decode: " + err.Error()
		return rep
	}
	rep.Supported = true
	if len(got.Schedules) != len(nodeIDs) {
		rep.Error = fmt.Sprintf("%d plans for %d nodes", len(got.Schedules), len(nodeIDs))
		rep.Mismatched = len(nodeIDs)
		return rep
	}
	for i, id := range nodeIDs {
		// The per-node response wraps the schedule with a node field;
		// decoding both paths into Schedule and re-marshaling compares
		// the plans themselves, byte for byte.
		var single rushprobe.Schedule
		if err := getJSON(client, base+wire.NodePath("/v1/schedule/", id), &single); err != nil {
			rep.Error = fmt.Sprintf("schedule %s: %v", id, err)
			return rep
		}
		batched, err := json.Marshal(got.Schedules[i])
		if err != nil {
			rep.Error = err.Error()
			return rep
		}
		direct, err := json.Marshal(&single)
		if err != nil {
			rep.Error = err.Error()
			return rep
		}
		if bytes.Equal(batched, direct) {
			rep.Verified++
		} else {
			rep.Mismatched++
		}
	}
	return rep
}

// waitHealthy polls /v1/healthz until the daemon answers or the budget
// runs out.
func waitHealthy(base string, budget time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("daemon at %s not healthy after %v: %w", base, budget, err)
			}
			return fmt.Errorf("daemon at %s not healthy after %v", base, budget)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// setStrategy assigns a node's strategy via POST /v1/strategy/{node}.
func setStrategy(base, node, name string) error {
	body, err := json.Marshal(wire.StrategyRequest{Strategy: name})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+wire.NodePath("/v1/strategy/", node), "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("set strategy %s for %s: HTTP %d: %s", name, node, resp.StatusCode, data)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// txStats counts the transport-level noise behind one logical request.
type txStats struct {
	retries int // attempts re-sent after a transient failure
	shed    int // 429 responses among them
}

// Retry pacing: exponential from retryBase, capped at retryCap, with
// ±50% jitter so synchronized workers don't re-converge on a daemon
// that just shed them.
const (
	retryBase = 100 * time.Millisecond
	retryCap  = 2 * time.Second
)

// retryDelay computes the backoff before retry `attempt` (1-based).
// jitter must be in [0, 1). A parseable Retry-After (delta-seconds)
// wins over the computed backoff when longer, capped at retryCap so a
// confused server can't stall the replay.
func retryDelay(attempt int, retryAfter string, jitter float64) time.Duration {
	d := retryBase
	for i := 1; i < attempt && d < retryCap; i++ {
		d *= 2
	}
	if d > retryCap {
		d = retryCap
	}
	d = time.Duration(float64(d) * (0.5 + jitter))
	if s, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && s > 0 {
		ra := time.Duration(s) * time.Second
		if ra > retryCap {
			ra = retryCap
		}
		if ra > d {
			d = ra
		}
	}
	return d
}

// retryableStatus reports whether a response status is worth retrying:
// explicit backpressure (429) and server-side errors (5xx). Client
// errors are bugs in the request and retry the same way they failed.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// postObserve sends one observe batch and returns the accepted count,
// retrying transient failures (connection errors, 429, 5xx) with
// capped exponential backoff up to `retries` extra attempts.
func postObserve(client *http.Client, base string, body []byte, retries int) (int, txStats, error) {
	var tx txStats
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(base+"/v1/observe", "application/json", bytes.NewReader(body))
		var status int
		var retryAfter string
		if err == nil {
			status = resp.StatusCode
			retryAfter = resp.Header.Get("Retry-After")
			if status == http.StatusOK {
				var or wire.ObserveResponse
				derr := json.NewDecoder(resp.Body).Decode(&or)
				resp.Body.Close()
				if derr != nil {
					return 0, tx, derr
				}
				return or.Accepted, tx, nil
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if status == http.StatusTooManyRequests {
				tx.shed++
			}
			if !retryableStatus(status) {
				return 0, tx, fmt.Errorf("HTTP %d", status)
			}
		}
		if attempt >= retries {
			if err != nil {
				return 0, tx, err
			}
			return 0, tx, fmt.Errorf("HTTP %d after %d retries", status, attempt)
		}
		tx.retries++
		time.Sleep(retryDelay(attempt+1, retryAfter, rand.Float64()))
	}
}

// getJSON fetches a URL and decodes the JSON body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
