package rushprobe

// The benchmark suite regenerates every data-bearing table and figure of
// the paper, one benchmark per figure (IDs from ExperimentIDs):
//
//	BenchmarkFig3DemandProfile          Fig. 3 analog (demand unevenness)
//	BenchmarkFig4MotivationSurface      Fig. 4 (PhiAT/PhiRH surface)
//	BenchmarkFig5Analysis               Fig. 5 (analysis, PhiMax=Tepoch/1000)
//	BenchmarkFig6Analysis               Fig. 6 (analysis, PhiMax=Tepoch/100)
//	BenchmarkFig7Simulation             Fig. 7 (simulation, PhiMax=Tepoch/1000)
//	BenchmarkFig8Simulation             Fig. 8 (simulation, PhiMax=Tepoch/100)
//
// plus the extension/ablation experiments from the paper's discussion:
//
//	BenchmarkExtRushHourLearning        §VII.B learning bootstrap
//	BenchmarkExtSeasonalShift           §VII.B adaptive tracking
//	BenchmarkExtFleet                   closed-loop fleet co-simulation vs oracle
//	BenchmarkAblationDutyCycleSensitivity  §VI.C drh sensitivity
//	BenchmarkAblationExponentialContacts   footnote 1
//	BenchmarkAblationBeaconLoss         beacon-loss robustness
//
// Each figure benchmark prints the regenerated series once (the paper's
// rows) and asserts the qualitative shape in its own body.
// Micro-benchmarks of the core components follow at the bottom.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// printOnce prints each experiment's tables at most once per process, so
// repeated benchmark iterations do not flood the output.
var printOnce sync.Map

func runAndPrint(b *testing.B, id string, seed uint64) []*Table {
	b.Helper()
	tables, err := RunExperiment(id, seed)
	if err != nil {
		b.Fatalf("experiment %s: %v", id, err)
	}
	if _, loaded := printOnce.LoadOrStore(id, true); !loaded {
		fmt.Printf("\n===== %s =====\n", id)
		for _, t := range tables {
			fmt.Print(t.Text())
		}
	}
	return tables
}

func BenchmarkFig3DemandProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "fig3", 1)
		rows := tables[0].Rows
		if len(rows) != 24 {
			b.Fatalf("fig3 rows = %d", len(rows))
		}
		// Shape: bimodal — morning and evening bins dominate midday.
		if rows[7][1] < 2*rows[12][1] || rows[17][1] < 2*rows[12][1] {
			b.Fatal("fig3 lost its rush-hour peaks")
		}
	}
}

func BenchmarkFig4MotivationSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "fig4", 1)
		maxGain := 0.0
		for _, row := range tables[0].Rows {
			maxGain = math.Max(maxGain, row[2])
		}
		// Shape: gain peaks slightly above 10x at (0.05, 20), as in the
		// paper's surface (axis up to 11).
		if maxGain < 10 || maxGain > 11 {
			b.Fatalf("fig4 max gain = %v, want ~10.3", maxGain)
		}
		b.ReportMetric(maxGain, "max_gain")
	}
}

func BenchmarkFig5Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "fig5", 1)
		zeta, _, rho := tables[0], tables[1], tables[2]
		for _, row := range zeta.Rows {
			// AT flat at 8.8; OPT == RH (they coincide under the tight
			// budget, the paper's headline for Fig. 5).
			if math.Abs(row[1]-8.8) > 0.05 {
				b.Fatalf("fig5 AT zeta = %v, want 8.8", row[1])
			}
			if math.Abs(row[2]-row[3]) > 0.2 {
				b.Fatalf("fig5 OPT %v != RH %v", row[2], row[3])
			}
		}
		last := zeta.Rows[len(zeta.Rows)-1]
		if math.Abs(last[3]-28.8) > 0.1 {
			b.Fatalf("fig5 RH budget cap = %v, want 28.8", last[3])
		}
		b.ReportMetric(rho.Rows[0][1], "rho_at")
		b.ReportMetric(rho.Rows[0][3], "rho_rh")
	}
}

func BenchmarkFig6Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "fig6", 1)
		zeta, phi := tables[0], tables[1]
		for _, row := range zeta.Rows {
			target := row[0]
			// AT and OPT meet every target under the loose budget.
			if math.Abs(row[1]-target) > 0.1 || math.Abs(row[2]-target) > 0.2 {
				b.Fatalf("fig6 AT/OPT at target %v: %v, %v", target, row[1], row[2])
			}
			// RH caps at its 48 s rush-hour ceiling.
			want := math.Min(target, 48)
			if math.Abs(row[3]-want) > 0.1 {
				b.Fatalf("fig6 RH zeta = %v at target %v, want %v", row[3], target, want)
			}
		}
		// Energy ordering at 56 s: RH(ceiling) < OPT < AT.
		last := phi.Rows[len(phi.Rows)-1]
		if !(last[3] < last[2] && last[2] < last[1]) {
			b.Fatalf("fig6 phi ordering at 56s: AT=%v OPT=%v RH=%v", last[1], last[2], last[3])
		}
		b.ReportMetric(last[2], "phi_opt_56")
	}
}

func BenchmarkFig7Simulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "fig7", 1)
		zeta, _, rho := tables[0], tables[1], tables[2]
		for _, row := range zeta.Rows {
			// Simulation has variance; the paper notes the analysis
			// conclusions still hold. AT stays near 8.8 and far below
			// RH; RH stays within the budget cap's neighborhood.
			if row[1] > 12 {
				b.Fatalf("fig7 AT zeta = %v, want ~8.8", row[1])
			}
			if row[3] > 33 {
				b.Fatalf("fig7 RH zeta = %v, beyond budget cap", row[3])
			}
			if row[3] < row[1] {
				b.Fatalf("fig7 RH %v must beat AT %v", row[3], row[1])
			}
		}
		// rho separation: RH ~3 vs AT ~9.8.
		for _, row := range rho.Rows {
			if !(row[3] < row[1]*0.6) {
				b.Fatalf("fig7 rho: RH %v should be well below AT %v", row[3], row[1])
			}
		}
		b.ReportMetric(zeta.Rows[1][3], "rh_zeta_t24")
	}
}

func BenchmarkFig8Simulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "fig8", 1)
		zeta, phi := tables[0], tables[1]
		for _, row := range zeta.Rows {
			target := row[0]
			// AT tracks every target (within simulation noise).
			if math.Abs(row[1]-target) > 0.15*target+2 {
				b.Fatalf("fig8 AT zeta = %v at target %v", row[1], target)
			}
			// RH caps near 48.
			if row[3] > 52 {
				b.Fatalf("fig8 RH zeta = %v, ceiling ~48", row[3])
			}
		}
		// AT spends far more energy than RH at every common target.
		for i, row := range phi.Rows {
			if zeta.Rows[i][0] <= 48 && row[1] < 2*row[3] {
				b.Fatalf("fig8 phi at target %v: AT %v should dwarf RH %v",
					zeta.Rows[i][0], row[1], row[3])
			}
		}
		b.ReportMetric(zeta.Rows[5][3], "rh_zeta_t56")
	}
}

func BenchmarkExtRushHourLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-learn", 5)
		rows := tables[0].Rows
		final := rows[len(rows)-1][2]
		// §VII.B: the order of slot capacities is learnable quickly even
		// at a tiny duty cycle. Demand near-perfect agreement by the end
		// of the bootstrap.
		if final < 0.9 {
			b.Fatalf("ext-learn final agreement = %v, want >= 0.9", final)
		}
		b.ReportMetric(final, "final_agreement")
	}
}

func BenchmarkExtSeasonalShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-shift", 5)
		rows := tables[0].Rows
		// Post-shift recovery: the adaptive variant's capacity over the
		// last 6 epochs must beat static RH's.
		var static, adaptive float64
		n := len(rows)
		for _, row := range rows[n-6:] {
			static += row[1]
			adaptive += row[2]
		}
		if adaptive <= static*1.2 {
			b.Fatalf("ext-shift: adaptive %v should beat static %v after the shift", adaptive/6, static/6)
		}
		b.ReportMetric(adaptive/6, "adaptive_zeta_tail")
		b.ReportMetric(static/6, "static_zeta_tail")
	}
}

func BenchmarkAblationDutyCycleSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-drh", 1)
		var atKnee, atDouble float64
		for _, row := range tables[0].Rows {
			switch row[0] {
			case 1.0:
				atKnee = row[2]
			case 2.0:
				atDouble = row[2]
			}
		}
		// §VI.C: rho "does not increase abruptly" just above the knee.
		if atDouble > 2*atKnee {
			b.Fatalf("ext-drh: rho at 2x knee = %v vs %v at knee", atDouble, atKnee)
		}
	}
}

func BenchmarkAblationExponentialContacts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-exp", 1)
		if len(tables[0].Rows) < 5 {
			b.Fatal("ext-exp produced too few duty points")
		}
	}
}

func BenchmarkAblationBeaconLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-loss", 5)
		rows := tables[0].Rows
		// At 50% loss every mechanism still probes (SNIP retries each
		// cycle) but capacity must not increase with loss for AT, which
		// has no slack: compare the lossless and 50%-loss rows.
		first, last := rows[0], rows[len(rows)-1]
		if last[1] > first[1]*1.15 {
			b.Fatalf("ext-loss: AT capacity rose with loss: %v -> %v", first[1], last[1])
		}
	}
}

func BenchmarkExtMIPComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-mip", 1)
		for _, row := range tables[0].Rows {
			duty, gain := row[0], row[3]
			// §III: 2-10x more probed capacity below 1% duty.
			if duty <= 0.01 && (gain < 2 || gain > 10.5) {
				b.Fatalf("ext-mip: gain %v at duty %v outside 2-10x", gain, duty)
			}
		}
	}
}

func BenchmarkExtLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-latency", 2)
		for _, row := range tables[0].Rows {
			if row[3] >= row[1] {
				b.Fatalf("ext-latency: RH %v should undercut critically-loaded AT %v", row[3], row[1])
			}
		}
		b.ReportMetric(tables[0].Rows[1][3], "rh_latency_s")
	}
}

func BenchmarkExtRLBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-rl", 4)
		var bandit, rh float64
		for _, row := range tables[0].Rows {
			bandit += row[1]
			rh += row[3]
		}
		if rh <= bandit {
			b.Fatalf("ext-rl: RH cumulative %v should beat bandit %v", rh, bandit)
		}
		b.ReportMetric(rh/bandit, "rh_over_bandit")
	}
}

func BenchmarkExtLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-lifetime", 1)
		rows := tables[0].Rows
		if rows[2][3] <= rows[0][3] {
			b.Fatalf("ext-lifetime: RH %v years must exceed AT %v", rows[2][3], rows[0][3])
		}
		b.ReportMetric(rows[2][3], "rh_years")
		b.ReportMetric(rows[0][3], "at_years")
	}
}

func BenchmarkExtContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-contention", 6)
		for _, row := range tables[0].Rows {
			resolve, collide := row[1], row[3]
			// Resolution must never do worse than letting acks collide.
			if resolve < collide-1.5 {
				b.Fatalf("ext-contention: resolve %v below collide %v at group prob %v",
					resolve, collide, row[0])
			}
		}
	}
}

func BenchmarkExtFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-fleet", 1)
		rows := tables[0].Rows
		// Columns: epoch, then per strategy (OPT, RH): zeta, phi,
		// zeta_vs_oracle, phi_vs_oracle. During the SNIP-AT bootstrap
		// the fleet undershoots its oracle; once learned plans take
		// over, goodput must climb toward it.
		boot, learned := 0.0, 0.0
		for _, row := range rows {
			if int(row[0]) < 3 {
				boot += row[3] / 3
			} else {
				learned += row[3] / float64(len(rows)-3)
			}
		}
		if learned <= boot {
			b.Fatalf("ext-fleet: learned plans (x%.3f of oracle) no better than bootstrap (x%.3f)", learned, boot)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last[3], "opt_zeta_vs_oracle")
		b.ReportMetric(last[7], "rh_zeta_vs_oracle")
	}
}

func BenchmarkExtMobilityCrossCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runAndPrint(b, "ext-mobility", 3)
		var got, want float64
		for _, row := range tables[0].Rows {
			got += row[1]
			want += row[2]
		}
		if math.Abs(got-want)/want > 0.1 {
			b.Fatalf("ext-mobility: physical total %v vs model %v", got, want)
		}
	}
}

// ---- Component micro-benchmarks ----

func BenchmarkModelUpsilon(b *testing.B) {
	sc := Roadside()
	_ = sc
	report, err := Analyze(Roadside(WithFixedLengths()))
	if err != nil {
		b.Fatal(err)
	}
	_ = report
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		g, err := MotivationGain(0.05+float64(i%10)*0.01, 2+float64(i%18))
		if err != nil {
			b.Fatal(err)
		}
		sum += g
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkAnalyzeRoadside(b *testing.B) {
	sc := Roadside(WithFixedLengths(), WithZetaTarget(24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalPlanRoadside(b *testing.B) {
	sc := Roadside(WithFixedLengths(), WithZetaTarget(56), WithBudgetFraction(1.0/100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimalPlan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateOneDayRH(b *testing.B) {
	sc := Roadside(WithZetaTarget(24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(sc, SNIPRH, WithEpochs(1), WithSeed(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateTwoWeeksAT(b *testing.B) {
	sc := Roadside(WithZetaTarget(24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(sc, SNIPAT, WithEpochs(14), WithSeed(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetObserve measures the fleet's steady-state ingest path:
// a pre-built batch of observations across a working set of warm nodes.
// The path must stay allocation-light (the acceptance bound is <= 2
// allocs/op for a whole 256-observation batch; it is 0 in practice).
func BenchmarkFleetObserve(b *testing.B) {
	f, err := NewFleet(Roadside(WithZetaTarget(24)))
	if err != nil {
		b.Fatal(err)
	}
	const nodes = 64
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%03d", i)
	}
	batch := make([]Observation, 256)
	now := 0.0
	fill := func() {
		for j := range batch {
			batch[j].Node = ids[j%nodes]
			batch[j].Time = now
			batch[j].Length = 2
			batch[j].Uploaded = -1
			now += 3.3
		}
	}
	fill()
	f.Observe(batch) // warm the shards: create every profile up front
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		if got := f.Observe(batch); got != len(batch) {
			b.Fatalf("accepted %d of %d", got, len(batch))
		}
	}
	b.ReportMetric(float64(len(batch)), "obs/op")
}

// BenchmarkFleetObserveTelemetry is BenchmarkFleetObserve with the
// telemetry bundle armed, pinning the overhead budget of the observed
// ingest path: still 0 allocs/op, and within ~10% of the untelemetered
// walltime (one histogram Observe and one ring-buffer Record per
// 256-observation batch).
func BenchmarkFleetObserveTelemetry(b *testing.B) {
	f, err := NewFleet(Roadside(WithZetaTarget(24)),
		WithTelemetry(NewTelemetry(TelemetryConfig{})))
	if err != nil {
		b.Fatal(err)
	}
	const nodes = 64
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%03d", i)
	}
	batch := make([]Observation, 256)
	now := 0.0
	fill := func() {
		for j := range batch {
			batch[j].Node = ids[j%nodes]
			batch[j].Time = now
			batch[j].Length = 2
			batch[j].Uploaded = -1
			now += 3.3
		}
	}
	fill()
	f.Observe(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		if got := f.Observe(batch); got != len(batch) {
			b.Fatalf("accepted %d of %d", got, len(batch))
		}
	}
	b.ReportMetric(float64(len(batch)), "obs/op")
}

// BenchmarkFleetSchedule measures plan serving for warm nodes whose
// plans are cached (the common case between observation batches).
func BenchmarkFleetSchedule(b *testing.B) {
	f, err := NewFleet(Roadside(WithZetaTarget(24)), WithBootstrapEpochs(2))
	if err != nil {
		b.Fatal(err)
	}
	const nodes = 16
	ids := make([]string, nodes)
	batch := make([]Observation, 0, 3*24*8)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%03d", i)
		batch = batch[:0]
		for d := 0; d < 3; d++ {
			for h := 0; h < 24; h++ {
				n := 1
				if h == 7 || h == 8 || h == 17 || h == 18 {
					n = 8
				}
				for k := 0; k < n; k++ {
					batch = append(batch, Observation{
						Node:   ids[i],
						Time:   float64(d)*86400 + float64(h)*3600 + float64(k)*400,
						Length: 2,
					})
				}
			}
		}
		f.Observe(batch)
		if _, err := f.Schedule(ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Schedule(ids[i%nodes]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetIngest1M is the million-node scale acceptance pinned in
// BENCH_baseline.json: ingest a day of contacts for one million nodes,
// serve every node's schedule, stream the binary snapshot log, and
// restore it into a fresh fleet that must serve identical plans.
// Custom metrics:
//
//	bin_B/node    binary snapshot-log bytes per node at 1M nodes
//	snap_s        binary snapshot wall seconds at 1M nodes
//	restore_s     restore wall seconds at 1M nodes
//
// The compact-profile + binary-log work holds while bin_B/node stays at
// or under maxBinBytesPerNode. Skipped under -short: the full run takes
// on the order of a minute single-core.
func BenchmarkFleetIngest1M(b *testing.B) {
	if testing.Short() {
		b.Skip("million-node scale run; skipped with -short")
	}
	// Mature-profile ingest: three days of contacts in every hour slot
	// with full-precision lengths and uploads, so every EWMA lane holds
	// a learned float — the steady-state shape a deployed fleet
	// snapshots.
	const obsPerNode = 3 * 24
	ingest := func(n int) *Fleet {
		f, err := NewFleet(Roadside(WithZetaTarget(24)))
		if err != nil {
			b.Fatal(err)
		}
		batch := make([]Observation, 0, 1024)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("node-%07d", i)
			for d := 0; d < 3; d++ {
				for h := 0; h < 24; h++ {
					batch = append(batch, Observation{
						Node:     id,
						Time:     float64(d)*86400 + float64(h)*3600 + float64(i%977),
						Length:   2 + 1.3*float64((i+h+d)%7)/7 + float64(i%13)*0.0721,
						Uploaded: 900 + 70*float64((i+h)%11),
					})
				}
			}
			if len(batch)+obsPerNode > cap(batch) {
				if got := f.Observe(batch); got != len(batch) {
					b.Fatalf("accepted %d of %d", got, len(batch))
				}
				batch = batch[:0]
			}
		}
		f.Observe(batch)
		return f
	}

	const nodes = 1_000_000
	var binPerNode, snapSec, restoreSec float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := ingest(nodes)
		for j := 0; j < nodes; j += nodes / 1000 {
			if _, err := f.Schedule(fmt.Sprintf("node-%07d", j)); err != nil {
				b.Fatal(err)
			}
		}

		var bin bytes.Buffer
		bin.Grow(128 << 20)
		t0 := time.Now()
		if err := f.SnapshotBinary(&bin); err != nil {
			b.Fatal(err)
		}
		snapSec = time.Since(t0).Seconds()
		binPerNode = float64(bin.Len()) / nodes

		restored, err := NewFleet(Roadside(WithZetaTarget(24)))
		if err != nil {
			b.Fatal(err)
		}
		t0 = time.Now()
		info, err := restored.RestoreBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		restoreSec = time.Since(t0).Seconds()
		if info.Nodes != nodes {
			b.Fatalf("restored %d of %d nodes", info.Nodes, nodes)
		}
		for _, id := range []string{"node-0000000", "node-0456789", "node-0999999"} {
			want, err := f.Schedule(id)
			if err != nil {
				b.Fatal(err)
			}
			got, err := restored.Schedule(id)
			if err != nil {
				b.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				b.Fatalf("restored schedule for %s differs", id)
			}
		}
	}
	b.ReportMetric(binPerNode, "bin_B/node")
	b.ReportMetric(snapSec, "snap_s")
	b.ReportMetric(restoreSec, "restore_s")
	if binPerNode > maxBinBytesPerNode {
		b.Fatalf("binary log costs %.0f bytes per node, want <= %d", binPerNode, maxBinBytesPerNode)
	}
}

// maxBinBytesPerNode bounds the binary snapshot log's size per mature
// node: a quarter of the 1,924 B/node the JSON snapshot cost on this
// benchmark's fleet (BENCH_baseline.json), the 4x saving the binary log
// was built for.
const maxBinBytesPerNode = 481

func BenchmarkScenarioJSONRoundTrip(b *testing.B) {
	sc := Roadside(WithZetaTarget(24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := sc.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		var back Scenario
		if err := back.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}
