package rushprobe

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRoadsideAccessors(t *testing.T) {
	sc := Roadside(WithZetaTarget(24))
	if sc.Name() != "roadside" {
		t.Errorf("name = %q", sc.Name())
	}
	if math.Abs(sc.TotalCapacity()-176) > 1e-9 {
		t.Errorf("total capacity = %v, want 176", sc.TotalCapacity())
	}
	if math.Abs(sc.RushCapacity()-96) > 1e-9 {
		t.Errorf("rush capacity = %v, want 96", sc.RushCapacity())
	}
	if sc.ZetaTarget() != 24 {
		t.Errorf("target = %v", sc.ZetaTarget())
	}
	if math.Abs(sc.PhiMax()-86.4) > 1e-9 {
		t.Errorf("budget = %v", sc.PhiMax())
	}
	mask := sc.RushMask()
	if !mask[7] || mask[12] {
		t.Errorf("mask = %v", mask)
	}
}

func TestAnalyzeMatchesPaperFig5(t *testing.T) {
	sc := Roadside(WithFixedLengths(), WithZetaTarget(24))
	rep, err := Analyze(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AT.TargetMet {
		t.Error("AT cannot meet 24s under Tepoch/1000")
	}
	if !rep.RH.TargetMet {
		t.Error("RH should meet 24s under Tepoch/1000")
	}
	if math.Abs(rep.RH.Rho-3.0) > 0.01 {
		t.Errorf("RH rho = %v, want 3", rep.RH.Rho)
	}
	if math.Abs(rep.AT.Zeta-8.8) > 0.05 {
		t.Errorf("AT zeta = %v, want 8.8", rep.AT.Zeta)
	}
	if math.Abs(rep.OPT.Zeta-rep.RH.Zeta) > 0.2 {
		t.Errorf("OPT %v and RH %v should match here", rep.OPT.Zeta, rep.RH.Zeta)
	}
	if _, err := Analyze(nil); err == nil {
		t.Error("nil scenario should error")
	}
}

func TestOptimalPlan(t *testing.T) {
	sc := Roadside(WithFixedLengths(), WithZetaTarget(24), WithBudgetFraction(1.0/100))
	plan, err := OptimalPlan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.TargetMet {
		t.Error("plan should meet 24s under Tepoch/100")
	}
	if len(plan.Duty) != 24 {
		t.Fatalf("duties = %d", len(plan.Duty))
	}
	if math.Abs(plan.Phi-72) > 0.5 {
		t.Errorf("plan phi = %v, want ~72", plan.Phi)
	}
	if _, err := OptimalPlan(nil); err == nil {
		t.Error("nil scenario should error")
	}
}

func TestSimulateQuick(t *testing.T) {
	sc := Roadside(WithZetaTarget(16))
	sum, err := Simulate(sc, SNIPRH, WithEpochs(6), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Strategy != SNIPRH {
		t.Errorf("strategy = %v", sum.Strategy)
	}
	if sum.Epochs != 6 || len(sum.PerEpochZeta) != 6 {
		t.Errorf("epochs = %d, per-epoch = %d", sum.Epochs, len(sum.PerEpochZeta))
	}
	if sum.Zeta <= 0 || sum.Phi <= 0 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Rho > 4.5 {
		t.Errorf("RH rho = %v, want ~3", sum.Rho)
	}
	if _, err := Simulate(nil, SNIPRH); err == nil {
		t.Error("nil scenario should error")
	}
	if _, err := Simulate(sc, "bogus"); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestSimulateWithWarmup(t *testing.T) {
	sc := Roadside(WithZetaTarget(16))
	sum, err := Simulate(sc, SNIPAT, WithEpochs(5), WithWarmup(2), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Epochs != 3 {
		t.Errorf("post-warmup epochs = %d, want 3", sum.Epochs)
	}
}

func TestSimulateWithPatternShift(t *testing.T) {
	sc := Roadside(WithZetaTarget(16))
	base, err := Simulate(sc, SNIPRH, WithEpochs(6), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := Simulate(sc, SNIPRH, WithEpochs(6), WithSeed(5), WithPatternShift(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if shifted.Zeta >= base.Zeta*0.8 {
		t.Errorf("shifted pattern should starve static RH: %v vs %v", shifted.Zeta, base.Zeta)
	}
}

func TestCommuteScenario(t *testing.T) {
	sc, err := Commute(200, 2.0, 4.0/24)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sc.TotalCapacity()-400) > 2 {
		t.Errorf("capacity = %v, want ~400", sc.TotalCapacity())
	}
	if _, err := Commute(0, 2, 0.2); err == nil {
		t.Error("bad parameters should error")
	}
}

func TestNewCustomScenario(t *testing.T) {
	slots := make([]SlotSpec, 12)
	for i := range slots {
		slots[i] = SlotSpec{MeanInterval: 600, MeanLength: 3}
	}
	slots[3].RushHour = true
	sc, err := New("custom", 12*time.Hour, slots,
		WithBudget(40), WithTarget(10), WithUpload(1000), WithTon(0.01), WithLoss(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if sc.PhiMax() != 40 || sc.ZetaTarget() != 10 {
		t.Errorf("options not applied: %v %v", sc.PhiMax(), sc.ZetaTarget())
	}
	if !sc.RushMask()[3] {
		t.Error("rush slot lost")
	}
	// 12h epoch, 72 contacts/hour... check capacity: 12*3600/600 * 3 = 216.
	if math.Abs(sc.TotalCapacity()-216) > 1e-9 {
		t.Errorf("capacity = %v, want 216", sc.TotalCapacity())
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New("bad", 0, []SlotSpec{{MeanInterval: 10, MeanLength: 1}}); err == nil {
		t.Error("zero epoch should error")
	}
	if _, err := New("bad", time.Hour, nil); err == nil {
		t.Error("no slots should error")
	}
	if _, err := New("bad", time.Hour, []SlotSpec{{MeanInterval: 10}}); err == nil {
		t.Error("contacts without length should error")
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	orig := Roadside(WithZetaTarget(40))
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ZetaTarget() != 40 || back.Name() != "roadside" {
		t.Errorf("round trip lost fields: %v %v", back.ZetaTarget(), back.Name())
	}
}

func TestExperimentRegistryAccess(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 11 {
		t.Fatalf("got %d experiments", len(ids))
	}
	desc, err := ExperimentDescription("fig5")
	if err != nil || desc == "" {
		t.Errorf("fig5 description: %q, %v", desc, err)
	}
	if _, err := ExperimentDescription("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestRunExperimentFig4(t *testing.T) {
	tabs, err := RunExperiment("fig4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 {
		t.Fatalf("tables = %d", len(tabs))
	}
	text := tabs[0].Text()
	if !strings.Contains(text, "fig4") {
		t.Error("rendered table missing title")
	}
	csv := tabs[0].CSV()
	if !strings.HasPrefix(csv, "Trh/Tepoch,") {
		t.Errorf("CSV header: %q", csv[:40])
	}
	if _, err := RunExperiment("nope", 1); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestMotivationGainFacade(t *testing.T) {
	g, err := MotivationGain(1.0/6, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Roadside: 1/(1/6 + (5/6)/6) ~ 3.27.
	if math.Abs(g-3.2727) > 0.001 {
		t.Errorf("gain = %v, want ~3.27", g)
	}
	if _, err := MotivationGain(0, 2); err == nil {
		t.Error("invalid input should error")
	}
}

func TestSimulateReportsLatency(t *testing.T) {
	sc := Roadside(WithZetaTarget(16))
	sum, err := Simulate(sc, SNIPRH, WithEpochs(6), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	// RH batches uploads into rush hours: latency is hours, not seconds,
	// but bounded by roughly half a day.
	if sum.MeanLatency < 3600 || sum.MeanLatency > 43200 {
		t.Errorf("RH latency = %v s, want between 1h and 12h", sum.MeanLatency)
	}
	if sum.DroppedBytes != 0 {
		t.Errorf("unbounded buffer should drop nothing, got %v", sum.DroppedBytes)
	}
}

func TestSimulateWithBufferCapDrops(t *testing.T) {
	// A buffer holding only ~2 hours of data forces drops under RH's
	// batching (data waits ~12h off-peak).
	sc := Roadside(WithZetaTarget(24), WithBufferCap(25000))
	sum, err := Simulate(sc, SNIPRH, WithEpochs(6), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if sum.DroppedBytes <= 0 {
		t.Error("tiny buffer should force drops")
	}
}

func TestSimulateWithGroupedContacts(t *testing.T) {
	sc := Roadside(
		WithZetaTarget(24),
		WithGroupedContacts(0.5, ContentionResolve),
	)
	sum, err := Simulate(sc, SNIPRH, WithEpochs(4), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	// Group arrivals add ~50% more contacts per day.
	if sum.ContactsArrived < 110 {
		t.Errorf("arrived = %v/day, want ~132 with 50%% groups", sum.ContactsArrived)
	}
	// Collisions without resolution still keep RH functional.
	scNone := Roadside(
		WithZetaTarget(24),
		WithGroupedContacts(0.5, ContentionNone),
	)
	sumNone, err := Simulate(scNone, SNIPRH, WithEpochs(4), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if sumNone.Zeta <= 0 {
		t.Error("colliding acks must not halt probing entirely")
	}
}

func TestSimulateFleetClosedLoop(t *testing.T) {
	sc := Roadside()
	sum, err := SimulateFleet(sc, SNIPOPT,
		WithNodes(8), WithEpochs(6), WithSeed(3), WithParallelism(1),
		WithDrift(0.25, 3, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Strategy != SNIPOPT {
		t.Fatalf("strategy = %s, want %s", sum.Strategy, SNIPOPT)
	}
	if sum.Nodes != 8 || len(sum.PerEpoch) != 6 {
		t.Fatalf("population %d x %d epochs, want 8 x 6", sum.Nodes, len(sum.PerEpoch))
	}
	// Past the 3-epoch bootstrap the learned schedules must recover a
	// solid fraction of the oracle's goodput.
	last := sum.PerEpoch[len(sum.PerEpoch)-1]
	if last.ZetaRatio < 0.5 {
		t.Fatalf("final zeta ratio %.3f, want >= 0.5", last.ZetaRatio)
	}
	if sum.Stats.Observations == 0 {
		t.Fatal("closed loop fed no observations")
	}
}

func TestSimulateFleetOptionGuards(t *testing.T) {
	sc := Roadside()
	if _, err := SimulateFleet(sc, SNIPOPT, WithWarmup(2)); err == nil {
		t.Error("SimulateFleet must reject WithWarmup")
	}
	if _, err := SimulateFleet(sc, SNIPOPT, WithPatternShift(3, 2)); err == nil {
		t.Error("SimulateFleet must reject WithPatternShift")
	}
	if _, err := SimulateFleet(sc, SNIPOPT, WithNodes(0)); err == nil {
		t.Error("an explicit WithNodes(0) must not silently become the default")
	}
	if _, err := SimulateFleet(sc, SNIPOPT, WithEpochs(0)); err == nil {
		t.Error("an explicit WithEpochs(0) must not silently become the default")
	}
	if _, err := SimulateFleet(sc, SNIPOPT, WithStrategy("rh")); err == nil {
		t.Error("SimulateFleet takes its strategy as the argument and must reject WithStrategy")
	}
	if _, err := Simulate(sc, SNIPRH, WithEpochs(2), WithNodes(4)); err == nil {
		t.Error("Simulate must reject WithNodes")
	}
	if _, err := Simulate(sc, SNIPRH, WithEpochs(2), WithDrift(0.5, 1, 1)); err == nil {
		t.Error("Simulate must reject WithDrift")
	}
	if _, err := Simulate(sc, SNIPRH, WithEpochs(2), WithDriftDetection("cusum")); err == nil {
		t.Error("Simulate must reject WithDriftDetection")
	}
	if _, err := RunExperiment("fig4", 1, WithNodes(4)); err == nil {
		t.Error("RunExperiment must reject WithNodes")
	}
	if _, err := SimulateFleet(sc, SNIPOPT, WithNodes(4), WithEpochs(4),
		WithDriftDetection("no-such-detector")); err == nil {
		t.Error("SimulateFleet must reject an unknown detector name")
	}
}

// TestSimulateFleetDriftDetection drives the public detection surface:
// a population where half the nodes rotate their rush pattern mid-run,
// with the CUSUM detector armed, must report detections with bounded
// latency and no alarms on the stationary half.
func TestSimulateFleetDriftDetection(t *testing.T) {
	sum, err := SimulateFleet(Roadside(), SNIPOPT,
		WithNodes(8), WithEpochs(20), WithSeed(3), WithParallelism(1),
		WithDrift(0.5, 12, 6), WithDriftDetection("cusum"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sum.DriftNodes == 0 {
		t.Skip("seed produced no drifted nodes")
	}
	if sum.DriftEvents < 1 || sum.DetectedDriftNodes < 1 {
		t.Fatalf("no detections on a drifting population: %+v", sum)
	}
	if sum.StationaryAlarms != 0 {
		t.Fatalf("%d alarms on stationary nodes", sum.StationaryAlarms)
	}
	if sum.MeanDetectionLatency <= 0 || sum.MeanDetectionLatency > 8 {
		t.Fatalf("mean detection latency %.2f epochs, want in (0, 8]", sum.MeanDetectionLatency)
	}
	if sum.Stats.DriftEvents != sum.DriftEvents {
		t.Fatalf("summary drift events %d != fleet counter %d", sum.DriftEvents, sum.Stats.DriftEvents)
	}
}
