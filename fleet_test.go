package rushprobe

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fleetObservations builds a deterministic per-node observation stream:
// heavy contacts in the road-side rush slots, light elsewhere.
func fleetObservations(node string, days int) []Observation {
	var out []Observation
	for d := 0; d < days; d++ {
		for h := 0; h < 24; h++ {
			n := 1
			if h == 7 || h == 8 || h == 17 || h == 18 {
				n = 8
			}
			for i := 0; i < n; i++ {
				out = append(out, Observation{
					Node:     node,
					Time:     float64(d)*86400 + float64(h)*3600 + float64(i)*400,
					Length:   2,
					Uploaded: -1,
				})
			}
		}
	}
	return out
}

func TestFleetPublicAPI(t *testing.T) {
	f, err := NewFleet(Roadside(WithZetaTarget(24)), WithShards(4), WithBootstrapEpochs(2))
	if err != nil {
		t.Fatal(err)
	}
	batch := fleetObservations("node-1", 3)
	if got := f.Observe(batch); got != len(batch) {
		t.Fatalf("accepted %d of %d", got, len(batch))
	}
	s, err := f.Schedule("node-1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Mechanism != string(SNIPOPT) {
		t.Fatalf("mechanism = %s, want %s", s.Mechanism, SNIPOPT)
	}
	cold, err := f.Schedule("never-seen")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Mechanism != string(SNIPAT) {
		t.Fatalf("cold mechanism = %s, want %s", cold.Mechanism, SNIPAT)
	}
	prof, err := f.Profile("node-1")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Epochs != 2 || prof.Bootstrapping {
		t.Fatalf("profile = %+v, want 2 completed epochs, not bootstrapping", prof)
	}
	var buf bytes.Buffer
	if err := f.SnapshotBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := NewFleet(Roadside(WithZetaTarget(24)), WithShards(4), WithBootstrapEpochs(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RestoreBinary(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := g.Schedule("node-1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("restored fleet serves a different schedule:\n got %+v\nwant %+v", s2, s)
	}
	if st := g.Stats(); st.Nodes != f.Stats().Nodes {
		t.Fatalf("restored node count %d != %d", st.Nodes, f.Stats().Nodes)
	}
}

func TestFleetMechanismOption(t *testing.T) {
	f, err := NewFleet(Roadside(), WithFleetMechanism(SNIPRH), WithBootstrapEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	f.Observe(fleetObservations("n", 2))
	s, err := f.Schedule("n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Mechanism != string(SNIPRH) {
		t.Fatalf("mechanism = %s, want %s", s.Mechanism, SNIPRH)
	}
	// Any registered strategy is a valid fleet default — including the
	// adaptive variant the pre-registry fleet rejected.
	g, err := NewFleet(Roadside(), WithFleetMechanism(SNIPAdaptiveRH), WithBootstrapEpochs(1))
	if err != nil {
		t.Fatalf("registered strategy rejected as fleet default: %v", err)
	}
	g.Observe(fleetObservations("n", 2))
	gs, err := g.Schedule("n")
	if err != nil {
		t.Fatal(err)
	}
	if gs.Mechanism != string(SNIPAdaptiveRH) {
		t.Fatalf("mechanism = %s, want %s", gs.Mechanism, SNIPAdaptiveRH)
	}
	if _, err := NewFleet(Roadside(), WithFleetMechanism(Mechanism("SNIP-BOGUS"))); err == nil {
		t.Fatal("unregistered fleet strategy should be rejected")
	}
}

// TestFleetSetStrategy covers per-node strategy selection: overrides
// change the served plan family, distinct strategies get distinct
// cached plans for the same learned fingerprint, and clearing the
// override falls back to the fleet default.
func TestFleetSetStrategy(t *testing.T) {
	f, err := NewFleet(Roadside(), WithBootstrapEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	f.Observe(fleetObservations("a", 2))
	f.Observe(fleetObservations("b", 2))

	if got, err := f.SetStrategy("b", "rh"); err != nil || got != string(SNIPRH) {
		t.Fatalf("SetStrategy(b, rh) = %q, %v; want %q", got, err, SNIPRH)
	}
	sa, err := f.Schedule("a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := f.Schedule("b")
	if err != nil {
		t.Fatal(err)
	}
	if sa.Mechanism != string(SNIPOPT) || sb.Mechanism != string(SNIPRH) {
		t.Fatalf("mechanisms = %s/%s, want %s/%s", sa.Mechanism, sb.Mechanism, SNIPOPT, SNIPRH)
	}
	// Same observations -> same learned fingerprint; the plans must
	// still be distinct cache entries (the strategy is part of the key).
	if sa.Fingerprint != sb.Fingerprint {
		t.Fatalf("fingerprints differ: %x vs %x", sa.Fingerprint, sb.Fingerprint)
	}
	if st := f.Stats(); st.CachedPlans != 2 || st.PlanSolves != 2 {
		t.Fatalf("stats = %+v, want 2 cached plans from 2 solves", st)
	}
	p, err := f.Profile("b")
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != string(SNIPRH) {
		t.Fatalf("profile strategy = %q, want %q", p.Strategy, SNIPRH)
	}
	// Clearing the override falls back to the fleet default and shares
	// node a's cached plan.
	if got, err := f.SetStrategy("b", ""); err != nil || got != string(SNIPOPT) {
		t.Fatalf("SetStrategy(b, \"\") = %q, %v; want %q", got, err, SNIPOPT)
	}
	sb2, err := f.Schedule("b")
	if err != nil {
		t.Fatal(err)
	}
	if sb2.Mechanism != string(SNIPOPT) {
		t.Fatalf("cleared override serves %s, want %s", sb2.Mechanism, SNIPOPT)
	}
	if _, err := f.SetStrategy("b", "SNIP-BOGUS"); err == nil {
		t.Fatal("unregistered strategy should be rejected")
	}
	// SetStrategy admits unknown nodes (it is an explicit write).
	if _, err := f.SetStrategy("new-node", "rh"); err != nil {
		t.Fatal(err)
	}
	if p, err := f.Profile("new-node"); err != nil || p.Strategy != string(SNIPRH) {
		t.Fatalf("pre-assigned node profile = %+v, %v", p, err)
	}
}

// TestFleetSnapshotKeepsStrategy asserts per-node strategy overrides
// survive the snapshot/restore round trip.
func TestFleetSnapshotKeepsStrategy(t *testing.T) {
	f, err := NewFleet(Roadside(), WithBootstrapEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	f.Observe(fleetObservations("a", 2))
	if _, err := f.SetStrategy("a", "rh"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.SnapshotBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := NewFleet(Roadside(), WithBootstrapEpochs(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RestoreBinary(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := g.Schedule("a")
	if err != nil {
		t.Fatal(err)
	}
	if s.Mechanism != string(SNIPRH) {
		t.Fatalf("restored node serves %s, want %s", s.Mechanism, SNIPRH)
	}
}

// TestMetricsJSONInfRho is the regression test for the +Inf JSON bug:
// Metrics.Rho and SimSummary.Rho are +Inf when nothing is probed, and
// encoding/json fails on non-finite floats — the API layer must marshal
// them as null instead of erroring.
func TestMetricsJSONInfRho(t *testing.T) {
	m := Metrics{ZetaTarget: 24, Zeta: 0, Phi: 0, Rho: math.Inf(1)}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal with +Inf Rho must not fail: %v", err)
	}
	if !strings.Contains(string(data), `"Rho":null`) {
		t.Fatalf("want Rho null, got %s", data)
	}
	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.Rho, 1) {
		t.Fatalf("null Rho should restore +Inf, got %v", back.Rho)
	}
	// Finite values stay numeric through the round trip.
	m.Rho = 3.5
	data, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rho != 3.5 {
		t.Fatalf("finite Rho round trip = %v, want 3.5", back.Rho)
	}
}

func TestSimSummaryJSONInfRho(t *testing.T) {
	s := SimSummary{
		Mechanism:    SNIPRH,
		Epochs:       3,
		Rho:          math.Inf(1),
		PerEpochZeta: []float64{0, 0, 0},
	}
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatalf("marshal with +Inf Rho must not fail: %v", err)
	}
	var back SimSummary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.Rho, 1) {
		t.Fatalf("null Rho should restore +Inf, got %v", back.Rho)
	}
	back.Rho = s.Rho // compare the rest field-wise
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("summary round trip lost fields:\n got %+v\nwant %+v", back, s)
	}
}

func TestReplicatedSummaryJSONInfRho(t *testing.T) {
	r := ReplicatedSummary{Mechanism: SNIPAT, Replications: 2, Rho: math.Inf(1)}
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatalf("marshal with +Inf Rho must not fail: %v", err)
	}
	var back ReplicatedSummary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.Rho, 1) {
		t.Fatalf("null Rho should restore +Inf, got %v", back.Rho)
	}
}

// TestSimulatedColdScenarioMarshals drives the whole path the daemon
// depends on: a simulation that probes nothing yields Rho = +Inf, and
// its summary must still serialize.
func TestSimulatedColdScenarioMarshals(t *testing.T) {
	// A scenario whose only contacts are outside every rush slot makes
	// SNIP-RH probe nothing.
	sc := Roadside(WithZetaTarget(24))
	sum, err := Simulate(sc, SNIPRH, WithEpochs(1), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sum.Rho = math.Inf(1) // force the cold-node sentinel
	if _, err := json.Marshal(sum); err != nil {
		t.Fatalf("cold summary must marshal: %v", err)
	}
}
