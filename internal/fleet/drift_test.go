package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"rushprobe/internal/drift"
)

// patternDays builds a deterministic observation stream like
// syntheticDays, but over an arbitrary rush-slot set and day range —
// the rotated-regime generator the drift tests need.
func patternDays(node string, fromDay, days, rushContacts int, length float64, rush map[int]bool) []Observation {
	var out []Observation
	for d := fromDay; d < fromDay+days; d++ {
		for h := 0; h < 24; h++ {
			n := 1
			if rush[h] {
				n = rushContacts
			}
			for i := 0; i < n; i++ {
				out = append(out, Observation{
					Node:     node,
					Time:     float64(d)*86400 + float64(h)*3600 + float64(i)*300,
					Length:   length,
					Uploaded: -1,
				})
			}
		}
	}
	return out
}

var (
	roadRush    = map[int]bool{7: true, 8: true, 17: true, 18: true}
	rotatedRush = map[int]bool{13: true, 14: true, 23: true, 0: true}
)

// A rush-pattern rotation must fire the detector within the patience
// budget, relearn the node, and surface in every counter — while the
// total contact volume stays identical (only the share stream can see
// this shift).
func TestDriftDetectionRelearnsAfterRotation(t *testing.T) {
	f := newTestFleet(t, Config{DriftDetector: drift.KindCUSUM})
	const node = "n-drift"
	f.Observe(patternDays(node, 0, 12, 6, 2, roadRush))
	prof, err := f.Profile(node)
	if err != nil {
		t.Fatal(err)
	}
	if prof.DriftEvents != 0 || prof.FirstDriftEpoch != -1 {
		t.Fatalf("pre-shift profile already drifted: %+v", prof)
	}
	if got := maskSlots(prof.RushMask); !reflect.DeepEqual(got, []int{7, 8, 17, 18}) {
		t.Fatalf("pre-shift mask = %v", got)
	}

	f.Observe(patternDays(node, 12, 10, 6, 2, rotatedRush))
	prof, err = f.Profile(node)
	if err != nil {
		t.Fatal(err)
	}
	if prof.DriftEvents < 1 {
		t.Fatal("rotation did not fire the drift detector")
	}
	if lat := prof.FirstDriftEpoch - 12 + 1; lat < 1 || lat > drift.DefaultPatience {
		t.Fatalf("detection latency %d epochs (first drift at %d), want within (0, %d]", lat, prof.FirstDriftEpoch, drift.DefaultPatience)
	}
	if prof.LastDriftEpoch < prof.FirstDriftEpoch {
		t.Fatalf("last drift %d before first %d", prof.LastDriftEpoch, prof.FirstDriftEpoch)
	}
	if got := maskSlots(prof.RushMask); !reflect.DeepEqual(got, []int{0, 13, 14, 23}) {
		t.Fatalf("post-relearn mask = %v, want the rotated rush slots", got)
	}
	if s := f.Stats(); s.DriftEvents != prof.DriftEvents {
		t.Fatalf("fleet drift events %d != node's %d", s.DriftEvents, prof.DriftEvents)
	}
}

// A stationary node must never fire at the default thresholds, and a
// fleet without a detector must never count drift events.
func TestStationaryNodeNeverFires(t *testing.T) {
	for _, det := range []string{drift.KindCUSUM, drift.KindPageHinkley, ""} {
		f := newTestFleet(t, Config{DriftDetector: det})
		f.Observe(syntheticDays("n-flat", 40, 6, 2))
		prof, err := f.Profile("n-flat")
		if err != nil {
			t.Fatal(err)
		}
		if prof.DriftEvents != 0 || prof.FirstDriftEpoch != -1 || prof.LastDriftEpoch != -1 {
			t.Fatalf("detector %q: stationary node drifted: %+v", det, prof)
		}
		if s := f.Stats(); s.DriftEvents != 0 {
			t.Fatalf("detector %q: fleet counted %d drift events", det, s.DriftEvents)
		}
	}
}

// A node that goes dark long enough to skip epochs is a pattern change
// too: the rate stream collapses to zero and the detector fires.
func TestSilentGapFiresRateDetector(t *testing.T) {
	f := newTestFleet(t, Config{DriftDetector: drift.KindCUSUM})
	const node = "n-quiet"
	f.Observe(syntheticDays(node, 12, 6, 2))
	if err := f.AdvanceEpoch(node, 40); err != nil {
		t.Fatal(err)
	}
	prof, err := f.Profile(node)
	if err != nil {
		t.Fatal(err)
	}
	if prof.DriftEvents < 1 {
		t.Fatal("a long silent gap did not fire the rate detector")
	}
}

// Snapshot/restore mid-detection must not change when the detector
// fires: the restored fleet detects at the same epoch as an
// uninterrupted one, and re-snapshots byte-identically.
func TestDriftStateSurvivesSnapshotRestore(t *testing.T) {
	const node = "n-resume"
	cfg := Config{DriftDetector: drift.KindPageHinkley}
	cont := newTestFleet(t, cfg)
	cut := newTestFleet(t, cfg)
	warm := patternDays(node, 0, 12, 6, 2, roadRush)
	cont.Observe(warm)
	cut.Observe(warm)

	// One shifted epoch lands before the snapshot: the detection is in
	// progress but has not fired yet.
	first := patternDays(node, 12, 1, 6, 2, rotatedRush)
	cont.Observe(first)
	cut.Observe(first)

	restored := newTestFleet(t, cfg)
	if _, err := restored.ReadBinarySnapshot(bytes.NewReader(binarySnapshotBytes(t, cut))); err != nil {
		t.Fatal(err)
	}

	rest := patternDays(node, 13, 8, 6, 2, rotatedRush)
	cont.Observe(rest)
	restored.Observe(rest)

	pc, err := cont.Profile(node)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := restored.Profile(node)
	if err != nil {
		t.Fatal(err)
	}
	if pc.DriftEvents < 1 {
		t.Fatal("uninterrupted fleet never fired")
	}
	if !reflect.DeepEqual(pc, pr) {
		t.Fatalf("restored profile diverged:\ncontinuous: %+v\nrestored:   %+v", pc, pr)
	}

	if !bytes.Equal(binarySnapshotBytes(t, cont), binarySnapshotBytes(t, restored)) {
		t.Fatal("post-detection snapshots differ between continuous and restored fleets")
	}
}

// A detector-less fleet must keep emitting node frames without any
// drift block (drift flag 0), so pre-drift snapshot bytes are unchanged
// by this feature.
func TestSnapshotWithoutDetectorHasNoDriftBlock(t *testing.T) {
	f := newTestFleet(t, Config{})
	f.Observe(syntheticDays("n1", 6, 6, 2))
	_, nodes := splitLog(t, binarySnapshotBytes(t, f))
	if len(nodes) != 1 || nodes[0].flag != 0 {
		t.Fatalf("detector-less snapshot carries a drift block: %+v", nodes)
	}
}

// Snapshots cross detector configurations: a detector fleet's snapshot
// restores into a detector-less fleet (counters survive, registers are
// dropped), a detector-less snapshot restores into a detector fleet
// (fresh detectors), and a mismatched detector kind is rejected.
func TestDriftSnapshotCompatibility(t *testing.T) {
	src := newTestFleet(t, Config{DriftDetector: drift.KindCUSUM})
	const node = "n-compat"
	src.Observe(patternDays(node, 0, 12, 6, 2, roadRush))
	src.Observe(patternDays(node, 12, 8, 6, 2, rotatedRush))
	if p, _ := src.Profile(node); p.DriftEvents < 1 {
		t.Fatal("source fleet never fired")
	}
	log := binarySnapshotBytes(t, src)

	plain := newTestFleet(t, Config{})
	if _, err := plain.ReadBinarySnapshot(bytes.NewReader(log)); err != nil {
		t.Fatal(err)
	}
	p, err := plain.Profile(node)
	if err != nil {
		t.Fatal(err)
	}
	if p.DriftEvents < 1 || p.FirstDriftEpoch < 0 {
		t.Fatalf("drift history lost restoring into a detector-less fleet: %+v", p)
	}
	if s := plain.Stats(); s.DriftEvents != p.DriftEvents {
		t.Fatalf("fleet counter %d != node history %d", s.DriftEvents, p.DriftEvents)
	}

	other := newTestFleet(t, Config{DriftDetector: drift.KindPageHinkley})
	if _, err := other.ReadBinarySnapshot(bytes.NewReader(log)); err == nil {
		t.Fatal("restoring cusum registers into a page-hinkley fleet must fail")
	}

	withDet := newTestFleet(t, Config{DriftDetector: drift.KindCUSUM})
	if _, err := withDet.ReadBinarySnapshot(bytes.NewReader(binarySnapshotBytes(t, plain))); err != nil {
		t.Fatalf("detector-less snapshot must restore into a detector fleet: %v", err)
	}
}

func TestConfigDriftDetectorValidation(t *testing.T) {
	if _, err := New(Config{Base: newTestFleet(t, Config{}).cfg.Base, DriftDetector: "bogus"}); err == nil {
		t.Fatal("expected an error for an unknown detector")
	}
	for _, name := range []string{"none", "off", ""} {
		f := newTestFleet(t, Config{DriftDetector: name})
		if f.cfg.DriftDetector != "" {
			t.Fatalf("%q did not disable detection", name)
		}
	}
	f := newTestFleet(t, Config{DriftDetector: "ph"})
	if f.cfg.DriftDetector != drift.KindPageHinkley {
		t.Fatalf("alias ph resolved to %q", f.cfg.DriftDetector)
	}
}

func TestStrategyNodesCountsOverrides(t *testing.T) {
	f := newTestFleet(t, Config{})
	f.Observe(syntheticDays("a", 2, 6, 2))
	f.Observe(syntheticDays("b", 2, 6, 2))
	f.Observe(syntheticDays("c", 2, 6, 2))
	if _, err := f.SetStrategy("b", MechanismRH); err != nil {
		t.Fatal(err)
	}
	got := f.StrategyNodes()
	want := map[string]int{MechanismOPT: 2, MechanismRH: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StrategyNodes() = %v, want %v", got, want)
	}
}
