package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rushprobe/internal/learn"
	"rushprobe/internal/scenario"
	"rushprobe/internal/strategy"
)

func newTestFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	if cfg.Base == nil {
		cfg.Base = scenario.Roadside()
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// syntheticDays builds a deterministic observation stream for one node:
// each day puts `rushContacts` contacts in the four road-side rush
// slots and one contact everywhere else, all of the given length.
func syntheticDays(node string, days, rushContacts int, length float64) []Observation {
	var out []Observation
	rush := map[int]bool{7: true, 8: true, 17: true, 18: true}
	for d := 0; d < days; d++ {
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

func TestColdNodeGetsBootstrapPlan(t *testing.T) {
	f := newTestFleet(t, Config{})
	s, err := f.Schedule("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if s.Mechanism != strategy.NameAT {
		t.Fatalf("cold node mechanism = %s, want %s", s.Mechanism, strategy.NameAT)
	}
	if len(s.Duty) != 24 {
		t.Fatalf("duty has %d slots, want 24", len(s.Duty))
	}
	for i, d := range s.Duty {
		if !(d > 0) || d > 1 {
			t.Fatalf("bootstrap duty[%d] = %v out of (0, 1]", i, d)
		}
	}
	if !isFinite(s.Zeta) || !isFinite(s.Phi) {
		t.Fatalf("bootstrap plan has non-finite outcome: zeta=%v phi=%v", s.Zeta, s.Phi)
	}
	// The serving layer must be able to marshal any schedule.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("schedule must marshal: %v", err)
	}
}

func TestObserveGraduatesToLearnedPlan(t *testing.T) {
	f := newTestFleet(t, Config{})
	batch := syntheticDays("n1", 4, 10, 2.0)
	if got := f.Observe(batch); got != len(batch) {
		t.Fatalf("accepted %d of %d observations", got, len(batch))
	}
	s, err := f.Schedule("n1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Mechanism != strategy.NameOPT {
		t.Fatalf("mechanism = %s, want %s after bootstrap", s.Mechanism, strategy.NameOPT)
	}
	// With the target comfortably inside the rush-hour capacity, the
	// energy-minimizing plan must spend only on rush slots (it may not
	// need all of them).
	spent := false
	for i, d := range s.Duty {
		rush := i == 7 || i == 8 || i == 17 || i == 18
		if d > 0 && !rush {
			t.Fatalf("learned plan spends on off-peak slot %d (duty %v)", i, d)
		}
		if d > 0 {
			spent = true
		}
	}
	if !spent {
		t.Fatal("learned plan probes nothing")
	}
	if !s.TargetMet {
		t.Fatalf("learned plan misses the target: zeta %v < %v", s.Zeta, f.cfg.Base.ZetaTarget)
	}
	if s.Phi > f.cfg.Base.PhiMax+1e-9 {
		t.Fatalf("plan exceeds energy budget: %v > %v", s.Phi, f.cfg.Base.PhiMax)
	}
	prof, err := f.Profile("n1")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Bootstrapping {
		t.Fatal("profile still reports bootstrapping after 3 completed epochs")
	}
	if got := maskSlots(prof.RushMask); !reflect.DeepEqual(got, []int{7, 8, 17, 18}) {
		t.Fatalf("learned rush mask = %v, want [7 8 17 18]", got)
	}
}

func maskSlots(mask []bool) []int {
	var out []int
	for i, m := range mask {
		if m {
			out = append(out, i)
		}
	}
	return out
}

// TestPlanCacheSharesSolves is the acceptance test for the plan cache:
// nodes whose learned profiles quantize to the same scenario trigger
// exactly one optimizer solve.
func TestPlanCacheSharesSolves(t *testing.T) {
	f := newTestFleet(t, Config{})
	// Node b's contacts are 1% longer — within the quantization grid, so
	// both nodes fingerprint identically.
	f.Observe(syntheticDays("a", 4, 10, 2.0))
	f.Observe(syntheticDays("b", 4, 10, 2.02))
	sa, err := f.Schedule("a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := f.Schedule("b")
	if err != nil {
		t.Fatal(err)
	}
	if sa.Fingerprint != sb.Fingerprint {
		t.Fatalf("fingerprints differ: %016x vs %016x", sa.Fingerprint, sb.Fingerprint)
	}
	if sa != sb {
		t.Fatal("fingerprint-equal nodes should share the same cached *Schedule")
	}
	st := f.Stats()
	if st.PlanSolves != 1 {
		t.Fatalf("PlanSolves = %d, want exactly 1", st.PlanSolves)
	}
	if st.PlanCacheHits != 1 {
		t.Fatalf("PlanCacheHits = %d, want 1", st.PlanCacheHits)
	}
	// Re-serving without new observations is a profile-local cache hit;
	// no new solve, no new cache traffic.
	if _, err := f.Schedule("a"); err != nil {
		t.Fatal(err)
	}
	if st2 := f.Stats(); st2.PlanSolves != 1 || st2.PlanCacheHits != 1 {
		t.Fatalf("re-serve changed counters: %+v", st2)
	}
}

func TestNewObservationsInvalidateServedPlan(t *testing.T) {
	f := newTestFleet(t, Config{BootstrapEpochs: 1})
	f.Observe(syntheticDays("n", 2, 10, 2.0))
	s1, err := f.Schedule("n")
	if err != nil {
		t.Fatal(err)
	}
	// A markedly different pattern (rush hours moved) must eventually
	// produce a different plan.
	var shifted []Observation
	for _, o := range syntheticDays("n", 6, 10, 2.0) {
		o.Time += 2 * 86400
		shifted = append(shifted, Observation{Node: o.Node, Time: o.Time, Length: o.Length, Uploaded: o.Uploaded})
	}
	// Displace the heavy slots by 6 hours.
	for i := range shifted {
		day := math.Floor(shifted[i].Time / 86400)
		within := shifted[i].Time - day*86400
		shifted[i].Time = day*86400 + math.Mod(within+6*3600, 86400)
	}
	// Shift breaks per-node time ordering within a day; sort not needed
	// because epochs still advance day by day, but keep slots valid.
	f.Observe(shifted)
	s2, err := f.Schedule("n")
	if err != nil {
		t.Fatal(err)
	}
	if s1.Fingerprint == s2.Fingerprint {
		t.Fatal("plan fingerprint did not change after the pattern shifted")
	}
}

func TestObserveRejectsGarbage(t *testing.T) {
	f := newTestFleet(t, Config{})
	bad := []Observation{
		{Node: "", Time: 0, Length: 1},
		{Node: "n", Time: math.NaN(), Length: 1},
		{Node: "n", Time: -5, Length: 1},
		{Node: "n", Time: 2e12, Length: 1},
		{Node: "n", Time: 0, Length: 0},
		{Node: "n", Time: 0, Length: math.Inf(1)},
		{Node: "n", Time: 0, Length: math.NaN()},
		{Node: "n", Time: 0, Length: 1e308},             // longer than the epoch
		{Node: "n", Time: 0, Length: 1, Uploaded: 2e15}, // absurd upload
		{Node: "n", Time: 0, Length: 1, Uploaded: math.Inf(1)},
	}
	if got := f.Observe(bad); got != 0 {
		t.Fatalf("accepted %d garbage observations", got)
	}
	if st := f.Stats(); st.Invalid != int64(len(bad)) {
		t.Fatalf("Invalid = %d, want %d", st.Invalid, len(bad))
	}
}

// TestObserveRejectsNaNAndNegativeUploads: NaN slips through both the
// `> maxUploadedBytes` ingest guard and the `< 0` guard in
// learn.UploadAmount.Observe (every NaN comparison is false), after
// which `value += alpha*(v-value)` turns the upload EWMA into NaN
// forever. Negative uploads other than the UploadedUnknown sentinel are
// garbage too. Both must be counted invalid and leave the learned
// threshold finite.
func TestObserveRejectsNaNAndNegativeUploads(t *testing.T) {
	f := newTestFleet(t, Config{})
	bad := []Observation{
		{Node: "n", Time: 0, Length: 2, Uploaded: math.NaN()},
		{Node: "n", Time: 1, Length: 2, Uploaded: -7.5},
	}
	if got := f.Observe(bad); got != 0 {
		t.Fatalf("accepted %d poisonous observations", got)
	}
	if st := f.Stats(); st.Invalid != int64(len(bad)) {
		t.Fatalf("Invalid = %d, want %d", st.Invalid, len(bad))
	}
	// Legitimate traffic after the attack: the upload estimator must
	// still converge on real values, not sit at NaN.
	f.Observe([]Observation{
		{Node: "n", Time: 2, Length: 2, Uploaded: 512},
		{Node: "n", Time: 3, Length: 2, Uploaded: UploadedUnknown},
	})
	prof, err := f.Profile("n")
	if err != nil {
		t.Fatal(err)
	}
	if !isFinite(prof.UploadThreshold) {
		t.Fatalf("upload threshold poisoned: %v", prof.UploadThreshold)
	}
	if prof.Observations != 2 {
		t.Fatalf("accepted %d observations, want the 2 legitimate ones", prof.Observations)
	}
	if err := f.WriteBinarySnapshot(io.Discard); err != nil {
		t.Fatalf("snapshot must survive NaN uploads: %v", err)
	}
}

// TestHugeObservationsCannotPoisonSnapshots: huge-but-finite lengths
// and uploads must be rejected at ingest, otherwise they overflow the
// EWMAs to +Inf and every later snapshot fails to encode.
func TestHugeObservationsCannotPoisonSnapshots(t *testing.T) {
	f := newTestFleet(t, Config{})
	f.Observe([]Observation{
		{Node: "n", Time: 0, Length: 1e308},
		{Node: "n", Time: 1, Length: 1e308},
		{Node: "n", Time: 2, Length: 2, Uploaded: math.Inf(1)},
		{Node: "n", Time: 3, Length: 2, Uploaded: 1e308},
		{Node: "n", Time: 4, Length: 2}, // one legitimate observation
	})
	if err := f.WriteBinarySnapshot(io.Discard); err != nil {
		t.Fatalf("snapshot must survive hostile observations: %v", err)
	}
	prof, err := f.Profile("n")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Observations != 1 {
		t.Fatalf("accepted %d observations, want only the legitimate one", prof.Observations)
	}
}

// TestScheduleReadsDoNotCreateState: unauthenticated schedule, batch
// schedule and profile lookups for made-up node IDs must not grow the
// store.
func TestScheduleReadsDoNotCreateState(t *testing.T) {
	f := newTestFleet(t, Config{})
	batch := make([]string, 100)
	for i := range batch {
		batch[i] = fmt.Sprintf("scanner-%d", i)
		if _, err := f.Schedule(batch[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Profile(batch[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.ScheduleBatch(batch); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Nodes != 0 {
		t.Fatalf("schedule and profile reads created %d profiles", st.Nodes)
	}
	if m := f.Memory(); m.Nodes != 0 || m.ProfileBytes != 0 {
		t.Fatalf("schedule and profile reads grew memory: %+v", m)
	}
}

// TestRestoreRejectsRushSlotMismatch: RushSlots is fleet config, not
// base-scenario state, so restore must check it explicitly: in the meta
// frame, and in each node's learner record at the admission gate.
func TestRestoreRejectsRushSlotMismatch(t *testing.T) {
	f := newTestFleet(t, Config{RushSlots: 2})
	f.Observe(syntheticDays("n", 2, 8, 2.0))
	log := binarySnapshotBytes(t, f)
	other := newTestFleet(t, Config{}) // defaults to 4 rush slots
	if _, err := other.ReadBinarySnapshot(bytes.NewReader(log)); err == nil {
		t.Fatal("snapshot with a different RushSlots configuration must be rejected")
	}
	// A meta frame that matches cannot vouch for the records after it.
	_, nodes := splitLog(t, log)
	_, err := other.ReadBinarySnapshot(bytes.NewReader(logFrames(t, other.appendMetaFrame(nil), nodes[0].encode())))
	if err == nil || !strings.Contains(err.Error(), "ranks 2 rush slots") {
		t.Fatalf("node record ranking 2 rush slots: err = %v, want the gate's rush-slot error", err)
	}
}

func TestObserveCountsStale(t *testing.T) {
	f := newTestFleet(t, Config{})
	f.Observe([]Observation{{Node: "n", Time: 3 * 86400, Length: 2}})
	if got := f.Observe([]Observation{{Node: "n", Time: 100, Length: 2}}); got != 0 {
		t.Fatal("observation from an already-folded epoch should not be accepted")
	}
	if st := f.Stats(); st.Stale != 1 {
		t.Fatalf("Stale = %d, want 1", st.Stale)
	}
}

func TestObserveSkipsLongGaps(t *testing.T) {
	f := newTestFleet(t, Config{})
	f.Observe([]Observation{{Node: "n", Time: 10, Length: 2}})
	// A 10000-epoch jump must fold only MaxEpochSkip epochs and land on
	// the new epoch.
	f.Observe([]Observation{{Node: "n", Time: 10000 * 86400, Length: 2}})
	prof, err := f.Profile("n")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Epochs != f.cfg.MaxEpochSkip {
		t.Fatalf("folded %d epochs, want MaxEpochSkip=%d", prof.Epochs, f.cfg.MaxEpochSkip)
	}
	if got := f.Observe([]Observation{{Node: "n", Time: 10000*86400 + 60, Length: 2}}); got != 1 {
		t.Fatal("observations in the new epoch must be accepted")
	}
}

func TestRHMechanism(t *testing.T) {
	f := newTestFleet(t, Config{Strategy: strategy.NameRH})
	f.Observe(syntheticDays("n", 4, 10, 2.0))
	s, err := f.Schedule("n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Mechanism != strategy.NameRH {
		t.Fatalf("mechanism = %s, want %s", s.Mechanism, strategy.NameRH)
	}
	for i, d := range s.Duty {
		rush := i == 7 || i == 8 || i == 17 || i == 18
		if rush && d <= 0 {
			t.Fatalf("rush slot %d has zero duty", i)
		}
		if !rush && d != 0 {
			t.Fatalf("off-peak slot %d has duty %v, want 0", i, d)
		}
	}
	if s.Phi > f.cfg.Base.PhiMax+1e-9 {
		t.Fatalf("RH plan exceeds budget: %v > %v", s.Phi, f.cfg.Base.PhiMax)
	}
}

func TestSnapshotRestoreServesIdenticalSchedules(t *testing.T) {
	f := newTestFleet(t, Config{})
	nodes := []string{"a", "b", "c", "d"}
	for i, n := range nodes {
		f.Observe(syntheticDays(n, 4, 6+i, 2.0))
	}
	want := make(map[string]*Schedule)
	for _, n := range nodes {
		s, err := f.Schedule(n)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = s
	}

	g := newTestFleet(t, Config{})
	if _, err := g.ReadBinarySnapshot(bytes.NewReader(binarySnapshotBytes(t, f))); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		got, err := g.Schedule(n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[n]) {
			t.Fatalf("node %s schedule diverged after restore:\n got %+v\nwant %+v", n, got, want[n])
		}
	}
	// Restored profiles keep evolving identically.
	all := syntheticDays("a", 5, 6, 2.0)
	extra := all[4*len(all)/5:]
	f.Observe(extra)
	g.Observe(extra)
	s1, err1 := f.Schedule("a")
	s2, err2 := g.Schedule("a")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("schedules diverged after post-restore observations")
	}
}

func TestSnapshotIsDeterministic(t *testing.T) {
	build := func() []byte {
		f, err := New(Config{Base: scenario.Roadside()})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"zeta", "alpha", "mid"} {
			f.Observe(syntheticDays(n, 2, 8, 2.0))
		}
		return binarySnapshotBytes(t, f)
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("snapshot bytes are not deterministic")
	}
}

func TestRestoreRejectsMismatchedBase(t *testing.T) {
	f := newTestFleet(t, Config{})
	f.Observe(syntheticDays("n", 2, 8, 2.0))
	other := newTestFleet(t, Config{Base: scenario.Roadside(scenario.WithZetaTarget(48))})
	if _, err := other.ReadBinarySnapshot(bytes.NewReader(binarySnapshotBytes(t, f))); err == nil {
		t.Fatal("restore into a fleet with a different base scenario must fail")
	}
}

// TestRestoreRejectsCorruptSnapshots: a log with another format
// version, a node with an empty ID, or a learner over a different slot
// count is rejected, each with its own error.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	f := newTestFleet(t, Config{})
	f.Observe(syntheticDays("n", 2, 8, 2.0))
	meta, nodes := splitLog(t, binarySnapshotBytes(t, f))
	version := bytes.Clone(meta)
	version[0] = 99
	emptyID := nodes[0].clone()
	emptyID.rehead("", "")
	slots := nodes[0].clone()
	learner, err := learn.NewRushHourLearner(12, f.cfg.RushSlots)
	if err != nil {
		t.Fatal(err)
	}
	if slots.record, err = learn.AppendRecord(nil, learn.NewContactLength(2), learn.NewUploadAmount(1024), learner); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		log        []byte
	}{
		{"wrong version", "binary snapshot version 99", logFrames(t, version, nodes[0].encode())},
		{"empty node ID", "empty ID", logFrames(t, meta, emptyID.encode())},
		{"mismatched learner slot count", "learner has 12 slots", logFrames(t, meta, slots.encode())},
	} {
		_, err := newTestFleet(t, Config{}).ReadBinarySnapshot(bytes.NewReader(tc.log))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestObservationJSONUploadedDefaultsToUnknown(t *testing.T) {
	var o Observation
	if err := json.Unmarshal([]byte(`{"node":"n","time":1,"length":2}`), &o); err != nil {
		t.Fatal(err)
	}
	if o.Uploaded != -1 {
		t.Fatalf("absent uploaded should decode as -1, got %v", o.Uploaded)
	}
	if err := json.Unmarshal([]byte(`{"node":"n","time":1,"length":2,"uploaded":0}`), &o); err != nil {
		t.Fatal(err)
	}
	if o.Uploaded != 0 {
		t.Fatalf("explicit zero uploaded should decode as 0, got %v", o.Uploaded)
	}
}

func TestFleetConcurrentObserveAndSchedule(t *testing.T) {
	f := newTestFleet(t, Config{BootstrapEpochs: 1})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := fmt.Sprintf("n%d", w%4)
			f.Observe(syntheticDays(node, 3, 10, 2.0))
			if _, err := f.Schedule(node); err != nil {
				t.Error(err)
			}
			if _, err := f.Profile(node); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if st := f.Stats(); st.Nodes != 4 {
		t.Fatalf("nodes = %d, want 4", st.Nodes)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil base accepted")
	}
	base := scenario.Roadside()
	bad := []Config{
		{Base: base, Shards: -1},
		{Base: base, RushSlots: 99},
		{Base: base, BootstrapEpochs: -1},
		{Base: base, Strategy: "SNIP-XX"},
		{Base: base, CapacityQuantum: -1},
		{Base: base, LengthQuantum: math.NaN()},
		{Base: base, MaxEpochSkip: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestRestoreRejectsUnregisteredStrategy pins graceful behavior when a
// snapshot names a strategy this binary does not register (say, a
// custom scheme compiled into the daemon that wrote the snapshot):
// restore must fail with a clear error, never panic or leave a node
// whose serve-time lookup would fail — and because restore is
// all-or-nothing, the fleet's previous state must keep serving.
func TestRestoreRejectsUnregisteredStrategy(t *testing.T) {
	f := newTestFleet(t, Config{})
	f.Observe(syntheticDays("keeper", 4, 10, 2.0))
	if _, err := f.SetStrategy("keeper", strategy.NameRH); err != nil {
		t.Fatal(err)
	}
	meta, nodes := splitLog(t, binarySnapshotBytes(t, f))
	if len(nodes) != 1 || !bytes.Contains(nodes[0].head, []byte(strategy.NameRH)) {
		t.Fatalf("snapshot did not capture the strategy override: %+v", nodes)
	}
	nodes[0].rehead(nodes[0].id, "EXT-SCHEME-NOT-COMPILED-IN")
	_, err := f.ReadBinarySnapshot(bytes.NewReader(logFrames(t, meta, nodes[0].encode())))
	if err == nil {
		t.Fatal("restore accepted a snapshot naming an unregistered strategy")
	}
	if !strings.Contains(err.Error(), "unknown strategy") || !strings.Contains(err.Error(), "keeper") {
		t.Fatalf("error %q should name the unknown strategy and the node", err)
	}
	// The failed restore must not have touched the live state: the node
	// still serves its learned RH schedule.
	s, err := f.Schedule("keeper")
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || s.Mechanism != strategy.NameRH {
		t.Fatalf("pre-restore state lost: schedule %+v", s)
	}
}

// TestAdvanceEpochFoldsSilentEpochs: the co-simulation clock hook must
// graduate a node out of bootstrap even when it observes nothing (pure
// observation-driven ingest can never fold an empty epoch), stay
// idempotent per boundary, reject garbage, and admit unknown nodes as
// an explicit write.
func TestAdvanceEpochFoldsSilentEpochs(t *testing.T) {
	f := newTestFleet(t, Config{})
	if err := f.AdvanceEpoch("", 1); err == nil {
		t.Error("empty node ID accepted")
	}
	if err := f.AdvanceEpoch("n", -1); err == nil {
		t.Error("negative epoch accepted")
	}
	if err := f.AdvanceEpoch("quiet", 4); err != nil {
		t.Fatal(err)
	}
	prof, err := f.Profile("quiet")
	if err != nil {
		t.Fatal(err)
	}
	if prof.Epochs != 4 {
		t.Fatalf("folded %d epochs, want 4", prof.Epochs)
	}
	if prof.Bootstrapping {
		t.Fatal("node still bootstrapping after 4 folded epochs")
	}
	// Re-advancing to an already-folded epoch is a no-op.
	if err := f.AdvanceEpoch("quiet", 2); err != nil {
		t.Fatal(err)
	}
	if prof, _ = f.Profile("quiet"); prof.Epochs != 4 {
		t.Fatalf("rewind changed epoch count to %d", prof.Epochs)
	}
	// Long silences cap at MaxEpochSkip like ingest.
	if err := f.AdvanceEpoch("quiet", 100000); err != nil {
		t.Fatal(err)
	}
	if prof, _ = f.Profile("quiet"); prof.Epochs != 4+f.cfg.MaxEpochSkip {
		t.Fatalf("folded %d epochs, want %d", prof.Epochs, 4+f.cfg.MaxEpochSkip)
	}
}

// TestAdvanceEpochInvalidatesServedPlan: advancing folds learner state,
// so a cached per-node schedule must not outlive it.
func TestAdvanceEpochInvalidatesServedPlan(t *testing.T) {
	f := newTestFleet(t, Config{BootstrapEpochs: 1})
	f.Observe(syntheticDays("n", 1, 10, 2.0)) // epoch 0 observations only
	if err := f.AdvanceEpoch("n", 1); err != nil {
		t.Fatal(err)
	}
	s1, err := f.Schedule("n")
	if err != nil {
		t.Fatal(err)
	}
	if s1.Mechanism == strategy.NameAT {
		t.Fatal("node should have graduated after one folded epoch")
	}
	// One busier epoch later the learned plan must be re-derived.
	f.Observe(syntheticDays("n2", 2, 40, 2.0)) // unrelated traffic
	obs := syntheticDays("n", 2, 40, 2.0)[len(syntheticDays("n", 1, 40, 2.0)):]
	f.Observe(obs)
	if err := f.AdvanceEpoch("n", 2); err != nil {
		t.Fatal(err)
	}
	s2, err := f.Schedule("n")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Fingerprint == s1.Fingerprint {
		t.Fatal("served plan not invalidated by AdvanceEpoch")
	}
}

// TestScheduleBatchServesInOrder: the batch hook returns one schedule
// per input node in input order, serves cold nodes the bootstrap plan,
// and fails loudly on unservable IDs.
func TestScheduleBatchServesInOrder(t *testing.T) {
	f := newTestFleet(t, Config{})
	f.Observe(syntheticDays("warm", 4, 10, 2.0))
	scheds, err := f.ScheduleBatch([]string{"warm", "cold", "warm"})
	if err != nil {
		t.Fatal(err)
	}
	if len(scheds) != 3 {
		t.Fatalf("got %d schedules, want 3", len(scheds))
	}
	if scheds[0].Mechanism != strategy.NameOPT || scheds[2].Mechanism != strategy.NameOPT {
		t.Fatalf("warm node served %s/%s, want %s", scheds[0].Mechanism, scheds[2].Mechanism, strategy.NameOPT)
	}
	if scheds[1].Mechanism != strategy.NameAT {
		t.Fatalf("cold node served %s, want bootstrap %s", scheds[1].Mechanism, strategy.NameAT)
	}
	if scheds[0] != scheds[2] {
		t.Fatal("identical nodes must share the served schedule")
	}
	if _, err := f.ScheduleBatch([]string{"warm", ""}); err == nil {
		t.Fatal("batch with an empty node ID must fail")
	}
}

// blockingStrategy parks inside Plan until released, simulating a slow
// optimizer solve. It signals entry on entered (buffered, solves run at
// most once through the plan cache's singleflight).
type blockingStrategy struct {
	name    string
	entered chan struct{}
	release chan struct{}
}

func (b *blockingStrategy) Name() string { return b.name }

func (b *blockingStrategy) Plan(sc *scenario.Scenario) (*strategy.Plan, error) {
	b.entered <- struct{}{}
	<-b.release
	return &strategy.Plan{Strategy: b.name, Duty: make([]float64, len(sc.Slots))}, nil
}

func (b *blockingStrategy) Schedulers(sc *scenario.Scenario) (strategy.Factory, error) {
	return nil, errors.New("blockingStrategy serves plans only")
}

// TestScheduleSolvesOutsideShardLock pins the locksafe invariant on the
// serving path: a plan solve must not run while the shard mutex is
// held. Before the fix, schedule() executed the solve inside
// cache.get's sync.Once callback with the shard locked, so a single
// slow solve stalled every Observe and Schedule on that shard; this
// test parks a solve inside the strategy and requires ingest on the
// same (only) shard to keep flowing.
func TestScheduleSolvesOutsideShardLock(t *testing.T) {
	b := &blockingStrategy{
		name:    "TEST-BLOCKING-SOLVE",
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	if err := strategy.Register(b); err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t, Config{Strategy: b.name, Shards: 1})
	f.Observe(syntheticDays("slow", 4, 10, 2.0))

	schedDone := make(chan error, 1)
	go func() {
		_, err := f.Schedule("slow")
		schedDone <- err
	}()
	select {
	case <-b.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("solve was never entered")
	}

	obsDone := make(chan int, 1)
	go func() {
		obsDone <- f.Observe([]Observation{{Node: "other", Time: 0, Length: 2, Uploaded: -1}})
	}()
	select {
	case n := <-obsDone:
		if n != 1 {
			t.Fatalf("observe accepted %d observations, want 1", n)
		}
	case <-time.After(5 * time.Second):
		close(b.release)
		t.Fatal("Observe blocked behind an in-flight plan solve: the solve is running under the shard lock")
	}

	close(b.release)
	if err := <-schedDone; err != nil {
		t.Fatal(err)
	}
}
