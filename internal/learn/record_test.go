package learn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"rushprobe/internal/stats"
)

// liveRecord builds a record the way the fleet does: drive real
// estimators and export their state. It panics on inconsistent
// parameters (it is a test helper shared with the fuzz seed corpus).
func liveRecord(seed int64, slots, rushSlots, epochs int) *ProfileRecord {
	r := rand.New(rand.NewSource(seed))
	cl := NewContactLength(1 + 40*r.Float64())
	ua := NewUploadAmount(1 + 4096*r.Float64())
	l, err := NewRushHourLearner(slots, rushSlots)
	if err != nil {
		panic(err)
	}
	for e := 0; e < epochs; e++ {
		for c := 0; c < 1+r.Intn(20); c++ {
			cl.Observe(0.1 + 60*r.Float64())
			ua.Observe(4096 * r.Float64())
			l.ObserveContact(r.Intn(slots), 0.1+30*r.Float64())
		}
		l.EndEpoch()
	}
	// Leave a partial epoch in the accumulator half the time.
	if seed%2 == 0 {
		l.ObserveContact(r.Intn(slots), 0.1+30*r.Float64())
	}
	return &ProfileRecord{Length: cl.State(), Upload: ua.State(), Learner: l.State()}
}

// recordsEqual compares two records bit-exactly (NaN-safe).
func recordsEqual(a, b *ProfileRecord) bool {
	f64eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	ewmaEq := func(x, y stats.EWMAState) bool {
		return f64eq(x.Value, y.Value) && x.Count == y.Count && x.Seeded == y.Seeded
	}
	if !f64eq(a.Length.Prior, b.Length.Prior) || !ewmaEq(a.Length.EWMA, b.Length.EWMA) {
		return false
	}
	if !f64eq(a.Upload.Prior, b.Upload.Prior) || !ewmaEq(a.Upload.EWMA, b.Upload.EWMA) {
		return false
	}
	if a.Learner.RushSlots != b.Learner.RushSlots || a.Learner.Epochs != b.Learner.Epochs {
		return false
	}
	if len(a.Learner.EpochCap) != len(b.Learner.EpochCap) || len(a.Learner.Slots) != len(b.Learner.Slots) {
		return false
	}
	for i := range a.Learner.EpochCap {
		if !f64eq(a.Learner.EpochCap[i], b.Learner.EpochCap[i]) {
			return false
		}
	}
	for i := range a.Learner.Slots {
		if !ewmaEq(a.Learner.Slots[i], b.Learner.Slots[i]) {
			return false
		}
	}
	return true
}

func TestProfileRecordRoundTripLive(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rec := liveRecord(seed, 24, 4, int(seed%7))
		enc, err := rec.MarshalBinary()
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		if len(enc) != RecordSize(24, true) {
			t.Fatalf("seed %d: live record encoded to %d bytes, want uniform size %d", seed, len(enc), RecordSize(24, true))
		}
		var back ProfileRecord
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !recordsEqual(rec, &back) {
			t.Fatalf("seed %d: decoded record differs from original", seed)
		}
		// Restoring the decoded scalar states through the public API must
		// work (UnmarshalBinary already rebuilt the learner).
		if _, err := RestoreContactLength(back.Length); err != nil {
			t.Fatalf("seed %d: restore length: %v", seed, err)
		}
		if _, err := RestoreUploadAmount(back.Upload); err != nil {
			t.Fatalf("seed %d: restore upload: %v", seed, err)
		}
	}
}

func TestProfileRecordExplicitLayout(t *testing.T) {
	rec := liveRecord(3, 8, 2, 5)
	// Break lockstep: one lane with a diverging count.
	rec.Learner.Slots[2].Count++
	enc, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != RecordSize(8, false) {
		t.Fatalf("explicit record encoded to %d bytes, want %d", len(enc), RecordSize(8, false))
	}
	var back ProfileRecord
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(rec, &back) {
		t.Fatal("explicit-layout record did not round-trip")
	}
}

func TestProfileRecordRejects(t *testing.T) {
	valid, err := liveRecord(1, 4, 2, 3).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(valid)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":          {},
		"short header":   valid[:4],
		"bad version":    mutate(func(b []byte) { b[0] = 9 }),
		"unknown flags":  mutate(func(b []byte) { b[1] |= 0x80 }),
		"zero slots":     mutate(func(b []byte) { b[2], b[3] = 0, 0 }),
		"huge slots":     mutate(func(b []byte) { b[2], b[3] = 0xff, 0xff }),
		"zero rushSlots": mutate(func(b []byte) { b[4], b[5] = 0, 0 }),
		"rush > slots":   mutate(func(b []byte) { b[4], b[5] = 200, 0 }),
		"truncated body": valid[:len(valid)-1],
		"trailing byte":  append(bytes.Clone(valid), 0),
		"bad seeded":     mutate(func(b []byte) { b[recordHeaderSize+20] = 7 }),
	}
	for name, data := range cases {
		var r ProfileRecord
		if err := r.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decode accepted invalid record", name)
		}
	}
}

func TestProfileRecordEncodeRejectsInconsistentState(t *testing.T) {
	base := func() *ProfileRecord { return liveRecord(5, 6, 2, 2) }
	cases := map[string]func(*ProfileRecord){
		"slot mismatch":     func(r *ProfileRecord) { r.Learner.EpochCap = r.Learner.EpochCap[:3] },
		"no slots":          func(r *ProfileRecord) { r.Learner.Slots = nil; r.Learner.EpochCap = nil },
		"bad rushSlots":     func(r *ProfileRecord) { r.Learner.RushSlots = 99 },
		"negative epochs":   func(r *ProfileRecord) { r.Learner.Epochs = -1 },
		"negative count":    func(r *ProfileRecord) { r.Length.EWMA.Count = -2 },
		"seeded zero count": func(r *ProfileRecord) { r.Upload.EWMA.Count = 0 },
		"slot count huge":   func(r *ProfileRecord) { r.Learner.Slots[0].Count = math.MaxUint32 + 1 },
	}
	for name, breakIt := range cases {
		r := base()
		breakIt(r)
		if _, err := r.MarshalBinary(); err == nil {
			t.Errorf("%s: encode accepted inconsistent state", name)
		}
	}
}
