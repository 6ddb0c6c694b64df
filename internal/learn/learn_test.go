package learn

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestContactLengthPrior(t *testing.T) {
	c := NewContactLength(2.0)
	if got := c.Mean(); got != 2.0 {
		t.Errorf("unseeded mean = %v, want prior 2", got)
	}
	c.Observe(4.0)
	if got := c.Mean(); got != 4.0 {
		t.Errorf("first sample should replace prior, got %v", got)
	}
	if c.Samples() != 1 {
		t.Errorf("samples = %d", c.Samples())
	}
}

func TestContactLengthBadPrior(t *testing.T) {
	c := NewContactLength(-5)
	if got := c.Mean(); got != 1 {
		t.Errorf("bad prior should fall back to 1, got %v", got)
	}
}

func TestContactLengthIgnoresBadSamples(t *testing.T) {
	c := NewContactLength(2)
	c.Observe(0)
	c.Observe(-1)
	if c.Samples() != 0 {
		t.Error("non-positive samples must be ignored")
	}
}

func TestContactLengthConverges(t *testing.T) {
	c := NewContactLength(10)
	for i := 0; i < 200; i++ {
		c.Observe(2.0)
	}
	if math.Abs(c.Mean()-2.0) > 1e-6 {
		t.Errorf("mean = %v, want 2", c.Mean())
	}
}

func TestUploadAmountThreshold(t *testing.T) {
	u := NewUploadAmount(500)
	if got := u.Threshold(); got != 500 {
		t.Errorf("unseeded threshold = %v, want 500", got)
	}
	u.Observe(1000)
	if got := u.Threshold(); got != 1000 {
		t.Errorf("threshold = %v, want 1000", got)
	}
	u.Observe(-5) // ignored
	if got := u.Threshold(); got != 1000 {
		t.Errorf("negative sample should be ignored, got %v", got)
	}
	u.Observe(0) // legitimate
	want := 1000 + DefaultAlpha*(0-1000)
	if got := u.Threshold(); math.Abs(got-want) > 1e-9 {
		t.Errorf("threshold after zero = %v, want %v", got, want)
	}
}

func TestUploadAmountBadPrior(t *testing.T) {
	u := NewUploadAmount(0)
	if got := u.Threshold(); got != 1 {
		t.Errorf("bad prior should fall back to 1, got %v", got)
	}
}

func TestRushHourLearnerValidation(t *testing.T) {
	if _, err := NewRushHourLearner(0, 1); err == nil {
		t.Error("zero slots should error")
	}
	if _, err := NewRushHourLearner(24, 0); err == nil {
		t.Error("zero rush slots should error")
	}
	if _, err := NewRushHourLearner(24, 25); err == nil {
		t.Error("rushSlots > slots should error")
	}
}

func TestRushHourLearnerIdentifiesTopSlots(t *testing.T) {
	l, err := NewRushHourLearner(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mask := l.Mask(); anyTrue(mask) {
		t.Error("mask before any epoch should be empty")
	}
	// Three epochs of observations: slots 7, 8, 17, 18 dominate.
	for e := 0; e < 3; e++ {
		for slot := 0; slot < 24; slot++ {
			capSeconds := 1.0
			if slot == 7 || slot == 8 || slot == 17 || slot == 18 {
				capSeconds = 6.0
			}
			l.ObserveContact(slot, capSeconds)
		}
		l.EndEpoch()
	}
	mask := l.Mask()
	for slot := 0; slot < 24; slot++ {
		wantRush := slot == 7 || slot == 8 || slot == 17 || slot == 18
		if mask[slot] != wantRush {
			t.Errorf("slot %d learned %v, want %v", slot, mask[slot], wantRush)
		}
	}
	if l.Epochs() != 3 {
		t.Errorf("epochs = %d", l.Epochs())
	}
}

func TestRushHourLearnerNeedsOnlyOrder(t *testing.T) {
	// Sparse, noisy observations: a single probed contact in each rush
	// slot and none elsewhere is enough (the §VII.B argument).
	l, err := NewRushHourLearner(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []int{7, 8, 17, 18} {
		l.ObserveContact(slot, 0.5)
	}
	l.EndEpoch()
	mask := l.Mask()
	for _, slot := range []int{7, 8, 17, 18} {
		if !mask[slot] {
			t.Errorf("slot %d should be marked after one sparse epoch", slot)
		}
	}
	if countTrue(mask) != 4 {
		t.Errorf("mask has %d slots, want 4", countTrue(mask))
	}
}

func TestRushHourLearnerSkipsZeroCapacitySlots(t *testing.T) {
	l, err := NewRushHourLearner(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	l.ObserveContact(2, 3.0)
	l.EndEpoch()
	mask := l.Mask()
	if !mask[2] {
		t.Error("observed slot should be marked")
	}
	// Only one slot has capacity; the learner must not pad with empties.
	if countTrue(mask) != 1 {
		t.Errorf("mask has %d marked slots, want 1", countTrue(mask))
	}
}

func TestRushHourLearnerIgnoresBadObservations(t *testing.T) {
	l, err := NewRushHourLearner(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.ObserveContact(-1, 5)
	l.ObserveContact(4, 5)
	l.ObserveContact(1, -2)
	l.EndEpoch()
	if anyTrue(l.Mask()) {
		t.Error("invalid observations should not mark anything")
	}
}

func TestRushHourLearnerTracksDrift(t *testing.T) {
	l, err := NewRushHourLearner(24, 2)
	if err != nil {
		t.Fatal(err)
	}
	// First regime: slots 7, 8 dominate.
	for e := 0; e < 5; e++ {
		l.ObserveContact(7, 10)
		l.ObserveContact(8, 10)
		l.ObserveContact(12, 1)
		l.EndEpoch()
	}
	mask := l.Mask()
	if !mask[7] || !mask[8] {
		t.Fatal("initial regime not learned")
	}
	// Shifted regime: slots 9, 10 dominate. With alpha=0.3 the EWMA
	// crosses over within a handful of epochs.
	for e := 0; e < 10; e++ {
		l.ObserveContact(9, 10)
		l.ObserveContact(10, 10)
		l.ObserveContact(12, 1)
		l.EndEpoch()
	}
	mask = l.Mask()
	if !mask[9] || !mask[10] {
		t.Errorf("shifted regime not learned: %v", mask)
	}
	if mask[7] || mask[8] {
		t.Errorf("stale slots still marked: %v", mask)
	}
}

func TestAgreement(t *testing.T) {
	a := []bool{true, false, true, false}
	b := []bool{true, false, false, false}
	if got := Agreement(a, b); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("agreement = %v, want 0.75", got)
	}
	if got := Agreement(a, a); got != 1 {
		t.Errorf("self agreement = %v", got)
	}
	if got := Agreement(a, []bool{true}); got != 0 {
		t.Errorf("mismatched lengths = %v, want 0", got)
	}
	if got := Agreement(nil, nil); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

func TestDriftTrackerValidation(t *testing.T) {
	if _, err := NewDriftTracker(nil, 0, 1); err == nil {
		t.Error("empty mask should error")
	}
	if _, err := NewDriftTracker([]bool{true}, -1, 1); err == nil {
		t.Error("negative tolerance should error")
	}
	if _, err := NewDriftTracker([]bool{true}, 0, 0); err == nil {
		t.Error("zero patience should error")
	}
}

func TestDriftTrackerAdoptsAfterPatience(t *testing.T) {
	initial := []bool{true, true, false, false}
	shifted := []bool{false, false, true, true}
	d, err := NewDriftTracker(initial, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.ObserveEpoch(shifted) {
		t.Error("should not adopt on first disagreement")
	}
	if d.ObserveEpoch(shifted) {
		t.Error("should not adopt on second disagreement")
	}
	if !d.ObserveEpoch(shifted) {
		t.Error("should adopt on third consecutive disagreement")
	}
	if got := d.Active(); !equalMask(got, shifted) {
		t.Errorf("active = %v, want %v", got, shifted)
	}
	if d.Shifts() != 1 {
		t.Errorf("shifts = %d", d.Shifts())
	}
}

func TestDriftTrackerResetsOnAgreement(t *testing.T) {
	initial := []bool{true, false}
	shifted := []bool{false, true}
	d, err := NewDriftTracker(initial, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.ObserveEpoch(shifted) // 1 bad epoch
	d.ObserveEpoch(initial) // agreement resets the run
	if d.ObserveEpoch(shifted) {
		t.Error("run should have been reset; adoption too early")
	}
	if d.Shifts() != 0 {
		t.Errorf("shifts = %d, want 0", d.Shifts())
	}
}

func TestDriftTrackerTolerance(t *testing.T) {
	initial := []bool{true, true, false, false}
	oneOff := []bool{true, false, false, false}
	d, err := NewDriftTracker(initial, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.ObserveEpoch(oneOff) {
		t.Error("within-tolerance disagreement must not trigger adoption")
	}
	// Mismatched length is ignored.
	if d.ObserveEpoch([]bool{true}) {
		t.Error("length mismatch must be ignored")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(2.2, 2.0); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelativeError = %v, want 0.1", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Errorf("0/0 = %v, want 0", got)
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("x/0 = %v, want +Inf", got)
	}
}

func anyTrue(mask []bool) bool {
	for _, m := range mask {
		if m {
			return true
		}
	}
	return false
}

func countTrue(mask []bool) int {
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}

func equalMask(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// feedEpoch plays one epoch of observations into the learner: capacity
// `rushCap` in each of the rush slots, `baseCap` everywhere else.
func feedEpoch(l *RushHourLearner, slots int, rush map[int]bool, rushCap, baseCap float64) {
	for s := 0; s < slots; s++ {
		c := baseCap
		if rush[s] {
			c = rushCap
		}
		l.ObserveContact(s, c)
	}
	l.EndEpoch()
}

func maskSet(mask []bool) map[int]bool {
	out := make(map[int]bool)
	for i, m := range mask {
		if m {
			out[i] = true
		}
	}
	return out
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestRushHourLearnerReRanksAfterPatternShift is the fleet's "profiles
// go stale" story: after the whole mobility pattern is displaced by six
// slots (a WithPatternShift-style seasonal move), the learner's EWMA
// must re-rank the slots and emit the shifted mask within a handful of
// epochs.
func TestRushHourLearnerReRanksAfterPatternShift(t *testing.T) {
	const (
		slots   = 24
		rushN   = 4
		shiftBy = 6
		// With alpha = 0.3, old rush slots decay as 20*0.7^k while new
		// ones rise as 20*(1-0.7^k); the ranking crosses at k = 2, so five
		// epochs is a comfortable re-convergence bound.
		maxEpochs = 5
	)
	l, err := NewRushHourLearner(slots, rushN)
	if err != nil {
		t.Fatal(err)
	}
	orig := map[int]bool{7: true, 8: true, 17: true, 18: true}
	for e := 0; e < 6; e++ {
		feedEpoch(l, slots, orig, 20, 1)
	}
	if got := maskSet(l.Mask()); !sameSet(got, orig) {
		t.Fatalf("learner failed to learn the original mask: got %v", got)
	}

	shifted := make(map[int]bool)
	for s := range orig {
		shifted[(s+shiftBy)%slots] = true
	}
	converged := -1
	for e := 1; e <= maxEpochs; e++ {
		feedEpoch(l, slots, shifted, 20, 1)
		if sameSet(maskSet(l.Mask()), shifted) {
			converged = e
			break
		}
	}
	if converged < 0 {
		t.Fatalf("learner did not re-rank to the shifted mask within %d epochs: got %v, want %v",
			maxEpochs, maskSet(l.Mask()), shifted)
	}
	t.Logf("re-ranked after %d epochs", converged)
}

// TestRushHourLearnerStateRoundTrip restores a learner the way the
// fleet does, through its packed record, and checks that the restored
// learner evolves exactly like the original.
func TestRushHourLearnerStateRoundTrip(t *testing.T) {
	l, err := NewRushHourLearner(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	rush := map[int]bool{7: true, 8: true, 17: true, 18: true}
	for e := 0; e < 3; e++ {
		feedEpoch(l, 24, rush, 20, 1)
	}
	// Leave a partially accumulated epoch in flight.
	l.ObserveContact(7, 5)
	l.ObserveContact(12, 2)

	rec, err := AppendRecord(nil, NewContactLength(2), NewUploadAmount(512), l)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	_, _, back, err := RestoreRecord(rec)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if back.Epochs() != l.Epochs() {
		t.Fatalf("epochs: got %d, want %d", back.Epochs(), l.Epochs())
	}
	// Both must evolve identically from the snapshot point.
	feedEpoch(l, 24, rush, 20, 1)
	feedEpoch(back, 24, rush, 20, 1)
	wantCaps, gotCaps := l.Capacity(), back.Capacity()
	for i := range wantCaps {
		if wantCaps[i] != gotCaps[i] {
			t.Fatalf("slot %d capacity diverged after restore: %v vs %v", i, gotCaps[i], wantCaps[i])
		}
	}
	if got, want := maskSet(back.Mask()), maskSet(l.Mask()); !sameSet(got, want) {
		t.Fatalf("mask diverged after restore: %v vs %v", got, want)
	}
}

// TestRestoreRushHourLearnerRejectsInconsistent covers the learner and
// estimator states RestoreRecord must refuse beyond the header and size
// checks of TestProfileRecordRejects, and the learner AppendRecord
// cannot encode.
func TestRestoreRushHourLearnerRejectsInconsistent(t *testing.T) {
	// Six slots, one lane out of lockstep: the explicit layout, whose
	// seeded bitset has two unused high bits.
	rec := liveRecord(3, 6, 2, 5)
	rec.Learner.Slots[2].Count++
	explicit, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := RestoreRecord(explicit); err != nil {
		t.Fatalf("valid explicit record rejected: %v", err)
	}
	countAt := recordHeaderSize + 2*recordScalarSize + 6*16
	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), explicit...)
		f(b)
		return b
	}
	cases := map[string]struct {
		data []byte
		want string
	}{
		"lane seeded with zero samples": {mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[countAt+4*2:], 0)
		}), "slot 2 seeded with zero samples"},
		"stray seeded bits": {mutate(func(b []byte) { b[len(b)-1] |= 0x80 }), "stray bits"},
		"explicit layout for lockstep lanes": {mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[countAt+4*2:], 5)
		}), "non-canonical"},
		"estimator seeded with zero samples": {mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[recordHeaderSize+16:], 0)
		}), "seeded with zero samples"},
	}
	for name, c := range cases {
		if _, _, _, err := RestoreRecord(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.want)
		}
	}

	wide, err := NewRushHourLearner(MaxRecordSlots+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendRecord(nil, NewContactLength(1), NewUploadAmount(1), wide); err == nil {
		t.Errorf("AppendRecord encoded a %d-slot learner, beyond MaxRecordSlots", MaxRecordSlots+1)
	}
}

func TestContactLengthStateRoundTrip(t *testing.T) {
	c := NewContactLength(2)
	c.Observe(1.5)
	c.Observe(2.5)
	back, err := RestoreContactLength(c.State())
	if err != nil {
		t.Fatal(err)
	}
	if back.Mean() != c.Mean() || back.Samples() != c.Samples() {
		t.Fatalf("restored contact length differs: %v/%d vs %v/%d", back.Mean(), back.Samples(), c.Mean(), c.Samples())
	}
	// Fresh estimator state keeps reporting the prior.
	fresh, err := RestoreContactLength(NewContactLength(3).State())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Mean() != 3 {
		t.Fatalf("restored fresh estimator should report its prior, got %v", fresh.Mean())
	}
}

func TestUploadAmountStateRoundTrip(t *testing.T) {
	u := NewUploadAmount(1000)
	u.Observe(500)
	u.Observe(0)
	back, err := RestoreUploadAmount(u.State())
	if err != nil {
		t.Fatal(err)
	}
	if back.Threshold() != u.Threshold() {
		t.Fatalf("restored upload threshold differs: %v vs %v", back.Threshold(), u.Threshold())
	}
}
