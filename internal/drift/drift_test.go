package drift

import (
	"errors"
	"math"
	"testing"

	"rushprobe/internal/rng"
)

// noisy returns n samples of mean + stddev*N(0,1) from a fixed stream.
func noisy(r *rng.Stream, mean, stddev float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + stddev*r.NormFloat64()
	}
	return out
}

// firstFire feeds the samples and returns the index of the first alarm,
// or -1.
func firstFire(d Detector, samples []float64) int {
	for i, x := range samples {
		if d.Observe(x) {
			return i
		}
	}
	return -1
}

func newDetector(t *testing.T, kind string) Detector {
	t.Helper()
	d, err := New(kind, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRejectsUnknownKindAndBadConfig(t *testing.T) {
	if _, err := New("bogus", Config{}); err == nil {
		t.Fatal("expected an error for an unknown detector kind")
	}
	if _, err := New(KindCUSUM, Config{Warmup: 1}); err == nil {
		t.Fatal("expected an error for warmup < 2")
	}
	if _, err := New(KindCUSUM, Config{Threshold: -1}); err == nil {
		t.Fatal("expected an error for a negative threshold")
	}
	if _, err := New(KindCUSUM, Config{Slack: math.Inf(1)}); err == nil {
		t.Fatal("expected an error for an infinite slack")
	}
	if _, err := New(KindCUSUM, Config{MinRelSigma: -0.1}); err == nil {
		t.Fatal("expected an error for a negative sigma floor")
	}
}

func TestAliasesAndKinds(t *testing.T) {
	d, err := New("ph", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != KindPageHinkley {
		t.Fatalf("alias ph resolved to %q", d.Kind())
	}
	ks := Kinds()
	if len(ks) != 2 || ks[0] != KindCUSUM || ks[1] != KindPageHinkley {
		t.Fatalf("unexpected kinds %v", ks)
	}
}

// A >=3 sigma mean step must be caught within DefaultPatience samples
// of the change — the package's documented detection budget.
func TestStepDetectionLatencyWithinPatience(t *testing.T) {
	for _, kind := range Kinds() {
		r := rng.Derive(7, "drift-step-"+kind)
		stream := append(noisy(r, 50, 5, 30), noisy(r, 20, 5, 20)...)
		at := firstFire(newDetector(t, kind), stream)
		if at < 30 {
			t.Fatalf("%s: fired at %d, before the step at 30", kind, at)
		}
		if lat := at - 30 + 1; lat > DefaultPatience {
			t.Fatalf("%s: detection latency %d epochs exceeds patience %d", kind, lat, DefaultPatience)
		}
	}
}

// A steep ramp (2 sigma per sample) must also be caught within the
// patience budget.
func TestRampDetectionLatencyWithinPatience(t *testing.T) {
	for _, kind := range Kinds() {
		r := rng.Derive(11, "drift-ramp-"+kind)
		stream := noisy(r, 100, 4, 30)
		for i := 0; i < 20; i++ {
			stream = append(stream, 100-2*4*float64(i+1)+4*r.NormFloat64())
		}
		at := firstFire(newDetector(t, kind), stream)
		if at < 30 {
			t.Fatalf("%s: fired at %d, before the ramp began at 30", kind, at)
		}
		if lat := at - 30 + 1; lat > DefaultPatience {
			t.Fatalf("%s: ramp detection latency %d exceeds patience %d", kind, lat, DefaultPatience)
		}
	}
}

// Stationary noise must never alarm at the default thresholds.
func TestStationaryNoiseNoFalsePositives(t *testing.T) {
	for _, kind := range Kinds() {
		for seed := uint64(1); seed <= 5; seed++ {
			r := rng.DeriveN(seed, "drift-stationary-"+kind, 0)
			if at := firstFire(newDetector(t, kind), noisy(r, 10, 2, 500)); at >= 0 {
				t.Fatalf("%s (seed %d): false positive at sample %d on stationary noise", kind, seed, at)
			}
		}
	}
}

// A constant stream has zero variance; the sigma floor must keep it
// silent, and a small absolute step must still register against it.
func TestConstantStreamFloorAndStep(t *testing.T) {
	for _, kind := range Kinds() {
		d := newDetector(t, kind)
		for i := 0; i < 50; i++ {
			if d.Observe(5) {
				t.Fatalf("%s: fired on a constant stream", kind)
			}
		}
		fired := false
		for i := 0; i < DefaultPatience; i++ {
			if d.Observe(6) {
				fired = true
				break
			}
		}
		if !fired {
			t.Fatalf("%s: missed a 20%% step on a constant stream", kind)
		}
	}
}

// Firing resets the detector: it re-warms on the new regime and can
// catch a second, later shift.
func TestRefiresAfterSecondShift(t *testing.T) {
	for _, kind := range Kinds() {
		r := rng.Derive(3, "drift-refire-"+kind)
		d := newDetector(t, kind)
		first := firstFire(d, append(noisy(r, 40, 3, 25), noisy(r, 10, 3, 15)...))
		if first < 0 {
			t.Fatalf("%s: missed the first shift", kind)
		}
		// Settle on the new regime, then shift again.
		if at := firstFire(d, noisy(r, 10, 3, 25)); at >= 0 {
			t.Fatalf("%s: false positive at %d while settling post-reset", kind, at)
		}
		if at := firstFire(d, noisy(r, 30, 3, 15)); at < 0 {
			t.Fatalf("%s: missed the second shift", kind)
		}
	}
}

// Non-finite samples are ignored without perturbing state.
func TestNonFiniteSamplesIgnored(t *testing.T) {
	for _, kind := range Kinds() {
		d := newDetector(t, kind)
		for i := 0; i < 10; i++ {
			d.Observe(7)
		}
		before := d.Registers()
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if d.Observe(x) {
				t.Fatalf("%s: fired on a non-finite sample", kind)
			}
		}
		if after := d.Registers(); after != before {
			t.Fatalf("%s: non-finite sample changed state: %+v -> %+v", kind, before, after)
		}
	}
}

// Snapshot/restore mid-stream must not change when the detector fires:
// a restored detector is indistinguishable from an uninterrupted one.
func TestRestoreRoundtripPreservesFiringSample(t *testing.T) {
	for _, kind := range Kinds() {
		r := rng.Derive(17, "drift-restore-"+kind)
		stream := append(noisy(r, 60, 6, 24), noisy(r, 25, 6, 20)...)

		cont := newDetector(t, kind)
		want := firstFire(cont, stream)
		if want < 0 {
			t.Fatalf("%s: reference detector never fired", kind)
		}

		half := newDetector(t, kind)
		for _, x := range stream[:18] {
			half.Observe(x)
		}
		regs := half.Registers()
		var back Registers
		if _, err := DecodeRegisters(regs.AppendBinary(nil), &back); err != nil {
			t.Fatal(err)
		}
		restored := newDetector(t, kind)
		if err := restored.RestoreRegisters(&back); err != nil {
			t.Fatal(err)
		}
		got := firstFire(restored, stream[18:])
		if got+18 != want {
			t.Fatalf("%s: restored detector fired at %d, uninterrupted at %d", kind, got+18, want)
		}
	}
}

func TestRestoreRejectsMismatchedKindAndBadState(t *testing.T) {
	c := newDetector(t, KindCUSUM)
	if err := c.RestoreRegisters(&Registers{Kind: KindPageHinkley}); err == nil {
		t.Fatal("expected a kind-mismatch error")
	}
	negN := Registers{Kind: KindCUSUM}
	negN.V[cusumN] = -3
	if err := c.RestoreRegisters(&negN); err == nil {
		t.Fatal("expected an error for a negative sample count")
	}
	negVar := Registers{Kind: KindCUSUM}
	negVar.V[cusumN], negVar.V[cusumVar] = 2, -1
	if err := c.RestoreRegisters(&negVar); err == nil {
		t.Fatal("expected an error for a negative variance")
	}
	p := newDetector(t, KindPageHinkley)
	if err := p.RestoreRegisters(&Registers{Kind: KindCUSUM}); err == nil {
		t.Fatal("expected a kind-mismatch error")
	}
}

// The binary register block round-trips every kind bit for bit, and
// decoding a known kind allocates nothing.
func TestRegistersBinaryRoundTrip(t *testing.T) {
	for _, kind := range Kinds() {
		d := newDetector(t, kind)
		for _, x := range noisy(rng.Derive(3, "regs-"+kind), 40, 6, 24) {
			d.Observe(x)
		}
		want := d.Registers()
		block := want.AppendBinary(nil)
		var got Registers
		n, err := DecodeRegisters(append(block, 0xff), &got)
		if err != nil || n != len(block) {
			t.Fatalf("%s: decoded %d of %d bytes: %v", kind, n, len(block), err)
		}
		if got != want {
			t.Fatalf("%s: round trip changed the registers:\n got %+v\nwant %+v", kind, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { DecodeRegisters(block, &got) }); allocs != 0 {
			t.Fatalf("%s: decoding allocates %.0f times", kind, allocs)
		}
		for cut := 0; cut < len(block); cut++ {
			var short *ShortError
			if _, err := DecodeRegisters(block[:cut], &got); !errors.As(err, &short) {
				t.Fatalf("%s: block cut at %d: err = %v, want a ShortError", kind, cut, err)
			}
		}
	}
}
