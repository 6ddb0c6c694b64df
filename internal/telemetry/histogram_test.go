package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0},
		{0, 0},
		{1023, 0}, // below first bound
		{1024, 1}, // exactly 2^10 ns -> next bucket
		{2047, 1},
		{time.Millisecond, 10}, // 1e6 ns: 2^19=524288 < 1e6 <= 2^20
		{time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramSnapshotAndQuantiles(t *testing.T) {
	h := NewHistogram("test_seconds", "help")
	// 100 samples at ~1ms, 10 at ~100ms.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	wantSum := 100*0.001 + 10*0.1
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
	p50 := s.Quantile(0.50)
	if p50 <= 0 || p50 > 0.0021 {
		t.Errorf("p50 = %g, want within the ~1ms bucket", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 0.05 || p99 > 0.14 {
		t.Errorf("p99 = %g, want within the ~100ms bucket", p99)
	}
	if q := s.Quantile(1.0); q < p99 {
		t.Errorf("q100 = %g below p99 = %g", q, p99)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g, want 0", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram("test_seconds", "help")
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
}

func TestHistogramPromExpositionRoundTrips(t *testing.T) {
	h := NewHistogram("rushprobe_test_seconds", "A test histogram.")
	h.Observe(3 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(2 * time.Second)

	var buf bytes.Buffer
	if err := h.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE rushprobe_test_seconds histogram",
		`rushprobe_test_seconds_bucket{le="+Inf"} 3`,
		"rushprobe_test_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	f := fams["rushprobe_test_seconds"]
	if f == nil {
		t.Fatal("family not parsed")
	}
	if err := f.ValidateHistogram(); err != nil {
		t.Fatalf("ValidateHistogram: %v", err)
	}
	ph := f.Histogram()
	if ph.Count != 3 {
		t.Fatalf("parsed count = %g, want 3", ph.Count)
	}
	orig := h.Snapshot()
	if got, want := ph.Quantile(0.5), orig.Quantile(0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("parsed p50 = %g, direct p50 = %g", got, want)
	}
	if math.Abs(ph.Sum-orig.Sum) > 1e-9 {
		t.Errorf("parsed sum = %g, direct sum = %g", ph.Sum, orig.Sum)
	}
}

func TestParsedHistogramSub(t *testing.T) {
	h := NewHistogram("rushprobe_test_seconds", "help")
	h.Observe(time.Millisecond)
	before := snapshotViaText(t, h)
	h.Observe(time.Millisecond)
	h.Observe(10 * time.Millisecond)
	after := snapshotViaText(t, h)

	delta := after.Sub(before)
	if delta.Count != 2 {
		t.Fatalf("delta count = %g, want 2", delta.Count)
	}
	wantSum := 0.011
	if math.Abs(delta.Sum-wantSum) > 1e-9 {
		t.Fatalf("delta sum = %g, want %g", delta.Sum, wantSum)
	}
	if p := delta.Quantile(0.99); p < 0.005 || p > 0.02 {
		t.Errorf("delta p99 = %g, want within the ~10ms bucket", p)
	}
}

func snapshotViaText(t *testing.T, h *Histogram) ParsedHistogram {
	t.Helper()
	var buf bytes.Buffer
	if err := h.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := fams[h.Name()]
	if f == nil {
		t.Fatalf("family %s not parsed", h.Name())
	}
	return f.Histogram()
}

func TestHistogramObserveAllocatesNothing(t *testing.T) {
	h := NewHistogram("alloc_seconds", "help")
	d := time.Microsecond
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(d)
		d += 37 * time.Microsecond
	})
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %.0f times, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("bench_seconds", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}
