package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestStallInflatesLaterLatencies is the due-time accounting check: one
// stalled reply must show up in the latency of every request that came
// due while it stalled, although those requests were quick themselves.
// A harness that timed from the moment it sent would report them fast.
func TestStallInflatesLaterLatencies(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	cs := newConns()
	defer closeConns(cs)
	var queues [conns][]request
	for k := 0; k < 10; k++ {
		queues[0] = append(queues[0], request{kind: kSchedule, path: "/", due: time.Duration(k) * 20 * time.Millisecond})
	}
	out := openLoop(context.Background(), srv.URL, cs, queues)
	for k, s := range out[0] {
		if !s.ok() {
			t.Fatalf("request %d failed: %v", k, s.err)
		}
		if k == 0 {
			continue
		}
		// Request k was due at k×20 ms and could only be sent once the
		// stalled reply arrived.
		if floor := stall - s.due - 10*time.Millisecond; s.latency() < floor {
			t.Errorf("request %d due at %v: latency %v, want at least %v", k, s.due, s.latency(), floor)
		}
		if s.service() > stall/2 {
			t.Errorf("request %d took %v in service itself; the stall was the first request's", k, s.service())
		}
	}
}

// TestClosedLoopStopsAtDeadline checks the closed loop sends back to
// back on both connections and stops once the phase has lasted d.
func TestClosedLoopStopsAtDeadline(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		_, _ = w.Write([]byte(`{"accepted":1}`))
	}))
	defer srv.Close()
	cs := newConns()
	defer closeConns(cs)
	var supply [conns][]batch
	for c := range supply {
		for i := 0; i < 10_000; i++ {
			supply[c] = append(supply[c], batch{body: []byte(`{}`)})
		}
	}
	out, elapsed := closedLoop(context.Background(), srv.URL, cs, supply, 200*time.Millisecond)
	if elapsed < 200*time.Millisecond || elapsed > time.Second {
		t.Errorf("closed loop ran %v for a 200ms phase", elapsed)
	}
	for c := range out {
		if len(out[c]) < 20 || len(out[c]) >= len(supply[c]) {
			t.Errorf("connection %d sent %d requests", c, len(out[c]))
		}
		for _, s := range out[c] {
			if !s.ok() || s.accepted != 1 {
				t.Fatalf("connection %d: %+v", c, s)
			}
		}
	}
}
