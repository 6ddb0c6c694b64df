package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"rushprobe/internal/rng"
)

// inputs generates everything a run of the serve workload sends, as
// bytes.
func inputs(t *testing.T, seed uint64) []byte {
	t.Helper()
	sp, err := lookupSpec("serve")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := newPopulation(seed, 64)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := json.Marshal(pop.observations(pop.history(sp.history), nil))
	if err != nil {
		t.Fatal(err)
	}
	picker := &readPicker{src: rng.Derive(seed, "bench-reads"), n: 64}
	queues, _, err := planOpenLoop(sp, time.Second, pop.streamers(sp.perNode), picker)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(hist)
	for c := 0; c < conns; c++ {
		for _, r := range queues[c] {
			buf.WriteString(r.path)
			buf.Write(r.body)
		}
	}
	for i := 0; i < 4; i++ {
		b, err := json.Marshal(fillerObservations(seed, i, nil))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(t, 7), inputs(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("two generations from seed 7 differ")
	}
	if bytes.Equal(a, inputs(t, 8)) {
		t.Fatal("seeds 7 and 8 generate identical inputs")
	}
}

// TestPerNodeOrder checks that a node's reports reach the daemon in
// time order: its set-up history is in order, within each load phase
// (open loop, closed loop) all of a node's batches travel on one
// connection, in the order the connection sends them, and the phases
// run one after another.
func TestPerNodeOrder(t *testing.T) {
	sp, err := lookupSpec("ingest")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := newPopulation(3, 96)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]float64{}
	for _, o := range pop.observations(pop.history(2), nil) {
		if o.Time < last[o.Node] {
			t.Fatalf("history of node %s: report at %g after one at %g", o.Node, o.Time, last[o.Node])
		}
		last[o.Node] = o.Time
	}
	streams := pop.streamers(sp.perNode)
	picker := &readPicker{src: rng.Derive(3, "bench-reads"), n: 96, cold: true}
	queues, _, err := planOpenLoop(sp, 2*time.Second, streams, picker)
	if err != nil {
		t.Fatal(err)
	}
	// Every phase as the bodies each connection sends, in order.
	var open, closed [conns][][]byte
	for c := range queues {
		for _, r := range queues[c] {
			if r.kind == kObserve {
				open[c] = append(open[c], r.body)
			}
		}
		more, err := streams[c].take(20)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range more {
			closed[c] = append(closed[c], b.body)
		}
	}
	for _, phase := range [][conns][][]byte{open, closed} {
		connOf := map[string]int{}
		for c := range phase {
			for _, body := range phase[c] {
				var b observeBody
				if err := json.Unmarshal(body, &b); err != nil {
					t.Fatal(err)
				}
				for _, o := range b.Observations {
					if prev, ok := connOf[o.Node]; ok && prev != c {
						t.Fatalf("node %s reports on connections %d and %d in one phase", o.Node, prev, c)
					}
					connOf[o.Node] = c
					if o.Time < last[o.Node] {
						t.Fatalf("node %s: report at %g after one at %g", o.Node, o.Time, last[o.Node])
					}
					last[o.Node] = o.Time
				}
			}
		}
	}
	if len(last) != 96 {
		t.Fatalf("%d of 96 nodes reported", len(last))
	}
}
