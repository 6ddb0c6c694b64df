package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"sync"

	"rushprobe"
)

// newFleet is an in-process fleet with exactly the options the harness
// starts every daemon with (the rushprobed flag defaults), so that fed
// the same per-node streams it must serve the same schedules byte for
// byte.
func newFleet() (*rushprobe.Fleet, error) {
	return rushprobe.NewFleet(
		rushprobe.Roadside(rushprobe.WithZetaTarget(24), rushprobe.WithBudgetFraction(1.0/1000)),
		rushprobe.WithBootstrapEpochs(3),
		rushprobe.WithShards(16),
		rushprobe.WithFleetMechanism(rushprobe.SNIPOPT),
		rushprobe.WithDriftDetector("cusum"),
	)
}

// reference is the in-process twin of a topology: one fleet per shard
// daemon, each holding the nodes that shard owns. Set-up builds the
// daemons' state in it; the gates compare what the daemons serve with
// what it serves.
type reference struct {
	pop    *population
	fleets []*rushprobe.Fleet
	owner  func(node string) int
	// shard is the owning shard of each population node.
	shard []int
}

// newReference makes one fleet per shard and gives each the SNIP-RH
// overrides of the population nodes it owns.
func newReference(pop *population, shards int, owner func(node string) int) (*reference, error) {
	r := &reference{pop: pop, owner: owner, shard: make([]int, len(pop.nodes))}
	for i := 0; i < shards; i++ {
		f, err := newFleet()
		if err != nil {
			return nil, err
		}
		r.fleets = append(r.fleets, f)
	}
	for i, nd := range pop.nodes {
		r.shard[i] = owner(nd.id)
		if nd.rh {
			if _, err := r.fleets[r.shard[i]].SetStrategy(nd.id, string(rushprobe.SNIPRH)); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// fleet is the fleet that owns node.
func (r *reference) fleet(node string) *rushprobe.Fleet { return r.fleets[r.owner(node)] }

// observe folds reports into their owners' fleets, a chunk at a time,
// and checks that every one was accepted, as the daemons accepted them.
func (r *reference) observe(reports []obs) error {
	const chunk = 4096
	bufs := make([][]rushprobe.Observation, len(r.fleets))
	for lo := 0; lo < len(reports); lo += chunk {
		for i := range bufs {
			bufs[i] = bufs[i][:0]
		}
		for _, o := range reports[lo:min(lo+chunk, len(reports))] {
			s := r.shard[o.node]
			bufs[s] = append(bufs[s], r.pop.observation(o))
		}
		for i, buf := range bufs {
			if got := r.fleets[i].Observe(buf); got != len(buf) {
				return fmt.Errorf("reference fleet accepted %d of %d observations", got, len(buf))
			}
		}
	}
	return nil
}

// canonical re-encodes a schedule, so a per-node reply (which wraps the
// plan with its node ID), a batch reply, and an in-process plan compare
// as bytes.
func canonical(s *rushprobe.Schedule) ([]byte, error) { return json.Marshal(s) }

// getSchedules reads the plans of ids, one GET per node, spread over
// the connections.
func getSchedules(ctx context.Context, base string, cs [conns]*conn, ids []string) ([][]byte, error) {
	out := make([][]byte, len(ids))
	err := onConns(cs, len(ids), func(c *conn, i int) error {
		var s rushprobe.Schedule
		if err := getJSON(ctx, c, base+"/v1/schedule/"+url.PathEscape(ids[i]), &s); err != nil {
			return err
		}
		var err error
		out[i], err = canonical(&s)
		return err
	})
	return out, err
}

// fetchSchedules reads the plans of ids from the daemon twice: one GET
// per node, and POST /v1/schedules in chunks. It fails unless both
// paths return the same bytes, then returns them.
func fetchSchedules(ctx context.Context, base string, cs [conns]*conn, ids []string) ([][]byte, error) {
	out, err := getSchedules(ctx, base, cs, ids)
	if err != nil {
		return nil, err
	}
	const chunk = 256
	for lo := 0; lo < len(ids); lo += chunk {
		hi := min(lo+chunk, len(ids))
		body, err := json.Marshal(map[string][]string{"nodes": ids[lo:hi]})
		if err != nil {
			return nil, err
		}
		var reply struct {
			Schedules []*rushprobe.Schedule `json:"schedules"`
		}
		if err := postJSON(ctx, cs[0], base+"/v1/schedules", body, &reply); err != nil {
			return nil, err
		}
		if len(reply.Schedules) != hi-lo {
			return nil, fmt.Errorf("POST /v1/schedules returned %d plans for %d nodes", len(reply.Schedules), hi-lo)
		}
		for k, s := range reply.Schedules {
			b, err := canonical(s)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(b, out[lo+k]) {
				return nil, fmt.Errorf("node %s: POST /v1/schedules serves %s, GET serves %s", ids[lo+k], b, out[lo+k])
			}
		}
	}
	return out, nil
}

// referenceSchedules computes the reference fleet's plans for ids on
// two goroutines.
func referenceSchedules(ref *reference, ids []string) ([][]byte, error) {
	out := make([][]byte, len(ids))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ids); i += conns {
				s, err := ref.fleet(ids[i]).Schedule(ids[i])
				if err == nil {
					out[i], err = canonical(s)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkServed reads ids back by GET and by POST /v1/schedules and
// compares both with the reference fleet, whose plans are computed
// meanwhile.
func checkServed(ctx context.Context, base string, cs [conns]*conn, ref *reference, ids []string) error {
	type refResult struct {
		plans [][]byte
		err   error
	}
	refc := make(chan refResult, 1)
	go func() {
		plans, err := referenceSchedules(ref, ids)
		refc <- refResult{plans, err}
	}()
	served, err := fetchSchedules(ctx, base, cs, ids)
	want := <-refc
	if err != nil {
		return err
	}
	if want.err != nil {
		return want.err
	}
	for i, id := range ids {
		if !bytes.Equal(want.plans[i], served[i]) {
			return fmt.Errorf("node %s: daemon serves %s, in-process fleet serves %s", id, served[i], want.plans[i])
		}
	}
	return nil
}

func getJSON(ctx context.Context, c *conn, u string, v any) error {
	r := request{path: u}
	return c.roundTrip(ctx, &r, v)
}

// postJSON posts body (empty when nil) to the full URL u.
func postJSON(ctx context.Context, c *conn, u string, body []byte, v any) error {
	if body == nil {
		body = []byte{}
	}
	r := request{path: u, body: body}
	return c.roundTrip(ctx, &r, v)
}

// roundTrip is an untimed call to a full URL: the reply must be 200 and
// decode into v (when v is non-nil).
func (c *conn) roundTrip(ctx context.Context, r *request, v any) error {
	var s sample
	body := c.doRaw(ctx, "", r, &s)
	if s.err != nil {
		return s.err
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}
