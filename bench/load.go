package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// kind is a request stream.
type kind int

const (
	kObserve kind = iota
	kSchedule
	kSchedules
	kinds
)

var kindNames = [kinds]string{"observe", "schedule", "schedules"}

// request is one planned call: when it is due (offset from the phase
// start), and what to send.
type request struct {
	kind kind
	due  time.Duration
	path string
	body []byte
}

// sample is what happened to one request. Offsets are from the phase
// start; latency is done-due, so a request that waited behind a stall
// is charged for the wait.
type sample struct {
	kind     kind
	due      time.Duration
	sent     time.Duration
	done     time.Duration
	status   int
	accepted int
	reqID    string
	err      error
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// latency is the open-loop latency: from due to done.
func (s *sample) latency() time.Duration { return s.done - s.due }

// service is the time the request spent on the wire and in the server.
func (s *sample) service() time.Duration { return s.done - s.sent }

// conn is one client connection: a transport that holds exactly one
// TCP connection, so the harness never has more than conns in flight.
type conn struct {
	tr     *http.Transport
	client *http.Client
}

func newConn() *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{tr: tr, client: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func newConns() [conns]*conn {
	var cs [conns]*conn
	for i := range cs {
		cs[i] = newConn()
	}
	return cs
}

func closeConns(cs [conns]*conn) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// do sends one request and reads the whole reply; an observe reply's
// accepted count is decoded.
func (c *conn) do(ctx context.Context, base string, r *request, s *sample) {
	data := c.doRaw(ctx, base, r, s)
	if s.err != nil || r.kind != kObserve {
		return
	}
	var or struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(data, &or); err != nil {
		s.err = fmt.Errorf("observe reply: %w", err)
		return
	}
	s.accepted = or.Accepted
}

// doRaw sends r (a POST when it has a body) and returns the reply body.
// Any transport error or non-200 status lands in s.err.
func (c *conn) doRaw(ctx context.Context, base string, r *request, s *sample) []byte {
	method := http.MethodGet
	var body io.Reader
	if r.body != nil {
		method = http.MethodPost
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+r.path, body)
	if err != nil {
		s.err = err
		return nil
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		s.err = err
		return nil
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	s.reqID = resp.Header.Get("X-Request-ID")
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		s.err = err
		return nil
	}
	if s.status != http.StatusOK {
		s.err = fmt.Errorf("%s %s: HTTP %d: %.200s", method, r.path, s.status, data)
	}
	return data
}

// openLoop sends every request at its due time, whatever happened to
// the ones before it: each connection works through its own queue in due
// order, so a slow reply delays the requests queued behind it and their
// latency, measured from due, shows it. Nothing is retried.
func openLoop(ctx context.Context, base string, cs [conns]*conn, queues [conns][]request) [conns][]sample {
	var out [conns][]sample
	start := time.Now()
	var wg sync.WaitGroup
	for c := range cs {
		out[c] = make([]sample, len(queues[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queues[c] {
				r := &queues[c][i]
				s := &out[c][i]
				s.kind, s.due = r.kind, r.due
				if d := r.due - time.Since(start); d > 0 {
					sleepPrecise(d)
				}
				s.sent = time.Since(start)
				if ctx.Err() != nil {
					s.err = ctx.Err()
				} else {
					cs[c].do(ctx, base, r, s)
				}
				s.done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop keeps one observe request in flight per connection until
// the phase lasts d or a connection runs out of batches. It returns the
// samples and how many batches each connection sent.
func closedLoop(ctx context.Context, base string, cs [conns]*conn, supply [conns][]batch, d time.Duration) ([conns][]sample, time.Duration) {
	var out [conns][]sample
	start := time.Now()
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range supply[c] {
				now := time.Since(start)
				if now >= d || ctx.Err() != nil {
					return
				}
				r := request{kind: kObserve, path: "/v1/observe", body: supply[c][i].body}
				s := sample{kind: kObserve, due: now, sent: now}
				cs[c].do(ctx, base, &r, &s)
				s.done = time.Since(start)
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// onConns calls f(c, i) for i in [0, n), item i on connection i%conns,
// both connections at once, and returns the first error.
func onConns(cs [conns]*conn, n int, f func(c *conn, i int) error) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += conns {
				if err := f(cs[c], i); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pauseGC switches the harness's own garbage collector off for a
// measured phase — its pauses and assists would read as server latency
// — with a memory limit one GiB above the live heap as the backstop. It
// returns the function that restores the previous settings.
func pauseGC() func() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	percent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(int64(ms.HeapAlloc) + 1<<30)
	return func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
	}
}
