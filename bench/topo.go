package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rushprobe/internal/shardroute"
)

// buildDaemon compiles ./cmd/rushprobed from the repository at root into
// dir, before anything is timed.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "rushprobed")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rushprobed")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build rushprobed: %w", err)
	}
	return bin, nil
}

// daemon is one rushprobed process on a loopback port.
type daemon struct {
	bin     string
	args    []string
	log     string
	addr    string
	snaplog string
	cmd     *exec.Cmd
	done    chan struct{}
}

func (d *daemon) base() string { return "http://" + d.addr }

// freePorts returns n distinct free loopback addresses: all n are held
// open until each has been chosen.
func freePorts(n int) ([]string, error) {
	var addrs []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// start launches the daemon on its address and waits for its first
// healthy /v1/healthz. It returns the time from spawn to that first 200.
func (d *daemon) start(ctx context.Context) (time.Duration, error) {
	logf, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer logf.Close()
	d.cmd = exec.Command(d.bin, append([]string{"-addr", d.addr}, d.args...)...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return 0, err
	}
	d.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // the exit status is the log's business; stop() only needs the exit
		close(done)
	}(d.cmd, d.done)
	if err := waitHealthy(ctx, d.base(), d.done); err != nil {
		d.stop()
		return 0, fmt.Errorf("rushprobed %v: %w (log: %s)", d.args, err, d.log)
	}
	return time.Since(t0), nil
}

// waitHealthy polls /v1/healthz every 2 ms until it answers 200. done
// reports a process that exited instead.
func waitHealthy(ctx context.Context, base string, done <-chan struct{}) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-done:
			return errors.New("exited before becoming healthy")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("not healthy after 60s")
		}
	}
}

// hwmMB reads the process's peak resident set (VmHWM) in MiB.
func (d *daemon) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the CPU time (user + system) the process has used,
// from /proc/<pid>/stat in clock ticks of 1/100 s.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; count from its ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// stop kills the process and waits for it to exit. Persistence is the
// caller's job (POST /v1/snapshot); a kill loses nothing already
// compacted.
func (d *daemon) stop() {
	if d.cmd == nil || d.done == nil {
		return
	}
	_ = d.cmd.Process.Kill() // an already-exited process is fine
	<-d.done
	d.cmd, d.done = nil, nil
}

// topology is the set of daemons a workload runs: one daemon, or two
// shard daemons behind a router.
type topology struct {
	shards []*daemon
	router *daemon
}

// entry is the base URL the load generator talks to.
func (t *topology) entry() string {
	if t.router != nil {
		return t.router.base()
	}
	return t.shards[0].base()
}

func (t *topology) all() []*daemon {
	if t.router == nil {
		return t.shards
	}
	return append(append([]*daemon(nil), t.shards...), t.router)
}

// start launches shards, then the router, and returns the time until
// every one answers healthy.
func (t *topology) start(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	for _, d := range t.all() {
		if _, err := d.start(ctx); err != nil {
			t.stop()
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// owner maps a node ID to the index of the shard that owns it: the ring
// the router builds from the same shard URLs.
func (t *topology) owner() func(node string) int {
	if t.router == nil {
		return func(string) int { return 0 }
	}
	ring := shardroute.NewRing(0)
	index := map[string]int{}
	for i, d := range t.shards {
		// Shard URLs are distinct by construction, so Add cannot fail.
		_ = ring.Add(d.base())
		index[d.base()] = i
	}
	return func(node string) int {
		u, _ := ring.Owner(node)
		return index[u]
	}
}

// hwmMB sums the peak resident sets of the running daemons.
func (t *topology) hwmMB() (float64, error) {
	sum := 0.0
	for _, d := range t.all() {
		mb, err := d.hwmMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// cpuSeconds sums the CPU time the running daemons have used.
func (t *topology) cpuSeconds() (float64, error) {
	sum := 0.0
	for _, d := range t.all() {
		s, err := cpuSeconds(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

func (t *topology) stop() {
	for _, d := range t.all() {
		d.stop()
	}
}

// newTopology lays out the daemons of a workload in dir, each on its
// own free loopback port, without starting them.
func newTopology(bin, dir string, shards int, routed bool, snaplogInterval time.Duration, traceRing int) (*topology, error) {
	n := shards
	if routed {
		n++
	}
	addrs, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	t := &topology{}
	var urls []string
	for i := 0; i < shards; i++ {
		d := &daemon{
			bin:     bin,
			addr:    addrs[i],
			log:     filepath.Join(dir, fmt.Sprintf("shard%d.log", i)),
			snaplog: filepath.Join(dir, fmt.Sprintf("shard%d.snaplog", i)),
		}
		d.args = []string{
			"-snaplog", d.snaplog,
			"-snaplog-interval", snaplogInterval.String(),
			"-trace-ring", strconv.Itoa(traceRing),
			"-slow-request", "0",
			"-log-level", "warn",
		}
		t.shards = append(t.shards, d)
		urls = append(urls, d.base())
	}
	if routed {
		t.router = &daemon{
			bin:  bin,
			addr: addrs[shards],
			log:  filepath.Join(dir, "router.log"),
			args: []string{"-route", strings.Join(urls, ","), "-log-level", "warn"},
		}
	}
	return t, nil
}
