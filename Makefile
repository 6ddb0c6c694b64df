GO ?= go

.PHONY: all build build-cmds examples test race fmt vet lint bench-smoke bench-baseline bench-fleetsim serve serve-sharded smoke-fleet ops-smoke loadtest soak fuzz fuzz-smoke crash-suite

all: fmt vet lint build test

build:
	$(GO) build ./...

# Link every cmd/* binary into bin/. `go build ./...` compiles the cmd
# packages but does not link main binaries, so CI runs this too.
build-cmds:
	$(GO) build -o bin/ ./cmd/...

# Link every examples/* program into bin/examples/ (each directory's
# README says what it models and how to run it).
examples:
	$(GO) build -o bin/examples/ ./examples/...

test:
	$(GO) test ./...

# -short skips the slow simulation goldens (they are numeric, not
# concurrent, and the plain `make test` already runs them in full).
# The package set is derived (./...), never hand-maintained: a new
# package with tests is race-checked the day it lands, and
# TestRaceTargetIsDerived pins this recipe against regressing to a
# hand-curated list that silently drops packages.
race:
	$(GO) test -race -short ./...

# rushlint is the repo's own static-analysis suite (internal/lint): it
# mechanically enforces the invariants in docs/ARCHITECTURE.md —
# determinism (no wall clock / global rand / map-order dependence),
# bit-exact float persistence, fsync-and-checked-error durability,
# nothing slow under a shard lock, allocation-free hot paths, and no
# internal package that nothing imports.
lint:
	$(GO) run ./cmd/rushlint ./...

# Fuzz the binary persistence formats and the observe wire format: the
# snaplog frame decoder and the packed profile record (arbitrary bytes
# must never panic or over-allocate, and valid encodings must
# round-trip exactly), shard-handoff import (a rejected payload must
# leave the fleet untouched, an accepted one must re-export and import
# identically), the observe-body scanner (it must decode every input
# exactly as encoding/json does), and node-ID path escaping (every ID
# must round-trip). Go runs one fuzz target per invocation, hence one
# line each. Raise the budget for longer local runs:
# make fuzz FUZZTIME=5m
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzSnaplogDecode$$' -fuzztime $(FUZZTIME) ./internal/snaplog/
	$(GO) test -run '^$$' -fuzz 'FuzzProfileRecordRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/learn/
	$(GO) test -run '^$$' -fuzz 'FuzzImportFrames$$' -fuzztime $(FUZZTIME) ./internal/fleet/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeObserve$$' -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz 'FuzzNodePath$$' -fuzztime $(FUZZTIME) ./internal/wire/

# Short fuzz pass for CI.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# Crash-injection and corruption recovery suite: torn tails recovered
# loudly, corrupt logs fatal with the path named, truncation at every
# frame boundary and mid-frame — the binary snapshot log's durability
# contract.
crash-suite:
	$(GO) test -run 'Truncate|Truncation|Torn|Corrupt|Crash|ShortWrite|Recovery|Handoff' -v ./internal/snaplog/ ./internal/fleet/ ./internal/shardroute/ ./cmd/rushprobed/

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Run the fleet daemon on :8080 (see README "Running the daemon").
serve:
	$(GO) run ./cmd/rushprobed -addr :8080

# Run a sharded fleet on :8080 (see README "Running a sharded fleet"):
# two rushprobed shard daemons with binary snapshot logs on loopback
# ports, fronted by a third rushprobed in router mode (-route) serving
# the same API over a consistent-hash ring. Ctrl-C stops all three.
serve-sharded: build-cmds
	@./bin/rushprobed -addr 127.0.0.1:18091 -snaplog bin/shard1.snaplog & s1=$$!; \
	./bin/rushprobed -addr 127.0.0.1:18092 -snaplog bin/shard2.snaplog & s2=$$!; \
	trap 'kill $$s1 $$s2 2>/dev/null' EXIT; \
	./bin/rushprobed -addr :8080 -route 127.0.0.1:18091,127.0.0.1:18092

# End-to-end fleet smoke: build the binaries, generate a contact trace
# with tracegen, start rushprobed against a loopback listener, ingest
# the trace over HTTP, and assert a schedule comes back.
smoke-fleet: build-cmds
	./bin/tracegen -days 4 -seed 7 > bin/smoke-trace.csv
	./bin/rushprobed -smoke -trace bin/smoke-trace.csv -smoke-nodes 8

# Observability smoke: the daemon smoke plus the ops listener — scrape
# /metrics through the strict exposition parser (required families,
# coherent histograms), hit /debug/traces, and check pprof answers on
# the separate -ops-addr port.
ops-smoke: build-cmds
	./bin/tracegen -days 4 -seed 7 > bin/smoke-trace.csv
	./bin/rushprobed -smoke -trace bin/smoke-trace.csv -smoke-nodes 8 -ops-addr 127.0.0.1:0

# Trace-replay load test: start rushprobed on a loopback port, stream
# 10 s of observations at 1000 obs/s with rushbench (nodes split across
# SNIP-OPT and SNIP-RH), and fail if any request fails. The JSON
# summary (throughput, latency percentiles, per-strategy deltas) goes
# to stdout.
loadtest: build-cmds
	@./bin/rushprobed -addr 127.0.0.1:18080 -bootstrap-epochs 1 & pid=$$!; \
	./bin/rushbench -addr http://127.0.0.1:18080 -rate 1000 -duration 10s \
		-nodes 64 -strategies SNIP-OPT,SNIP-RH; \
	status=$$?; kill $$pid 2>/dev/null; exit $$status

# Drift soak: start rushprobed with the CUSUM detector armed and a
# short bootstrap, replay ~10 s of observations with rushbench while
# rotating every node's rush regime halfway through (-drift-inject),
# and fail unless at least one drift event was detected and no request
# hard-failed (rushbench exits non-zero on either).
soak: build-cmds
	@./bin/rushprobed -addr 127.0.0.1:18081 -bootstrap-epochs 1 -drift-detector cusum & pid=$$!; \
	./bin/rushbench -addr http://127.0.0.1:18081 -rate 4000 -duration 10s \
		-batch 100 -nodes 4 -drift-inject; \
	status=$$?; kill $$pid 2>/dev/null; exit $$status

# Closed-loop fleet co-simulation benchmarks: the ext-fleet experiment
# (24 nodes, the golden table) and the 1000-node scale acceptance
# (must stay under 30 s single-core; see BENCH_baseline.json).
bench-fleetsim:
	$(GO) test -run '^$$' -bench 'BenchmarkExtFleet$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkFleetSim1k' -benchtime 1x ./internal/fleetsim/

# Fast perf sanity check: the DES hot path (must stay 0 allocs/op), the
# replication fan-out, the fleet ingest path (must stay
# allocation-free at steady state), and micro-benchmarks at 1s x 5 for
# a stable median: the SNIP-OPT solve on fleet-shaped problems, the
# observe-body decode (one-pass scanner beside encoding/json), and the
# binary snapshot codec's encode and restore (ns/node, allocs/node). The
# pattern is anchored to the Observe benchmarks — a bare
# 'BenchmarkFleet' would also pull in the 1M-node
# BenchmarkFleetIngest1M, which takes minutes per iteration. The
# allocation bounds themselves are AllocsPerRun tests run by `make test`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkDES' -benchtime 10000x ./internal/des/
	$(GO) test -run '^$$' -bench 'BenchmarkReplications' -benchtime 1x ./internal/sim/
	$(GO) test -run '^$$' -bench 'BenchmarkFleetObserve' -benchtime 10000x .
	$(GO) test -run '^$$' -bench 'BenchmarkSolveLearned$$' -benchtime 1s -count 5 ./internal/opt/
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeObserve' -benchtime 1s -count 5 ./internal/wire/
	$(GO) test -run '^$$' -bench 'BenchmarkSnapshot(Encode|Restore)$$' -benchtime 1s -count 5 ./internal/fleet/

# Snapshot the full benchmark suite (figures + micro-benchmarks) into
# BENCH_baseline.json so perf regressions show up as diffs. Tables and
# non-benchmark output pass through on stderr.
bench-baseline:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/... | $(GO) run ./cmd/benchjson > BENCH_baseline.json
