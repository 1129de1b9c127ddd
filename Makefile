# Convenience targets for the Kalis reproduction.

GO ?= go

.PHONY: all build cross test race bench benchdiff bench-smoke vet fmt lint callgraph chaos crash-demo fuzz-short experiments examples telemetry-demo flow-demo fleet-demo clean

all: build test lint

build:
	$(GO) build ./...

# The durable-state log is written through a shared file mapping, with
# per-GOOS glue in internal/persist (mapping_*.go) that a host build
# compiles only one of: build the tree for macOS and Windows as well.
cross:
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...

test:
	$(GO) test ./...

# The whole tree under the race detector, matching CI: first the tests
# that exist to be run under it (the medium shard key; ring ordering and
# drain accounting; a slow module on full rings is never withheld; the
# one-caller tests — gossip and knowledge flips on two busy shards while
# capturing; same alerts, alert for alert, in line, on a ring and on 2
# and 4 shards), verbose, then everything. The
# simulator suites push this well past the default bench budget, hence
# -timeout.
race:
	$(GO) test -race -run 'TestShardKeyByMedium|TestShardedIngest|TestSlowModuleIsNeverWithheld|TestUnshardedStaysSynchronous|TestGossipWhileCapturing|TestShardedKnowledgeFlipsWhileCapturing|TestModuleHasOneCaller|TestActivationChurnUnderTraffic|TestExecutorsRaiseTheSameAlerts' -v . ./internal/ingest/ ./internal/core/ ./internal/core/module/ ./internal/eval/
	$(GO) test -race -timeout 10m ./...

bench:
	$(GO) test -bench=. -benchmem

# Compare the hot-path benchmarks against bench_baseline.json; fails on
# a >25% ns/op regression or on any allocs/op increase. Re-record (and
# restamp the host header) with:
#   go run ./cmd/benchdiff -update -benchtime 0.5s
benchdiff:
	$(GO) run ./cmd/benchdiff -benchtime 0.5s

# The nested kalis/benchmark module (BENCHMARK.json) is not part of
# `./...`: vet and test it against this tree, then run every workload
# at a few per cent of full size — a correctness run, not a measurement.
bench-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .
	bash benchmark/run.sh -workload all -smoke

vet:
	$(GO) vet ./...

# Fault-scenario suite under the race detector: the scripted chaos
# drill (partition + module panic + knowledge burst, see chaos_test.go),
# the crash-recovery drill (dirty crash mid-log-write of a node that has
# reached sync points but no checkpoint, warm vs cold
# time-to-redetection, see crash_drill_test.go), plus the
# fault-injection, supervision, collective-resilience and persistence
# packages, then twenty rounds of the tests that race Tick and the KB's
# records against the persistence writer goroutine: a sync point held
# in its fsync, a power cut while one is in flight, a failing writer
# fsync, records appended while a sync point appends the window.
chaos:
	$(GO) test -race -timeout 5m -run 'TestChaosScenario|TestCrashRecoveryDrill' -v .
	$(GO) test -race -timeout 5m ./internal/fault/ ./internal/core/module/ ./internal/core/collective/ ./internal/persist/
	$(GO) test -race -count=20 -run 'TestSyncPoint|TestPowerCut|TestStickyJournal|TestRecordDuringSyncPoint' ./internal/persist/

# The crash-recovery drill alone, verbose: tears the KB journal
# mid-record, reboots warm (torn state dir) vs cold (fresh dir) against
# the same recorded attack tail, and prints both times-to-redetection.
crash-demo:
	$(GO) test -run TestCrashRecoveryDrill -v .

# Short native-fuzz passes: the collective receive path (truncated /
# corrupted / replayed datagrams must never panic or taint the KB) and
# its wire codec under the seal (whatever decodes must re-encode to the
# same bytes: one encoding per message), the
# durable-state loaders (arbitrary snapshot bytes and log bytes — KB
# records, and the window frames of older logs — must never panic or
# partially apply), the frame decoder (arbitrary captured
# bytes must never panic, must decode as the per-layer reference does,
# and must stay allocation-bounded), the outermost-layer encoders the
# logs write with (whatever decodes must re-encode, append-encode onto
# a prefix without touching it, and decode again to the same layers)
# the forwarding watch (arbitrary
# CTP beacon/data sequences must report exactly what the map-walk
# reference model does), the trace reader (arbitrary bytes must never
# panic or hand out shared raw frames; written records must read back)
# the Data Store window ring (interleaved appends, byte checks and
# reads must match a []trace.Record model byte for byte) and the
# alert-time fingerprint match (any Knowledge Base must name the
# suspects the QueryLocal reference model does, in its order).
fuzz-short:
	$(GO) test -fuzz=FuzzNodeReceive -fuzztime=30s -run '^$$' ./internal/core/collective/
	$(GO) test -fuzz=FuzzDecodeWire -fuzztime=30s -run '^$$' ./internal/core/collective/
	$(GO) test -fuzz=FuzzSnapshotLoad -fuzztime=30s -run '^$$' ./internal/persist/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=30s -run '^$$' ./internal/persist/
	$(GO) test -fuzz=FuzzStackDecode -fuzztime=30s -run '^$$' ./internal/proto/stack/
	$(GO) test -fuzz=FuzzOuterEncode -fuzztime=30s -run '^$$' ./internal/proto/stack/
	$(GO) test -fuzz=FuzzForwardingWatch -fuzztime=30s -run '^$$' ./internal/flow/
	$(GO) test -fuzz=FuzzTraceRead -fuzztime=30s -run '^$$' ./internal/trace/
	$(GO) test -fuzz=FuzzWindowRing -fuzztime=30s -run '^$$' ./internal/core/datastore/
	$(GO) test -fuzz=FuzzFingerprintMatch -fuzztime=30s -run '^$$' ./internal/core/detection/

# Kalis-specific static analysis (see DESIGN.md "Static analysis &
# invariants"): simulated-clock discipline, panic policy, and the
# packet-path formatting/blocking, allocation and taint checks over the
# devirtualized call graph.
lint:
	$(GO) run ./cmd/kalislint ./...

# The devirtualized packet-path call graph, as pinned by the golden
# test (internal/lint/callgraph_test.go).
callgraph:
	$(GO) run ./cmd/kalislint -callgraph HandlePacket

fmt:
	gofmt -l -w .

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/kalis-bench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/smarthome
	$(GO) run ./examples/wsn
	$(GO) run ./examples/collaborative

# Run a node with the runtime-telemetry admin endpoint enabled and
# perform one HTTP scrape of /metrics against it.
telemetry-demo:
	$(GO) run ./examples/telemetry

# Replay a scenario and print the flow records the node exports as
# flows expire — the per-flow feature pipeline end to end.
flow-demo:
	$(GO) run ./examples/flowexport

# Fleet-scale collective: anti-entropy digest gossip on 1k-10k simulated
# nodes, with live kalis_collective_* scrapes, a partition convergence
# curve and the loss/partition fault matrix (EXPERIMENTS.md "Fleet
# scaling").
fleet-demo:
	$(GO) run ./cmd/kalis-bench -exp fleet

clean:
	$(GO) clean ./...
