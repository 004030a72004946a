# Common tasks for the collabvr reproduction.

GO ?= go

.PHONY: all build vet test race lint fmt-check cross bench bench-smoke drift fuzz-smoke ci figures figures-full loadtest-smoke trace-smoke chaos-smoke regret-smoke fleet-smoke coord-smoke health-smoke health-baseline loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Any file gofmt would rewrite fails the build.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l is not clean:"; echo "$$out"; exit 1; \
	fi

# The sender's train path is Linux-only; this keeps the portable one-write-
# per-datagram fallback compiling (stdlib only, works offline).
cross:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/transport/
	GOOS=windows $(GO) build ./internal/... ./cmd/...

# staticcheck when available (CI installs it; locally the target degrades to
# a notice rather than failing on a missing tool).
lint: vet fmt-check
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The engines that split work across goroutines (sim.Run's runs, the
# virtual engine's build-and-solve loop, the server's slot phases) run at
# GOMAXPROCS 1, 2 and 4, so an ordering or sharding bug that only shows
# with two or more workers fails here rather than on whichever
# box happens to have the cores. internal/step, the slot step they all drive
# and the one fork-join they all split it with, runs with them; internal/transport rides along: its allocation gates run a sender
# beside a receiver. So do the live data plane's other allocation gates and
# the tile store's pin hammer (internal/tiles, internal/server,
# internal/client), and the SLO monitor and breaker that the engines'
# workers observe their sessions in (internal/obs).
test:
	$(GO) test $$($(GO) list ./... | grep -v -E '/internal/(sim|load|step|transport|tiles|server|client|obs)$$')
	$(GO) test -cpu 1,2,4 ./internal/sim ./internal/load ./internal/step ./internal/transport \
		./internal/tiles ./internal/server ./internal/client ./internal/obs

# Every repeated line carries -timeout 30m: thirty passes of the load
# differentials take six to nine minutes on two vCPUs, at go test's default
# ten-minute limit.
#
# The virtual engine builds sessions in parallel chunks and hands each
# shard's built rows to whichever goroutine solves it, while the other
# goroutines run the next slots' prologues for sessions whose rows that solve
# is settling; its worker-count differentials (the fleet campaign, the
# one-shard churn run, the deferred set-up, empty-shard and prologue-ahead
# edges) and the bank ring's run-ahead-against-inline differential run ten
# times over under the detector at three GOMAXPROCS, since a
# race only shows on the interleavings a run happens to take. The build loop
# and the solves observe their sessions in the one SLO monitor and breaker,
# through per-session handles while readers scrape; their disjoint-session
# and churn differentials run the same way at three GOMAXPROCS. The fleet
# Controller's tests have no sockets and no sleeps, so twenty passes at three
# GOMAXPROCS cost seconds and their verdict cannot depend on the wall clock. The
# server's decision core (the decider) has the same kind of tests: they
# drive it with no socket and no sleep, so they run the same way. The slot
# step's tests are the same kind (the fork-join every engine splits its loops
# with among them: coverage, zero allocations, panics joined and re-thrown,
# Close), and so are internal/knapsack's (the
# sorted-seed differentials and the scratch-reuse gates; twenty passes, about
# a minute). internal/transport's senders share one socket, as the server's
# sessions do; its tests (the train path's among them) run at three
# GOMAXPROCS. internal/testbed drives the whole
# live rig (load.RunLive: server, clients, slot clock); ten passes catch a
# race or a flaky verdict that one pass would miss. The tile store's pins
# are taken and released from the slot workers, the send loops and the
# prefetcher at once; its hammer runs twenty times at three GOMAXPROCS.
# The record sink behind the recorders and the span exporter takes Put,
# Recent and Close from several goroutines at once; its tests run the same
# way.
race:
	$(GO) test -race ./internal/... ./cmd/...
	$(GO) test -race -timeout 30m -count=10 -cpu 1,2,4 -run '^(TestFleetSimIdenticalAcrossWorkers|TestSimShardedMatchesSerial|TestFleetSimDeferredSetupEdges|TestPrologueAheadMatchesInline)$$' ./internal/load
	$(GO) test -race -timeout 30m -count=10 -cpu 1,2,4 -run '^(TestMonitorConcurrentObserve|TestSLORetireReuse|TestBreakerRetireReuse|TestHandleChurnMatchesKeyed)$$' ./internal/obs
	$(GO) test -race -timeout 30m -count=10 ./internal/testbed
	$(GO) test -race -timeout 30m -count=20 -cpu 1,2,4 -run 'Controller' ./internal/fleet
	$(GO) test -race -timeout 30m -count=20 -cpu 1,2,4 -run '^(TestHandleNack|TestHandleACK|TestRetireSessionIdempotent|TestCapEstimate|TestDelayTable|TestRunSlot|TestAllocatedMapBounded|TestSlotPoolForEachCoversAll|TestEnqueueDropOldestAndShutdown|TestDecider)' ./internal/server
	$(GO) test -race -timeout 30m -count=20 -cpu 1,2,4 ./internal/step
	$(GO) test -race -timeout 30m -count=20 ./internal/knapsack
	$(GO) test -race -cpu 1,2,4 ./internal/transport
	$(GO) test -race -timeout 30m -count=20 -cpu 1,2,4 ./internal/tiles
	$(GO) test -race -timeout 30m -count=20 -cpu 1,2,4 ./internal/jsonl

# What CI runs (see .github/workflows/ci.yml).
ci: build lint cross test race bench-smoke fuzz-smoke loadtest-smoke trace-smoke chaos-smoke regret-smoke fleet-smoke coord-smoke health-smoke

# The repository benchmark (four workloads end to end plus the layer walk;
# protocol, -compare and the baseline are in bench/README.md), then every Go
# benchmark in the tree.
bench:
	$(GO) run ./bench
	$(GO) test -bench=. -benchmem ./...

# One-iteration compile-and-run of the Solve, SeedSort, source-seeding and
# predictor-step benchmarks and of the two virtual-engine working loops,
# sim_dense and fleet_churn rebuilt in internal/load, with their bytes and
# allocations per pass (CI keeps them building and panicking-free without
# paying for a full measurement). The working loops run at GOMAXPROCS 1, where the slot loop
# runs inline in index order, and at 2, where it splits and the next slots'
# prologues run beside a shard's solve, so a one-core runner takes both.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Solve|Seed|PredictorStep' -benchtime 1x ./internal/knapsack ./internal/core ./internal/randsrc ./internal/motion
	$(GO) test -run '^$$' -bench 'SimulateDense|SimulateFleetChurn' -benchtime 1x -benchmem -cpu 1,2 ./internal/load

# Drift report (a few minutes; not part of ci): the two virtual-engine
# working loops at ANCHOR against the working tree, in alternated rounds at
# GOMAXPROCS 1 and 2 — median speed ratio, wins, allocs/op and B/op
# (scripts/drift.sh). The default anchor is ROADMAP item 14's.
ANCHOR ?= a19bd22
drift:
	bash scripts/drift.sh $(ANCHOR)

# Brief native fuzzing, under the race detector, of the greedy
# differential, the seed order, the DP, the coordinator log, the two wire
# decoders, the chaos profile parser and the math/rand-identical source
# (~10 s each) on top of the checked-in seed corpora under testdata/fuzz
# (the profile parser seeds from examples/chaos). CI's Fuzz step runs this
# target.
fuzz-smoke:
	$(GO) test -race -run '^$$' -fuzz '^FuzzGreedy$$' -fuzztime 10s ./internal/knapsack
	$(GO) test -race -run '^$$' -fuzz '^FuzzSeedOrder$$' -fuzztime 10s ./internal/knapsack
	$(GO) test -race -run '^$$' -fuzz '^FuzzDynamicProgram$$' -fuzztime 10s ./internal/knapsack
	$(GO) test -race -run '^$$' -fuzz '^FuzzCoordLog$$' -fuzztime 10s ./internal/fleet/coord
	$(GO) test -race -run '^$$' -fuzz '^FuzzReassembly$$' -fuzztime 10s ./internal/transport
	$(GO) test -race -run '^$$' -fuzz '^FuzzControlFrame$$' -fuzztime 10s ./internal/transport
	$(GO) test -race -run '^$$' -fuzz '^FuzzChaosProfile$$' -fuzztime 10s ./internal/chaos
	$(GO) test -race -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime 10s ./internal/randsrc

# Regenerate every paper figure (scaled down; ~minutes).
figures:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-figures | tee results/results_bench.txt

# Paper-scale parameters (much longer; run on an idle machine).
figures-full:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-figures -full | tee results/results_bench_full.txt

# Load-harness smoke (< 30 s): a live loopback run with ~100 churning
# sessions plus a record/replay determinism check, then a sim-mode capacity
# search on a reduced budget so the search converges inside the bracket.
loadtest-smoke:
	$(GO) run ./cmd/collabvr-loadgen -mode live -arrivals poisson -rate 30 \
		-mean-hold 1 -sessions 100 -slots 180 -slotms 20 -check-replay
	$(GO) run ./cmd/collabvr-loadgen -find-capacity -budget 120 -slots 120 \
		-miss-target 0.05 -cap-lo 1 -cap-hi 64

# Chaos smoke (< 30 s): validate the example fault profiles, run the seeded
# sim campaign under a mid-run blackout and assert the QoE dip/recovery
# summary appears, then a short live loopback run under the same profile
# exercising reconnect, bounded retransmission and graceful drain.
chaos-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -chaos examples/chaos/smoke.json -chaos-check
	$(GO) run ./cmd/collabvr-loadgen -chaos examples/chaos/blackout.json -chaos-check
	$(GO) run ./cmd/collabvr-loadgen -chaos examples/chaos/burst-loss.json -chaos-check
	$(GO) run ./cmd/collabvr-loadgen -arrivals steady -sessions 12 -slots 600 \
		-seed 7 -chaos examples/chaos/smoke.json | tee results/chaos_smoke.txt
	grep -q 'breaker-degraded session-slots' results/chaos_smoke.txt
	grep -q 'chaos recovery' results/chaos_smoke.txt
	$(GO) run ./cmd/collabvr-loadgen -mode live -arrivals steady -sessions 8 \
		-slots 240 -slotms 10 -reconnect -drain-timeout 2s \
		-chaos examples/chaos/smoke.json

# Tracing smoke (< 30 s): a sim-mode loadgen run with span export on,
# asserting the exporter dropped nothing, then collabvr-inspect spans over
# the exported JSONL (it exits nonzero on malformed or empty input).
trace-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -arrivals poisson -rate 20 -mean-hold 1 \
		-sessions 50 -slots 240 -slo -span-out results/smoke_spans.jsonl \
		| tee results/smoke_spans.txt
	grep -q 'dropped 0' results/smoke_spans.txt
	$(GO) run ./cmd/collabvr-inspect spans results/smoke_spans.jsonl

# Regret smoke (< 30 s): record a seeded sim run's decisions with
# counterfactuals and the DP regret reference, then attribute them with
# collabvr-inspect regret.
regret-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -arrivals steady -sessions 6 -slots 240 \
		-budget 60 -seed 7 -decisions-out results/smoke_decisions.jsonl \
		-counterfactual-k 3 -regret-ref | tee results/regret_smoke.txt
	grep -q 'decisions: recorded' results/regret_smoke.txt
	$(GO) run ./cmd/collabvr-inspect regret results/smoke_decisions.jsonl

# Fleet smoke (< 60 s): validate the shard-fault profile, then run the
# seeded 3-shard campaign that kills one shard mid-run and assert the
# resilience contract — every session migrates instead of dropping, the run
# reproduces bit for bit, and tail quality recovers to within 10% of the
# fault-free baseline. A short live loopback fleet run exercises the real
# Welcome-resume migration path end to end.
fleet-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -shards 3 -chaos examples/chaos/fleet.json -chaos-check
	$(GO) run ./cmd/collabvr-loadgen -shards 3 -sessions 9 -slots 1200 -seed 42 \
		-chaos examples/chaos/fleet.json -verify-recovery | tee results/fleet_smoke.txt
	grep -q 'degrades-not-drops: OK' results/fleet_smoke.txt
	grep -q 'determinism: OK' results/fleet_smoke.txt
	grep -q 'recovery: OK' results/fleet_smoke.txt
	$(GO) run ./cmd/collabvr-loadgen -mode live -shards 2 -sessions 4 \
		-slots 240 -slotms 10 -budget 300

# Coordinator smoke (< 60 s): validate the coordinator-fault profile, then
# run the seeded 3-shard / 3-coordinator campaign that kills the lease
# holder mid-migration and assert the replication contract — no session
# drops, the survivors elect and converge, the run reproduces bit for bit,
# and a deposed leader's stale flips are fenced. A short live loopback run
# exercises the same failover on the real slot clock.
coord-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -shards 3 -coordinators 3 -chaos examples/chaos/coordkill.json -chaos-check
	$(GO) run ./cmd/collabvr-loadgen -shards 3 -sessions 9 -slots 1200 -seed 42 \
		-coordinators 3 -chaos examples/chaos/coordkill.json -verify-recovery \
		| tee results/coord_smoke.txt
	grep -q 'degrades-not-drops: OK' results/coord_smoke.txt
	grep -q 'determinism: OK' results/coord_smoke.txt
	grep -q 'coord failover: OK' results/coord_smoke.txt
	$(GO) test -run 'TestFleetCoordLeaderKillMidMigration|TestAdoptSessionEpochFencing' \
		./internal/load ./internal/server

# Health smoke (< 60 s): the seeded 3-shard evacuation campaign exports
# its health time-series twice, and the two files must be bit-identical
# (the baseline rewrite relies on it), then collabvr-inspect health gates the
# export against the checked-in baseline — trend drift past the tolerance on
# any bad-direction series fails the build.
health-smoke:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -shards 3 -sessions 6 -slots 240 \
		-budget 300 -seed 5 -evac -health-out results/health_smoke.jsonl \
		| tee results/health_smoke.txt
	grep -q 'health: exported' results/health_smoke.txt
	$(GO) run ./cmd/collabvr-loadgen -shards 3 -sessions 6 -slots 240 \
		-budget 300 -seed 5 -evac -health-out results/health_smoke_rerun.jsonl >/dev/null
	cmp results/health_smoke.jsonl results/health_smoke_rerun.jsonl
	$(GO) run ./cmd/collabvr-inspect health -baseline results/health_baseline.json \
		results/health_smoke.jsonl

# Regenerate the checked-in health baseline from the same seeded campaign
# (run after a deliberate behavior change, then commit the new baseline).
health-baseline:
	@mkdir -p results
	$(GO) run ./cmd/collabvr-loadgen -shards 3 -sessions 6 -slots 240 \
		-budget 300 -seed 5 -evac -health-out results/health_smoke.jsonl
	$(GO) run ./cmd/collabvr-inspect health -write-baseline results/health_baseline.json \
		results/health_smoke.jsonl

# Non-test Go lines: first the packages ROADMAP item 7 shrinks, so each of
# its PRs reports the same count (internal/step holds the slot step moved
# out of sim, load and server), then the whole tree outside bench/, then
# the observability spine ROADMAP item 9 budgets (internal/obs,
# internal/obs/tsdb and internal/trace), then the number of binaries under
# cmd/, then the exports under internal/ that
# the dead-export gate (exports_test.go) lets stand without an outside
# caller and the config fields it lets stand without an outside writer, one
# per non-comment line of its allowlist (a field's id is pkg.T.Field with T
# named *Config, *Options or *Policy), then the flags the binaries under
# cmd/ register (one per registration call) and the flags the gate lets
# stand without a command line that passes them (allowlist lines that start
# with cmd/).
loc:
	@echo "subset: $$(cat $$(find internal/load internal/fleet internal/sim internal/step internal/knapsack internal/transport internal/core cmd -name '*.go' ! -name '*_test.go') | wc -l)"
	@echo "tree outside bench/: $$(cat $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*') | wc -l)"
	@echo "obs spine: $$(cat $$(find internal/obs internal/trace -name '*.go' ! -name '*_test.go') | wc -l)"
	@echo "binaries: $$(ls -d cmd/*/ | wc -l)"
	@fields=$$(grep -cE '^[^ #]+(Config|Options|Policy)\.[A-Za-z0-9_]+ ' testdata/exports_allowlist.txt); \
		flags=$$(grep -c '^cmd/' testdata/exports_allowlist.txt); \
		echo "allowlisted exports: $$(( $$(grep -cv '^\(#\|$$\)' testdata/exports_allowlist.txt) - fields - flags ))"; \
		echo "allowlisted config fields: $$fields"; \
		echo "registered flags: $$(cat $$(find cmd -name '*.go' ! -name '*_test.go') | grep -oE '\.(Bool|BoolFunc|BoolVar|Duration|DurationVar|Float64|Float64Var|Func|Int|Int64|Int64Var|IntVar|String|StringVar|TextVar|Uint|Uint64|Uint64Var|UintVar|Var)\("' | wc -l)"; \
		echo "allowlisted flags: $$flags"

clean:
	rm -f results/results_bench.txt results/results_bench_full.txt \
		results/smoke_spans.jsonl results/smoke_spans.txt \
		results/chaos_smoke.txt results/regret_smoke.txt \
		results/smoke_decisions.jsonl results/fleet_smoke.txt \
		results/health_smoke.jsonl results/health_smoke_rerun.jsonl results/health_smoke.txt \
		test_output.txt bench_output.txt
