GO ?= go

.PHONY: check fmt-check build vet test race check-race loc bench-quick bench-json bench-wall bench-pairs bench-ratchet profile-hotpath shard-oracle trace-oracle arbiter-oracle market-oracle cluster-oracle openloop-oracle fuzz-short

# The full gate: what CI (and the chaos PR's acceptance criteria) require.
# test runs every test in the tree exactly once, uncached. That includes
# the determinism oracles — none is short-mode- or env-gated — so check does
# not run them a second time by name; what each proves is written at its
# named target below, kept as an on-demand entry point. fuzz-short gives the
# model checkers a short adversarial pass, and bench-ratchet re-measures every
# directional metric row of the committed BENCH_*.json artifacts and fails on
# a >10% regression.
check: fmt-check vet build test check-race fuzz-short bench-ratchet

# Every .go file is gofmt-clean (gofmt -l prints the offenders).
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -count=1 defeats the test cache: the gate runs what it says it ran.
test:
	$(GO) test -count=1 ./...

# The whole tree under the race detector, on demand.
race:
	$(GO) test -race ./...

# The race gate. The simulation is one goroutine
# (TestSimulationStartsNoGoroutines pins it, TestProductCodeHasNoConcurrency
# pins that no product file could start another), so only packages that start
# a goroutine or import sync or sync/atomic in some .go file, tests included,
# have anything the detector could report; the list is worked out from the
# source, not kept by hand — a go statement, or an import line (the word
# "sync" in any other string does not count). -count=1 defeats the test cache.
CAN_RACE = (^|[{;])[[:space:]]*go[[:space:]]+[[:alnum:]_.]+[(]|^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"sync(/atomic)?"([[:space:]]|$$)
RACE_PKGS = $(shell grep -rlE --include='*.go' --exclude-dir='.[!.]*' '$(CAN_RACE)' . | xargs -r -n1 dirname | sort -u)

check-race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# ROADMAP aim 2's tracked numbers: Go lines of product code (non-test files
# outside benchmark/ and outside the *test harness packages only tests
# import), of non-test code inside benchmark/, of tests, and of those harness
# packages.
NONTEST_GO = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*/*'
loc:
	@printf 'product Go (non-test, outside benchmark/ and *test/): %s\n' "$$($(NONTEST_GO) ! -path '*test/*' | xargs cat | wc -l)"
	@printf 'non-test Go inside benchmark/:                        %s\n' "$$(find ./benchmark -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'test Go (*_test.go):                                  %s\n' "$$(find . -name '*_test.go' ! -path './.*/*' | xargs cat | wc -l)"
	@printf 'test-harness packages (non-test Go in *test/):        %s\n' "$$($(NONTEST_GO) -path '*test/*' | xargs cat | wc -l)"

bench-quick:
	$(GO) run ./cmd/fluidmem-bench -quick

# Regenerate the machine-readable BENCH_*.json artifacts at full scale. The
# "artifacts" meta-name expands inside fluidmem-bench to every experiment the
# registry marks as carrying a committed baseline (see `fluidmem-bench -list`:
# currently cluster, writeback, trace, arbiter, market, openloop, wall) —
# enrolling a new artifact experiment is one registry flag, with no Makefile
# edit to forget. fluidmem-bench fails loudly if any selected experiment
# stops producing its artifact, and each result's Validate() vetoes vacuous
# artifacts (a market run with zero SLO-enforcement epochs, an open-loop
# sweep that never brackets its knee).
bench-json:
	$(GO) run ./cmd/fluidmem-bench -run artifacts -json

# The wall-clock ledger alone: the per-layer testing.B rows (normal draw and
# latency sample, uffd access and install/remap, LRU, profiler, zero scan,
# write list, steady-state fault, scheduler, arrival generation, RAMCloud
# overwrite, MultiPut of 32 pages), run through `go test`
# at a fixed iteration count, written to BENCH_wall.json with ns/op, B/op,
# allocs/op and the run's calibration spin.
bench-wall:
	$(GO) run ./cmd/fluidmem-bench -run wall -json

# Whether the working tree is faster than a parent commit on one workload of
# the repository benchmark: alternated parent/change pairs at seeds 301..,
# every run printed, then per end-to-end metric both medians with quartiles,
# wins/pairs, the ratio with its base and the choosing-metrics §8 verdict.
#   make bench-pairs PARENT=<ref> WORKLOAD=<name> [PAIRS=10] [SECONDS=20]
PAIRS ?= 10
SECONDS ?= 20
bench-pairs:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs PARENT=<ref> WORKLOAD=<name> [PAIRS=10] [SECONDS=20]"; exit 2; }
	bash scripts/bench-pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(SECONDS)"

# Where the host time of the steady-state fault loop goes: one million
# miss+evict+write-back faults under the CPU profiler, top 25 frames.
profile-hotpath:
	mkdir -p .profile
	$(GO) run ./cmd/hotpath-probe -faults 1000000 -cpuprofile .profile/hotpath.prof
	$(GO) tool pprof -top -nodecount=25 .profile/hotpath.prof

# The metric ratchet: re-run the artifact experiments and compare every
# directional metric row — throughputs and goodputs must not drop, latency
# and miss-rate rows must not rise — against the committed BENCH_*.json
# baselines; a >10% move in the bad direction fails the build. The compared
# rows are virtual-time measurements, so on unchanged simulation logic the
# comparison is exact; machine-dependent rows (wall clocks, allocation
# rates) are excluded by key. BENCH_wall.json's ns/op rows are excluded the
# same way; its allocs/op and B/op rows are counts at a fixed iteration count
# and must match exactly.
bench-ratchet:
	$(GO) run ./cmd/fluidmem-bench -run artifacts -ratchet

# The oracles, by name. A monitor's width is a set of virtual-time horizons
# and nothing else; these keep proving it. `make check` runs all of them
# through test; each target re-runs one on demand.
#
# The write-back determinism oracle: on the write-heavy / zero-heavy workloads
# a monitor of any width must be logically identical to width 1 — the width
# moves virtual time and nothing else.
shard-oracle:
	$(GO) test ./internal/core/shardtest/ -count=1 -run 'TestWorkerCountEquivalence/.*writeback.*'

# The trace determinism oracle: same seed must serialise byte-identical
# Chrome traces, and every workload must feed the logical-digest comparison
# that TestWorkerCountEquivalence applies across worker counts.
trace-oracle:
	$(GO) test ./internal/core/shardtest/ -count=1 -run 'TestTrace'

# The arbiter determinism oracle: ghost-LRU digests, working-set estimates,
# and synthetic arbiter plans must be identical across widths (shardtest
# outcomes carry them, market plans included), and host-level arbiter
# decisions must be invariant across VM interleavings and widths.
arbiter-oracle:
	$(GO) test ./internal/core/shardtest/ -count=1 -run 'TestHotsetOracle|TestWorkerCountEquivalence'
	$(GO) test . -count=1 -run 'TestHostWorkerCountInvariance|TestHostInterleavingInvariance|TestHostTracedBitIdentical'

# The market determinism oracle: host-level market decisions — including the
# SLO window evaluations feeding them — must be invariant across VM
# interleavings and widths, the SLO evaluation itself must be
# partition-invariant, and different seeds must move the synthetic two-epoch
# marketplace plans (grant, then SLO claw-back) that arbiter-oracle's
# TestWorkerCountEquivalence has just shown identical across widths (shardtest
# outcomes carry MarketPlanDigest).
market-oracle:
	$(GO) test ./internal/core/shardtest/ -count=1 -run 'TestSeedsDiverge'
	$(GO) test . -count=1 -run 'TestHostMarketWorkerCountInvariance|TestHostMarketInterleavingInvariance'
	$(GO) test ./internal/market/ -count=1 -run 'TestEvaluateSLO'

# The cluster no-page-lost oracle: randomized {add, drain, crash, recover,
# partition, heal} schedules over ≥3 seeds × {3,5 nodes} × {2,3 replicas},
# each run twice, must show no page lost, mis-routed, or served stale against
# the flat model, with bitwise same-seed repeatability.
cluster-oracle:
	$(GO) test ./internal/kvstore/cluster/... -count=1 -run 'TestOracle'

# The open-loop traffic determinism oracle: same-seed scenario replays must
# be bitwise repeatable and the full report — offered load, goodput, sojourn
# histograms, queue depths, planner epochs, logical trace digests — invariant
# across fault-pipeline widths {1,2,4,8}, for every scenario × planner
# cell; the arrival schedules themselves must be split/merge-invariant, and
# equal to the reference-bisection schedules timestamp for timestamp
# (TestInvCum*: guess-and-verify inversion moves no arrival).
openloop-oracle:
	$(GO) test ./internal/loadgen/scenariotest/ -count=1
	$(GO) test ./internal/loadgen/ -count=1 -run 'TestSchedule|TestArrivals|TestRun|TestInvCum'

# Short fuzz passes over the flat-model checkers: the coalescing write-back
# engine, the monitor's readahead (capacity, window and op stream against a
# flat page map), the ghost-LRU working-set estimator, the cluster pool's
# rendezvous key-routing invariants, the replica-set core (replicated.Store
# and the cluster pool in lockstep with test-side copies of the code they
# replaced), and the open-loop arrival schedules' monotonicity, split/merge
# invariance and equality with the reference-bisection schedule.
fuzz-short:
	$(GO) test ./internal/core/ -run FuzzWriteCoalesce -fuzz FuzzWriteCoalesce -fuzztime=5s
	$(GO) test ./internal/core/ -run FuzzReadahead -fuzz FuzzReadahead -fuzztime=5s
	$(GO) test ./internal/hotset/ -run FuzzGhostLRU -fuzz FuzzGhostLRU -fuzztime=5s
	$(GO) test ./internal/kvstore/cluster/ -run FuzzRouting -fuzz FuzzRouting -fuzztime=5s
	$(GO) test ./internal/kvstore/cluster/ -run FuzzReplicaSet -fuzz FuzzReplicaSet -fuzztime=5s
	$(GO) test ./internal/loadgen/ -run FuzzArrivalSchedule -fuzz FuzzArrivalSchedule -fuzztime=5s
