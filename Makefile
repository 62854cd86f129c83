# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check ci-quick ci-full build test vet race fuzz-smoke fuzz-radio chaos adversary modelcheck modelcheck-smoke modelcheck-seed golden resume-smoke bench bench-sweep bench-smoke bench-chaos bench-adversary bench-modelcheck bench-gate bench-all profile examples experiments clean

all: check

check: build vet test race fuzz-smoke adversary modelcheck-smoke bench-smoke resume-smoke

# Tiered CI entry points (.github/workflows/ci.yml): ci-quick gates every
# push, ci-full gates pull requests, and the scheduled nightly job runs
# `make chaos modelcheck fuzz-radio resume-smoke` directly.
ci-quick: build vet test

ci-full: race fuzz-smoke adversary modelcheck-smoke bench-smoke resume-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The sweep engine and its callers are the only concurrent code; -race on
# the whole module keeps them honest. The generous -timeout is for
# single-core boxes, where the race detector's slowdown is at its worst.
race:
	$(GO) test -race -timeout 60m ./internal/sweep/ ./internal/experiments/ ./internal/scenario/

# Bounded conformance fuzz: replay the committed regression seeds and a
# small randomized sweep (all protocols × fault profiles) under the race
# detector, then the same sweep again via the ldrfuzz binary, which must
# exit 0. Matches TestFuzzSmoke's bounds so failures reproduce in-test.
fuzz-smoke:
	$(GO) test -race -timeout 30m ./internal/conformance/ -run 'TestRegressionSeeds|TestFuzzSmoke'
	$(GO) run ./cmd/ldrfuzz -runs 8 -seed 42 -max-nodes 20 -max-simtime 12s -q

# Heterogeneous-radio fuzz axis (nightly): randomized scenarios drawn
# only from the profiles that produce one-way links and uneven placement,
# so the MAC ACK-exhaustion and hello-gating paths stay under continuous
# conservation/census audit.
fuzz-radio:
	$(GO) test -race -timeout 30m ./internal/conformance/ -run 'TestHeteroRadioChaosClean|TestAsymAckExhaustAccounted|TestOLSRAsymNoBlackhole'
	$(GO) run ./cmd/ldrfuzz -runs 24 -seed 7 -max-nodes 24 -max-simtime 15s \
		-radios mixed,asym -densities gradient,hotspot -q

# The fault-injection suite under the race detector: the van Glabbeek
# loop reproduction, the per-profile LDR invariant properties, and the
# chaos sweep's worker-count determinism. The closing ldrchaos run is
# journaled with a watchdog and keep-going quarantine — the crash-safe
# mode the nightly job exercises end to end; its journal (and failure
# manifest plus reproducers, if any cell was quarantined) survives in
# the printed directory for post-mortem.
chaos:
	$(GO) test -race -timeout 60m ./internal/fault/ -run .
	$(GO) test -race -timeout 60m ./internal/experiments/ -run Chaos
	d=$$(mktemp -d)/journal; echo "chaos journal: $$d"; \
	$(GO) run ./cmd/ldrchaos -trials 2 -simtime 60s -journal $$d -cell-timeout 10m -keep-going

# Crash-safety smoke: SIGKILL a journaled chaos sweep mid-flight, resume
# it from the journal, and require output byte-identical to an
# uninterrupted run (plus the stale-journal -resume guard). Part of
# `make check`, `make ci-full`, and the nightly job.
resume-smoke:
	GO="$(GO)" sh scripts/resume-smoke.sh

# Bounded model check, full scale (a few minutes on one core):
# exhaustively verify LDR's loop-freedom and (sn, fd) ordering on every
# non-isomorphic connected 3- and 4-node topology within the sweep's
# budgets (state counts reported, zero violations required), then make
# the checker rediscover the van Glabbeek AODV loop from scratch and
# replay both a fresh witness and the committed seed to a real routing
# loop under the full MAC/radio simulator.
modelcheck:
	$(GO) run ./cmd/ldrbench -exp modelcheck
	$(GO) run ./cmd/ldrcheck -protocol aodv -resets 1 -drops 1 -expect-violation -emit /tmp/aodv-line3-loop.json -q
	$(GO) test ./internal/modelcheck/ -run 'TestAODVLine3Violation|TestWitnessBridge' -v

# Fast model-check smoke under the race detector: LDR clean at the van
# Glabbeek budget, the rediscovered AODV loop, and the committed-seed
# bridge replays, all on the 3-node line. Part of `make check`.
modelcheck-smoke:
	$(GO) test -race -timeout 30m ./internal/modelcheck/ -run 'TestLDRLine3Clean|TestAODVLine3Violation|TestWitnessBridge'

# Regenerate the committed van Glabbeek witness seed from scratch (the
# checker re-derives the schedule; the file only changes if the witness
# translation rules did).
modelcheck-seed:
	$(GO) run ./cmd/ldrcheck -protocol aodv -resets 1 -drops 1 -expect-violation \
		-emit internal/modelcheck/testdata/aodv-line3-loop.json -q

# Regenerate the committed golden-digest table
# (internal/scenario/testdata/golden.json): the sha256 of each matrix
# cell's round-tripped collector JSON. A change that moves a digest must
# say why; an engine refactor must leave the table untouched.
golden:
	$(GO) test ./internal/scenario/ -run '^TestGoldenDigests$$' -update-golden -count=1

# Exploration throughput (states/sec, trans/sec) and exact state counts,
# recorded as BENCH_modelcheck.json and gated against the committed
# baseline: >10% B/op or allocs/op regression fails the target.
bench-modelcheck:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'CheckLDRLine3|CheckAODVLine3' -benchtime 2x -benchmem \
		./internal/modelcheck/ | tee /dev/stderr | /tmp/benchjson -o BENCH_modelcheck.json -maxregress 10

# The Byzantine-node suite under the race detector: LDR's loop-freedom
# property under every attack profile, the committed AODV forged-seqno
# loop regression seed, attack accounting, storm suppression, and
# attacked-run determinism.
adversary:
	$(GO) test -race -timeout 60m ./internal/adversary/ -run .

# Attack impact at paper scale (delivery under attack vs baseline,
# control amplification, accounted adversary drops, NDC rejections),
# recorded as BENCH_adversary.json.
bench-adversary:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench AttackImpact -benchtime 2x \
		./internal/adversary/ | tee /dev/stderr | /tmp/benchjson -o BENCH_adversary.json

# Audit-hook overhead on the 50-node scenario (the <10% acceptance bar),
# recorded as BENCH_chaos.json.
bench-chaos:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench AuditOverhead -benchtime 3x \
		./internal/fault/ | tee /dev/stderr | /tmp/benchjson -o BENCH_chaos.json

# Sweep + radio hot-path benchmarks, recorded as BENCH_sweep.json
# (events/sec, cells/sec, ns/op, allocs/op per benchmark).
bench:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -bench 'Sweep|Transmit|Neighbors' -benchmem \
		./internal/sweep/ ./internal/radio/ | tee /dev/stderr | /tmp/benchjson -o BENCH_sweep.json

# Same benchmarks, gated against the committed BENCH_sweep.json: any
# benchmark whose B/op or allocs/op regressed more than 10% fails the
# target (non-zero exit) and leaves the committed baseline untouched.
bench-sweep:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -bench 'Sweep|Transmit|Neighbors' -benchmem \
		./internal/sweep/ ./internal/radio/ | tee /dev/stderr | /tmp/benchjson -o BENCH_sweep.json -maxregress 10

# Fast allocation-regression smoke: the zero-alloc guards on the event
# loop, MAC queue, and LDR round trip, plus a single tiny sweep cell.
# Part of `make check` so steady-state allocation creep fails CI quickly.
bench-smoke:
	$(GO) test -run 'Alloc|ZeroAlloc' ./internal/sim/ ./internal/radio/ ./internal/mac/ ./internal/core/ ./internal/routing/
	$(GO) test -run '^$$' -bench 'ScheduleTransient|SweepSerial' -benchtime 10x \
		./internal/sim/ ./internal/sweep/

# CPU + allocation profiles of a reduced Table 1 run, written to
# profiles/ (gitignored); inspect with `go tool pprof`.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/ldrbench -exp table1 -trials 1 -simtime 60s \
		-cpuprofile profiles/ldrbench.cpu.pprof -memprofile profiles/ldrbench.mem.pprof
	@echo "profiles written: profiles/ldrbench.cpu.pprof profiles/ldrbench.mem.pprof"
	@echo "inspect: go tool pprof -top profiles/ldrbench.mem.pprof"

# Every benchmark family gated against its committed BENCH_*.json
# baseline: a >10% B/op or allocs/op regression in any of the four fails
# the target and leaves that committed baseline untouched. This is CI's
# bench-gate job.
bench-gate: bench-sweep bench-modelcheck
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench AttackImpact -benchtime 2x \
		./internal/adversary/ | tee /dev/stderr | /tmp/benchjson -o BENCH_adversary.json -maxregress 10
	$(GO) test -run '^$$' -bench AuditOverhead -benchtime 3x \
		./internal/fault/ | tee /dev/stderr | /tmp/benchjson -o BENCH_chaos.json -maxregress 10

# One benchmark per paper table/figure plus the engine and coordination
# benches, at reduced scale.
bench-all:
	$(GO) test -bench=. -benchmem ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/invariants
	$(GO) run ./examples/rescue
	$(GO) run ./examples/fleet
	$(GO) run ./examples/coordination

# Reduced-scale regeneration of every table and figure (minutes).
experiments:
	$(GO) run ./cmd/ldrbench -exp all

# The paper's full setup (many hours on one core).
experiments-full:
	$(GO) run ./cmd/ldrbench -exp all -trials 10 -simtime 900s

clean:
	$(GO) clean ./...
