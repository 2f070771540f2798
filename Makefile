GO ?= go

.PHONY: check build test race vet vet-strict bench bench-json bench-compare run-fleet

.DEFAULT_GOAL := check

# check is the default tier-1 gate: build, vet-strict (vet plus the
# bounds-check-elimination spot check on the spectrum hot loops), and the
# full test suite under the race detector — the
# collection pipeline's retry/cancellation paths are all concurrent. The
# two pinned-GOMAXPROCS passes re-run the compute-pool equivalence and
# plan-cache tests at the scheduling extremes (single-threaded runtime vs
# 4-way) to catch regressions that only show under a particular worker/CPU
# ratio. The wire benchmark (wirebench/) is its own module, so the root
# `go test ./...` never builds it; it is vetted and tested last so a change
# to an API it names fails here.
check: build vet-strict
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestSched|TestPooled|TestPlanCache' ./internal/sched/ ./internal/spectrum/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSched|TestPooled|TestPlanCache' ./internal/sched/ ./internal/spectrum/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestAccumulator|TestStream' ./internal/spectrum/ ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestReroute|TestKill|TestDrain|TestHealth|TestRing' ./internal/coord/ ./internal/locsrv/
	cd wirebench && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the pre-merge gate for the parallel spectrum/locator paths:
# vet plus the full test suite under the race detector.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# vet-strict is vet plus the bounds-check-elimination spot check: the SoA
# hot loops in internal/spectrum (allcells.go synthesis and weighting
# kernels) are written so the compiler can prove every index in range, and
# scripts/check-bce.sh fails if a bounds check creeps back in (DESIGN.md
# §13 documents the layout rules the script enforces).
vet-strict: vet
	sh scripts/check-bce.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/spectrum/

# bench-json regenerates the machine-readable perf snapshot consumed by
# trajectory tooling (see cmd/tagspin-bench): schema tagspin-bench/8 —
# micro rows, concurrent-load rows (K simultaneous Locate2D pipelines on
# the shared compute pool, grid and ml solve backends) with plan-cache hit
# rates, the streaming rows (StreamLocate2D tail-latency pairs,
# LoadLocate2DStream throughput), the MLLocate2D/3D grid-vs-ml
# solve-backend A/B rows with meanErrM, the sub-linear coarse-scan rows
# (SubLinLocate2D/3D vs their dense Locate2D/3D baselines), and the
# all-cells rows (SubLinLocateR plus the DenseProfile/AllCellsProfile 2D/3D
# pairs per kind, with their speedup floors), and the non-uniform-grid
# rows (DenseLocateNU2D/NUFFTLocate2D with the ≥3x NUFFT floor,
# DenseLocateNUR/NUFFTLocateR, and the LoadLocate2DStream/ml estimator
# A/B).
bench-json:
	$(GO) run ./cmd/tagspin-bench -benchjson BENCH_8.json

# bench-compare diffs the two newest BENCH_<n>.json snapshots and fails on
# any >10% ns/op regression — the pre-merge perf gate for the spectrum
# engine. `make bench-compare REBASELINE=1` first re-measures the baseline
# snapshot (the older of the two newest) on this machine, marking it
# `rebaselined: true` — separating container drift from real regressions
# when the baseline came from different hardware.
bench-compare:
ifdef REBASELINE
	$(GO) run ./cmd/tagspin-bench -rebaseline auto
endif
	$(GO) run ./cmd/tagspin-bench -benchcompare auto

# run-fleet brings up a local fleet — simulated reader, 2 locsrv replicas,
# and the tagspin-coord router — smokes a locate through the coordinator,
# prints the cluster-stats rollup, and drains everything down.
# `make run-fleet KEEP=1` leaves the fleet running until ^C.
run-fleet:
ifdef KEEP
	sh scripts/run-fleet.sh keep
else
	sh scripts/run-fleet.sh
endif
