#!/usr/bin/env bash
# Tier-1 verification entry point: configure, build, run the test suite.
# CI and humans both invoke this one script.
#
# Usage:
#   scripts/check.sh              # plain build + ctest, then ASan+UBSan
#                                 # build + ctest (RDMADL_SANITIZE=address)
#   scripts/check.sh --sanitize   # sanitizer sweep: ASan+UBSan build + ctest,
#                                 # then a standalone UBSan build + ctest
#                                 # (RDMADL_SANITIZE=undefined, recover
#                                 # disabled), then TSan build + ctest
#   scripts/check.sh --plain      # only the plain build + ctest
#   scripts/check.sh --tidy       # clang-tidy over src/ using the checks in
#                                 # .clang-tidy; any warning fails the run
#                                 # (skips with a notice when clang-tidy is
#                                 # not installed)
#   scripts/check.sh --chaos      # plain build, then sweep the seeded chaos
#                                 # suites over RDMADL_FAULT_SEED=1..10
#   scripts/check.sh --elastic    # plain build, then sweep the elastic
#                                 # recovery suite (crash schedules derived
#                                 # from RDMADL_FAULT_SEED) over the seeds
#   scripts/check.sh --verify     # RdmaCheck CI mode: the violation matrix
#                                 # (check_test), then the chaos + elastic
#                                 # suites under RDMADL_CHECK=1 across the
#                                 # seed list — every test runs with the
#                                 # protocol checker installed and fails on
#                                 # any diagnostic
#   scripts/check.sh --scale      # cluster-scale smoke: a 256-host all-reduce
#                                 # and PS step (bench_scale --smoke) under
#                                 # RdmaCheck plus a seeded chaos storm, its
#                                 # stdout compared with the committed golden
#                                 # (scripts/golden.sh) — crashes, checker
#                                 # diagnostics, QP-cap overflows and any
#                                 # moved row all fail. Also part of the
#                                 # default (no-flag) flow.
#   scripts/check.sh --congestion # congestion/tail-latency sweep: the
#                                 # congestion suite plain and under
#                                 # RDMADL_CHECK=1, then bench_scale --quick
#                                 # with bounded queues + ECN + DCQCN +
#                                 # stragglers enabled across the chaos seed
#                                 # list — each seed's stdout compared with
#                                 # its committed golden
#                                 # (tests/golden/bench_scale_quick_check_<N>
#                                 # _congestion.txt) — one tail-latency
#                                 # (p50/p99/p999) run, and an ASan+UBSan pass
#                                 # over the congestion suite. Seed 1 is also
#                                 # pinned by a golden ctest in every ctest
#                                 # run.
#   scripts/check.sh --collectives # collective conformance sweep: the
#                                 # equivalence matrix (every algorithm x
#                                 # topology shape x tensor size against the
#                                 # scalar reference) plain and under
#                                 # RDMADL_CHECK=1, the multi-level chaos and
#                                 # elastic tests across the seed list, and
#                                 # an ASan+UBSan pass over the conformance
#                                 # binary
#   scripts/check.sh --gdr        # GPUDirect route sweep (ISSUE 10): the
#                                 # SG-WR verbs contract, gather route planner
#                                 # and SG diagnostics suites plain and under
#                                 # RDMADL_CHECK=1, the device-resident chaos
#                                 # pair (GdrChaosSweepTest, whose same-seed
#                                 # replay test is the determinism gate)
#                                 # across chaos seeds 1-10 with the checker
#                                 # installed, the bench_table3_gdr golden (route
#                                 # ordering, >= 2x D2D-over-staged, >= 4x
#                                 # doorbell reduction self-gates, pinned
#                                 # stdout), and an ASan+UBSan pass over the
#                                 # gdr-labeled suites. A smoke subset rides
#                                 # the default flow via the `gdr` ctest label.
#   scripts/check.sh --explore    # schedule-space exploration (ISSUE 9): the
#                                 # explorer's own suite (mutations, POR,
#                                 # minimizer, stall detector), the Explore*
#                                 # harness bodies in the fault/conformance/
#                                 # congestion suites under RDMADL_EXPLORE=16,
#                                 # and the bench_explore golden (exploration
#                                 # order, pruning counts and detection
#                                 # schedules pinned byte for byte). A smoke
#                                 # subset rides the default flow via the
#                                 # `explore` ctest label.
#
# The chaos/elastic/check/gdr suites are also registered as ctest labels, so
# `ctest -L chaos` / `ctest -L elastic` / `ctest -L check` run a smoke subset
# as part of any ctest invocation; the modes here sweep the full seed list or
# cluster size. `ctest -L golden` runs the golden-output gate: each
# deterministic bench command's stdout against tests/golden/ (see
# bench/CMakeLists.txt).
#
# Environment:
#   BUILD_DIR    override the build directory (default: build, or
#                build-<flavor> for sanitizer passes)
#   JOBS         parallelism (default: nproc)
#   CHAOS_SEEDS  space-separated seed list for --chaos/--elastic/--verify
#                (default: 1..10)
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=both
for arg in "$@"; do
  case "$arg" in
    --sanitize) MODE=sanitize ;;
    --plain) MODE=plain ;;
    --tidy) MODE=tidy ;;
    --chaos) MODE=chaos ;;
    --elastic) MODE=elastic ;;
    --verify) MODE=verify ;;
    --scale) MODE=scale ;;
    --collectives) MODE=collectives ;;
    --congestion) MODE=congestion ;;
    --explore) MODE=explore ;;
    --gdr) MODE=gdr ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="${JOBS:-$(nproc)}"

build_and_test() {
  local sanitize="$1" build_dir="$2"
  cmake -B "$build_dir" -S . -DRDMADL_SANITIZE="$sanitize"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

plain_build() {
  BUILD_DIR="${BUILD_DIR:-build}"
  cmake -B "$BUILD_DIR" -S . -DRDMADL_SANITIZE=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS"
}

# Cluster-scale smoke: bench_scale --smoke runs a 256-host ring all-reduce
# and a 256-host colocated-PS training step, with RdmaCheck installed and a
# seeded chaos storm (latency spikes + link-down windows — delay-only, so the
# run must still complete) on the fabric. The binary itself fails on any
# checker diagnostic or per-NIC QP-cap overflow; its stdout (virtual times and
# QP counters only — wall-clock goes to stderr) must equal the committed
# golden. Too slow for a ctest, so it runs here.
scale_smoke() {
  local build_dir="$1"
  scripts/golden.sh tests/golden/bench_scale_smoke_check_1.txt \
    "$build_dir/golden/bench_scale_smoke_check_1.txt" \
    "$build_dir/bench/bench_scale" --smoke --check=1
  echo "scale smoke passed (256-host step matches its golden, checker-clean)"
}

case "$MODE" in
  plain)
    build_and_test OFF "${BUILD_DIR:-build}"
    ;;
  sanitize)
    build_and_test address "${BUILD_DIR:-build-sanitize}"
    build_and_test undefined "${BUILD_DIR:-build-ubsan}"
    build_and_test thread "${BUILD_DIR:-build-tsan}"
    ;;
  both)
    build_and_test OFF "${BUILD_DIR:-build}"
    scale_smoke "${BUILD_DIR:-build}"
    build_and_test address "${BUILD_DIR:-build-sanitize}"
    ;;
  tidy)
    # Static analysis over the library sources with the checks pinned in
    # .clang-tidy. Uses the compile database from the plain build.
    if ! command -v clang-tidy >/dev/null 2>&1; then
      echo "clang-tidy not installed; skipping --tidy (install clang-tidy to enable)"
      exit 0
    fi
    plain_build
    mapfile -t sources < <(find src -name '*.cc' | sort)
    clang-tidy -p "$BUILD_DIR" --quiet --warnings-as-errors='*' "${sources[@]}"
    echo "clang-tidy passed over ${#sources[@]} source files"
    ;;
  chaos)
    # Deterministic chaos sweep: the fault suites derive their fault
    # schedules from RDMADL_FAULT_SEED, so each seed is a distinct — but
    # reproducible — storm of drops, spikes, flaps and crashes.
    plain_build
    for seed in ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}; do
      echo "=== chaos sweep: RDMADL_FAULT_SEED=$seed ==="
      RDMADL_FAULT_SEED="$seed" "$BUILD_DIR/tests/fault_test" --gtest_brief=1
      RDMADL_FAULT_SEED="$seed" "$BUILD_DIR/tests/property_test" --gtest_brief=1 \
        --gtest_filter='Seeds/HealingFaultAllReduceTest.*'
    done
    echo "chaos sweep passed for seeds: ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}"
    ;;
  elastic)
    # Elastic recovery sweep: crash one host per scenario (worker, PS,
    # all-reduce peer) and require detection + reconfiguration + rollback to
    # finish the run on the survivors. The membership spike property test
    # rides along so each seed also attests "no false positives under load".
    plain_build
    for seed in ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}; do
      echo "=== elastic sweep: RDMADL_FAULT_SEED=$seed ==="
      RDMADL_FAULT_SEED="$seed" "$BUILD_DIR/tests/elastic_test" --gtest_brief=1
      RDMADL_FAULT_SEED="$seed" "$BUILD_DIR/tests/control_test" --gtest_brief=1 \
        --gtest_filter='MembershipPropertyTest.*'
    done
    echo "elastic sweep passed for seeds: ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}"
    ;;
  verify)
    # RdmaCheck CI mode. First the negative matrix: every seeded violation
    # class must produce exactly its diagnostic kind. Then the chaos and
    # elastic suites run with the checker installed in every test
    # (RDMADL_CHECK=1): these runs are clean by construction, so a single
    # diagnostic — protocol violation or teardown leak — fails the sweep.
    plain_build
    "$BUILD_DIR/tests/check_test" --gtest_brief=1
    for seed in ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}; do
      echo "=== checker sweep: RDMADL_FAULT_SEED=$seed RDMADL_CHECK=1 ==="
      RDMADL_FAULT_SEED="$seed" RDMADL_CHECK=1 \
        "$BUILD_DIR/tests/fault_test" --gtest_brief=1
      RDMADL_FAULT_SEED="$seed" RDMADL_CHECK=1 \
        "$BUILD_DIR/tests/elastic_test" --gtest_brief=1
    done
    echo "checker sweep passed for seeds: ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}"
    ;;
  scale)
    plain_build
    scale_smoke "$BUILD_DIR"
    ;;
  congestion)
    # Congestion/tail-latency robustness sweep (ISSUE 8). The congestion
    # suite (link queues, ECN, DCQCN reaction point, stragglers, backoff cap,
    # chaos seeds 1-10 in miniature) runs plain and with the protocol checker
    # installed; then bench_scale sweeps the chaos seed list with congestion
    # control AND the straggler knob live under RdmaCheck, each seed's stdout
    # compared byte for byte with its committed golden (the goldens for seeds
    # 2-10 are not ctests: under TSan they would cost minutes each); one run
    # adds the p50/p99/p999 tail columns; finally the suite runs under
    # ASan+UBSan — the admission/pause path and per-QP rate state are fresh
    # memory-layout territory.
    plain_build
    "$BUILD_DIR/tests/congestion_test" --gtest_brief=1
    RDMADL_CHECK=1 "$BUILD_DIR/tests/congestion_test" --gtest_brief=1
    for seed in ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}; do
      echo "=== congestion sweep: chaos seed $seed (CC + stragglers + RdmaCheck) ==="
      name="bench_scale_quick_check_${seed}_congestion"
      scripts/golden.sh "tests/golden/$name.txt" "$BUILD_DIR/golden/$name.txt" \
        "$BUILD_DIR/bench/bench_scale" --quick --check="$seed" --congestion
    done
    "$BUILD_DIR/bench/bench_scale" --quick --check=1 --congestion --tail >/dev/null 2>&1
    SAN_DIR="${BUILD_DIR:-build}-sanitize"
    cmake -B "$SAN_DIR" -S . -DRDMADL_SANITIZE=address
    cmake --build "$SAN_DIR" -j "$JOBS" --target congestion_test
    "$SAN_DIR/tests/congestion_test" --gtest_brief=1
    echo "congestion sweep passed for seeds: ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}"
    ;;
  collectives)
    # Collective conformance sweep (ISSUE 7). The equivalence matrix runs
    # plain, then with the protocol checker installed in every test; the
    # multi-level chaos (HierarchicalChaosTest) and elastic leader
    # re-election tests sweep the fault seeds; finally the conformance
    # binary runs under ASan+UBSan — the matrix touches every slot/flag
    # layout the hierarchical and in-network schedules compute.
    plain_build
    "$BUILD_DIR/tests/collective_conformance_test" --gtest_brief=1
    RDMADL_CHECK=1 "$BUILD_DIR/tests/collective_conformance_test" --gtest_brief=1
    for seed in ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}; do
      echo "=== collective chaos sweep: RDMADL_FAULT_SEED=$seed ==="
      RDMADL_FAULT_SEED="$seed" RDMADL_CHECK=1 "$BUILD_DIR/tests/fault_test" \
        --gtest_brief=1 --gtest_filter='HierarchicalChaosTest.*'
      RDMADL_FAULT_SEED="$seed" RDMADL_CHECK=1 "$BUILD_DIR/tests/elastic_test" \
        --gtest_brief=1 --gtest_filter='*Hierarchical*'
    done
    SAN_DIR="${BUILD_DIR:-build}-sanitize"
    cmake -B "$SAN_DIR" -S . -DRDMADL_SANITIZE=address
    cmake --build "$SAN_DIR" -j "$JOBS" --target collective_conformance_test
    "$SAN_DIR/tests/collective_conformance_test" --gtest_brief=1
    echo "collective conformance sweep passed"
    ;;
  gdr)
    # GPUDirect route sweep (ISSUE 10). The SG-WR verbs contract (one
    # doorbell / one CQE per WQE, list-order delivery, shared-fate
    # validation, retry-restarts-every-extent), the gather route planner with
    # lane striping, and the SG diagnostics matrix (sg-extent-out-of-order,
    # flag-in-sg-list) run plain
    # and with the protocol checker installed; the device-resident chaos pair
    # (a model whose tensors live in GPU arenas with GPUDirect D2D routes on,
    # under seeded link chaos) sweeps the fault seeds under RdmaCheck, its
    # same-seed replay test trace-diffing two in-process runs; the bench
    # golden gates route ordering and doorbell reduction; and
    # an ASan+UBSan pass covers the SG posting/delivery paths — multi-extent
    # WQEs and GPU-arena registrations are fresh memory-layout territory.
    plain_build
    "$BUILD_DIR/tests/rdma_test" --gtest_brief=1
    "$BUILD_DIR/tests/transfer_engine_test" --gtest_brief=1
    "$BUILD_DIR/tests/check_test" --gtest_brief=1
    # rdma_test under the checker skips its deliberate protocol violations;
    # the rdma_test_check ctest entry owns that filter.
    ctest --test-dir "$BUILD_DIR" -R '^rdma_test_check$' --output-on-failure
    RDMADL_CHECK=1 "$BUILD_DIR/tests/transfer_engine_test" --gtest_brief=1
    for seed in ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}; do
      echo "=== gdr chaos sweep: RDMADL_FAULT_SEED=$seed (device-resident, RdmaCheck) ==="
      RDMADL_FAULT_SEED="$seed" RDMADL_CHECK=1 "$BUILD_DIR/tests/fault_test" \
        --gtest_brief=1 --gtest_filter='GdrChaosSweepTest.*'
    done
    ctest --test-dir "$BUILD_DIR" -R '^golden_bench_table3_gdr$' --output-on-failure
    SAN_DIR="${BUILD_DIR:-build}-sanitize"
    cmake -B "$SAN_DIR" -S . -DRDMADL_SANITIZE=address
    cmake --build "$SAN_DIR" -j "$JOBS" --target rdma_test \
      --target transfer_engine_test --target check_test
    "$SAN_DIR/tests/rdma_test" --gtest_brief=1
    "$SAN_DIR/tests/transfer_engine_test" --gtest_brief=1
    "$SAN_DIR/tests/check_test" --gtest_brief=1
    echo "gdr sweep passed for seeds: ${CHAOS_SEEDS:-1 2 3 4 5 6 7 8 9 10}"
    ;;
  explore)
    # Schedule-space exploration sweep (ISSUE 9). The explorer's own suite
    # runs first — tie permutations, timing perturbations, POR pruning
    # invariants, the stall detector, the ddmin minimizer, and the four
    # seeded protocol mutations the explorer must catch — in canonical mode
    # and then with RDMADL_EXPLORE=16 so every ExploreForTest body actually
    # enumerates schedules. The Explore* harness bodies embedded in the
    # fault, conformance and congestion suites run under the same bound:
    # retry cursors, flat-ring all-reduce and DCQCN incast must stay clean
    # under every explored ordering. Finally the bench_explore report is
    # checked against its golden.
    plain_build
    "$BUILD_DIR/tests/explore_test" --gtest_brief=1
    RDMADL_EXPLORE=16 "$BUILD_DIR/tests/explore_test" --gtest_brief=1
    for suite in fault_test collective_conformance_test congestion_test; do
      echo "=== explore harness: $suite (RDMADL_EXPLORE=16) ==="
      RDMADL_EXPLORE=16 "$BUILD_DIR/tests/$suite" --gtest_brief=1 \
        --gtest_filter='Explore*'
    done
    ctest --test-dir "$BUILD_DIR" -R '^golden_bench_explore$' --output-on-failure
    echo "exploration sweep passed (explorer suite, harness bodies, bench report)"
    ;;
esac
