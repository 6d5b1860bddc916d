#!/bin/sh
# Sanitizer CI tier: builds with the requested sanitizers and runs the tier-1
# ctest suite — which includes the differential-fuzz smoke batch (fuzz_smoke:
# a fixed-seed generator run across the whole config lattice with determinism
# and race checking), the saved regression corpus (fuzz_corpus), the
# chaos_smoke tier (every fault-injection scenario), the fuzz_chaos tier
# (chaos-differential batches with every fault class and per-fault-class
# masks, campaign-replay determinism, and the wedged-fixture watchdog
# negative; DESIGN.md §4k), and the golden simulation digest
# (sim_golden_digest; DESIGN.md §4f): sanitizer instrumentation must change
# no simulated byte.
# Memory errors in the simulator, the reference model, or the
# fault-recovery paths surface here rather than as silent state divergence.
# The interpreter has one run-time engine (DESIGN.md §4j), so every tier
# exercises the computed-goto table (when the compiler supports it) and the
# fused-continuation hot path; tools/ci_portable.sh covers the portable
# switch engine that such compilers never build.
#
# The `thread` tier builds with TSan and runs the tests labelled `tsan`: the
# concurrency-analyzer suite (test_race), the ring suite (test_ring), and the
# monitor/mwait race fixtures run through casc_run --race-check. The
# simulator runs on one host thread (DESIGN.md §4i), so TSan can only report
# a host-level race once a change adds a host thread; the tier stays so that
# such a change is checked.
#
# Usage: ci_sanitize.sh [sanitizers] [build-dir]
#   sanitizers   comma list for -fsanitize (default: address,undefined;
#                `thread` selects the TSan tier)
#   build-dir    default: build-sanitize (build-sanitize-thread for TSan)
set -eu

san=${1:-address,undefined}
if [ "$san" = "thread" ]; then
  default_build=build-sanitize-thread
else
  default_build=build-sanitize
fi
build=${2:-$default_build}
src_root=$(cd "$(dirname "$0")/.." && pwd)

cmake -B "$build" -S "$src_root" \
  -DCASC_SANITIZE="$san" \
  -DCASC_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j"$(nproc)"

# halt_on_error makes sanitizer findings fail the test run instead of
# printing and continuing; detect_leaks catches forgotten event-queue
# allocations.
if [ "$san" = "thread" ]; then
  TSAN_OPTIONS=halt_on_error=1 \
    sh -c "cd '$build' && ctest -L tsan --output-on-failure -j\"\$(nproc)\""
else
  ASAN_OPTIONS=detect_leaks=1 \
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    sh -c "cd '$build' && ctest --output-on-failure -j\"\$(nproc)\""
fi
echo "ci_sanitize: all tests clean under $san"
