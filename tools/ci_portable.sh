#!/bin/sh
# Portable-engine CI tier. The interpreter's handler bodies (src/cpu/
# dispatch.inc) build as a computed-goto table wherever the compiler supports
# labels-as-values, so a default build never compiles the portable switch
# engine used elsewhere (DESIGN.md §4j). This tier configures a second tree
# with the CASC_HAS_COMPUTED_GOTO probe result pre-set to OFF — a cached value
# makes check_cxx_source_compiles skip the probe — builds it, and runs the
# interpreter, differential-fuzz, and chaos tiers on the switch engine, plus
# the golden simulation digest: the switch engine must reproduce every
# simulated byte of the computed-goto one (DESIGN.md §4f).
#
# Usage: ci_portable.sh [build-dir]    (default: build-portable)
set -eu

build=${1:-build-portable}
src_root=$(cd "$(dirname "$0")/.." && pwd)

cmake -B "$build" -S "$src_root" -DCASC_HAS_COMPUTED_GOTO=OFF
cmake --build "$build" -j"$(nproc)"
sh -c "cd '$build' && ctest -R 'interp|verify|fuzz_smoke|chaos_smoke|sim_golden_digest' \
  --output-on-failure -j\"\$(nproc)\""
echo "ci_portable: interpreter, fuzz, chaos and golden digest clean on the switch engine"
