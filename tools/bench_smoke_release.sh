#!/usr/bin/env bash
# Release-build bench-smoke tier.
#
# The default tree builds RelWithDebInfo; host-throughput numbers (bench
# t2_simhost) and the perf-sensitive hot paths are only meaningful at full
# optimization, so CI also runs the bench-smoke ctest tier from a Release
# tree: every bench with reduced iterations, then casc_bench_check over each
# BENCH_*.json artifact. The Release tree must also reproduce the golden
# simulation digest (DESIGN.md §4f): optimization level changes no
# simulated byte.
#
#   tools/bench_smoke_release.sh            # uses ./build-rel
#   BUILD=/tmp/rel tools/bench_smoke_release.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build-rel}
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" -j"$(nproc)"
ctest --test-dir "$BUILD" -L bench-smoke -j"$(nproc)" --output-on-failure
ctest --test-dir "$BUILD" -R '^sim_golden_digest$' --output-on-failure

# Interpreter throughput gate (DESIGN.md §4j): a full (non-smoke) t2_simhost
# run's "interp" row must clear an absolute Minsts/s floor, so a regression in
# the direct-threaded dispatch loop or the fusion pass fails this tier even
# when every schema check passes. Single runs on a shared host spread by
# ~15% (48.3-54.7 Minsts/s on the 4-vCPU reference host), so the gate runs
# T2 three times, prints every interp figure, and passes when the best run
# clears the floor. The default floor sits between the PR 7 engine (~41
# Minsts/s best on the reference CI host) and the PR 8 engine (~57 best).
# Override for slower CI hosts with CASC_BENCH_INTERP_FLOOR (Minsts/s); set
# it to 0 to disable the gate.
FLOOR=${CASC_BENCH_INTERP_FLOOR:-48}
for run in 1 2 3; do
  "$BUILD"/bench/bench_t2_simhost --json="$BUILD"/bench/BENCH_t2_simhost_full$run.json > /dev/null
done
"$BUILD"/tools/casc_bench_check "$BUILD"/bench/BENCH_t2_simhost_full[123].json
# Prints each run's interp Minsts/s (stderr) and the best run's path.
best=$(python3 - "$BUILD"/bench/BENCH_t2_simhost_full[123].json <<'EOF_PY'
import json
import sys

best = None
for path in sys.argv[1:]:
    minsts = next(r["value"] / 1e6 for r in json.load(open(path))["results"]
                  if r["config"] == "interp" and r["metric"] == "sim_insts_per_sec")
    print(f"interp {path}: {minsts:.1f} Minsts/s", file=sys.stderr)
    if best is None or minsts > best[0]:
        best = (minsts, path)
print(best[1])
EOF_PY
)
# casc_bench_check rejects a floor <= 0, so FLOOR=0 skips the flag instead.
if [ "$FLOOR" != 0 ]; then
  "$BUILD"/tools/casc_bench_check --interp-floor "$FLOOR" "$best"
fi
