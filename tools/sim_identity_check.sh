#!/usr/bin/env bash
# Simulated-output identity check between two build trees: runs the same
# deterministic workloads on both and byte-compares what they report.
# A change that claims to touch only host speed (event-queue fast paths,
# interpreter dispatch, data-structure swaps) must leave every simulated
# tick, stat and firing order alone, so any difference is a failure.
#
# Workloads, per build:
#   * every E1-E14/T1 bench: `--smoke --json`, the JSON compared whole (bench
#     stdout carries host timings and the output path, so it is not);
#   * T2 (bench_t2_simhost): `--smoke --json`, only the simulated keys
#     (host_ms and the per-second rates are wall-clock, and events_per_sec
#     also counts dispatches, which a host-speed change may remove);
#   * casc_run `--stats-json` on tests/corpus/*.casm and examples/asm/*.casm
#     at the default config, `--cores=2`, and `--cores=2 --host-threads=2`
#     (exit code, stdout, stderr and stats dump);
#   * casc_chaos `--scenario=all` at seeds 1/7/42 x `--host-threads` 0/1/4;
#   * casc_fuzz `--seed=3 --iters=300`.
#
# Usage: tools/sim_identity_check.sh <parent-build> <change-build> [<scratch-dir>]
# Exit 0 when every output matches, 1 on any difference, 2 on usage errors.
set -u

if [ $# -lt 2 ]; then
  echo "usage: sim_identity_check.sh <parent-build> <change-build> [<scratch-dir>]" >&2
  exit 2
fi
build_a=$(cd "$1" && pwd) || exit 2
build_b=$(cd "$2" && pwd) || exit 2
root=$(cd "$(dirname "$0")/.." && pwd)
scratch=${3:-$(mktemp -d)}
mkdir -p "$scratch/a" "$scratch/b"

for b in "$build_a" "$build_b"; do
  for bin in tools/casc_run tools/casc_chaos tools/casc_fuzz bench/bench_t2_simhost; do
    if [ ! -x "$b/$bin" ]; then
      echo "sim_identity_check: missing $b/$bin" >&2
      exit 2
    fi
  done
done

fail=0
cases=0

# run_side <side> <build> <name> <binary> [args...]: runs the binary from
# <build> in the repo root, saving exit code, stdout and stderr; `@JSON@` in
# an argument becomes the per-side JSON output path.
run_side() {
  local side=$1 build=$2 name=$3 bin=$4
  shift 4
  local out="$scratch/$side/$name"
  local args=()
  local a
  for a in "$@"; do
    args+=("${a//@JSON@/$out.json}")
  done
  rm -f "$out.json"
  local rc=0
  (cd "$root" && "$build/$bin" "${args[@]}") >"$out.stdout" 2>"$out.stderr" || rc=$?
  echo "$rc" >"$out.rc"
}

run_both() {
  run_side a "$build_a" "$@"
  run_side b "$build_b" "$@"
}

# compare <name> <ext>...: byte-compares the named outputs of both sides.
compare() {
  local name=$1
  shift
  cases=$((cases + 1))
  local ext
  for ext in "$@"; do
    local fa="$scratch/a/$name.$ext" fb="$scratch/b/$name.$ext"
    if [ ! -e "$fa" ] && [ ! -e "$fb" ]; then
      continue
    fi
    if ! cmp -s "$fa" "$fb"; then
      echo "sim_identity_check: DIFF $name.$ext" >&2
      diff "$fa" "$fb" 2>&1 | head -n 20 >&2
      fail=1
    fi
  done
}

# Rewrites a T2 JSON report in place, keeping only the simulated keys.
filter_t2() {
  python3 -c '
import json, sys
path = sys.argv[1]
with open(path) as f:
    report = json.load(f)
host = {"host_ms", "sim_insts_per_sec", "events_per_sec"}
report["results"] = [r for r in report["results"] if r["metric"] not in host]
with open(path, "w") as f:
    json.dump(report, f, indent=1, sort_keys=True)
' "$1"
}

for bin in "$build_b"/bench/bench_e*_* "$build_b"/bench/bench_t1_*; do
  name=$(basename "$bin")
  run_both "$name" "bench/$name" --smoke --json=@JSON@
  compare "$name" rc json
done

run_both bench_t2_simhost bench/bench_t2_simhost --smoke --json=@JSON@
for side in a b; do
  if [ -e "$scratch/$side/bench_t2_simhost.json" ]; then
    filter_t2 "$scratch/$side/bench_t2_simhost.json"
  fi
done
compare bench_t2_simhost rc json

for prog in "$root"/tests/corpus/*.casm "$root"/examples/asm/*.casm; do
  rel=${prog#"$root"/}
  tag=run_$(echo "$rel" | tr '/.' '__')
  run_both "$tag" tools/casc_run "$rel" --stats-json=@JSON@
  compare "$tag" rc stdout stderr json
  run_both "${tag}_c2" tools/casc_run "$rel" --cores=2 --stats-json=@JSON@
  compare "${tag}_c2" rc stdout stderr json
  run_both "${tag}_c2_ht2" tools/casc_run "$rel" --cores=2 --host-threads=2 --stats-json=@JSON@
  compare "${tag}_c2_ht2" rc stdout stderr json
done

for seed in 1 7 42; do
  for ht in 0 1 4; do
    name=chaos_s${seed}_ht${ht}
    run_both "$name" tools/casc_chaos --scenario=all --seed="$seed" --host-threads="$ht" \
      --stats-json=@JSON@
    compare "$name" rc stdout stderr json
  done
done

run_both fuzz_s3 tools/casc_fuzz --seed=3 --iters=300 --out="$scratch/fuzz_out"
compare fuzz_s3 rc stdout stderr

if [ "$fail" -ne 0 ]; then
  echo "sim_identity_check: FAIL (outputs under $scratch)" >&2
  exit 1
fi
echo "sim_identity_check: ok ($cases cases byte-identical)"
