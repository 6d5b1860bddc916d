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
#     also counts dispatches, which a host-speed change may remove), and
#     only the rows both builds report: a row one side lacks (the bench
#     gained or lost a row) is named on stderr, not compared;
#   * casc_run `--stats-json` on tests/corpus/*.casm and examples/asm/*.casm
#     at the default config, at `--cores=2`, and at `--cores=4
#     --threads-per-core=1` (exit code, stdout, stderr and stats dump). With
#     the default 64 threads per core, `--cores=2` still places every
#     harness thread on core 0; the 4x1 run puts harness thread tN on core
#     N, so cross-core tick ordering is compared too (an image that declares
#     t4 or beyond is refused there with exit 2, which is compared as well);
#   * casc_chaos `--scenario=all` at seeds 1/7/42;
#   * casc_fuzz `--seed=3 --iters=300`.
#
# With --reqbench, it compares two request-benchmark binaries instead (each
# built by `python3 reqbench/run.py` in its own checkout, at
# .bench_build/reqbench/reqbench): all three workloads at --trace 0 and 1,
# seeds 5 and 42, --seconds 1. Per run it byte-compares the exit code, every
# metric line of kind `sim`, and the report's `correct` and `failed`. The
# one sim line left out is sim.events_per_req, which counts dispatches (a
# host-speed change may remove some); both values are printed instead.
#
# Usage: tools/sim_identity_check.sh <parent-build> <change-build> [<scratch-dir>]
#        tools/sim_identity_check.sh --reqbench <parent-reqbench> <change-reqbench>
#                                    [<scratch-dir>]
# Exit 0 when every output matches, 1 on any difference, 2 on usage errors.
set -u

usage() {
  echo "usage: sim_identity_check.sh <parent-build> <change-build> [<scratch-dir>]" >&2
  echo "       sim_identity_check.sh --reqbench <parent-reqbench> <change-reqbench>" \
    "[<scratch-dir>]" >&2
  exit 2
}

mode=builds
if [ "${1:-}" = "--reqbench" ]; then
  mode=reqbench
  shift
fi
if [ $# -lt 2 ]; then
  usage
fi
root=$(cd "$(dirname "$0")/.." && pwd)
scratch=${3:-$(mktemp -d)}
mkdir -p "$scratch/a" "$scratch/b"

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

finish() {
  if [ "$fail" -ne 0 ]; then
    echo "sim_identity_check: FAIL (outputs under $scratch)" >&2
    exit 1
  fi
  echo "sim_identity_check: ok ($cases cases byte-identical)"
  exit 0
}

if [ "$mode" = reqbench ]; then
  bins=()
  for bin in "$1" "$2"; do
    if [ ! -x "$bin" ]; then
      echo "sim_identity_check: missing $bin" >&2
      exit 2
    fi
    bins+=("$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")")
  done
  for workload in ring_colocated rpc_fabric trap_baseline; do
    for trace in 0 1; do
      for seed in 5 42; do
        name=reqbench_${workload}_t${trace}_s${seed}
        for side in a b; do
          bin=${bins[0]}
          [ "$side" = b ] && bin=${bins[1]}
          out="$scratch/$side/$name"
          rc=0
          (cd "$root" && "$bin" --workload "$workload" --seed "$seed" --seconds 1 \
            --trace "$trace") >"$out.stdout" 2>"$out.stderr" || rc=$?
          echo "$rc" >"$out.rc"
          # Metric lines end in their kind; the report is the last line.
          grep ' sim$' "$out.stdout" | grep -v '^ *sim\.events_per_req ' >"$out.sim"
          tail -n 1 "$out.stdout" | python3 -c '
import json, sys
try:
    r = json.load(sys.stdin)
    print("correct %s\nfailed %s" % (r["correct"], r["failed"]))
except (ValueError, KeyError):
    print("no report")
' >>"$out.sim"
        done
        compare "$name" rc sim
        epr() {
          grep '^ *sim\.events_per_req ' "$scratch/$1/$name.stdout" | awk '{print $2}'
        }
        echo "$name: sim.events_per_req $(epr a) -> $(epr b)"
      done
    done
  done
  finish
fi

build_a=$(cd "$1" && pwd) || exit 2
build_b=$(cd "$2" && pwd) || exit 2
for b in "$build_a" "$build_b"; do
  for bin in tools/casc_run tools/casc_chaos tools/casc_fuzz bench/bench_t2_simhost; do
    if [ ! -x "$b/$bin" ]; then
      echo "sim_identity_check: missing $b/$bin" >&2
      exit 2
    fi
  done
done

# Rewrites both T2 JSON reports in place, keeping only the simulated keys of
# the rows both reports have.
filter_t2() {
  python3 -c '
import json, sys
paths = sys.argv[1:]
reports = []
for path in paths:
    with open(path) as f:
        reports.append(json.load(f))
configs = [{r["config"] for r in rep["results"]} for rep in reports]
common = set.intersection(*configs)
for side, cfgs in zip("ab", configs):
    for c in sorted(cfgs - common):
        print("sim_identity_check: T2 row %s only in build %s (not compared)" % (c, side),
              file=sys.stderr)
host = {"host_ms", "sim_insts_per_sec", "events_per_sec"}
for path, rep in zip(paths, reports):
    rep["results"] = [r for r in rep["results"]
                      if r["metric"] not in host and r["config"] in common]
    with open(path, "w") as f:
        json.dump(rep, f, indent=1, sort_keys=True)
' "$@"
}

for bin in "$build_b"/bench/bench_e*_* "$build_b"/bench/bench_t1_*; do
  name=$(basename "$bin")
  run_both "$name" "bench/$name" --smoke --json=@JSON@
  compare "$name" rc json
done

run_both bench_t2_simhost bench/bench_t2_simhost --smoke --json=@JSON@
if [ -e "$scratch/a/bench_t2_simhost.json" ] && [ -e "$scratch/b/bench_t2_simhost.json" ]; then
  filter_t2 "$scratch/a/bench_t2_simhost.json" "$scratch/b/bench_t2_simhost.json"
fi
compare bench_t2_simhost rc json

for prog in "$root"/tests/corpus/*.casm "$root"/examples/asm/*.casm; do
  rel=${prog#"$root"/}
  tag=run_$(echo "$rel" | tr '/.' '__')
  run_both "$tag" tools/casc_run "$rel" --stats-json=@JSON@
  compare "$tag" rc stdout stderr json
  run_both "${tag}_c2" tools/casc_run "$rel" --cores=2 --stats-json=@JSON@
  compare "${tag}_c2" rc stdout stderr json
  run_both "${tag}_c4" tools/casc_run "$rel" --cores=4 --threads-per-core=1 --stats-json=@JSON@
  compare "${tag}_c4" rc stdout stderr json
done

for seed in 1 7 42; do
  name=chaos_s${seed}
  run_both "$name" tools/casc_chaos --scenario=all --seed="$seed" --stats-json=@JSON@
  compare "$name" rc stdout stderr json
done

run_both fuzz_s3 tools/casc_fuzz --seed=3 --iters=300 --out="$scratch/fuzz_out"
compare fuzz_s3 rc stdout stderr

finish
