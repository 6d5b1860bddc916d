#!/usr/bin/env bash
# Simulated-output identity check between two request-benchmark binaries
# (each built by `python3 reqbench/run.py` in its own checkout, at
# .bench_build/reqbench/reqbench). A change that claims to touch only host
# speed must leave every simulated metric alone, so any difference is a
# failure. The build tree's own workloads are pinned by the golden digest
# (tools/sim_golden_digest.sh); tier-1 does not build reqbench, so this
# comparison stays a separate, manual step.
#
# Runs all three workloads at --trace 0 and 1, seeds 5 and 42, --seconds 1.
# Per run it byte-compares the exit code, every metric line of kind `sim`,
# and the report's `correct` and `failed`. The one sim line left out is
# sim.events_per_req, which counts dispatches (a host-speed change may remove
# some); both values are printed instead.
#
# Usage: tools/sim_identity_check.sh <parent-reqbench> <change-reqbench> [<scratch-dir>]
# Exit 0 when every output matches, 1 on any difference, 2 on usage errors.
set -u

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: sim_identity_check.sh <parent-reqbench> <change-reqbench> [<scratch-dir>]" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
bins=()
for bin in "$1" "$2"; do
  if [ ! -x "$bin" ]; then
    echo "sim_identity_check: missing $bin" >&2
    exit 2
  fi
  bins+=("$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")")
done
scratch=${3:-$(mktemp -d)}
mkdir -p "$scratch/a" "$scratch/b"

fail=0
cases=0
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
      cases=$((cases + 1))
      for ext in rc sim; do
        if ! cmp -s "$scratch/a/$name.$ext" "$scratch/b/$name.$ext"; then
          echo "sim_identity_check: DIFF $name.$ext" >&2
          diff "$scratch/a/$name.$ext" "$scratch/b/$name.$ext" 2>&1 | head -n 20 >&2
          fail=1
        fi
      done
      epr() {
        grep '^ *sim\.events_per_req ' "$scratch/$1/$name.stdout" | awk '{print $2}'
      }
      echo "$name: sim.events_per_req $(epr a) -> $(epr b)"
    done
  done
done

if [ "$fail" -ne 0 ]; then
  echo "sim_identity_check: FAIL (outputs under $scratch)" >&2
  exit 1
fi
echo "sim_identity_check: ok ($cases cases byte-identical)"
