#!/bin/sh
# Chaos determinism check: run fault-injection scenarios twice with the same
# seed and require byte-identical stats dumps. The chaos engine draws from
# its own seeded RNG stream (never the workload's), so identical seeds must
# replay identical campaigns — injection ticks, detection latencies,
# recovery latencies, everything. Any divergence is a nondeterminism bug in
# the engine or in a scenario's host-side event plumbing.
#
# Both scenario groups are checked (DESIGN.md §4k): single-core (one-core
# scenario machines) and cross-core (two-core machines).
#
# Usage: chaos_determinism.sh <casc_chaos-binary> <scratch-dir>
set -eu

bin=${1:?usage: chaos_determinism.sh <casc_chaos-binary> <scratch-dir>}
scratch=${2:?usage: chaos_determinism.sh <casc_chaos-binary> <scratch-dir>}
mkdir -p "$scratch"

if [ ! -x "$bin" ]; then
  echo "chaos_determinism: missing binary $bin" >&2
  exit 2
fi

fail=0

# two_run <group> <seed>: same-seed double run with a byte compare.
two_run() {
  group=$1; seed=$2
  a="$scratch/chaos.$group.seed$seed.json"
  b="$scratch/chaos.$group.seed$seed.run2.json"
  "$bin" --scenario="$group" --seed="$seed" --stats-json="$a" > /dev/null
  "$bin" --scenario="$group" --seed="$seed" --stats-json="$b" > /dev/null
  if ! cmp -s "$a" "$b"; then
    echo "chaos_determinism: $group seed $seed stats dumps differ:" >&2
    diff "$a" "$b" >&2 || true
    fail=1
    return
  fi
  echo "chaos_determinism: $group seed $seed ok ($(wc -c < "$a") bytes, byte-identical)"
}

for seed in 1 7; do
  for group in single-core cross-core; do
    two_run "$group" "$seed"
  done
done
exit "$fail"
