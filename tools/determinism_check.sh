#!/usr/bin/env bash
# Same-binary determinism: runs one group of cases twice from the repo root
# and `diff -r`s exit codes, stdout, stderr and stats dumps. The golden
# digest (sim_golden_digest.sh, DESIGN.md §4f) says whether a result moved;
# this says, without the golden, whether it is stable at all.
#   examples: every example, and racy_store on two cores of one thread;
#   chaos:    casc_chaos single-core and cross-core groups, seeds 1 and 7.
# Outputs stay under <build-dir>/determinism/<group>/{1,2}.
#
# Usage: tools/determinism_check.sh <build-dir> examples|chaos
# Exit 0 when both runs match, 1 on any difference, 2 on usage errors.
set -u

if [ $# -ne 2 ] || { [ "$2" != examples ] && [ "$2" != chaos ]; }; then
  echo "usage: determinism_check.sh <build-dir> examples|chaos" >&2
  exit 2
fi
build=$(cd "$1" 2>/dev/null && pwd) || {
  echo "determinism_check: no build directory $1" >&2
  exit 2
}
cd "$(dirname "$0")/.." || exit 2
out=$build/determinism/$2
rm -rf "$out"

# run <name> <binary> [args...]: one run into $dir, keeping every output.
run() {
  local name=$1 bin=$build/$2 rc=0
  shift 2
  [ -x "$bin" ] || { echo "determinism_check: missing $bin" >&2; exit 2; }
  "$bin" "$@" --stats-json="$dir/$name.json" >"$dir/$name.stdout" \
    2>"$dir/$name.stderr" || rc=$?
  echo "$rc" >"$dir/$name.rc"
}

for dir in "$out/1" "$out/2"; do
  mkdir -p "$dir"
  if [ "$2" = examples ]; then
    for src in examples/*.cpp; do
      run "$(basename "$src" .cpp)" "examples/$(basename "$src" .cpp)"
    done
    run racy_store_c2x1 tools/casc_run tests/corpus/racy_store.casm \
      --cores=2 --threads-per-core=1
  else
    for seed in 1 7; do
      run "single_s$seed" tools/casc_chaos --scenario=single-core --seed="$seed"
      run "cross_s$seed" tools/casc_chaos --scenario=cross-core --seed="$seed"
    done
  fi
done

diff -r "$out/1" "$out/2" >&2 || {
  echo "determinism_check: $2: two runs of one binary differ (above)" >&2
  exit 1
}
echo "determinism_check: $2 ok ($(ls "$out/1" | wc -l) files identical in two runs)"
