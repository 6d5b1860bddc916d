#!/usr/bin/env bash
# Golden simulation digest: runs every deterministic workload of one build
# tree and compares a sha256 per case against tests/golden/sim_digest.txt.
# Every simulated tick, stat and firing order feeds some case, so a change
# that moves one simulated cycle fails here (DESIGN.md §4f), and since every
# tree must match the same file, no result may depend on the host, the build
# type, the sanitizers or the interpreter engine.
#
# Cases (each one line of the digest: name, then the sha256 of its outputs):
#   * every E1-E14/T1 bench: `--smoke --json`, exit code and JSON (bench
#     stdout carries host timings and the output path, so it is not hashed);
#   * T2 (bench_t2_simhost): `--smoke --json`, exit code and the JSON's
#     simulated keys only (host_ms and the per-second rates are wall-clock,
#     and events_per_sec also counts dispatches, which a host-speed change
#     may remove);
#   * casc_run `--stats-json` on tests/corpus/*.casm and examples/asm/*.casm
#     at the default config, at `--cores=2`, and at `--cores=4
#     --threads-per-core=1` (exit code, stdout, stderr and stats dump). With
#     the default 64 threads per core, `--cores=2` still places every
#     harness thread on core 0; the 4x1 run puts harness thread tN on core
#     N, so cross-core tick ordering is hashed too (an image that declares
#     t4 or beyond is refused there with exit 2, which is hashed as well);
#   * casc_run on tests/corpus/racy_store.casm at `--cores=2
#     --threads-per-core=1` (t1 on core 1);
#   * casc_chaos `--scenario=all` (single-core and cross-core groups) at
#     seeds 1/7/42;
#   * casc_fuzz `--seed=3 --iters=300`;
#   * every example with `--stats-json`: exit code, stdout and stats dump.
#
# Each case's outputs stay under <build-dir>/sim_golden/, so two trees can be
# compared with `diff -r`. On a mismatch the script names every case that
# moved (or appeared, or went) and prints the `cp` that accepts the new
# digest; a change that regenerates the file names and explains each moved
# case.
#
# Usage: tools/sim_golden_digest.sh <build-dir>
# Exit 0 when every case matches, 1 on any difference, 2 on usage errors.
set -u

if [ $# -ne 1 ]; then
  echo "usage: sim_golden_digest.sh <build-dir>" >&2
  exit 2
fi
build=$(cd "$1" 2>/dev/null && pwd) || {
  echo "sim_golden_digest: no build directory $1" >&2
  exit 2
}
cd "$(dirname "$0")/.." || exit 2
for bin in tools/casc_run tools/casc_chaos tools/casc_fuzz bench/bench_t2_simhost \
           examples/quickstart; do
  if [ ! -x "$build/$bin" ]; then
    echo "sim_golden_digest: missing $build/$bin" >&2
    exit 2
  fi
done

golden=tests/golden/sim_digest.txt
out=$build/sim_golden
rm -rf "$out"
mkdir -p "$out"
digest=$out/sim_digest.txt
: >"$digest"

# run <name> <binary> [args...]: runs the binary from the build tree in the
# repo root, saving exit code, stdout and stderr; `@JSON@` in an argument
# becomes the case's JSON output path.
run() {
  local name=$1 bin=$2
  shift 2
  local args=() a
  for a in "$@"; do
    args+=("${a//@JSON@/$out/$name.json}")
  done
  local rc=0
  "$build/$bin" "${args[@]}" >"$out/$name.stdout" 2>"$out/$name.stderr" || rc=$?
  echo "$rc" >"$out/$name.rc"
}

# record <name> <ext>...: appends the case's digest line, hashing the named
# outputs (a JSON the run did not write hashes as absent).
record() {
  local name=$1
  shift
  local ext
  echo "$name $(for ext in "$@"; do
    echo "$ext"
    cat "$out/$name.$ext" 2>/dev/null || echo "(absent)"
  done | sha256sum | cut -d' ' -f1)" >>"$digest"
}

for src in bench/bench_e*_*.cpp bench/bench_t1_*.cpp; do
  name=$(basename "$src" .cpp)
  run "$name" "bench/$name" --smoke --json=@JSON@
  record "$name" rc json
done

run bench_t2_simhost bench/bench_t2_simhost --smoke --json=@JSON@
python3 -c '
import json, sys
path = sys.argv[1]
with open(path) as f:
    rep = json.load(f)
host = {"host_ms", "sim_insts_per_sec", "events_per_sec"}
rep["results"] = [r for r in rep["results"] if r["metric"] not in host]
with open(path + ".sim", "w") as f:
    json.dump(rep, f, indent=1, sort_keys=True)
' "$out/bench_t2_simhost.json" 2>>"$out/bench_t2_simhost.stderr"
record bench_t2_simhost rc json.sim

for prog in tests/corpus/*.casm examples/asm/*.casm; do
  tag=run_$(echo "$prog" | tr '/.' '__')
  run "$tag" tools/casc_run "$prog" --stats-json=@JSON@
  record "$tag" rc stdout stderr json
  run "${tag}_c2" tools/casc_run "$prog" --cores=2 --stats-json=@JSON@
  record "${tag}_c2" rc stdout stderr json
  run "${tag}_c4" tools/casc_run "$prog" --cores=4 --threads-per-core=1 --stats-json=@JSON@
  record "${tag}_c4" rc stdout stderr json
done
run run_racy_store_c2x1 tools/casc_run tests/corpus/racy_store.casm \
  --cores=2 --threads-per-core=1 --stats-json=@JSON@
record run_racy_store_c2x1 rc stdout stderr json

for seed in 1 7 42; do
  run "chaos_s$seed" tools/casc_chaos --scenario=all --seed="$seed" --stats-json=@JSON@
  record "chaos_s$seed" rc stdout stderr json
done

run fuzz_s3 tools/casc_fuzz --seed=3 --iters=300 --out="$out/fuzz_out"
record fuzz_s3 rc stdout stderr

for src in examples/*.cpp; do
  name=example_$(basename "$src" .cpp)
  run "$name" "examples/$(basename "$src" .cpp)" --stats-json=@JSON@
  record "$name" rc stdout json
done

cases=$(wc -l <"$digest")
if cmp -s "$golden" "$digest"; then
  echo "sim_golden_digest: ok ($cases cases match $golden)"
  exit 0
fi
echo "sim_golden_digest: FAIL: simulated output differs from $golden" >&2
# A moved case differs in hash; a case only one side has is new or gone.
LC_ALL=C join -a1 -a2 -e - -o 0,1.2,2.2 \
  <(LC_ALL=C sort "$golden" 2>/dev/null) <(LC_ALL=C sort "$digest") |
  while read -r name want got; do
    if [ "$want" = - ]; then
      echo "  new:   $name" >&2
    elif [ "$got" = - ]; then
      echo "  gone:  $name" >&2
    elif [ "$want" != "$got" ]; then
      echo "  moved: $name (golden $want, now $got)" >&2
    fi
  done
echo "outputs are under $out; if every moved case is intended, accept with:" >&2
echo "  cp $digest $(pwd)/$golden" >&2
exit 1
