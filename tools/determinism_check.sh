#!/bin/sh
# Determinism check: run each example twice with --stats-json and require
# byte-identical stats dumps. The simulator is a single-threaded discrete-event
# machine with a seeded RNG, so any divergence between identical runs is a
# nondeterminism bug (unseeded randomness, iteration over pointer-keyed maps,
# uninitialized reads) — the kind that silently breaks differential fuzzing.
#
# With a casc_run binary and a program as extra arguments, the check also
# runs that program twice on two cores of one thread each, so its harness
# thread t1 runs on core 1, and both the stats dumps and stdout must be
# byte-identical (cross-core traffic goes through the same check).
#
# Usage: determinism_check.sh <examples-dir> <scratch-dir> [<casc_run> <prog.casm>]
set -eu

bindir=${1:?usage: determinism_check.sh <examples-dir> <scratch-dir>}
scratch=${2:?usage: determinism_check.sh <examples-dir> <scratch-dir>}
casc_run=${3:-}
prog=${4:-}
mkdir -p "$scratch"

fail=0
for name in quickstart echo_server; do
  bin="$bindir/$name"
  if [ ! -x "$bin" ]; then
    echo "determinism_check: missing binary $bin" >&2
    exit 2
  fi
  a="$scratch/$name.run1.json"
  b="$scratch/$name.run2.json"
  "$bin" --stats-json="$a" > /dev/null
  "$bin" --stats-json="$b" > /dev/null
  if ! cmp -s "$a" "$b"; then
    echo "determinism_check: $name stats dumps differ:" >&2
    diff "$a" "$b" >&2 || true
    fail=1
  else
    echo "determinism_check: $name ok ($(wc -c < "$a") bytes, byte-identical)"
  fi
done

if [ -n "$casc_run" ]; then
  if [ ! -x "$casc_run" ] || [ ! -f "$prog" ]; then
    echo "determinism_check: missing casc_run ($casc_run) or program ($prog)" >&2
    exit 2
  fi
  a="$scratch/cores2.run1.json"
  b="$scratch/cores2.run2.json"
  "$casc_run" "$prog" --cores=2 --threads-per-core=1 --stats-json="$a" > "$a.out"
  "$casc_run" "$prog" --cores=2 --threads-per-core=1 --stats-json="$b" > "$b.out"
  if ! cmp -s "$a" "$b" || ! cmp -s "$a.out" "$b.out"; then
    echo "determinism_check: $(basename "$prog") --cores=2 runs differ:" >&2
    diff "$a" "$b" >&2 || true
    diff "$a.out" "$b.out" >&2 || true
    fail=1
  else
    echo "determinism_check: $(basename "$prog") --cores=2 ok (stats + stdout byte-identical)"
  fi
fi
exit "$fail"
