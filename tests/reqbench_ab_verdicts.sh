#!/bin/sh
# Drives tools/reqbench_ab.py with the two stub reqbench binaries in
# tests/data/: the lean stub as the change must show its lower peak_rss_mb
# (and rel_wall) as a gain and exit 0; the slow stub as the change must show
# its 30% higher rel_wall as worse and exit 1.
#
# Usage: reqbench_ab_verdicts.sh <python3>
set -u
py=$1
here=$(cd "$(dirname "$0")" && pwd)
ab="$here/../tools/reqbench_ab.py"
lean="$here/data/reqbench_stub_lean"
slow="$here/data/reqbench_stub_slow"

out=$("$py" "$ab" "$slow" "$lean" --workload=trap_baseline --pairs=4 --seconds=1)
rc=$?
echo "$out"
[ $rc -eq 0 ] || { echo "FAIL: lean change exited $rc, want 0"; exit 1; }
echo "$out" | grep -Eq '^peak_rss_mb .* gain$' || { echo "FAIL: no peak_rss_mb gain"; exit 1; }
echo "$out" | grep -Eq '^setup_s .* flat$' || { echo "FAIL: setup_s not flat"; exit 1; }

out=$("$py" "$ab" "$lean" "$slow" --workload=trap_baseline --pairs=4 --seconds=1)
rc=$?
echo "$out"
[ $rc -eq 1 ] || { echo "FAIL: slow change exited $rc, want 1"; exit 1; }
echo "$out" | grep -Eq '^rel_wall .* worse$' || { echo "FAIL: no rel_wall worse"; exit 1; }
echo "reqbench_ab_verdicts: ok"
