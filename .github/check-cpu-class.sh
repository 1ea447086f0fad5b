#!/usr/bin/env bash
# Checks which artifacts a CPU class writes differently from this runner:
#
#   bash .github/check-cpu-class.sh NORMAL_DIR CLASS CLASS_DIR
#
# NORMAL_DIR and CLASS_DIR hold two runs of write-artifacts.sh, the second
# under the switch that stands in for CLASS (see the workflow).  A file
# that differs must be one .github/cpu-class-diffs.txt lists for CLASS;
# any other fails and is named, so a new CPU-dependent path fails here.
# Listed files that come out equal are only reported: a runner already of
# that class, or another numpy or OpenBLAS build, may write fewer of them
# differently.
set -euo pipefail

normal=$1
class=$2
other=$3
list="$(dirname "$0")/cpu-class-diffs.txt"

if ! diff <(ls "$normal") <(ls "$other"); then
  echo "$class: the two runs wrote different file names" >&2
  exit 1
fi
expected=$(awk -v class="$class" '$1 == class { print $2 }' "$list" | sort)
actual=$(for f in $(ls "$normal"); do cmp -s "$normal/$f" "$other/$f" || echo "$f"; done | sort)

unlisted=$(comm -13 <(echo "$expected") <(echo "$actual") | grep . || true)
equal=$(comm -23 <(echo "$expected") <(echo "$actual") | grep . || true)
echo "$class: $(echo "$actual" | grep -c . || true) files differ"
if [ -n "$equal" ]; then
  echo "$class: listed but equal here (information only):"
  echo "$equal"
fi
if [ -n "$unlisted" ]; then
  echo "$class: differ but not listed:" >&2
  echo "$unlisted" >&2
  exit 1
fi
