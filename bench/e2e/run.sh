#!/usr/bin/env bash
# The end-to-end benchmark: builds the library, rispard and the driver from
# this checkout's sources into build-e2e/, then runs one workload.
#
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bench/e2e/run.sh --smoke        # every workload for 2 s; nonzero exit on any failure
#   bench/e2e/run.sh --self-test    # the checker's bench-local test
#
# The last line of stdout is the result JSON; progress goes to stderr. With
# --trace 1 the spans land in build-e2e/ and waterfall.py prints the layer
# waterfall to stderr. README.md documents workloads and metrics.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
here=bench/e2e
build=build-e2e

workload=""
seed=""
seconds="10"
trace="0"
mode="run"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) mode="smoke"; shift ;;
    --self-test) mode="self-test"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ ! -f CMakeLists.txt || ! -d src || ! -f tools/rispard.cpp ]]; then
  echo "run.sh: no rispar sources at $root; the benchmark builds the program from them" >&2
  exit 2
fi

# The compiler's temporary files stay inside the checkout too.
export TMPDIR="$root/$build/tmp"
mkdir -p "$TMPDIR"

generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release "${generator[@]}" >&2
fi
cmake --build "$build" -j "$(nproc)" --target rispar_e2e e2e_checker_test >&2

if [[ "$mode" == "self-test" ]]; then
  exec "$build/e2e_checker_test"
fi

run_one() {  # workload seed seconds trace
  "$build/rispar_e2e" --workload "$1" --seed "$2" --seconds "$3" --trace "$4" \
    --pinned "$here/pinned.conf" --rispard "$build/rispar/rispard" --work-dir "$build"
}

if [[ -z "$seed" ]]; then
  seed="$(awk '$1 == "default_seed" { print $2 }' "$here/pinned.conf")"
fi

if [[ "$mode" == "smoke" ]]; then
  status=0
  for w in bulk-recognize bulk-find serve-tail serve-backfill; do
    result="$(run_one "$w" "$seed" 2 0)" || { status=1; continue; }
    echo "$w: $result"
    if ! grep -q '"correct": true, "attempted": [0-9]*, "failed": 0,' <<< "$result"; then
      echo "run.sh: smoke: $w had failed operations" >&2
      status=1
    fi
  done
  exit "$status"
fi

if [[ -z "$workload" ]]; then
  echo "run.sh: --workload is required" >&2
  exit 2
fi
result="$(run_one "$workload" "$seed" "$seconds" "$trace")"
if [[ "$trace" == "1" ]]; then
  python3 "$here/waterfall.py" "$build/spans-$workload-seed$seed.jsonl" >&2 ||
    echo "run.sh: waterfall.py failed" >&2
fi
echo "$result"
