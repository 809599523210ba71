#!/usr/bin/env bash
# Stress the real-thread determinism of detlock-core.
#
#   ci/stress-core.sh [N]        (default 30)
#
# The only place the stress loop is written down: N iterations of the
# detlock-core suite plus the two real-thread integration suites, while two
# spin hogs burn core 0. Each iteration runs every suite under two
# placements, because they starve a race differently:
#
#   taskset -c 0   pinned to the hogs' core: three-way oversubscribed, a
#                  thread loses the CPU for whole timeslices at arbitrary
#                  points (a long stall between two steps);
#   (unpinned)     the suite's threads truly overlap on the other cores,
#                  which is what a window a few instructions wide needs.
#                  Measured with a known determinism bug re-introduced as
#                  a mutant, a tick before the acquisition record: this
#                  script stopped on it at iteration 1, in the unpinned
#                  half.
#
# Stops at the first failing run and prints its output, which carries the
# failing test's "first divergence at event ..." line. Run from the
# repository root.
set -euo pipefail
n="${1:-30}"

suites=(
  "-p detlock-core"
  "--test runtime_determinism --test fault_tolerance"
)
# Build once, before the hogs start, so the loop below only runs.
for suite in "${suites[@]}"; do
  # shellcheck disable=SC2086  # $suite and $pin are word lists
  cargo test --release -q --no-run $suite
done

hogs=()
for _ in 1 2; do
  taskset -c 0 sh -c 'while :; do :; done' &
  hogs+=("$!")
done
trap 'kill "${hogs[@]}" 2>/dev/null || true' EXIT

log="$(mktemp)"
for i in $(seq 1 "$n"); do
  for pin in "taskset -c 0" ""; do
    for suite in "${suites[@]}"; do
      # shellcheck disable=SC2086
      if ! $pin cargo test --release -q $suite >"$log" 2>&1; then
        echo "core-stress: iteration $i/$n FAILED: ${pin:-unpinned} cargo test --release $suite"
        cat "$log"
        exit 1
      fi
    done
  done
done
echo "core-stress: $n/$n iterations passed"
