#!/usr/bin/env bash
# Negative controls: each patch in ci/mutants/ plants one known bug, and
# the tests its header names must fail on it.
#
#   ci/mutants.sh [ci/mutants/NAME.patch ...]    (default: every patch)
#
# A patch is headed by prose saying what it breaks, then one line per
# test command that must fail, as `cargo test --release` arguments:
#
#   Must fail: --test matrix -- --exact hammer_schedules_are_pinned
#
# One temporary git worktree of HEAD serves every mutant: the patch goes
# in with `git apply`, each named command builds and runs, and the
# worktree is reset before the next patch, so cargo rebuilds only what a
# patch touched (one shared target dir, $CARGO_TARGET_DIR or
# target/mutants). A patch that no longer applies, a mutant that does not
# build, and a named command that passes (a filter that matches no test
# passes too) each fail the run. Prints one row per mutant, with the
# first panic message of a caught one. Run from anywhere in the repository.
set -euo pipefail
root=$(git rev-parse --show-toplevel)
cd "$root"
patches=("$@")
[ ${#patches[@]} -gt 0 ] || patches=(ci/mutants/*.patch)

tmp=$(mktemp -d)
wt="$tmp/wt"
trap 'git worktree remove --force "$wt" >/dev/null 2>&1; git worktree prune; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$wt" HEAD
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/mutants}"

failed=0
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  log="$tmp/$name.log"
  git -C "$wt" reset --quiet --hard
  mapfile -t commands < <(sed -n 's/^Must fail: //p' "$patch")
  verdict=""
  if [ ${#commands[@]} -eq 0 ]; then
    verdict="NAMES NO TEST"
  elif ! git -C "$wt" apply "$root/$patch" 2>"$log"; then
    verdict="DOES NOT APPLY: $(head -n 1 "$log")"
  else
    for command in "${commands[@]}"; do
      read -ra args <<<"$command"
      build=()
      for a in "${args[@]}"; do
        [ "$a" = "--" ] && break
        build+=("$a")
      done
      if ! (cd "$wt" && cargo test --release --quiet --no-run "${build[@]}") >"$log" 2>&1; then
        verdict="DOES NOT BUILD"
        break
      fi
      if (cd "$wt" && cargo test --release --quiet "${args[@]}") >"$log" 2>&1; then
        verdict="SURVIVED: $command"
        break
      fi
    done
  fi
  if [ -n "$verdict" ]; then
    failed=1
    printf '%-30s %s\n' "$name" "$verdict"
    tail -n 20 "$log" | sed 's/^/    /'
  else
    caught=$(grep -m 1 -A 1 'panicked at' "$log" | tail -n 1)
    printf '%-30s caught: %s\n' "$name" "$caught"
  fi
done
exit "$failed"
