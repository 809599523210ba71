#!/usr/bin/env bash
# Boot detserved, drive it with one detload, drain it.
#
#   ci/with-detserved.sh [--group N] <detserved args> -- <detload args>
#
# The only place the boot/drain protocol is written down: every detserved
# binds an ephemeral port and publishes the address to a ready file
# (atomic rename, only once the listener is accepting); detload blocks on
# the front's file, drives its sweeps, and --shutdown drains what it
# talked to so the final `wait`s observe clean exits. With --group N the
# <detserved args> boot N backend processes and the front is a
# `detserved --route` consistent-hash router over them (the requests the
# receipt audit schedule picks go to a second backend and their receipts
# meet the owner's in the router's ledger); the router's shutdown drains
# every backend before it answers. The exit code is
# detload's verdict, or a detserved's if the load passed but a daemon did
# not stop cleanly. Run from the repository root after
# `cargo build --release`.
set -euo pipefail

group=0
if [ "${1:-}" = "--group" ]; then
  group="$2"
  shift 2
fi
served_args=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  served_args+=("$1")
  shift
done
[ "$#" -gt 0 ] || { echo "usage: $0 [--group N] <detserved args> -- <detload args>" >&2; exit 2; }
shift

dir="$(mktemp -d "${TMPDIR:-/tmp}/detserved.XXXXXX")"
pids=()
# A failed load must not leave a daemon behind.
trap 'kill "${pids[@]}" 2>/dev/null || true; rm -rf "$dir"' EXIT

boot() { # boot <name> <detserved args>: start one daemon publishing $dir/<name>
  local name="$1"
  shift
  ./target/release/detserved --addr 127.0.0.1:0 "$@" --ready-file "$dir/$name" &
  pids+=("$!")
}

if [ "$group" -gt 0 ]; then
  route=""
  for i in $(seq 1 "$group"); do boot "backend$i" "${served_args[@]}"; done
  for i in $(seq 1 "$group"); do
    for _ in $(seq 1 150); do
      [ -s "$dir/backend$i" ] && break
      sleep 0.2
    done
    [ -s "$dir/backend$i" ] || { echo "backend $i never published an address" >&2; exit 1; }
    route+="${route:+,}$(cat "$dir/backend$i")"
  done
  boot front --route "$route"
else
  boot front "${served_args[@]}"
fi

./target/release/detload --ready-file "$dir/front" "$@" --shutdown
for pid in "${pids[@]}"; do wait "$pid"; done
