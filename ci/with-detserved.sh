#!/usr/bin/env bash
# Boot one detserved, drive it with one detload, drain it.
#
#   ci/with-detserved.sh <detserved args> -- <detload args>
#
# The only place the boot/drain protocol is written down: detserved binds
# an ephemeral port and publishes the address to a ready file (atomic
# rename, only once the listener is accepting); detload blocks on that
# file, drives its sweeps, and --shutdown drains the daemon so the final
# `wait` observes a clean exit. The exit code is detload's verdict, or
# detserved's if the load passed but the daemon did not stop cleanly.
# Run from the repository root after `cargo build --release`.
set -euo pipefail

served_args=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  served_args+=("$1")
  shift
done
[ "$#" -gt 0 ] || { echo "usage: $0 <detserved args> -- <detload args>" >&2; exit 2; }
shift

ready="$(mktemp -u "${TMPDIR:-/tmp}/detserved.XXXXXX.ready")"
./target/release/detserved --addr 127.0.0.1:0 "${served_args[@]}" --ready-file "$ready" &
served_pid=$!
# A failed load must not leave the daemon behind.
trap 'kill "$served_pid" 2>/dev/null || true; rm -f "$ready"' EXIT

./target/release/detload --ready-file "$ready" "$@" --shutdown
wait "$served_pid"
