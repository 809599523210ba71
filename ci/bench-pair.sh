#!/usr/bin/env bash
# Parent commit against the working tree on one benchmark workload, in
# alternating pairs.
#
#   ci/bench-pair.sh <workload> [pairs=10] [parent=HEAD]
#
# The protocol every performance claim in this repository is measured by
# (the `choosing-metrics` guide, section 8): the same benchmark command on
# both sides — BENCHMARK.json's — one run of each per pair, which side goes
# first flipping with every pair, a fresh --seed per pair; then, per
# end-to-end metric, each side's median and inter-quartile range and how
# many pairs the working tree won (ties count for neither side). A gain may
# be claimed when the tree wins at least nine pairs in ten and the medians
# differ by more than the parent's inter-quartile range.
#
# The parent's files are exported with `git archive` into
# target/bench-pair/<commit>/ (kept, so a second workload reuses its build);
# the working tree is benchmarked in place, uncommitted changes included.
# Every run's result line goes to target/bench-pair/<workload>.jsonl.
# Nothing under benchmark/ is written but the build directory its own
# manifest names. Run from the repository root; ≈1 min per pair.
set -euo pipefail

[ "$#" -ge 1 ] && [ "$#" -le 3 ] || { echo "usage: $0 <workload> [pairs=10] [parent=HEAD]" >&2; exit 2; }
workload="$1"
pairs="${2:-10}"
parent="$(git rev-parse --verify "${3:-HEAD}^{commit}")"

root="$PWD"
out="$root/target/bench-pair"
parent_dir="$out/$parent"
log="$out/$workload.jsonl"
# BENCHMARK.json's run length, then its command, one word per line.
mapfile -t decl < <(python3 -c 'import json; b = json.load(open("BENCHMARK.json")); print(b["run_seconds"], *b["command"], sep="\n")')
seconds="${decl[0]}"
cmd=("${decl[@]:1}")

if [ ! -d "$parent_dir" ]; then
  mkdir -p "$parent_dir"
  git archive "$parent" | tar -x -C "$parent_dir"
fi
# Build both sides before anything is timed: the wiring mode runs one block.
for dir in "$parent_dir" "$root"; do
  (cd "$dir" && "${cmd[@]}" --quick --workload "$workload" > /dev/null)
done

: > "$log"
run() { # run <side> <dir> <seed>: one benchmark run, its result line tagged and logged
  local line
  line="$(cd "$2" && "${cmd[@]}" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)" || true
  echo "{\"side\": \"$1\", \"seed\": $3, \"result\": ${line:-null}}" >> "$log"
}
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run parent "$parent_dir" "$pair"; run tree "$root" "$pair"
  else
    run tree "$root" "$pair"; run parent "$parent_dir" "$pair"
  fi
  echo "pair $pair/$pairs done" >&2
done

python3 - "$log" "$workload" "$parent" <<'PY'
import json, statistics, sys

log, workload, parent = sys.argv[1:]
runs = [json.loads(line) for line in open(log)]
sides = {side: {r["seed"]: r["result"] for r in runs if r["side"] == side} for side in ("parent", "tree")}
bad = [(r["side"], r["seed"]) for r in runs if not r["result"] or not r["result"]["correct"] or r["result"]["failed"]]
print(f"{workload}: parent {parent[:7]} vs working tree, {len(sides['tree'])} pairs (seeds 1..{len(sides['tree'])})")
print(f"runs with a failed op or no result: {bad or 'none'}")
if bad:
    sys.exit(1)

def quartiles(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return statistics.median(xs), q3 - q1

print(f"{'metric':<18}{'parent median':>15}{'iqr':>10}{'tree median':>15}{'iqr':>10}{'ratio':>8}  wins/pairs")
for metric in json.load(open("BENCHMARK.json"))["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    a = [sides["parent"][s]["metrics"][name]["value"] for s in sorted(sides["parent"])]
    b = [sides["tree"][s]["metrics"][name]["value"] for s in sorted(sides["tree"])]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
    (ma, ia), (mb, ib) = quartiles(a), quartiles(b)
    ratio = f"{mb / ma:.3f}" if ma else "-"
    same = "  identical in every pair" if a == b else ""
    print(f"{name:<18}{ma:>15.4f}{ia:>10.4f}{mb:>15.4f}{ib:>10.4f}{ratio:>8}  {wins}/{len(a)}{same}")
PY
