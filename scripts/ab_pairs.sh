#!/usr/bin/env bash
# A/B the repo benchmark (benchmark/, BENCHMARK.json) between a parent
# revision and the working tree, in alternating pairs of runs.
#
#   scripts/ab_pairs.sh PARENT_REV WORKLOAD [PAIRS]
#   SEED=41 scripts/ab_pairs.sh HEAD~1 serve-batch 10
#
# The parent (`git archive PARENT_REV`) and the working tree (tracked and
# untracked, not ignored, files) are copied afresh to target/ab/parent and
# target/ab/change, and the benchmark is built in each copy with
# `--offline`, into target/ab/parent.target and target/ab/change.target,
# which persist between calls so an unchanged side rebuilds nothing.
# `git archive` dates every file by its commit, so when PARENT_REV names
# another commit than the one last built, the parent's files are touched
# first: an older commit's files would look older than the last build, and
# cargo would reuse it. A benchmark build rewrites benchmark/Cargo.lock,
# so it only ever runs in the copies; the checkout's own lock file is
# never touched.
#
# Pair i (0-based) runs both sides with `--trace 0` for the `run_seconds`
# BENCHMARK.json sets (10) on seed SEED+i (default SEED=1), parent first on
# even pairs and change first on odd ones, so slow drift of the host does
# not favour one side.
#
# For each end-to-end metric BENCHMARK.json declares, the summary prints
# each side's median and quartiles, the change's median relative to the
# parent's, and how many pairs the change won (by the metric's `better`
# direction). It also prints whether every run was correct and how many
# operations failed. Raw result lines go to target/ab/WORKLOAD.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 PARENT_REV WORKLOAD [PAIRS]" >&2
    exit 2
fi
PARENT_REV="$1"
WORKLOAD="$2"
PAIRS="${3:-10}"
SEED="${SEED:-1}"
AB=target/ab

PARENT_SHA=$(git rev-parse --verify --quiet "$PARENT_REV^{commit}") || {
    echo "error: unknown revision $PARENT_REV" >&2
    exit 2
}
python3 -c 'import json, sys
names = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]
sys.exit(0 if sys.argv[1] in names else 1)' "$WORKLOAD" || {
    echo "error: BENCHMARK.json declares no workload $WORKLOAD" >&2
    exit 2
}
RUN_SECONDS=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

# Fresh copies; extraction keeps file times, so the persistent target
# directories see unchanged files as unchanged. The result file is
# emptied first, so nothing read from it during the builds can be a
# previous call's rows.
OUT="$AB/$WORKLOAD.jsonl"
rm -rf "$AB/parent" "$AB/change"
mkdir -p "$AB/parent" "$AB/change"
: >"$OUT"
git archive "$PARENT_REV" | tar -x -C "$AB/parent"
BUILT_REV="$AB/parent.target/ab-parent-rev"
if [ "$(cat "$BUILT_REV" 2>/dev/null)" != "$PARENT_SHA" ]; then
    rm -f "$BUILT_REV"
    find "$AB/parent" -type f -exec touch {} +
fi
git ls-files -z --cached --others --exclude-standard \
    | tar --null --ignore-failed-read -T - -cf - 2>/dev/null \
    | tar -x -C "$AB/change"

for side in parent change; do
    echo "building the benchmark in $AB/$side" >&2
    cargo build --release --quiet --offline \
        --manifest-path "$AB/$side/benchmark/Cargo.toml" --target-dir "$AB/$side.target" >&2
done
echo "$PARENT_SHA" >"$BUILT_REV"

run() { # run SIDE PAIR SEED
    local line
    line=$(cd "$AB/$1" && "../$1.target/release/obfs-benchmark" \
        --workload "$WORKLOAD" --seed "$3" --seconds "$RUN_SECONDS" --trace 0 | tail -n 1)
    printf '{"side":"%s","pair":%d,"seed":%d,"result":%s}\n' "$1" "$2" "$3" "$line" >>"$OUT"
}
for ((i = 0; i < PAIRS; i++)); do
    s=$((SEED + i))
    echo "pair $((i + 1))/$PAIRS (seed $s)" >&2
    if ((i % 2 == 0)); then
        run parent "$i" "$s"
        run change "$i" "$s"
    else
        run change "$i" "$s"
        run parent "$i" "$s"
    fi
done

python3 - "$OUT" "$WORKLOAD" "$PARENT_REV" <<'EOF'
import json, statistics, sys

out, workload, rev = sys.argv[1:4]
rows = [json.loads(l) for l in open(out)]
spec = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {"parent": {}, "change": {}}
for r in rows:
    runs[r["side"]][r["pair"]] = r["result"]
pairs = sorted(set(runs["parent"]) & set(runs["change"]))

def quart(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3

print(f"{workload}: {len(pairs)} pairs, parent {rev} vs working tree")
for side in ("parent", "change"):
    rs = [runs[side][p] for p in pairs]
    correct = all(r["correct"] for r in rs)
    failed = sum(r["failed"] for r in rs)
    attempted = sum(r["attempted"] for r in rs)
    print(f"  {side}: every run correct: {correct}; failed {failed:g} of {attempted:g} operations")

def cell(med, q1, q3):
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

print(f"  {'metric':<20} {'parent median [q1, q3]':<28} {'change median [q1, q3]':<28}"
      f" {'change/parent':>13} {'won':>7}")
for m in spec:
    name = m["name"]
    vals = {s: [runs[s][p]["metrics"][name]["value"] for p in pairs
                if name in runs[s][p]["metrics"]] for s in runs}
    if len(vals["parent"]) != len(pairs) or len(vals["change"]) != len(pairs):
        print(f"  {name:<20} (not reported by this workload)")
        continue
    higher = m["better"] == "higher"
    won = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
    par, chg = quart(vals["parent"]), quart(vals["change"])
    rel = f"{chg[0] / par[0] - 1:+.1%}" if par[0] else "n/a"
    print(f"  {name:<20} {cell(*par):<28} {cell(*chg):<28} {rel:>13} {won:>3}/{len(pairs)}")
EOF
