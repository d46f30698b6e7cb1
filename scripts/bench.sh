#!/usr/bin/env bash
# Regenerate every recorded benchmark artifact: the human-readable tables
# in results/*.txt and the machine-readable BENCH_<name>.json reports of
# the commands that take --json (`paper table6`, `paper fig3`, graph500,
# and bombard, which writes BENCH_serve.json), all in schema v6, where `teps` is Graph500
# TEPS: the traversed component's input edges over traversal time,
# harmonic mean over runs. Run from anywhere in the repo; artifacts land
# in results/ and the repo root.
#
# The flag values below are the ones the committed results were recorded
# with; override via env, e.g.
#
#   DIVISOR=128 THREADS=4 ./scripts/bench.sh        # quicker smoke pass
#   ONLY=table6 ./scripts/bench.sh                  # one benchmark
#
# ONLY takes a `paper` mode (table4 table5 table6 fig2 fig3 ablations
# levels) or graph500 or bombard.
#
# Every emitted BENCH_*.json is schema-validated by the bin itself before
# it exits (and again by tests/bench_schema.rs), so a bad report fails
# this script rather than landing in a commit.
set -euo pipefail
cd "$(dirname "$0")/.."

DIVISOR="${DIVISOR:-64}"
THREADS="${THREADS:-12}"
SOURCES="${SOURCES:-8}"
SEED="${SEED:-1}"
ONLY="${ONLY:-}"

# run <name> <outfile> <flags...> — <name> is a `paper` mode, or the
# graph500 or bombard bin. The tee happens inside so a skipped benchmark
# (ONLY=...) never truncates another benchmark's recording.
run() {
    local name="$1" out="$2"
    shift 2
    if [[ -n "$ONLY" && "$ONLY" != "$name" ]]; then
        return
    fi
    echo "== bench: $name =="
    case "$name" in
        graph500 | bombard) set -- --bin "$name" -- "$@" ;;
        *) set -- --bin paper -- "$name" "$@" ;;
    esac
    cargo run --release -q -p obfs-bench "$@" | tee "$out"
}

mkdir -p results

# Tables and figures of the paper (text artifacts).
run table4 results/table4.txt --divisor "$DIVISOR" --seed "$SEED"
run table5 results/table5_p12.txt --divisor "$DIVISOR" --threads 12 --sources "$SOURCES" --seed "$SEED"
run table5 results/table5_p32.txt --divisor "$DIVISOR" --threads 32 --sources "$SOURCES" --seed "$SEED"
run fig2 results/fig2.txt --divisor "$DIVISOR" --sources 5 --seed "$SEED"
run levels results/levels.txt --divisor "$DIVISOR" --threads "$THREADS" --seed "$SEED"
run ablations results/ablations.txt --divisor "$DIVISOR" --threads "$THREADS" --sources "$SOURCES" --seed "$SEED"

# The commands with machine-readable reports (BENCH_<name>.json in CWD).
run table6 results/table6.txt --json --hybrid --divisor "$DIVISOR" --threads "$THREADS" --sources 20 --seed "$SEED"
run fig3 results/fig3.txt --json --divisor "$DIVISOR" --threads "$THREADS" --sources "$SOURCES" --seed "$SEED"
run graph500 results/graph500.txt --json --divisor 32 --threads "$THREADS" --sources 16 --seed "$SEED"
run bombard results/bombard.txt --json --batch --divisor "$DIVISOR" --threads "$THREADS" --seed "$SEED" \
    --queries 512 --capacity 256 --burst 256

echo "bench.sh: done (tables in results/, reports in BENCH_*.json)"
