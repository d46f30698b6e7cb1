#!/usr/bin/env bash
# Download a small set of real SuiteSparse graphs and run the
# Graph500-style BFS kernel over them (the `graph500` bench bin with the
# .mtx files as arguments), emitting BENCH_realgraph.json for the
# `compare` regression gate.
#
# Everything else in this repo runs offline; this script is the one
# deliberately-online leg, so it SOFT-FAILS on network trouble: if no
# graph can be fetched it prints a notice and exits 0 (CI's scheduled
# job then simply has nothing to compare). Downloads are cached in
# $CACHE_DIR, so repeat runs (and the CI cache action) skip the network.
#
#   THREADS=8 SOURCES=16 ./scripts/realgraph.sh
#   BASELINE=results/BENCH_realgraph_prev.json ./scripts/realgraph.sh
#
# With BASELINE set and present, the fresh report is diffed against it
# with the regression gate (informational here; the scheduled workflow
# decides what to do with the exit code). A baseline of another schema
# version makes the gate exit 2 instead of diffing.
set -uo pipefail
cd "$(dirname "$0")/.."

THREADS="${THREADS:-8}"
SOURCES="${SOURCES:-8}"
SEED="${SEED:-1}"
CACHE_DIR="${CACHE_DIR:-.realgraph-cache}"
BASELINE="${BASELINE:-}"

# Small, well-connected SuiteSparse matrices (MatrixMarket format):
# undirected road-ish / web-ish graphs in the few-hundred-K-edge range —
# big enough to exercise stealing, small enough for a CI runner.
GRAPHS=(
  "https://suitesparse-collection-website.herokuapp.com/MM/SNAP/ca-GrQc.tar.gz ca-GrQc"
  "https://suitesparse-collection-website.herokuapp.com/MM/SNAP/as-735.tar.gz as-735"
  "https://suitesparse-collection-website.herokuapp.com/MM/Gleich/minnesota.tar.gz minnesota"
)

mkdir -p "$CACHE_DIR"
fetched=()

for entry in "${GRAPHS[@]}"; do
    url="${entry% *}"
    name="${entry#* }"
    mtx="$CACHE_DIR/$name.mtx"
    if [[ -s "$mtx" ]]; then
        echo "cached: $mtx"
        fetched+=("$mtx")
        continue
    fi
    echo "fetching $name ..."
    tmp="$CACHE_DIR/$name.tar.gz"
    if curl -fsSL --connect-timeout 15 --max-time 300 -o "$tmp" "$url"; then
        # Archives unpack to <name>/<name>.mtx.
        if tar -xzf "$tmp" -C "$CACHE_DIR" && [[ -s "$CACHE_DIR/$name/$name.mtx" ]]; then
            mv "$CACHE_DIR/$name/$name.mtx" "$mtx"
            rm -rf "$CACHE_DIR/$name" "$tmp"
            fetched+=("$mtx")
        else
            echo "notice: $name: archive did not contain $name.mtx; skipping" >&2
            rm -rf "$CACHE_DIR/$name" "$tmp"
        fi
    else
        echo "notice: could not download $name (network unavailable?); skipping" >&2
        rm -f "$tmp"
    fi
done

if [[ ${#fetched[@]} -eq 0 ]]; then
    echo "realgraph.sh: no graphs available (offline?) — nothing to do, exiting 0"
    exit 0
fi

set -e
cargo run --release -q -p obfs-bench --bin graph500 -- \
    "${fetched[@]}" --json --threads "$THREADS" --sources "$SOURCES" --seed "$SEED"

if [[ -n "$BASELINE" && -s "$BASELINE" ]]; then
    echo "== regression gate vs $BASELINE =="
    cargo run --release -q -p obfs-bench --bin compare -- \
        "$BASELINE" BENCH_realgraph.json
else
    echo "realgraph.sh: no baseline to compare against (set BASELINE=...)"
fi
