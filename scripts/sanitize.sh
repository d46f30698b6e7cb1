#!/usr/bin/env bash
# Sanitizer + fault-injection + static-analysis gate (invoked by
# .github/workflows/ci.yml, runnable locally from anywhere in the repo).
#
# Four legs:
#   1. Bounded model checking: `obfs model` explores interleavings of
#      the three racy protocol cores over virtualized TSO memory and
#      must find every seeded bug while the real protocols hold
#      (crates/core/src/model). Always runs — needs no nightly, no
#      sanitizer runtime, no network.
#   2. obfs-lint: the token-aware race-surface audit — SAFETY comments
#      on every unsafe block, the counted crates/sync containment
#      allowlist, zero locks/RMWs in every hot-path region (budgets
#      pinned in lint/budget.txt), `// ord:` justifications on strong
#      orderings, racy-protocol claim/revalidation pairing, feature-shim
#      signature parity, and DESIGN.md flight-taxonomy drift — then the
#      mutation self-test, which seeds an RMW into a live hot-path
#      region and requires the analyzer to catch it. Always runs.
#   3. The chaos suite: every parallel algorithm under deterministic
#      fault plans, asserting exact results AND that each recovery
#      counter fires (tests/chaos.rs + the chaos-gated unit tests).
#   4. ThreadSanitizer over the racy cells. They are relaxed atomics,
#      which are not data races, so TSan verifies no unintended
#      plain-memory race snuck into the queues, barrier, worker pool, or
#      driver — nor into the graph builder, whose parallel counting sort
#      makes plain cross-thread writes to disjoint slots (obfs-util's
#      stable scatter, obfs-graph's builder, transpose and RMAT).
#      Requires nightly + rust-src (-Zbuild-std instruments std too);
#      skipped with a warning when unavailable (e.g. offline sandboxes).
#
# Legs 3 and 4 are the *dynamic* race checks; legs 1 and 2 are static
# and unconditional, so the gate still exercises the racy protocols
# even where TSan cannot run. If every dynamic AND model-based race leg
# were skipped the gate would be vacuous, so that exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

race_legs_run=0

echo "== leg 1: bounded model check of the racy protocol cores =="
cargo run --release --quiet -p obfs-cli -- model
race_legs_run=$((race_legs_run + 1))

echo "== leg 2: obfs-lint (race-surface audit + mutation self-test) =="
cargo run --release --quiet -p obfs-lint -- .
./scripts/lint_selftest.sh

echo "== leg 3: chaos fault-injection suite =="
cargo test --features chaos --quiet
race_legs_run=$((race_legs_run + 1))

echo "== leg 4: ThreadSanitizer on the racy cells =="
host="$(rustc -vV | sed -n 's/^host: //p')"
src_lock="$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library/Cargo.lock"
if [[ -f "$src_lock" ]]; then
    # --lib --tests: doctests don't link against the instrumented std.
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" \
        -p obfs-util -p obfs-graph -p obfs-sync -p obfs-runtime -p obfs-core \
        --lib --tests --quiet
    race_legs_run=$((race_legs_run + 1))
else
    echo "warning: nightly rust-src not installed; skipping the TSan leg" >&2
    echo "         (rustup component add rust-src --toolchain nightly)" >&2
fi

if [[ "$race_legs_run" -eq 0 ]]; then
    echo "error: every race-checking leg was skipped — the gate verified nothing" >&2
    exit 1
fi

echo "sanitize.sh: all gates passed ($race_legs_run race-checking legs ran)"
