#!/usr/bin/env sh
# Offline CI for presage: tier-1 build + tests with warnings denied, then
# a perfsuite smoke pass (placement, end-to-end prediction, and the
# symbolic engine micro-benchmark on reduced budgets). No network access
# is required or attempted — the workspace has no external dependencies.
#
# Usage: scripts/ci.sh [--server-only]
#
# `--server-only` runs just the epoch-reclamation / daemon gate: the
# perfsuite server soak (footprint ceilings + oracle bit-identity over
# ≥3 reclaiming epochs, writes BENCH_server.json), the stale-L1 and
# cap-pressure regressions, and the server's malformed-job negatives.
set -eu

cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"

if [ "${1:-}" = "--server-only" ]; then
    echo "== server: epoch soak + footprint ceilings + oracle bit-identity (writes BENCH_server.json)"
    cargo run --release -p presage-bench --bin perfsuite -- --server-only

    echo "== server: stale-L1 + cap-pressure + recycled-slot regressions"
    cargo test -q -p presage-symbolic --test cap_pressure

    echo "== server: malformed-job negatives + wave protocol + concurrent TCP connections"
    cargo test -q -p presage-server

    echo "ci: server-only checks passed"
    exit 0
fi

echo "== format: cargo fmt --check"
cargo fmt --check

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== workspace: build + test (all crates, warnings denied)"
cargo build --release --workspace
cargo test -q --workspace

echo "== lint: cargo clippy (whole workspace, all targets, warnings denied)"
cargo clippy --release --workspace --all-targets -- -D warnings

echo "== translation cache: differential proof against the uncached oracle"
cargo test -q -p presage-core --test translation_cache

echo "== canonicalization: malformed variants are rejected, not panics"
cargo test -q -p presage-opt --test variant_rejection

echo "== simulator: event-driven engine differential proof vs cycle-driven oracle"
cargo test -q -p presage-sim --test differential

echo "== symbolic: id-keyed algebra differential proof + predict_batch == sequential (1..16 workers)"
cargo test -q --test symbolic_differential
cargo test -q -p presage-core batch::

echo "== contention: identical jobs on all workers stay bit-identical"
cargo test -q --test symbolic_differential contended_identical_jobs_stay_bit_identical

echo "== structural canonicalization: normalize-vs-reparse differential + e-graph dominance"
cargo test -q --test normalize_differential
cargo test -q --test structural_search

echo "== batch scaling: 1..4-worker monotone floor + soak footprint ceilings"
cargo run --release -p presage-bench --bin perfsuite -- --batch-only

echo "== memory model: differential proof vs the line-counting cache + machine-file negatives"
cargo test -q --test memcost_differential
cargo test -q --test machine_files

echo "== memory model: memoized mem_cost floor + memory-vs-compute split (writes BENCH_memory.json)"
cargo run --release -p presage-bench --bin perfsuite -- --memory-only

echo "== variant search: e-graph vs textual A* floor (full budgets, writes BENCH_search.json)"
cargo run --release -p presage-bench --bin perfsuite -- --search-only

echo "== server loop: epoch soak, footprint ceilings, oracle bit-identity (writes BENCH_server.json)"
cargo run --release -p presage-bench --bin perfsuite -- --server-only

echo "== epoch reclamation: differential proof across reclaiming epochs"
cargo test -q --test epoch_differential
cargo test -q -p presage-symbolic --test cap_pressure

echo "== perfsuite --smoke (placement + prediction + translation + symbolic + simulator + search + memory)"
cargo run --release -p presage-bench --bin perfsuite -- --smoke --out BENCH_smoke.json --search-out BENCH_search_smoke.json --memory-out BENCH_memory_smoke.json
rm -f BENCH_smoke.json BENCH_search_smoke.json BENCH_memory_smoke.json

echo "ci: all checks passed"
