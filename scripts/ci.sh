#!/usr/bin/env sh
# Offline CI for presage: tier-1 build + tests with warnings denied, the
# differential proofs, then one perfsuite run that checks every gate in
# its table and writes BENCH_perfsuite.json. No network access is
# required or attempted — the workspace has no external dependencies.
#
# Usage: scripts/ci.sh [--server-only]
#
# `--server-only` runs just the epoch-reclamation / daemon gate: the
# perfsuite server soak (footprint ceilings + oracle bit-identity over
# ≥3 reclaiming epochs; writes no file), the stale-L1 and cap-pressure
# regressions, and the server's malformed-job negatives.
set -eu

cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"

if [ "${1:-}" = "--server-only" ]; then
    echo "== server: epoch soak + footprint ceilings + oracle bit-identity"
    cargo run --release -p presage-bench --bin perfsuite -- --only server

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

echo "== memory model: differential proof vs the line-counting cache + machine-file negatives"
cargo test -q --test memcost_differential
cargo test -q --test machine_files

echo "== epoch reclamation: differential proof across reclaiming epochs"
cargo test -q --test epoch_differential
cargo test -q -p presage-symbolic --test cap_pressure

echo "== perfsuite: every layer against every gate (writes BENCH_perfsuite.json)"
cargo run --release -p presage-bench --bin perfsuite

echo "ci: all checks passed"
