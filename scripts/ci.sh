#!/usr/bin/env bash
# Offline CI gate: everything here must pass with no network access and
# no crates beyond the workspace itself (std only).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline, all targets) =="
cargo build --release --offline --workspace --all-targets

echo "== tests =="
cargo test -q --offline --workspace

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# Every example runs once, chaos_smoke included (a mid-run node crash
# per app vs the fault-free golden).
echo "== example smoke (release) =="
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "-- example: $name"
    cargo run --release --offline --example "$name" >/dev/null
done

echo "== format =="
cargo fmt --check

echo "== rustdoc (deny warnings: broken intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== bench smoke (1 iteration per benchmark) =="
TESTKIT_BENCH_SMOKE=1 cargo bench --offline --workspace >/dev/null

echo "== benchmark tests (every workload through its oracle at smoke size, BENCHMARK.json drift check) =="
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== scan-free index equivalence (radix queue vs reference heap, held batch depth, token-holder and idle-set indexes vs reference scans, batched idle-poll wakes vs per-Wake reference) =="
cargo test -q --offline -p earth-sim --test queue_diff
cargo test -q --offline -p earth-sim --lib hold
cargo test -q --offline --test queue_apps
cargo test -q --offline -p earth-rt --lib index_matches_reference_scan
cargo test -q --offline -p earth-rt --lib wake_batch

# Smoke sweeps, each run twice: the reruns must be byte-identical and
# carry every listed schema landmark. Fields: experiment|title|grep
# patterns...
for stage in \
    'scale|topology scale smoke (256 nodes, every app x interconnect)|"experiment":"scale"|"topologies":\["crossbar","hypercube","torus3d","fattree"\]' \
    'traffic|traffic smoke (open-loop streams through admission)|"experiment":"traffic"|"variant":"crashed"' \
    'overload|overload smoke (goodput under saturation, defenses off vs on)|"experiment":"overload"|"variant":"naive"|"variant":"defended_crashed"' \
    'stragglers|straggler smoke (gray failure, naive vs defended)|"experiment":"stragglers"|"variant":"naive"|"variant":"defended_lossy"|"variant":"defended_crashed"'
do
    IFS='|' read -r -a field <<< "$stage"
    name="${field[0]}"
    echo "== ${field[1]}, byte-identical reruns =="
    for run in a b; do
        cargo run --release --offline -p earth-bench --bin repro -- "$name" --smoke --json > "/tmp/${name}_smoke_$run.json"
    done
    cmp "/tmp/${name}_smoke_a.json" "/tmp/${name}_smoke_b.json"
    for pattern in "${field[@]:2}"; do
        grep -q "$pattern" "/tmp/${name}_smoke_a.json"
    done
done

echo "== topology scale full (1024 nodes; terminates inside the smoke budget) =="
cargo run --release --offline -p earth-bench --bin repro -- scale --json > /tmp/scale_full.json
grep -q '"nodes":\[20,64,256,1024\]' /tmp/scale_full.json

echo "ci.sh: all green"
