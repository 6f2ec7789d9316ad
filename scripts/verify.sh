#!/usr/bin/env sh
# Tier-1 gate: everything must pass offline (the build environment has
# no network access; all external deps are vendored stubs, see
# vendor/README.md). Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline, all targets)"
cargo build --offline --release --workspace --all-targets

echo "==> cargo test (offline)"
cargo test --offline --workspace -q

echo "==> perfbench tests (offline)"
# The benchmark is its own cargo workspace, so nothing above builds it.
# Its tests run every workload at tiny size and check the pinned output
# digests, so a public-API change that breaks the benchmark, or a model
# change that moves a simulated number, fails here.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

# Clippy is not part of the minimal toolchain baked into every image;
# lint hard when it exists, skip quietly when it doesn't.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy (offline, -D warnings, all first-party crates)"
    cargo clippy --offline -p accelsoc-kernel -p accelsoc-core -p accelsoc-hls \
        -p accelsoc-dse -p accelsoc-platform -p accelsoc-axi -p accelsoc-serve \
        -p accelsoc-observe -p accelsoc-bench -p accelsoc -p accelsoc-htg \
        -p accelsoc-integration -p accelsoc-partition -p accelsoc-apps \
        --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping lint step"
fi

echo "==> kernel VM equivalence + speedup (repro_kernelvm)"
CACHE_DIR=$(mktemp -d)
trap 'rm -rf "$CACHE_DIR"' EXIT
# The bench aborts if the bytecode VM, the batch-lane VM, and the
# tree-walking interpreter disagree on any scalar output, stream output
# or ExecStats counter, so running it doubles as an end-to-end
# equivalence gate (every lane of every batch width is checked against
# the interpreter oracle on that lane's inputs alone). The gate's record
# goes to the scratch dir: the committed BENCH_kernelvm.json is the
# documented measurement and must not change on every gate run.
./target/release/repro_kernelvm --side 48 --reps 3 --rounds 9 \
    --lanes 1,4 --json "$CACHE_DIR/kernelvm.json" >/dev/null
python3 - "$CACHE_DIR/kernelvm.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "accelsoc-bench-kernelvm/3", doc["schema"]
assert len(doc["kernels"]) == 4
print(f"    chain speedup: {doc['chain_speedup']:.2f}x (VM vs interpreter)")
sweep = {row["lanes"]: row for row in doc["lane_sweep"]}
assert 4 in sweep, "lane sweep must include lanes=4"
# Superinstruction fusion must keep amortising dispatch as lanes grow.
assert sweep[4]["ops_per_dispatch"] > 3 * sweep[1]["ops_per_dispatch"], sweep
# Lane-VM throughput gate: conservative floor well under the measured
# 1.3-1.9x at lanes=4 (see EXPERIMENTS.md Ext-6) but above scalar
# parity, so a real regression to the one-image-at-a-time path still
# trips it. The speedup is the median of per-round paired ratios (each
# round times scalar and lane back to back), so host noise that hits a
# minority of the rounds cannot fail the gate.
assert sweep[4]["rounds"] >= 7, sweep[4]
s4 = sweep[4]["speedup_vs_scalar_vm"]
assert s4 >= 1.1, f"lane-VM speedup regressed: {s4:.2f}x at lanes=4"
print(f"    lane-VM speedup: {s4:.2f}x at lanes=4 (gate: >= 1.1x)")
EOF

echo "==> cold+warm persistent HLS cache smoke (repro_fig9)"
./target/release/repro_fig9 --cache-dir "$CACHE_DIR" >/dev/null
cold_hits=$(grep -c HlsCachePersistedHit target/experiments/fig9_trace.jsonl || true)
./target/release/repro_fig9 --cache-dir "$CACHE_DIR" >/dev/null
warm_hits=$(grep -c HlsCachePersistedHit target/experiments/fig9_trace.jsonl || true)
if [ "$cold_hits" -ne 0 ] || [ "$warm_hits" -ne 4 ]; then
    echo "FAIL: expected 0 cold / 4 warm persisted hits, got $cold_hits / $warm_hits"
    exit 1
fi
echo "    cold run: $cold_hits persisted hits; warm run: $warm_hits (one per kernel)"

echo "==> backpressure + batch determinism smoke (repro_runtime)"
# The throughput report must be bit-identical across host thread counts
# at a fixed lane width: lane groups are formed in input order and only
# simulated time enters the JSON, never wall-clock. --lanes 4 exercises
# the batch-lane VM (SoA registers + superinstructions) on every group.
./target/release/repro_runtime --images 4 --threads 1 --side 48 --lanes 4 >/dev/null
cp target/experiments/throughput.json "$CACHE_DIR/throughput_t1.json"
for t in 2 4; do
    ./target/release/repro_runtime --images 4 --threads "$t" --side 48 --lanes 4 >/dev/null
    if ! cmp -s "$CACHE_DIR/throughput_t1.json" target/experiments/throughput.json; then
        echo "FAIL: throughput.json differs between --threads 1 and --threads $t"
        exit 1
    fi
done
echo "    throughput report bit-identical for --threads 1 vs 2 vs 4 at --lanes 4"

echo "==> serve determinism smoke (accelsoc serve-sim)"
# Two tenants on two boards under SJF at moderate load: the full
# ServeReport must be byte-identical across host thread counts, and the
# generous interactive deadlines must all be met.
./target/release/accelsoc serve-sim --boards 2 --policy sjf --jobs 16 \
    --load 0.5 --threads 1 --json "$CACHE_DIR/serve_t1.json" >/dev/null
./target/release/accelsoc serve-sim --boards 2 --policy sjf --jobs 16 \
    --load 0.5 --threads 4 --json "$CACHE_DIR/serve_t4.json" >/dev/null
if ! cmp -s "$CACHE_DIR/serve_t1.json" "$CACHE_DIR/serve_t4.json"; then
    echo "FAIL: serve report differs between --threads 1 and --threads 4"
    exit 1
fi
if ! grep -q '"deadline_misses": *0' "$CACHE_DIR/serve_t1.json"; then
    echo "FAIL: serve smoke missed deadlines at moderate load"
    exit 1
fi
echo "    serve report bit-identical for --threads 1 vs 4; zero deadline misses"

echo "==> cluster determinism smoke (accelsoc cluster-sim)"
# Four nodes with stealing and shedding on, plus a mid-run node kill:
# the full ClusterReport must be byte-identical across host thread
# counts, and the job-accounting invariant must hold (no WARNING line).
./target/release/accelsoc cluster-sim --nodes 4 --policy sjf --jobs 64 \
    --load 2.0 --kill 1@1 --threads 1 --json "$CACHE_DIR/cluster_t1.json" >/dev/null
./target/release/accelsoc cluster-sim --nodes 4 --policy sjf --jobs 64 \
    --load 2.0 --kill 1@1 --threads 4 --json "$CACHE_DIR/cluster_t4.json" >/dev/null
if ! cmp -s "$CACHE_DIR/cluster_t1.json" "$CACHE_DIR/cluster_t4.json"; then
    echo "FAIL: cluster report differs between --threads 1 and --threads 4"
    exit 1
fi
if ./target/release/accelsoc cluster-sim --nodes 4 --policy sjf --jobs 64 \
    --load 2.0 --kill 1@1 | grep -q WARNING; then
    echo "FAIL: cluster smoke violated the job-accounting invariant"
    exit 1
fi
echo "    cluster report bit-identical for --threads 1 vs 4; accounting exact"

echo "==> multi-board determinism smoke (accelsoc partition-sim)"
# The Otsu chain scaled 16x across 2 boards: the full PartitionSimReport
# (plan + co-sim + per-chain checksums) must be byte-identical across
# host thread counts, and every chain must stay pixel-exact (the CLI
# exits nonzero otherwise).
./target/release/accelsoc partition-sim --boards 2 --scale 16 --side 32 \
    --threads 1 --json "$CACHE_DIR/partition_t1.json" >/dev/null
./target/release/accelsoc partition-sim --boards 2 --scale 16 --side 32 \
    --threads 4 --json "$CACHE_DIR/partition_t4.json" >/dev/null
if ! cmp -s "$CACHE_DIR/partition_t1.json" "$CACHE_DIR/partition_t4.json"; then
    echo "FAIL: partition report differs between --threads 1 and --threads 4"
    exit 1
fi
echo "    partition report bit-identical for --threads 1 vs 4; chains pixel-exact"

echo "==> verify OK"
