#!/usr/bin/env sh
# Tier-1 gate: everything must pass offline (the build environment has
# no network access; all external deps are vendored stubs, see
# vendor/README.md). Run from the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline, all targets)"
cargo build --offline --release --workspace --all-targets

echo "==> examples"
# The build above compiles examples/*.rs but nothing else runs them; each
# must still run to completion (they print only and write no files).
for ex in examples/*.rs; do
    name=$(basename "$ex" .rs)
    echo "    $name"
    "./target/release/examples/$name" >/dev/null
done

echo "==> cargo test (offline)"
cargo test --offline --workspace -q

echo "==> kernel, board, app and partition tests under every lane-VM ISA tier"
# The lane VM's hot loop and its column loops are the only compiled
# kernel loops, and each is compiled once per ISA tier (portable, AVX2,
# AVX-512) and picked at run time; the run above only exercises the
# widest tier the host supports. ACCELSOC_LANE_ISA pins the narrower
# tiers (an override the CPU cannot run falls back to the detected
# tier). Board accelerators and the apps' software stages run as
# multi-lane batches, so their crates run here too; the partition
# crate's chains run every kernel end to end at width 1, and its
# functional oracle checks them against the interpreter.
for isa in scalar avx2; do
    echo "    ACCELSOC_LANE_ISA=$isa"
    ACCELSOC_LANE_ISA=$isa cargo test --release --offline -q \
        -p accelsoc-kernel -p accelsoc-platform -p accelsoc-apps -p accelsoc-partition
done

echo "==> perfbench tests (offline, locked)"
# The benchmark is its own cargo workspace, so nothing above builds it.
# Its tests run every workload at tiny size and check the pinned output
# digests, so a public-API change that breaks the benchmark, or a model
# change that moves a simulated number, fails here. --locked: editing
# any first-party crate's dependency list makes cargo rewrite
# perfbench/Cargo.lock, which changes only together with the benchmark;
# the gate fails instead of leaving the lockfile modified.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> perfbench full-size digests (seeds 42 and 1000003)"
# The tests above run tiny sizes, where a drift that needs the full
# 250 000-job cluster run cannot show. --seconds 0 makes the minimum
# number of full-size passes (three, plus one at the other thread
# count), and each must reproduce the digest pinned for its seed in
# perfbench/expected_digests.txt; the result line says whether all did.
for w in serve_fresh cluster_pooled partition_x48; do
    for seed in 42 1000003; do
        line=$(cargo run --release --offline --locked --quiet \
            --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seed "$seed" --seconds 0 | tail -n 1)
        case "$line" in
        *'"correct": true'*) echo "    $w seed $seed: digest pinned" ;;
        *)
            echo "FAIL: perfbench $w --seed $seed: $line"
            exit 1
            ;;
        esac
    done
done

echo "==> cargo fmt --check"
cargo fmt --check

# Clippy is not part of the minimal toolchain baked into every image;
# lint hard when it exists, skip quietly when it doesn't.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy (offline, -D warnings, whole workspace)"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping lint step"
fi

echo "==> cargo doc (offline, -D warnings)"
# Dead or private intra-doc links rot silently as code is deleted;
# rustdoc flags them, so the docs build is a gate too.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> kernel VM equivalence + speedup (repro_kernelvm)"
CACHE_DIR=$(mktemp -d)
trap 'rm -rf "$CACHE_DIR"' EXIT
# The bench aborts if the compiled kernels (one-lane runs and every
# batch width) and the tree-walking interpreter disagree on any scalar
# output, stream output or ExecStats counter, so running it doubles as
# an end-to-end equivalence gate (every lane of every batch width is
# checked against the interpreter oracle on that lane's inputs alone).
# The gate's record goes to the scratch dir: the committed
# BENCH_kernelvm.json is the documented measurement and must not change
# on every gate run.
./target/release/repro_kernelvm --side 24 --reps 3 --rounds 9 \
    --lanes 1,4 --json "$CACHE_DIR/kernelvm.json" >/dev/null
python3 - "$CACHE_DIR/kernelvm.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "accelsoc-bench-kernelvm/4", doc["schema"]
assert len(doc["kernels"]) == 4
print(f"    chain speedup: {doc['chain_speedup']:.2f}x (VM vs interpreter)")
sweep = {row["lanes"]: row for row in doc["lane_sweep"]}
assert 4 in sweep, "lane sweep must include lanes=4"
# A dispatch must keep covering every lane as lanes grow.
assert sweep[4]["ops_per_dispatch"] > 3 * sweep[1]["ops_per_dispatch"], sweep
# Every loop of the one-lane chain must run a chunk of iterations per
# dispatch: a loop that silently falls back to one op per dispatch (the
# threshold scan did until its guarded blocks became predicate columns)
# costs a dispatch per op per iteration; the 24x24 chain reads about 466
# IR ops per dispatch with every loop in columns.
opd1 = sweep[1]["ops_per_dispatch"]
assert opd1 >= 300, f"one-lane chain fell back to op-at-a-time: {opd1:.1f} ops/dispatch"
print(f"    one-lane chain: {opd1:.1f} IR ops per dispatch (gate: >= 300)")
# Lane-VM throughput gate: 4 lanes against the same images run one at a
# time at width 1, on 24x24 images, a side both serving tenants use.
# Every loop of the chain runs in column loops, whose row work costs the
# same per lane at any width; what 4 lanes share is each call's set-up
# and every op's decode, which weigh most on small images. At 48x48
# that share is small: 30 runs of this command at --side 48 read a
# median 1.07x, and 3 of them met the floor. At side 24 all 30 did
# (minimum 1.12x, median 1.17x). The floor sits above parity, so losing
# the lane amortization still trips it. The speedup is the median of
# per-round paired ratios (each round times width 1 and width 4 back to
# back), so host noise that hits a minority of the rounds cannot fail
# the gate.
assert sweep[4]["rounds"] >= 7, sweep[4]
s4 = sweep[4]["speedup_vs_width1"]
assert s4 >= 1.1, f"lane-VM speedup regressed: {s4:.2f}x at lanes=4"
print(f"    lane-VM speedup: {s4:.2f}x at lanes=4 vs width 1 (gate: >= 1.1x)")
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
# the batch-lane VM (SoA registers + column loops) on every group.
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

echo "==> cluster golden at benchmark scale (accelsoc cluster-sim, 250 000 jobs)"
# The smoke above runs 64 jobs, too few for a drifting node-load count
# or a reordered event to show. This is the benchmark's cluster_pooled
# run (about 91 000 steals, 66 000 forwards and 1 000 sheds): its report
# must equal the committed golden at every host thread count, and the
# job-accounting invariant must hold (no WARNING line).
for t in 1 2; do
    ./target/release/accelsoc cluster-sim --nodes 4 --boards-per-node 2 \
        --jobs 250000 --load 0.9 --image-pool 64 --kill 2@2000 --seed 42 \
        --threads "$t" --json "$CACHE_DIR/cluster_pooled_t$t.json" \
        >"$CACHE_DIR/cluster_pooled_t$t.txt"
    if ! cmp -s tests/golden/cluster_pooled_cli.json "$CACHE_DIR/cluster_pooled_t$t.json"; then
        echo "FAIL: 250 000-job cluster report at --threads $t differs from tests/golden/cluster_pooled_cli.json"
        exit 1
    fi
    if grep -q WARNING "$CACHE_DIR/cluster_pooled_t$t.txt"; then
        echo "FAIL: 250 000-job cluster run violated the job-accounting invariant"
        exit 1
    fi
done
echo "    250 000-job report equals tests/golden/cluster_pooled_cli.json at --threads 1 and 2; accounting exact"

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
