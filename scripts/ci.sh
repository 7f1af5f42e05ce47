#!/usr/bin/env sh
# Tier-1 verification — runs fully offline (the workspace has no external
# dependencies; every property test runs on the in-tree seeded runner in
# `tracefill_util::prop`, and no test target is feature-gated).
#
#   scripts/ci.sh
#
# Fails on the first failing step.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --all-targets -- -D warnings

# The benchmark package links tracefill-harness by path, so a harness API
# change that breaks it fails here rather than in a benchmark run.
echo "==> benchmark package (perf/check.sh)"
bash perf/check.sh

echo "==> observer export smoke (trace, chrome + ledger, observed report)"
SMOKE_DIR="target/ci-smoke"
TF="cargo run --release -q -p tracefill-bench --bin tracefill --"
GOLDEN="tests/golden"
mkdir -p "$SMOKE_DIR"
# The smoke program of tests/cli.rs, which the trace goldens come from.
cat > "$SMOKE_DIR/smoke.s" <<'EOF'
        .text
main:   li   $s0, 64
loop:   andi $t0, $s0, 3
        add  $s1, $s1, $t0
        addi $s0, $s0, -1
        bgtz $s0, loop
        li   $a0, 0
        li   $v0, 10
        syscall
EOF
$TF trace "$SMOKE_DIR/smoke.s" --out "$SMOKE_DIR/smoke.jsonl"
$TF trace "$SMOKE_DIR/smoke.s" --format chrome --ledger --out "$SMOKE_DIR/smoke.chrome.json"
$TF run "$SMOKE_DIR/smoke.s" --ledger --self-repair --trace 64 \
    --stats-json "$SMOKE_DIR/smoke.stats.json" > /dev/null
# The exports must match their goldens byte for byte (tests/cli.rs also
# parses each golden).
cmp "$SMOKE_DIR/smoke.jsonl" "$GOLDEN/trace.jsonl"
cmp "$SMOKE_DIR/smoke.chrome.json" "$GOLDEN/trace-ledger.chrome.json"
cmp "$SMOKE_DIR/smoke.stats.json" "$GOLDEN/run-observed.json"

echo "==> lockstep verify smoke (full suite x every opt set, oracle + strict verify)"
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    verify --budget 5000 > "$SMOKE_DIR/verify.txt"
grep -q "0 diverged" "$SMOKE_DIR/verify.txt"

echo "==> fault sweeps match their goldens (same seed => same bytes)"
$TF inject --seed 1 --trials 3 --budget 6000 --json > "$SMOKE_DIR/inject.json"
cmp "$SMOKE_DIR/inject.json" "$GOLDEN/inject.json"
$TF inject --self-repair --detect oracle --seed 1 --trials 3 --budget 6000 --json \
    > "$SMOKE_DIR/inject-self-repair.json"
cmp "$SMOKE_DIR/inject-self-repair.json" "$GOLDEN/inject-self-repair.json"
# The availability sweep's exit code is its acceptance bar: any armed run
# that still dies fails the build.
$TF heal --seed 7 --trials 3 --budget 6000 --json > "$SMOKE_DIR/heal.json"
cmp "$SMOKE_DIR/heal.json" "$GOLDEN/heal.json"

echo "==> adaptive-policy and ledger reports match their goldens"
$TF adapt --bench m88k --opts none:all --seed 1 --warmup 2000 --budget 2000 \
    --epoch 64 --json > "$SMOKE_DIR/adapt.json"
cmp "$SMOKE_DIR/adapt.json" "$GOLDEN/adapt.json"
$TF ledger --bench m88k --seed 1 --warmup 1000 --budget 8000 --json \
    > "$SMOKE_DIR/ledger.json"
cmp "$SMOKE_DIR/ledger.json" "$GOLDEN/ledger.json"
# The replacement-policy axis stays live through the plain run path.
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    run "$SMOKE_DIR/smoke.s" --replace trrip --json > "$SMOKE_DIR/trrip.json"

echo "==> ablations benchmark (run_with through the harness runner)"
TRACEFILL_WARMUP=500 TRACEFILL_BUDGET=500 cargo bench -q -p tracefill-bench --bench ablations

echo "==> cargo doc (no warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps

echo "==> OK"
