#!/usr/bin/env sh
# Tier-1 verification — runs fully offline (the workspace has no external
# dependencies; the proptest targets stay behind their off-by-default
# `proptest-tests` features until they are ported to in-tree tools).
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

echo "==> trace export smoke (tracefill trace -> tracefill-util parse)"
SMOKE_DIR="target/ci-smoke"
mkdir -p "$SMOKE_DIR"
cat > "$SMOKE_DIR/smoke.s" <<'EOF'
        .text
main:   li   $s0, 64
loop:   andi $t0, $s0, 3
        add  $s1, $s1, $t0
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $a0, 0
        li   $v0, 10
        syscall
EOF
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    trace "$SMOKE_DIR/smoke.s" --out "$SMOKE_DIR/smoke.jsonl"
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    trace "$SMOKE_DIR/smoke.s" --format chrome --out "$SMOKE_DIR/smoke.chrome.json"
cargo run --release -q -p tracefill-bench --example validate_trace -- \
    jsonl "$SMOKE_DIR/smoke.jsonl"
cargo run --release -q -p tracefill-bench --example validate_trace -- \
    json "$SMOKE_DIR/smoke.chrome.json"
# Determinism: an identical run must export byte-identical traces.
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    trace "$SMOKE_DIR/smoke.s" --out "$SMOKE_DIR/smoke2.jsonl"
cmp "$SMOKE_DIR/smoke.jsonl" "$SMOKE_DIR/smoke2.jsonl"

echo "==> stats-json smoke (tracefill run --stats-json)"
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    run "$SMOKE_DIR/smoke.s" --stats-json "$SMOKE_DIR/smoke.stats.json" > /dev/null
cargo run --release -q -p tracefill-bench --example validate_trace -- \
    report "$SMOKE_DIR/smoke.stats.json"

echo "==> lockstep verify smoke (full suite x every opt set, oracle + strict verify)"
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    verify --budget 5000 > "$SMOKE_DIR/verify.txt"
grep -q "0 diverged" "$SMOKE_DIR/verify.txt"

echo "==> fault sweeps match their goldens (same seed => same bytes)"
TF="cargo run --release -q -p tracefill-bench --bin tracefill --"
GOLDEN="tests/golden"
$TF inject --seed 1 --trials 3 --budget 6000 --json > "$SMOKE_DIR/inject.json"
cmp "$SMOKE_DIR/inject.json" "$GOLDEN/inject.json"
$TF inject --self-repair --detect oracle --seed 1 --trials 3 --budget 6000 --json \
    > "$SMOKE_DIR/inject-self-repair.json"
cmp "$SMOKE_DIR/inject-self-repair.json" "$GOLDEN/inject-self-repair.json"
# The availability sweep's exit code is its acceptance bar: any armed run
# that still dies fails the build.
$TF heal --seed 7 --trials 3 --budget 6000 --json > "$SMOKE_DIR/heal.json"
cmp "$SMOKE_DIR/heal.json" "$GOLDEN/heal.json"

echo "==> self-repair-off identity (an armed, healthy machine changes nothing)"
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    run "$SMOKE_DIR/smoke.s" --stats-json "$SMOKE_DIR/norepair.stats.json" > /dev/null
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    run "$SMOKE_DIR/smoke.s" --self-repair --stats-json "$SMOKE_DIR/repair.stats.json" > /dev/null
# A clean armed run emits no repair.* metrics, so the two reports must be
# byte-identical — a stronger bar than the ledger's member-wise identity.
cmp "$SMOKE_DIR/norepair.stats.json" "$SMOKE_DIR/repair.stats.json"

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

echo "==> ledger-off identity (observation must not perturb the simulation)"
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    run "$SMOKE_DIR/smoke.s" --stats-json "$SMOKE_DIR/plain.stats.json" > /dev/null
cargo run --release -q -p tracefill-bench --bin tracefill -- \
    run "$SMOKE_DIR/smoke.s" --ledger --stats-json "$SMOKE_DIR/ledger.stats.json" > /dev/null
cargo run --release -q -p tracefill-bench --example validate_trace -- \
    identity "$SMOKE_DIR/plain.stats.json" "$SMOKE_DIR/ledger.stats.json"

echo "==> cargo doc (no warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps

echo "==> OK"
