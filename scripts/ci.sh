#!/usr/bin/env bash
# The full local gate: formatting, lints, release build, tests.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== inflow-lint (workspace invariants IL001-IL006, IL008, IL009; baseline: lint.allow)"
# Stale lint.allow entries are a hard error (--strict-unused); findings
# already acknowledged in lint-baseline.json are reported but don't gate.
# The analysis itself carries a wall-time budget: the interprocedural
# passes must stay interactive or people stop running them.
cargo build -q -p inflow-lint --offline
LINT_START=$(date +%s%N)
target/debug/inflow-lint --strict-unused --baseline lint-baseline.json
LINT_MS=$(( ($(date +%s%N) - LINT_START) / 1000000 ))
LINT_BUDGET_MS=5000
echo "   inflow-lint: analyzed workspace in ${LINT_MS} ms (budget ${LINT_BUDGET_MS} ms)"
if (( LINT_MS > LINT_BUDGET_MS )); then
    echo "   inflow-lint: wall time ${LINT_MS} ms exceeds budget ${LINT_BUDGET_MS} ms" >&2
    exit 1
fi

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release"
cargo build --release --workspace --offline

echo "== cargo build --all-targets (benches + tests compile)"
cargo build --workspace --all-targets --offline

echo "== cargo test (every test target without a stage of its own below)"
# The root test targets that later stages name run there, once: running
# them here as well repeated ~48 s of debug-build test time.
STAGED=" chaos robustness presence_kernel crash store_format segments wire_format replay "
ROOT_TESTS=()
for f in tests/*.rs; do
    t=$(basename "$f" .rs)
    [[ "$STAGED" == *" $t "* ]] || ROOT_TESTS+=(--test "$t")
done
cargo test -q --workspace --exclude inflow --offline
cargo test -q -p inflow --lib --bins "${ROOT_TESTS[@]}" --offline
cargo test -q -p inflow --doc --offline

echo "== chaos suite (seeded corruption grid × all four algorithms)"
cargo test -q --test chaos --test robustness --offline

echo "== presence kernel + host-cell oracle (verdicts sound with and without host cells; presence bit-identical to probing every cell, on and off host cells, for edge cells at FINE and under inherited part verdicts)"
cargo test -q --test presence_kernel --offline

echo "== perfbench (the benchmark crate builds and passes its tests against this tree)"
# perfbench is a workspace of its own that uses the crates by path, so
# the workspace stages above never compile it.
CARGO_TARGET_DIR=target/perfbench \
    cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "== crash suite (deterministic failpoint sweep over the ingestion store)"
cargo test -q --test crash --offline

echo "== store format (pinned digests; legacy snapshot/segment layouts decode)"
cargo test -q --test store_format --test segments --offline

echo "== wire format (protocol payloads, frame envelope and replay log pinned by their bytes)"
cargo test -q --test wire_format --offline

echo "== serve smoke (serve/watch/top end-to-end over TCP)"
bash scripts/serve-smoke.sh

echo "== scrub smoke (corrupt a segment; fsck detects, queries degrade, repair heals)"
bash scripts/scrub-smoke.sh

echo "== replay-chaos (deterministic record/replay under seeded fault plans)"
cargo test -q --test replay --offline
RPL_WORK=$(mktemp -d "${TMPDIR:-/tmp}/inflow-replay-chaos.XXXXXX")
trap 'rm -rf "$RPL_WORK"' EXIT
target/release/inflow generate synthetic \
    --out-dir "$RPL_WORK/data" --objects 12 --duration 240 --seed 11
for seed in 1 2 3; do
    echo "   -- fault seed $seed: record + replay"
    target/release/inflow record --plan "$RPL_WORK/data/plan.txt" \
        --store "$RPL_WORK/rec-$seed" --readings "$RPL_WORK/data/readings.csv" \
        --out "$RPL_WORK/run-$seed.rpl" --shards 2 --chunk 64 --barrier-every 4 \
        --ts 0 --te 240 --k 5 --fault-seed "$seed" --fault-count 2 >/dev/null
    # Any barrier-hash divergence exits non-zero and fails the gate.
    target/release/inflow replay --plan "$RPL_WORK/data/plan.txt" \
        --store "$RPL_WORK/probe-$seed" --log "$RPL_WORK/run-$seed.rpl" --shards 2
done
rm -rf "$RPL_WORK"
trap - EXIT

echo "== replay-perf (canonical recorded workload: determinism + throughput)"
# The workload is pinned inside record-workload.sh (seed 42, 24 objects,
# 360 s, tier on, interval + distrib + longvisit subscriptions). Any
# barrier-hash divergence exits non-zero; the timing line is the
# standing perf record for the recorded path.
bash scripts/record-workload.sh target/workload
RP_WORK=$(mktemp -d "${TMPDIR:-/tmp}/inflow-replay-perf.XXXXXX")
trap 'rm -rf "$RP_WORK"' EXIT
RP_START=$(date +%s%N)
target/release/inflow replay --plan target/workload/plan.txt \
    --store "$RP_WORK/probe" --log target/workload/workload.rpl --shards 2 \
    --compact-every 256 --scrub-every 512 --no-sync
RP_MS=$(( ($(date +%s%N) - RP_START) / 1000000 ))
echo "   replay-perf: canonical workload replayed in ${RP_MS} ms"
rm -rf "$RP_WORK"
trap - EXIT

# Bench documents go under target/bench: the committed BENCH_*.json at
# the repo root are the measured trail, and a CI run must not rewrite them.
BENCH_OUT=target/bench
mkdir -p "$BENCH_OUT"

echo "== bench6 (tracing/flight-recorder overhead -> $BENCH_OUT/BENCH_6.json)"
cargo run -q --release -p inflow-bench --bin bench6 --offline -- --smoke --out "$BENCH_OUT/BENCH_6.json"
cat "$BENCH_OUT/BENCH_6.json"

echo "== bench7 (replay-recorder overhead -> $BENCH_OUT/BENCH_7.json)"
cargo run -q --release -p inflow-bench --bin bench7 --offline -- --smoke --out "$BENCH_OUT/BENCH_7.json"
cat "$BENCH_OUT/BENCH_7.json"

echo "== bench8 (segment-tier overhead + cold start -> $BENCH_OUT/BENCH_8.json)"
cargo run -q --release -p inflow-bench --bin bench8 --offline -- --smoke --out "$BENCH_OUT/BENCH_8.json"
cat "$BENCH_OUT/BENCH_8.json"

echo "== bench9 (distrib-subscription overhead -> $BENCH_OUT/BENCH_9.json)"
cargo run -q --release -p inflow-bench --bin bench9 --offline -- --objects 120 --duration 900 --repeats 3 --out "$BENCH_OUT/BENCH_9.json"
cat "$BENCH_OUT/BENCH_9.json"

# Opt-in sanitizer stages. Both need a nightly toolchain with the matching
# components (rustup component add miri / -Z sanitizer support), so they
# are gated behind env vars rather than run by default.
if [[ "${MIRI:-0}" == "1" ]]; then
    echo "== miri (UB check on the store + protocol codecs)"
    cargo +nightly miri test -q -p inflow-tracking store:: --offline
fi

if [[ "${TSAN:-0}" == "1" ]]; then
    echo "== thread sanitizer (service crate tests + end-to-end service suite)"
    # std is not rebuilt with the sanitizer (rust-src is unavailable
    # offline), so the ABI mismatch is silenced and known false positives
    # from uninstrumented std internals are suppressed (scripts/tsan.supp).
    TSAN_RUSTFLAGS="-Z sanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer"
    # --all-targets skips doctests: rustdoc does not forward the
    # sanitizer flags and cannot link the instrumented rlibs.
    TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
        RUSTFLAGS="$TSAN_RUSTFLAGS" \
        cargo +nightly test -q -p inflow-service --all-targets --offline \
        --target "$(rustc -vV | sed -n 's/^host: //p')"
    TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
        RUSTFLAGS="$TSAN_RUSTFLAGS" \
        cargo +nightly test -q -p inflow --test service --offline \
        --target "$(rustc -vV | sed -n 's/^host: //p')"
fi

echo "ci: all green"
