#!/bin/sh
# The repository's verification pipeline, runnable locally or in CI.
#
#   ./ci.sh
#
# 1. release build of every workspace target
# 2. the full test suite (tier-1)
# 3. the serving end-to-end test (real server on a loopback port)
# 4. the robustness suites: deterministic fault injection (including the
#    faults-disabled overhead assertion), durable/crash-safe training,
#    the chaos serving e2e (armed fault plans + corrupt reloads under
#    live traffic), and the degraded serving e2e (shard quorum partial
#    results + the brownout ladder under deadline pressure)
# 5. the retrieval-engine differential suites (blocked kernel + every
#    backend + every refactored call site vs the stable-sort oracle,
#    bitwise), including sharded-vs-unsharded parity
# 6. the re-ranking suites: the unimatch-rerank unit/property tests and
#    the chain differential suite (identity-chain bitwise parity across
#    backends and shard counts, seeded determinism, obs invariance)
# 7. the quantization suites: codec property tests (f16/i8 error bounds,
#    edge cases, fused dequant-dot oracle) and the recall-gated
#    differential suite (every backend x shard count x store format vs
#    the exact-f32 oracle, plus mmap==owned bitwise parity)
# 8. the pipeline parity suite (every MatchPipeline runner and the two
#    FittedUniMatch query methods vs the composed stages, bitwise, across
#    backend x shards x store format x rerank chain, plus the hostile-k
#    clamp), the table-driven route e2e (both query routes through one
#    list of outcomes), and the shadow-deployment e2e (shadow-off byte
#    identity, A/A overlap 1.0, divergent-shadow comparison)
# 9. the frozen benchmark crate's own tests, built the way the
#    benchmark is run (tier-1 never compiles crates/benchmark, and an
#    API change is exactly what can break it)
# 10. a smoke benchmark snapshot (validates the BENCH_*.json schema end to
#    end, including the rerank, quant, and shadow suites) plus a
#    report-only diff against the committed baselines
# 11. a smoke open-loop load run (loadgen --rerank-mix) against a live
#    loopback server running a re-ranking chain over a quantized,
#    mmap-backed store (--store i8 --mmap), diffed report-only against
#    the committed BENCH_load.json; then a second smoke run with client
#    retries against a server whose shard 0 is wedged by an armed fault,
#    proving quorum keeps the 200s flowing under partial failure
# 12. a smoke load run against a server with an A/A shadow armed at
#    --shadow-sample-rate 0.1, asserting the mirror actually pairs
#    answers (nonzero unimatch_shadow_pairs_total on /metrics)
# 13. on machines with >= 4 cores only: a report-only sharded-vs-
#    unsharded loadgen ladder (--shards 1 vs 4), per docs/OPERATIONS.md
# 14. clippy over every target with warnings denied
# 15. rustdoc for the workspace's own crates, failing on any doc warning
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -p unimatch-serve --test e2e (loopback serving)"
cargo test -q -p unimatch-serve --test e2e

echo "==> fault-injection suite (plan semantics + disarmed-overhead assertion)"
# `overhead` pins the no-op contract: a disarmed injection point must
# cost no more than the bound asserted in crates/faults/tests/overhead.rs.
cargo test -q -p unimatch-faults
cargo test -q -p unimatch-faults --test overhead -- --nocapture

echo "==> durable training suite (crash/resume equivalence, NaN rollback)"
cargo test -q -p unimatch-core durable
cargo test -q -p unimatch-core persist

echo "==> chaos serving e2e (armed faults + corrupt reloads under traffic)"
cargo test -q -p unimatch-serve --test chaos

echo "==> degraded serving e2e (shard quorum + brownout ladder under traffic)"
cargo test -q -p unimatch-serve --test degraded

echo "==> retrieval-engine differential suites (bitwise vs oracle)"
cargo test -q -p unimatch-ann --test retrieval_differential
cargo test -q -p unimatch-ann --test differential
cargo test -q -p unimatch-ann --test sharded_differential
cargo test -q --test retrieval_engine

echo "==> re-ranking suites (spec properties + chain differential parity)"
cargo test -q -p unimatch-rerank
cargo test -q --test rerank_parity

echo "==> quantization suites (codec properties + recall-gated differential)"
cargo test -q -p unimatch-ann --test quant_properties
cargo test -q -p unimatch-ann --test quant_differential
cargo test -q --test determinism

echo "==> pipeline parity suite (runners vs composed MatchPipeline stages, bitwise)"
cargo test -q --test pipeline_parity

echo "==> route table e2e (both query routes through one list of outcomes)"
cargo test -q -p unimatch-serve --test routes

echo "==> shadow deployment e2e (off = byte-identical, A/A = overlap 1.0)"
cargo test -q -p unimatch-serve --test shadow

echo "==> frozen benchmark crate (compiles and smoke-runs against the current API)"
bash crates/benchmark/run.sh test

echo "==> bench snapshot --smoke (schema-validated perf baselines)"
SNAP_DIR="$(mktemp -d)"
LOAD_DIR="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
    rm -rf "$SNAP_DIR" "$LOAD_DIR"
}
trap cleanup EXIT
target/release/unimatch-cli bench snapshot --smoke --out "$SNAP_DIR"
# Report-only: smoke numbers are scaled down, so the diff against the
# committed full-run baselines informs rather than gates.
target/release/unimatch-cli bench diff --baseline . --current "$SNAP_DIR" || true

echo "==> loadgen --smoke (open-loop load harness vs a loopback server)"
target/release/unimatch-cli generate --profile ecomp --scale 0.1 --seed 7 \
    --out "$LOAD_DIR/log.csv"
# --store i8 advertises a quantized sidecar table next to the checkpoint;
# serve then memory-maps it (--mmap), so the load run exercises the
# quantized read path end to end.
target/release/unimatch-cli fit --log "$LOAD_DIR/log.csv" \
    --out "$LOAD_DIR/model.json" --store i8
target/release/unimatch-cli serve --checkpoint "$LOAD_DIR/model.json" \
    --log "$LOAD_DIR/log.csv" --addr 127.0.0.1:7979 --shards 2 \
    --store i8 --mmap true \
    --rerank 'debias@0.5,mmr@0.3,explore@0.1' &
SERVE_PID=$!
# loadgen probes /healthz itself; retry while the server finishes its
# index build. --rerank-mix varies histories and k so the armed chain is
# exercised across distinct query tags and overfetch sizes.
tries=0
until target/release/unimatch-cli loadgen --addr 127.0.0.1:7979 --smoke \
    --rerank-mix --out "$LOAD_DIR" 2>/dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -ge 15 ]; then
        echo "loadgen smoke: server never became reachable" >&2
        exit 1
    fi
    sleep 1
done
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
# Report-only for the same reason as the snapshot diff above.
target/release/unimatch-cli bench diff --baseline . --current "$LOAD_DIR" || true

echo "==> loadgen --smoke vs a wedged shard (quorum keeps 200s flowing)"
# Shard 0 sleeps 60 ms per search against a 30 ms per-shard deadline, so
# every fan-out drops it; --min-shards 1 keeps the merge answering
# (flagged degraded), and the client retries ride out any stragglers.
target/release/unimatch-cli serve --checkpoint "$LOAD_DIR/model.json" \
    --log "$LOAD_DIR/log.csv" --addr 127.0.0.1:7980 --shards 2 \
    --min-shards 1 --shard-deadline-ms 30 \
    --faults 'ann.shard.search.0=latency:60000' &
SERVE_PID=$!
tries=0
until target/release/unimatch-cli loadgen --addr 127.0.0.1:7980 --smoke \
    --retries 2 --out "$LOAD_DIR" 2>/dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -ge 15 ]; then
        echo "wedged-shard smoke: server never became reachable" >&2
        exit 1
    fi
    sleep 1
done
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "==> loadgen --smoke vs an armed A/A shadow (mirror must pair answers)"
# The shadow serves the same checkpoint (an A/A test); 10% of answered
# queries are mirrored off the critical path. The smoke passes only if
# the scrape shows the mirror actually produced pairs.
target/release/unimatch-cli serve --checkpoint "$LOAD_DIR/model.json" \
    --log "$LOAD_DIR/log.csv" --addr 127.0.0.1:7981 \
    --shadow-sample-rate 0.1 &
SERVE_PID=$!
tries=0
until target/release/unimatch-cli loadgen --addr 127.0.0.1:7981 --smoke \
    --out "$LOAD_DIR" 2>/dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -ge 15 ]; then
        echo "shadow smoke: server never became reachable" >&2
        exit 1
    fi
    sleep 1
done
# let the mirror queue drain, then require nonzero shadow pairs
sleep 1
SHADOW_PAIRS="$(curl -sf http://127.0.0.1:7981/metrics \
    | awk '/^unimatch_shadow_pairs_total/ { sum += $2 } END { print sum + 0 }')"
echo "shadow smoke: unimatch_shadow_pairs_total = $SHADOW_PAIRS"
if [ "$SHADOW_PAIRS" -le 0 ]; then
    echo "shadow smoke: mirror produced no pairs" >&2
    exit 1
fi
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

# Report-only sharded-vs-unsharded ladder: shard fan-out only pays for
# itself with cores to fan out onto (docs/OPERATIONS.md), so the ladder
# runs only on machines with at least 4 and never gates.
if [ "$(nproc 2>/dev/null || echo 1)" -ge 4 ]; then
    echo "==> loadgen ladder: --shards 1 vs --shards 4 (report-only)"
    LADDER_A="$(mktemp -d)"
    LADDER_B="$(mktemp -d)"
    for SHARDS in 1 4; do
        OUT_DIR="$LADDER_A"; PORT=7982
        if [ "$SHARDS" = 4 ]; then OUT_DIR="$LADDER_B"; PORT=7983; fi
        target/release/unimatch-cli serve --checkpoint "$LOAD_DIR/model.json" \
            --log "$LOAD_DIR/log.csv" --addr "127.0.0.1:$PORT" \
            --shards "$SHARDS" &
        SERVE_PID=$!
        tries=0
        until target/release/unimatch-cli loadgen --addr "127.0.0.1:$PORT" \
            --smoke --out "$OUT_DIR" 2>/dev/null; do
            tries=$((tries + 1))
            if [ "$tries" -ge 15 ]; then
                echo "ladder smoke (--shards $SHARDS): server never became reachable" >&2
                exit 1
            fi
            sleep 1
        done
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
        SERVE_PID=""
    done
    echo "ladder: unsharded (baseline) vs 4-way sharded (current), report-only"
    target/release/unimatch-cli bench diff --baseline "$LADDER_A" --current "$LADDER_B" || true
    rm -rf "$LADDER_A" "$LADDER_B"
else
    echo "==> loadgen ladder skipped ($(nproc 2>/dev/null || echo 1) cores < 4)"
fi

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> ci.sh: all green"
