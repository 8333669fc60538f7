#!/bin/sh
# The repository's verification pipeline, runnable locally or in CI.
#
#   ./ci.sh
#
# 1. release build of the facade package and its binaries
# 2. every workspace member's unit, integration and doc tests in one run
#    (a superset of tier-1's `cargo test -q`, which is the facade
#    package alone): the serving e2e suites (loopback, chaos, degraded,
#    routes, shadow, stress), the fault-injection plane, durable/crash-safe
#    training, the retrieval, quantization and re-ranking differential
#    suites, the pipeline parity suite, the retrieval seam
#    (tests/retrieval_seam.rs: every MatchPipeline retrieval fires
#    ann.search exactly once, at any backend, shard count and row
#    format), the dependency guard
#    (tests/dependency_guard.rs: crates.io surface = rand alone, dev
#    sections included, every declared edge used), the /metrics golden
#    (crates/serve/tests/metrics_golden.rs: the catalogue renders the
#    bytes the hand-written struct did) and the metric catalogue ↔ docs
#    sync (tests/metrics_docs_sync.rs: serve catalogue, registry names
#    and the OPERATIONS.md Metrics table agree all ways); then, in
#    release, the one `#[ignore]`d HNSW graph pin, at the serving user
#    tower's size (17 443 × 16), against the batched reference builder,
#    with the build's plans forced onto 4 worker threads whatever the
#    box has (the graph must not depend on it), and the `#[ignore]`d
#    1 M-case JSON number loop against the text-only scanner
# 3. the faults-disabled overhead assertion, with its measurement printed
# 4. the frozen benchmark crate's own tests, built the way the
#    benchmark is run (no other step compiles crates/benchmark, and an
#    API change is exactly what can break it)
# 5. a smoke open-loop load run (loadgen --rerank-mix) against a live
#    loopback server running a re-ranking chain over a quantized store
#    (--store i8); then a second smoke run with client retries against a
#    server whose shard 0 fails every search by an armed fault, proving
#    quorum keeps the 200s flowing under partial failure (the scrape must
#    count the shard errors and the degraded responses)
# 6. a smoke load run against an exact-backend server (the default)
#    with an HNSW shadow armed at --shadow-sample-rate 0.1
#    (--shadow-spec 'retriever=hnsw' — the one smoke that builds an HNSW
#    index through the CLI), asserting the mirror actually pairs answers
#    (nonzero unimatch_shadow_pairs_total on /metrics) and, with
#    --obs true, that both towers' graph builds were timed into a finite
#    bucket of unimatch_ann_build_us
# 7. clippy over every target with warnings denied
# 8. rustdoc for the workspace's own crates, failing on any doc warning
#
# Performance numbers come from none of these steps: the benchmark is
# `bash crates/benchmark/run.sh` (BENCHMARK.json, crates/benchmark/README.md).
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace (every member's unit, integration and doc tests)"
cargo test -q --workspace --exclude unimatch-benchmark

echo "==> HNSW graph pin at serving scale (release, build fanned out over 4 threads)"
# The build plans each batch of inserts on worker threads. Forcing 4 on
# any box makes the pin also check that the graph does not depend on how
# many threads planned it: the reference plans on one.
UNIMATCH_THREADS=4 cargo test -q --release -p unimatch-ann --test hnsw_graph -- --ignored

echo "==> JSON number reading, 1 M cases against the text-only scanner (release)"
cargo test -q --release -p unimatch-data --test json_numbers -- --ignored

echo "==> disarmed fault-point overhead (measurement printed)"
# `overhead` pins the no-op contract: a disarmed injection point must
# cost no more than the bound asserted in crates/faults/tests/overhead.rs.
cargo test -q -p unimatch-faults --test overhead -- --nocapture

echo "==> frozen benchmark crate (compiles and smoke-runs against the current API)"
bash crates/benchmark/run.sh test

LOAD_DIR="$(mktemp -d)"
SERVE_PID=""
stop_server() {
    if [ -n "$SERVE_PID" ]; then
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
        SERVE_PID=""
    fi
}
cleanup() {
    stop_server
    rm -rf "$LOAD_DIR"
}
trap cleanup EXIT

# smoke_load <port> <label> -- <loadgen flags>
# Drives the server just started on <port> with `loadgen --smoke`.
# loadgen probes /healthz itself; retry while the server finishes its
# index build.
smoke_load() {
    port="$1"
    label="$2"
    shift 3
    tries=0
    until target/release/unimatch-cli loadgen --addr "127.0.0.1:$port" --smoke \
        "$@" --out "$LOAD_DIR" 2>/dev/null; do
        tries=$((tries + 1))
        if [ "$tries" -ge 15 ]; then
            echo "$label smoke: server never became reachable" >&2
            exit 1
        fi
        sleep 1
    done
}

echo "==> loadgen --smoke (open-loop load harness vs a loopback server)"
target/release/unimatch-cli generate --profile ecomp --scale 0.1 --seed 7 \
    --out "$LOAD_DIR/log.csv"
# --store i8 fits as usual and writes the plain checkpoint; serve
# re-encodes its embedding section into i8 codes, so the load run
# exercises the quantized read path end to end.
target/release/unimatch-cli fit --log "$LOAD_DIR/log.csv" \
    --out "$LOAD_DIR/model.json" --store i8
target/release/unimatch-cli serve --checkpoint "$LOAD_DIR/model.json" \
    --log "$LOAD_DIR/log.csv" --addr 127.0.0.1:7979 --shards 2 \
    --store i8 --rerank 'debias@0.5,mmr@0.3,explore@0.1' &
SERVE_PID=$!
# --rerank-mix varies histories and k so the armed chain is exercised
# across distinct query tags and overfetch sizes.
smoke_load 7979 loadgen -- --rerank-mix
stop_server

echo "==> loadgen --smoke vs a wedged shard (quorum keeps 200s flowing)"
# Shard 0 fails every search with an injected I/O error, so every
# fan-out drops it; --min-shards 1 keeps the merge answering (flagged
# degraded), and the client retries ride out any stragglers. The scrape
# must count both the absorbed shard errors and the degraded 200s.
target/release/unimatch-cli serve --checkpoint "$LOAD_DIR/model.json" \
    --log "$LOAD_DIR/log.csv" --addr 127.0.0.1:7980 --shards 2 \
    --min-shards 1 --faults 'ann.shard.search.0=io' &
SERVE_PID=$!
smoke_load 7980 wedged-shard -- --retries 2
WEDGED_SCRAPE="$(curl -sf http://127.0.0.1:7980/metrics)"
for series in 'unimatch_shard_errors_total{shard="0"}' \
    'unimatch_degraded_responses_total{reason="shard"}'; do
    count="$(echo "$WEDGED_SCRAPE" | awk -v s="$series" '$1 == s { print $2 }')"
    echo "wedged-shard smoke: $series = ${count:-none}"
    if [ "${count:-0}" -le 0 ]; then
        echo "wedged-shard smoke: expected $series above 0" >&2
        exit 1
    fi
done
stop_server

echo "==> loadgen --smoke vs an armed exact/HNSW shadow pair (mirror must pair answers)"
# The shadow serves the same checkpoint through an HNSW index while the
# primary answers from the default exact scan; 10% of answered queries
# are mirrored off the critical path. The smoke passes only if the
# scrape shows the mirror actually produced pairs. --obs true adds the
# process registry to the scrape: the shadow's two graph builds (item
# tower, user tower) must both sit in a bucket with a finite bound.
target/release/unimatch-cli serve --checkpoint "$LOAD_DIR/model.json" \
    --log "$LOAD_DIR/log.csv" --addr 127.0.0.1:7981 --obs true \
    --shadow-sample-rate 0.1 --shadow-spec 'retriever=hnsw' &
SERVE_PID=$!
smoke_load 7981 shadow --
# let the mirror queue drain, then require nonzero shadow pairs
sleep 1
SHADOW_SCRAPE="$(curl -sf http://127.0.0.1:7981/metrics)"
SHADOW_PAIRS="$(echo "$SHADOW_SCRAPE" \
    | awk '/^unimatch_shadow_pairs_total/ { sum += $2 } END { print sum + 0 }')"
echo "shadow smoke: unimatch_shadow_pairs_total = $SHADOW_PAIRS"
if [ "$SHADOW_PAIRS" -le 0 ]; then
    echo "shadow smoke: mirror produced no pairs" >&2
    exit 1
fi
# buckets are cumulative and ascending, so the last finite one counts
# every build that was not filed under +Inf
HNSW_BUILDS="$(echo "$SHADOW_SCRAPE" \
    | awk '$1 == "unimatch_ann_build_us_count{index=\"hnsw\"}" { print $2 }')"
HNSW_BUILDS_BUCKETED="$(echo "$SHADOW_SCRAPE" \
    | awk '/^unimatch_ann_build_us_bucket\{index="hnsw",le="[0-9]+"\}/ { n = $2 } END { print n + 0 }')"
echo "shadow smoke: unimatch_ann_build_us count = ${HNSW_BUILDS:-none}, in a finite bucket = $HNSW_BUILDS_BUCKETED"
if [ "${HNSW_BUILDS:-0}" -ne 2 ] || [ "$HNSW_BUILDS_BUCKETED" -ne 2 ]; then
    echo "shadow smoke: expected 2 HNSW builds, both under a finite le bound" >&2
    exit 1
fi
stop_server

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> ci.sh: all green"
