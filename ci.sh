#!/bin/sh
# The repository's verification pipeline, runnable locally or in CI.
#
#   ./ci.sh
#
# 1. release build of the facade package and its binaries
# 2. every workspace member's unit, integration and doc tests in one run
#    (a superset of tier-1's `cargo test -q`, which is the facade
#    package alone: its suites and the unit tests of the `unimatch-cli`
#    binary; the leaf crate `unimatch-experiments`, the paper's tables
#    and figures, is built and tested here), among them tests/cli.rs's
#    three live `serve` cases on kernel-picked ports, each sending a
#    fixed list of requests and checking /metrics against it: a rerank
#    chain over a two-shard i8 store (serve_reranks_over_a_sharded_i8_store),
#    a wedged shard kept answering by the server's quorum
#    (serve_quorum_answers_around_a_wedged_shard: every answer a degraded
#    200, shard errors and degraded responses equal to the requests sent)
#    and an exact primary shadowed through HNSW on the newest month file
#    of a durable fit (serve_shadows_a_month_file_through_hnsw: nonzero
#    shadow pairs, both graph builds in a finite bucket); the serving
#    e2e suites (loopback, chaos, degraded, routes, shadow, stress), the
#    fault-injection plane, durable/crash-safe training, the retrieval,
#    quantization and re-ranking differential suites, the pipeline parity suite, the retrieval seam
#    (tests/retrieval_seam.rs: every MatchPipeline retrieval fires
#    ann.search exactly once, at any backend, shard count and row
#    format), the dependency guard
#    (tests/dependency_guard.rs: crates.io surface = rand alone, dev
#    sections included, every declared edge used, and no manifest but
#    its own names unimatch-experiments), the /metrics golden
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
# 4. the `experiments` binary run on one quick paper table (Tab. I) and
#    one quick paper figure (Fig. 3, which steps its months through the
#    trainer's one month step and keeps only the trailing curve points),
#    so both paths are run and not only compiled
# 5. the frozen benchmark crate's own tests, built the way the
#    benchmark is run (no other step compiles crates/benchmark, and an
#    API change is exactly what can break it)
# 6. clippy over every target with warnings denied
# 7. rustdoc for the workspace's own crates, failing on any doc warning
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

echo "==> experiments table01 and figure03 (the paper's experiment binary, quick runs)"
cargo run --release -p unimatch-experiments --bin experiments -- table01 --quick --scale 0.05 --threads 2
cargo run --release -p unimatch-experiments --bin experiments -- figure03 --quick --scale 0.05 --threads 2

echo "==> frozen benchmark crate (compiles and smoke-runs against the current API)"
bash crates/benchmark/run.sh test

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> ci.sh: all green"
