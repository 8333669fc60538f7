#!/usr/bin/env bash
# Builds unimatch-benchmark (release, from source, offline) and runs it.
#
#   crates/benchmark/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] ...
#       one workload; the arguments go to the binary unchanged. This is the
#       `command` of BENCHMARK.json.
#   crates/benchmark/run.sh
#       all four workloads one after the other, untraced and traced pass
#       each, with SEED (default 1) into OUT (default .bench_out).
#   crates/benchmark/run.sh test [cargo test arguments]
#       `cargo test -p unimatch-benchmark`, resolved the same way.
#
# The workspace's crates.io dependencies (rand; serde, serde_json, proptest
# and criterion only so that the workspace resolves) are the real crates
# when cargo can resolve them offline, from a vendored or cached registry.
# Where it cannot — the checkout the driver builds in has no network, no
# registry and no .stubs/ directory — they are patched to the stand-ins
# under stubs/. The binary records which it was built against in the
# environment block of every result file (`deps`). Run from anywhere;
# nothing outside the current directory and CARGO_TARGET_DIR is written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
manifest=(--manifest-path "$root/Cargo.toml")

patches=()
if cargo metadata --offline --format-version 1 "${manifest[@]}" >/dev/null 2>&1; then
  export UNIMATCH_BENCHMARK_DEPS=crates.io
else
  export UNIMATCH_BENCHMARK_DEPS=stand-ins
  for crate in rand serde serde_json proptest criterion; do
    patches+=(--config "patch.crates-io.$crate.path='$here/stubs/$crate'")
  done
fi
cargo_offline() {
  local verb="$1"
  shift
  cargo "$verb" --offline -p unimatch-benchmark "${manifest[@]}" \
    ${patches[@]+"${patches[@]}"} "$@"
}

if [ "${1:-}" = test ]; then
  shift
  cargo_offline test "$@"
  exit
fi

cargo_offline build --release --quiet >&2
bin="${CARGO_TARGET_DIR:-$root/target}/release/unimatch-benchmark"

if [ "$#" -gt 0 ]; then
  exec "$bin" "$@"
fi

status=0
for workload in serve-paced serve-heavy offline-audience train-month; do
  "$bin" --workload "$workload" --seed "${SEED:-1}" --out "${OUT:-.bench_out}" || status=$?
done
exit "$status"
