#!/usr/bin/env bash
# Builds the benchmark from source (offline, into CARGO_TARGET_DIR) and runs it:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh --all | --smoke | --check A.json B.json
#
# `--trace 1` selects the per-layer binary; everything else goes to `e2e`,
# whose build never compiles `layers`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

bin=e2e
build=(--bin e2e)
prev=
for arg in "$@"; do
    case "$prev $arg" in
    "--trace 1")
        bin=layers
        build=(--bin layers)
        ;;
    *" --all" | *" --smoke")
        build=(--bin e2e --bin layers)
        ;;
    esac
    prev=$arg
done

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml "${build[@]}" >&2
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
