#!/usr/bin/env bash
# The repo's benchmark, one command.
#
#   benchmark/run.sh                      all four workloads, then their traced runs
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1 | --traced]
#   benchmark/run.sh --list               workload names
#   benchmark/run.sh check                fmt, clippy -D warnings and the harness's unit tests
#   benchmark/run.sh selftest             one flipped response byte must fail the run
#
# Builds `expred-serve` (root workspace) and the harness (this package),
# release, offline, into $CARGO_TARGET_DIR (default: target/), then runs the
# harness from the repo root. Every run prints one line per metric,
# `workload metric value unit n=<samples>`, and ends with one JSON object.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="$(realpath -m "${CARGO_TARGET_DIR:-target}")"
manifest=benchmark/Cargo.toml

if [[ "${1:-}" == check ]]; then
    cargo fmt --manifest-path "$manifest" -- --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --manifest-path "$manifest" -q
    exit 0
fi

# The program under test is the real binary, built from this checkout.
cargo build --quiet --release --offline --manifest-path Cargo.toml \
    -p expred-serve --bin expred-serve
cargo build --quiet --release --offline --manifest-path "$manifest"
harness="$CARGO_TARGET_DIR/release/expred-benchmark"

if [[ "${1:-}" == selftest ]]; then
    if "$harness" --workload novel_queries --seconds 1 --flip-byte >/dev/null; then
        echo "selftest: a flipped response byte went unnoticed" >&2
        exit 1
    fi
    echo "selftest: the flipped byte was caught"
    exit 0
fi

traces=(0 1)
for arg in "$@"; do
    case "$arg" in
    --workload | --list) exec "$harness" "$@" ;;
    --trace | --traced) traces=("") ;; # the caller chose the mode
    esac
done

# No workload named: every workload end to end, then every traced run.
for trace in "${traces[@]}"; do
    for workload in $("$harness" --list); do
        "$harness" --workload "$workload" ${trace:+--trace "$trace"} "$@"
    done
done
