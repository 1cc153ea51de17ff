#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:
#
#   bash perfbench/run.sh --workload <paper|churn|replay|storm> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). The last
# line of standard output is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# Keep freed memory in the process instead of handing it back to the
# kernel: on a shared host the cost of faulting fresh pages back in
# varies by a third from run to run and drowns every other signal.
# Back the heap with transparent huge pages: with 4 KiB pages the
# 1M-user engine's fastest epochs moved by a third from one process to
# the next (page placement and TLB reach); with 2 MiB pages they repeat
# within a few percent.
export GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967295:glibc.malloc.hugetlb=1
exec "$CARGO_TARGET_DIR/release/anycast-perfbench" "$@"
