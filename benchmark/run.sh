#!/usr/bin/env bash
# Run the benchmark by hand.
#
#   benchmark/run.sh [SEED]   build offline; run every workload untraced, then
#                             traced, on SEED (default 1); print one table.
#                             Span dumps (trace-*.json) and the report
#                             (report-seed*.json) land in <target>/release/bench-run/.
#   benchmark/run.sh spread   what the driver does before it accepts the
#                             benchmark: from a copy holding only the files git
#                             would commit, through the exact BENCHMARK.json
#                             command, two back-to-back sets of ten untraced runs
#                             per workload (seeds 11-20, 21-30), then two traced
#                             runs per workload on one seed. Exits non-zero when a
#                             spread passes its bound, a median shifts by more
#                             than its bound, or an exact metric differs.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
tools="$here/report.py"

if [[ "${1:-}" == spread ]]; then
    target="${CARGO_TARGET_DIR:-$here/target}"
    checkout="$target/spread-checkout"
    rm -rf "$checkout"
    mkdir -p "$checkout"
    (cd "$root" && git ls-files -z --cached --others --exclude-standard \
        | tar --null --files-from=- --create --file=- 2>/dev/null) | tar --extract --file=- -C "$checkout"
    cd "$checkout"
    export CARGO_TARGET_DIR=.bench_build
    exec python3 "$tools" spread
fi

seed="${1:-1}"
cd "$root"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec python3 "$tools" once "$seed"
