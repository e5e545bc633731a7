#!/usr/bin/env bash
# The repo benchmark's one command.  Builds the `perf` crate, then:
#
#   perf/run.sh                      one set: every workload, 3 untraced runs +
#                                    1 traced run each, medians and checks
#   perf/run.sh --only <workload>    the same for one workload
#   perf/run.sh --aa                 two sets of the same build, held to the
#                                    bounds of BENCHMARK.json
#   perf/run.sh --spread 10          10 seeds per workload, spread per metric
#   perf/run.sh --no-trace           skip the traced runs
#   perf/run.sh --seed <n>           seed of the generated inputs (default 42)
#   perf/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#                                    one run; the last line of standard output
#                                    is its JSON result (the form BENCHMARK.json
#                                    names as the benchmark command)
#
# Builds into $CARGO_TARGET_DIR when set, else into the root `target/` the
# workspace already uses, so the production crates are not compiled twice.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
manifest=perf/Cargo.toml

single_run=0
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        single_run=1
    fi
done

# The root workspace's CI does not see this crate, so a set lints it first.
# A single run (what the benchmark driver calls, a hundred times) only builds.
if [ "$single_run" -eq 0 ]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
fi

cargo build --offline --quiet --release --manifest-path "$manifest"
exec "$CARGO_TARGET_DIR/release/cwcs-perf" "$@"
