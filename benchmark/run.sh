#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of standard output is its result object
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>] [--quick]
#       every workload, untraced then traced; one JSON object per workload
#   bash benchmark/run.sh --validate
#       fails if the names the harness emits differ from BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/bat-benchmark"

case " $* " in
*" --workload "* | *" --validate "*) exec "$bin" "$@" ;;
esac

status=0
for workload in rank_warm rank_churn serve_slots sim_replay; do
    end_to_end=$("$bin" --workload "$workload" --trace 0 "$@" | tail -n 1) || status=1
    per_layer=$("$bin" --workload "$workload" --trace 1 "$@" | tail -n 1) || status=1
    printf '{"workload":"%s","end_to_end":%s,"per_layer":%s}\n' \
        "$workload" "${end_to_end:-null}" "${per_layer:-null}"
done
exit "$status"
