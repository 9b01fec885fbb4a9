#!/usr/bin/env bash
# Regenerates the committed bench artifacts (the device-parallelism,
# write-path, read-path, stability, and space probes). Full-size by default;
# XLSM_QUICK=1 for a fast smoke run — note the committed BENCH_*.json
# files are the full-size output, so don't commit a quick-mode
# regeneration.
set -euo pipefail
cd "$(dirname "$0")/.."

# Assigned first so a failing --list stops the script instead of running
# zero probes.
probes="$(cargo run -q --release -p xlsm-bench --bin probes -- --list)"
for probe in $probes; do
    echo "==> $probe probe -> BENCH_$probe.json"
    cargo run -q --release -p xlsm-bench --bin probes -- "$probe" "BENCH_$probe.json"
done

echo "==> done"
