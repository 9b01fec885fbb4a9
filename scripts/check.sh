#!/usr/bin/env bash
# Pre-merge gate: everything CI runs, in the order it fails fastest.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> crash-consistency suite (fault injection + power cuts)"
cargo test -q --test crash_recovery

echo "==> crash-torture smoke: 64 seeded cut points, all four WAL recovery modes"
# The binary's recovery_is_deterministic_for_seed_and_cut test re-runs two
# cut points twice and asserts byte-identical recovered state, so this line
# also covers the same-seed => same-bytes determinism gate.
XLSM_TORTURE_CUTS=64 cargo test -q --test crash_torture

echo "==> full-disk suite: capacity exhaustion, soft-ENOSPC stalls, trash reclamation"
# fill_to_capacity_stalls_never_errors_and_auto_resumes_on_all_profiles and
# power_cut_at_the_capacity_edge_loses_no_acked_write are the acceptance
# legs: capacity overruns stall (never error), auto-resume within one
# SpaceWatcher poll, and lose no acked write across a cut at the edge.
cargo test -q --test enospc

echo "==> corruption sweep: seeded bit flips over SST/WAL/MANIFEST, scrubber cycle"
# seeded_flip_sweep_never_silently_wrong_and_deterministic runs the full
# sweep twice with one seed and asserts an identical outcome log, so this
# line is also a determinism gate.
cargo test -q -p xlsm-engine --test integrity

echo "==> scheduling suite: policy equivalence, fairness bound, I/O-budget admission"
# every_policy_yields_byte_identical_final_state replays one op tape under
# greedy / round-robin / fair(+limiter) scheduling and asserts an identical
# logical database, so this line is also a determinism gate.
cargo test -q --test scheduling

echo "==> benchmark self-tests: traced-run neutrality, wrong values fail, BENCHMARK.json agreement"
# perfbench is a workspace of its own, so the --workspace runs above skip it.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> determinism: every probe twice with one seed, byte-identical JSON"
probe_a="$(mktemp)" probe_b="$(mktemp)"
trap 'rm -f "$probe_a" "$probe_b"' EXIT
# Assigned first so a failing --list stops the script instead of running
# zero probes.
probes="$(cargo run -q --release -p xlsm-bench --bin probes -- --list)"
for probe in $probes; do
    echo "    $probe"
    XLSM_QUICK=1 cargo run -q --release -p xlsm-bench --bin probes -- "$probe" "$probe_a" >/dev/null
    XLSM_QUICK=1 cargo run -q --release -p xlsm-bench --bin probes -- "$probe" "$probe_b" >/dev/null
    cmp "$probe_a" "$probe_b"
done

echo "==> all checks passed"
