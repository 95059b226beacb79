#!/usr/bin/env bash
# Full offline CI gate: format, lints, build, tests, fault sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test --workspace -q
# The host-time benchmark is a workspace of its own, so the root `cargo
# test` never builds it. Its recorded `sim_digest` references are the
# virtual-clock equivalence proof for every host-side optimisation: the
# simulated timings and outputs must not move.
cargo test -q --manifest-path hostbench/Cargo.toml
# Deterministic robustness gate: 200 seeded fault schedules across the §6
# applications; every schedule's flight record is replayed through the
# trace auditor, and any violation exits non-zero. The --quick sweep runs
# first so a broken auditor fails in seconds, not after the full sweep.
cargo run --release -p flicker-bench --bin fault_sweep -- --quick
cargo run --release -p flicker-bench --bin fault_sweep -- --seed 0 --schedules 200
# Static-verification gate: every bytecode PAL the repo ships must pass
# the verifier (`SlbImage::build` would refuse them at run time anyway;
# this fails fast with the per-check report).
cargo run --release -p flicker-verifier --bin palvm_tool -- verify --builtin
# Constant-time gate: the same library must also be free of ct-* findings
# (secret-dependent branches / indices / loop bounds / hypercall operands),
# and a bounded differential-oracle run must show zero soundness
# divergences between the static ct pass and the runtime shadow-taint
# monitor (any divergence prints its JSONL repro record and fails).
cargo run --release -p flicker-verifier --bin palvm_tool -- analyze --builtin
cargo run --release -p flicker-verifier --bin palvm_tool -- analyze --differential 200
# Perf-baseline gate: a quick traced run must still produce a schema-valid
# report AND an audit-clean flight record (written under target/ so the
# committed full-run artifact and trajectory are never clobbered), and the
# committed artifact must itself stay valid.
cargo run --release -p flicker-bench --bin perf_baseline -- --quick --audit \
  --out target/BENCH_perf_baseline_quick.json \
  --trajectory target/BENCH_trajectory_quick.jsonl
cargo run --release -p flicker-bench --bin perf_baseline -- --check target/BENCH_perf_baseline_quick.json
cargo run --release -p flicker-bench --bin perf_baseline -- --check BENCH_perf_baseline.json
# Farm gate: a quick farm run (2 machines, seeded faults) must finish with
# zero lost / zero duplicated requests, audit-clean (untruncated)
# per-machine flight records, >=99% of every request's wall time
# attributed, and every workload inside its SLO error budget; the
# trajectory line goes under target/ so the committed file only carries
# full runs, and the flight record is persisted for the offline
# attribution pass below.
cargo run --release -p flicker-bench --bin farm_bench -- --quick \
  --trajectory target/BENCH_trajectory_quick.jsonl \
  --flight-dir target/farm_flight_quick
# Attribution gate: re-run the attribution + SLO checks offline from the
# persisted flight record, proving the on-disk format round-trips and the
# standalone tool reaches the same verdict as the live run.
cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  attribute --from target/farm_flight_quick
# Warm-path gate (§7.6): a quick cold-vs-warm run must show the warm p50
# strictly below the cold p50, leak zero auth sessions, keep every flight
# record audit-clean, and not regress against the committed warm baseline.
cargo run --release -p flicker-bench --bin warm_bench -- --quick \
  --trajectory target/BENCH_trajectory_quick.jsonl \
  --check BENCH_warm_baseline.json
# Dashboard gate: the committed trajectory must still render (regenerated
# under target/ so the committed docs/bench/ artifact stays full-run only).
cargo run --release -p flicker-bench --bin trajectory_dashboard -- \
  --out-dir target/bench_dashboard
# Flight-recorder gates: the paper-invariant auditor must pass over a
# fresh quick run, and each exporter must emit a self-consistent document.
cargo run --release -p flicker-bench --bin flicker_trace_tool -- audit --quick
for fmt in chrome jsonl prom; do
  cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
    export --quick --format "$fmt" --verify --out "target/trace_smoke.$fmt" >/dev/null
done
# Profiling gates: a quick profile must validate (reconciliation within
# 1%, gated TPM ordinals >=90% attributed to named crypto primitives) and
# must not drift against the committed profile baseline; both flamegraph
# exports must pass the same reconciliation check; and the committed
# trajectory's profile series must be drift-free between adjacent runs.
cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  profile --quick --out target/BENCH_profile_quick.json
cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  profile --check BENCH_profile_baseline.json --quick
cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  flamegraph --quick --out target/profile_smoke.folded >/dev/null
cargo run --release -p flicker-bench --bin flicker_trace_tool -- \
  flamegraph --quick --format chrome --out target/profile_smoke.chrome.json >/dev/null
cargo run --release -p flicker-bench --bin trajectory_dashboard -- --check-drift
