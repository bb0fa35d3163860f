//! Regenerates experiment E16 (see DESIGN.md): fleet self-healing under
//! recurring shard failures. Runs, for each of the four scrub policies,
//! a failure-free control fleet plus chaos fleets that panic a rotating
//! shard every k ∈ {2, 4, 8} cadence rounds, and reports the repair
//! bill — retries, replayed rounds, and MTTR — alongside the headline
//! byte-identity differential. `SCRUB_QUICK=1` or
//! `--quick` for the CI-sized fleet. Writes wall-clock, thread count,
//! and per-cell metrics to `BENCH_e16.json`.

fn main() {
    scrub_bench::runner::main_with("e16", scrub_bench::experiments::e16::run_with_metrics);
}
