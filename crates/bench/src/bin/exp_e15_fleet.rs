//! Regenerates experiment E15 (see DESIGN.md): the fleet-scale scrub
//! service under open-loop tenant demand. Runs two fleets from one
//! config — continuous, and drain-migrate-resume at every cadence
//! boundary — and reports per-tenant service levels plus the headline
//! byte-identity differential. `SCRUB_QUICK=1` or
//! `--quick` for the CI fleet (64 banks × 4 shards) instead of the
//! acceptance fleet (10,240 banks × 16 shards). Writes wall-clock,
//! thread count, and per-row metrics to `BENCH_e15.json`.

fn main() {
    scrub_bench::runner::main_with("e15", scrub_bench::experiments::e15::run_with_metrics);
}
