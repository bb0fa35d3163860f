//! Skip-ahead performance pin: the fast simulation path (idle
//! skip-ahead plus batched sweeps) against the slot-at-a-time reference,
//! with a regression gate and a machine-readable record.
//!
//! Three layers:
//!
//! 1. Criterion microbenches of a small simulation on the fast path and
//!    on the reference path (per-change sensitivity; the numbers live in
//!    criterion's report).
//! 2. A skip-heavy run (combined policy, idle traffic — about a quarter
//!    of the slots are skipped idles) on both paths, asserting identical
//!    reports and that [`Simulation::run`] takes at most
//!    `EVENT_REGRESSION_LIMIT` × the wall-clock of
//!    [`Simulation::run_unbatched`] — the gate that keeps skip-ahead from
//!    quietly rotting. E6 at quick scale is timed alongside for the
//!    anchor against the checked-in `BENCH_e6.json`.
//! 3. Optionally (`SCRUBSIM_YEAR=1`), a one-year-horizon E6 variant,
//!    gated to finish in under the original 12-hour wall-clock budget
//!    (43 200 s).
//!
//! The measurements, the anchor speedup, and the year-horizon result land
//! in `BENCH_event.json` at the workspace root.
//!
//! Run with: `cargo bench -p scrub-bench --bench event_engine`
//! (add `SCRUBSIM_YEAR=1` to refresh the year-horizon entry).

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use scrub_bench::experiments::e6;
use scrub_bench::Scale;
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, SimReport, Simulation};

/// The fast path may not take longer than this factor × the reference
/// path's wall-clock on the skip-heavy run (it should be well ahead; the
/// margin absorbs shared-machine jitter).
const EVENT_REGRESSION_LIMIT: f64 = 1.15;

/// The year-horizon run must finish inside the original 12-hour
/// wall-clock budget the first simulation core needed for a 12-hour
/// horizon.
const YEAR_WALL_BUDGET_S: f64 = 12.0 * 3600.0;

/// Timed repetitions per path on the skip-heavy run; the minimum is kept.
const GATE_REPS: usize = 3;

fn micro_config() -> SimConfig {
    SimConfig::builder()
        .num_lines(512)
        .horizon_s(1800.0)
        .seed(11)
        .threads(1)
        .build()
}

fn bench_paths_micro(c: &mut Criterion) {
    c.bench_function("sim_512l_30min", |b| {
        b.iter(|| black_box(Simulation::new(micro_config()).run()))
    });
    c.bench_function("sim_512l_30min_unbatched", |b| {
        b.iter(|| black_box(Simulation::new(micro_config()).run_unbatched()))
    });
}

/// Combined policy over idle traffic: the drift-only worst case, with no
/// demand op to cut batches short; about a quarter of the slots are idle
/// and skipped.
fn skip_heavy_config() -> SimConfig {
    SimConfig::builder()
        .num_lines(8192)
        .policy(PolicyKind::combined_default(900.0))
        .traffic(DemandTraffic::Idle)
        .horizon_s(12.0 * 3600.0)
        .seed(11)
        .threads(1)
        .build()
}

/// Best-of-`GATE_REPS` wall-clock of one path, plus its report.
fn timed_min(run: fn(Simulation) -> SimReport) -> (SimReport, f64) {
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..GATE_REPS {
        let sim = Simulation::new(skip_heavy_config());
        let start = Instant::now();
        let r = run(sim);
        best = best.min(start.elapsed().as_secs_f64());
        report = Some(r);
    }
    (report.expect("GATE_REPS > 0"), best)
}

/// `cargo bench` runs the binary with the package directory as cwd; the
/// BENCH records live at the workspace root, two levels up.
fn workspace_path(name: &str) -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap_or(manifest).join(name)
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Pulls a numeric field out of a flat JSON record without a parser
/// dependency (the records are machine-written with one `"key": value`
/// per line).
fn json_field(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn timed_e6(scale: Scale) -> f64 {
    let start = Instant::now();
    black_box(e6::compute(scale));
    start.elapsed().as_secs_f64()
}

fn gate_and_record() {
    scrub_exec::set_default_threads(1);
    let scale = Scale::quick();

    let (fast, wall_fast) = timed_min(Simulation::run);
    let (reference, wall_unbatched) = timed_min(Simulation::run_unbatched);
    assert_eq!(
        fast, reference,
        "fast path disagrees with the reference — run the differential \
         harness (cargo test -p scrub-bench --test engine_differential)"
    );
    let speedup = wall_unbatched / wall_fast;
    println!(
        "[event_engine] skip-heavy run: fast {wall_fast:.3}s, unbatched \
         {wall_unbatched:.3}s ({speedup:.2}x); reports identical"
    );
    assert!(
        wall_fast <= EVENT_REGRESSION_LIMIT * wall_unbatched,
        "skip-ahead regressed: fast path {wall_fast:.3}s vs unbatched \
         {wall_unbatched:.3}s (limit {EVENT_REGRESSION_LIMIT}x)"
    );

    // E6 quick against the checked-in anchor record, when present.
    let wall_e6 = timed_e6(scale);
    println!("[event_engine] E6 quick: {wall_e6:.2}s");
    let anchor_wall = std::fs::read_to_string(workspace_path("BENCH_e6.json"))
        .ok()
        .and_then(|t| json_field(&t, "wall_s"));
    let anchor_speedup = anchor_wall.map(|w| w / wall_e6);
    if let (Some(w), Some(s)) = (anchor_wall, anchor_speedup) {
        println!("[event_engine] vs BENCH_e6.json anchor ({w:.2}s): {s:.2}x");
    }

    // Year-horizon variant: same line count, horizon stretched to a year.
    let year = if std::env::var("SCRUBSIM_YEAR").is_ok_and(|v| v != "0" && !v.is_empty()) {
        let year_scale = Scale {
            horizon_s: 365.0 * 86_400.0,
            ..scale
        };
        let wall_year = timed_e6(year_scale);
        println!(
            "[event_engine] E6 one-year horizon: {wall_year:.0}s \
             (budget {YEAR_WALL_BUDGET_S:.0}s)"
        );
        assert!(
            wall_year < YEAR_WALL_BUDGET_S,
            "one-year E6 took {wall_year:.0}s, over the {YEAR_WALL_BUDGET_S:.0}s budget"
        );
        Some(wall_year)
    } else {
        // Preserve the previously recorded value so a year-less refresh
        // does not erase the expensive measurement.
        std::fs::read_to_string(workspace_path("BENCH_event.json"))
            .ok()
            .and_then(|t| json_field(&t, "year_horizon_event_wall_s"))
    };

    let record = format!(
        "{{\n  \"experiment\": \"event_engine\",\n  \"threads\": 1,\n  \
         \"scale\": {{\n    \"num_lines\": {},\n    \"horizon_s\": {},\n    \
         \"reps\": {},\n    \"mc_cells\": {}\n  }},\n  \
         \"skip_heavy_fast_wall_s\": {},\n  \"skip_heavy_unbatched_wall_s\": {},\n  \
         \"skip_heavy_speedup\": {},\n  \"e6_wall_s\": {},\n  \
         \"anchor_wall_s\": {},\n  \"e6_speedup_vs_anchor\": {},\n  \
         \"event_regression_limit\": {EVENT_REGRESSION_LIMIT},\n  \
         \"year_horizon_s\": {},\n  \"year_horizon_event_wall_s\": {},\n  \
         \"year_wall_budget_s\": {YEAR_WALL_BUDGET_S}\n}}\n",
        scale.num_lines,
        json_f64(scale.horizon_s),
        scale.reps,
        scale.mc_cells,
        json_f64(wall_fast),
        json_f64(wall_unbatched),
        json_f64(speedup),
        json_f64(wall_e6),
        anchor_wall.map_or("null".into(), json_f64),
        anchor_speedup.map_or("null".into(), json_f64),
        json_f64(365.0 * 86_400.0),
        year.map_or("null".into(), json_f64),
    );
    match std::fs::write(workspace_path("BENCH_event.json"), &record) {
        Ok(()) => eprintln!("[event_engine] record: BENCH_event.json"),
        Err(e) => eprintln!("[event_engine] could not write record: {e}"),
    }
}

criterion_group!(benches, bench_paths_micro);

fn main() {
    benches();
    gate_and_record();
}
