//! E14 — UE rate and demand-latency impact vs. scrub IOPS budget.
//!
//! Extension experiment: the paper's mechanisms schedule scrub probes as
//! if they were free; a production scrubber shares an IOPS budget with
//! demand traffic. E14 runs the budgeted tour policy (`PolicyKind::Tour`)
//! at a sweep of budgets — from comfortably above the nominal tour rate
//! down to a quarter of it — head-to-head with the paper's four
//! mechanisms, under demand traffic, and reports the reliability cost
//! (UE/GiB-day) and the demand-latency impact of each point.
//!
//! The tour's `ScrubProgress` bound (`lines * (max_defer + 1)` slots) is
//! published as `e14.progress_bound_slots` in the telemetry value map so
//! CI can assert the measured `starvation_max_lag` gauge never exceeds
//! it — the run-time shadow of the model-checked property (see
//! `pcm_analysis::modelcheck`).

use pcm_analysis::{fmt_count, Table};
use pcm_ecc::CodeSpec;
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, SimReport, Simulation};
use scrub_telemetry as tel;

use crate::runner;
use crate::scale::Scale;

const INTERVAL_S: f64 = 900.0;
const THETA: u32 = 4;
/// Token-bucket capacity for every budgeted point.
const BURST: f64 = 64.0;
/// Throttled slots tolerated before the anti-starvation boost fires.
const MAX_DEFER: u32 = 8;
/// Budget sweep, as multiples of the nominal tour rate
/// (`num_lines / INTERVAL_S`, the rate that never throttles).
const BUDGET_FACTORS: [f64; 4] = [2.0, 1.0, 0.5, 0.25];

/// The paper's four mechanisms plus the budgeted tour sweep:
/// (row label, IOPS budget or None for unbudgeted, policy).
pub fn roster(scale: &Scale) -> Vec<(String, Option<f64>, PolicyKind)> {
    let mut v: Vec<(String, Option<f64>, PolicyKind)> = vec![
        (
            "basic".into(),
            None,
            PolicyKind::Basic {
                interval_s: INTERVAL_S,
            },
        ),
        (
            "threshold".into(),
            None,
            PolicyKind::Threshold {
                interval_s: INTERVAL_S,
                theta: THETA,
            },
        ),
        (
            "age-aware".into(),
            None,
            PolicyKind::AgeAware {
                interval_s: INTERVAL_S,
                theta: THETA,
                min_age_s: INTERVAL_S * 2.0 / 3.0,
            },
        ),
        (
            "combined".into(),
            None,
            PolicyKind::combined_default(INTERVAL_S),
        ),
    ];
    // `--scrub-iops` rebases the whole sweep; the factors still apply, so
    // CI can force a throttled regime at any scale.
    let nominal = scale.num_lines as f64 / INTERVAL_S;
    let base = runner::scrub_iops().unwrap_or(nominal);
    for factor in BUDGET_FACTORS {
        let iops = base * factor;
        v.push((
            format!("tour@{factor}x"),
            Some(iops),
            PolicyKind::Tour {
                interval_s: INTERVAL_S,
                theta: THETA,
                iops,
                burst: BURST,
                max_defer: MAX_DEFER,
            },
        ));
    }
    v
}

/// One roster entry's rep-averaged figures.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetRow {
    /// Roster label (`"tour@0.5x"` etc).
    pub label: String,
    /// IOPS budget; `None` for the paper's unbudgeted mechanisms.
    pub iops: Option<f64>,
    /// Mean uncorrectable errors per GiB-day.
    pub ue_per_gib_day: f64,
    /// Mean scrub probes.
    pub probes: f64,
    /// Mean scrub write-backs.
    pub scrub_writes: f64,
    /// Mean slots the budget throttled (engine idle slots; the paper's
    /// mechanisms idle only on age skips).
    pub throttled: f64,
    /// Mean measured demand-read latency (ns), queueing included.
    pub read_latency_ns: f64,
}

fn run_one(scale: &Scale, policy: &PolicyKind, seed: u64, threads: usize) -> SimReport {
    let mut builder = SimConfig::builder();
    builder
        .num_lines(scale.num_lines)
        .device(DeviceConfig::default())
        .code(CodeSpec::bch_line(6))
        .policy(policy.clone())
        .traffic(DemandTraffic::suite(WorkloadId::DbOltp))
        .horizon_s(scale.horizon_s)
        .seed(seed)
        .threads(threads);
    if let Some(spec) = runner::fault_campaign() {
        builder.fault_campaign(spec);
    }
    let config = builder.build();
    // `--checkpoint-every` routes every rep through the serialize/resume
    // path — mid-tour checkpoints included; the determinism contract
    // makes this invisible in the output.
    match runner::checkpoint_every_s() {
        Some(every_s) => {
            scrub_core::run_split(config, every_s)
                .expect("split run over config-built traces cannot fail")
                .report
        }
        None => Simulation::new(config).run(),
    }
}

/// Computes the budget table without rendering.
pub fn compute(scale: Scale) -> Vec<BudgetRow> {
    let threads = scrub_exec::default_threads();
    if tel::enabled() {
        // The run-time bound CI checks `starvation_max_lag` against.
        tel::set_value(
            "e14.progress_bound_slots",
            scale.num_lines as f64 * (MAX_DEFER as f64 + 1.0),
        );
    }
    roster(&scale)
        .into_iter()
        .map(|(label, iops, policy)| {
            let (outer, inner) = super::split_threads(threads, scale.reps as usize);
            let reports: Vec<SimReport> =
                scrub_exec::par_map(outer, (0..scale.reps).collect(), |_, rep| {
                    run_one(&scale, &policy, 0xE14 + rep as u64 * 1000, inner)
                });
            let n = reports.len() as f64;
            let mut row = BudgetRow {
                label: label.clone(),
                iops,
                ue_per_gib_day: 0.0,
                probes: 0.0,
                scrub_writes: 0.0,
                throttled: 0.0,
                read_latency_ns: 0.0,
            };
            for r in &reports {
                row.ue_per_gib_day += r.ue_per_gib_day();
                row.probes += r.stats.scrub_probes as f64;
                row.scrub_writes += r.stats.scrub_writebacks as f64;
                row.throttled += r.engine.idle_slots as f64;
                row.read_latency_ns += r.measured_read_latency_ns;
            }
            row.ue_per_gib_day /= n;
            row.probes /= n;
            row.scrub_writes /= n;
            row.throttled /= n;
            row.read_latency_ns /= n;
            if tel::enabled() {
                tel::set_value(&format!("e14.{label}.ue_per_gib_day"), row.ue_per_gib_day);
                tel::set_value(&format!("e14.{label}.probes"), row.probes);
                tel::set_value(&format!("e14.{label}.throttled"), row.throttled);
                tel::set_value(&format!("e14.{label}.read_latency_ns"), row.read_latency_ns);
            }
            row
        })
        .collect()
}

/// Runs E14 and renders its table.
pub fn run(scale: Scale) -> String {
    render(&compute(scale))
}

/// Runs E14 once, returning the rendered table plus per-row headline
/// metrics for the `BENCH_e14.json` record.
pub fn run_with_metrics(scale: Scale) -> (String, Vec<(String, f64)>) {
    let rows = compute(scale);
    let mut metrics = Vec::new();
    for row in &rows {
        metrics.push((format!("{}.ue_per_gib_day", row.label), row.ue_per_gib_day));
        metrics.push((format!("{}.throttled", row.label), row.throttled));
        metrics.push((
            format!("{}.read_latency_ns", row.label),
            row.read_latency_ns,
        ));
    }
    (render(&rows), metrics)
}

/// Renders the budget table.
fn render(rows: &[BudgetRow]) -> String {
    let mut out = String::from(
        "E14: reliability and demand latency vs. scrub IOPS budget\n\
         (tour policy at a budget sweep vs. the paper's unbudgeted mechanisms,\n\
         db-oltp demand traffic, BCH-6)\n\n",
    );
    let mut table = Table::new(vec![
        "policy",
        "iops",
        "ue/GiB-day",
        "probes",
        "scrub_writes",
        "throttled",
        "read_lat_ns",
    ]);
    for row in rows {
        table.row(vec![
            row.label.clone(),
            match row.iops {
                Some(i) => format!("{i:.2}"),
                None => "-".to_string(),
            },
            format!("{:.3}", row.ue_per_gib_day),
            fmt_count(row.probes),
            fmt_count(row.scrub_writes),
            fmt_count(row.throttled),
            format!("{:.0}", row.read_latency_ns),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: demand traffic shares the token bucket, so even the\n\
         widest budget throttles some; shrinking the budget trades probes for\n\
         throttled slots and lets drift accumulate — but the anti-starvation\n\
         boost keeps every tour inside the ScrubProgress bound, so the UE cost\n\
         grows smoothly instead of collapsing to never-scrubbed.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            num_lines: 512,
            horizon_s: 6.0 * 3600.0,
            reps: 1,
            mc_cells: 100,
        }
    }

    #[test]
    fn budget_sweep_throttles_and_degrades_smoothly() {
        let rows = compute(tiny());
        assert_eq!(rows.len(), 8);
        let by_label = |l: &str| rows.iter().find(|r| r.label == l).unwrap();
        let full = by_label("tour@2x");
        let starved = by_label("tour@0.25x");
        // Demand traffic shares the bucket, so every budget throttles
        // some — but shrinking it must throttle strictly more.
        assert!(
            starved.throttled > full.throttled,
            "{starved:?} vs {full:?}"
        );
        // Throttling costs probes across the sweep.
        assert!(starved.probes < full.probes, "{starved:?} vs {full:?}");
        // But the anti-starvation floor keeps scrub alive even at a
        // quarter budget under contention.
        assert!(starved.probes > 0.0, "{starved:?}");
        // The paper's mechanisms never throttle on budget.
        let threshold = by_label("threshold");
        assert!(full.throttled > threshold.throttled, "{full:?}");
    }

    #[test]
    fn unbudgeted_mechanisms_report_no_iops() {
        let rows = compute(tiny());
        for label in ["basic", "threshold", "age-aware", "combined"] {
            assert!(rows.iter().any(|r| r.label == label && r.iops.is_none()));
        }
    }
}
