//! E17 — profiling-guided scrub + symbol ECC, oracle-validated
//! head-to-head.
//!
//! Two tables:
//!
//! * **Policy table** — the paper's combined scheme vs. a budgeted tour
//!   vs. the profiled policy at the tour's exact budget, all under BCH-6
//!   and a fault campaign that concentrates errors on a few lines (stuck
//!   cells + an SEU sprinkle), where per-line profiling should shine:
//!   the profiler's hit rate (dirty fraction among probes of *profiled*
//!   lines) is published next to the run's base dirty rate (dirty
//!   fraction among *all* probes) — concentration means the former beats
//!   the latter, and the quiet stretch converts the saved probes into
//!   fewer write-backs than the combined scheme at lower UE.
//! * **Code table** — BCH-6 vs. Reed–Solomon (72,64) over GF(2^8) under
//!   a correlated-burst campaign, same profiled policy. A 17-bit burst
//!   spans at most three byte symbols at any alignment, so RS-4 corrects
//!   every one with a symbol to spare for drift, while BCH-6 (a 6-*bit*
//!   budget) detects an uncorrectable error — the symbol code's burst
//!   edge. (Under purely random errors BCH-6 beats RS-4; see
//!   `scrub_oracle::symbol_ue_tail`'s tests.)
//!
//! Telemetry values CI guards with `jq`: `e17.profiler_hit_rate` vs.
//! `e17.random_hit_rate`, `e17.rs_ue` vs. `e17.bch_ue`, per-row
//! `e17.<label>.*`, and `e17.progress_bound_slots` (the profiled
//! analogue of the tour's model-checked `ScrubProgress` bound) against
//! the `starvation_max_lag` gauge.

use pcm_analysis::{event_rate, fmt_count, Table};
use pcm_ecc::CodeSpec;
use pcm_memsim::CampaignSpec;
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_core::{
    DemandTraffic, PolicyKind, ProfileParams, ProfiledScrub, SimConfig, SimReport, Simulation,
    TourBudget,
};
use scrub_telemetry as tel;

use crate::runner;
use crate::scale::Scale;

const INTERVAL_S: f64 = 900.0;
const THETA: u32 = 4;
const BURST_TOKENS: f64 = 64.0;
const MAX_DEFER: u32 = 8;
const HOT_STRIDE: u32 = 9;
const STRETCH: u32 = 2;
const RISK: u32 = 2;

/// Token budget for the tour and profiled rows, as a multiple of the
/// nominal one-line-per-slot rate. Demand traffic charges the same
/// bucket, so 1x leaves the scrubber starved behind db-oltp's write
/// stream (the E14 regime); 3.25x covers demand with roughly the
/// nominal scrub rate left over. The two budgeted rows share the
/// figure, so their comparison isolates profiling.
const BUDGET_FACTOR: f64 = 3.25;

fn profile_capacity(scale: &Scale) -> u32 {
    (scale.num_lines / 8).max(16)
}

fn nominal_iops(scale: &Scale) -> f64 {
    runner::scrub_iops().unwrap_or(scale.num_lines as f64 / INTERVAL_S)
}

fn profiled_kind(scale: &Scale, theta: u32, iops_factor: f64) -> PolicyKind {
    PolicyKind::Profiled {
        interval_s: INTERVAL_S,
        theta,
        iops: nominal_iops(scale) * iops_factor,
        burst: BURST_TOKENS,
        max_defer: MAX_DEFER,
        capacity: profile_capacity(scale),
        hot_stride: HOT_STRIDE,
        stretch: STRETCH,
        risk: RISK,
    }
}

/// Policy-table roster: combined, tour at the same nominal budget, and
/// the profiled policy.
pub fn roster(scale: &Scale) -> Vec<(String, PolicyKind)> {
    vec![
        (
            "combined".to_string(),
            PolicyKind::combined_default(INTERVAL_S),
        ),
        (
            "tour".to_string(),
            PolicyKind::Tour {
                interval_s: INTERVAL_S,
                theta: THETA,
                iops: nominal_iops(scale) * BUDGET_FACTOR,
                burst: BURST_TOKENS,
                max_defer: MAX_DEFER,
            },
        ),
        (
            "profiled".to_string(),
            profiled_kind(scale, THETA, BUDGET_FACTOR),
        ),
    ]
}

/// The policy table's default campaign: errors concentrated on a small
/// set of repeat-offender lines, the regime profiling is for.
/// `--fault-campaign` overrides it.
fn policy_campaign(scale: &Scale) -> CampaignSpec {
    if let Some(spec) = runner::fault_campaign() {
        return spec;
    }
    let stuck = (scale.num_lines / 32).max(4);
    let seu = (scale.num_lines / 128).max(2);
    let window = scale.horizon_s * 0.5;
    format!("seed=17;stuck=lines:{stuck},cells:2;seu=lines:{seu},count:2,window:{window:.0}")
        .parse()
        .expect("literal campaign grammar")
}

/// The code table's campaign: correlated 17-bit bursts landing
/// mid-horizon on a visible share of lines. Seventeen contiguous bits
/// span at most three byte symbols at any alignment — inside RS-4's
/// budget with a symbol to spare for background drift — while being
/// nearly three times BCH-6's bit budget.
fn burst_campaign(scale: &Scale) -> CampaignSpec {
    let lines = (scale.num_lines / 4).max(8);
    let at = scale.horizon_s / 3.0;
    format!("seed=23;burst=lines:{lines},bits:17,at:{at:.0}")
        .parse()
        .expect("literal campaign grammar")
}

/// One policy-table row, rep-averaged.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Roster label.
    pub label: String,
    /// Mean uncorrectable errors per GiB-day.
    pub ue_per_gib_day: f64,
    /// Mean scrub probes.
    pub probes: f64,
    /// Mean scrub write-backs.
    pub scrub_writes: f64,
    /// Mean scrub energy (µJ).
    pub energy_uj: f64,
    /// Dirty fraction among probes of profiled lines (profiled rows
    /// with telemetry on; `None` otherwise).
    pub hit_rate: Option<f64>,
    /// Dirty fraction among all probes of the same runs.
    pub base_rate: Option<f64>,
}

/// One code-table row, rep-averaged.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeRow {
    /// Code label (`"bch-6"` / `"rs:72,64"`).
    pub label: String,
    /// Mean uncorrectable errors per GiB-day.
    pub ue_per_gib_day: f64,
    /// Mean raw uncorrectable events.
    pub ue_events: f64,
    /// Mean scrub probes.
    pub probes: f64,
    /// Mean scrub write-backs.
    pub scrub_writes: f64,
}

/// Both tables, computed.
#[derive(Debug, Clone, PartialEq)]
pub struct E17Results {
    /// Policy head-to-head under the concentrated-error campaign.
    pub policies: Vec<PolicyRow>,
    /// BCH-6 vs. RS(72,64) under the burst campaign.
    pub codes: Vec<CodeRow>,
}

fn run_one(
    scale: &Scale,
    code: &CodeSpec,
    policy: &PolicyKind,
    campaign: &CampaignSpec,
    seed: u64,
    threads: usize,
) -> SimReport {
    let mut builder = SimConfig::builder();
    builder
        .num_lines(scale.num_lines)
        .device(DeviceConfig::default())
        .code(code.clone())
        .policy(policy.clone())
        .traffic(DemandTraffic::suite(WorkloadId::DbOltp))
        .horizon_s(scale.horizon_s)
        .seed(seed)
        .threads(threads)
        .fault_campaign(*campaign);
    let config = builder.build();
    match runner::checkpoint_every_s() {
        Some(every_s) => {
            scrub_core::run_split(config, every_s)
                .expect("split run over config-built traces cannot fail")
                .report
        }
        None => Simulation::new(config).run(),
    }
}

/// Minimum rep count for both tables. Single-run write-back totals
/// jitter by roughly the head-to-head margin (a few tens of events at
/// quick scale), so the gates compare multi-seed means instead of one
/// draw.
const MIN_REPS: u32 = 5;

fn reps(
    scale: &Scale,
    code: &CodeSpec,
    policy: &PolicyKind,
    campaign: &CampaignSpec,
    threads: usize,
) -> Vec<SimReport> {
    let n = scale.reps.max(MIN_REPS);
    let (outer, inner) = super::split_threads(threads, n as usize);
    scrub_exec::par_map(outer, (0..n).collect(), |_, rep| {
        run_one(
            scale,
            code,
            policy,
            campaign,
            0xE17 + rep as u64 * 1000,
            inner,
        )
    })
}

/// Computes both tables without rendering.
pub fn compute(scale: Scale) -> E17Results {
    let threads = scrub_exec::default_threads();
    if tel::enabled() {
        // The run-time progress bound for the profiled policy, the
        // shadow of the tour's model-checked ScrubProgress property.
        let bound = ProfiledScrub::new(
            INTERVAL_S,
            scale.num_lines,
            8,
            THETA,
            TourBudget {
                iops: nominal_iops(&scale),
                burst: BURST_TOKENS,
                max_defer: MAX_DEFER,
            },
            ProfileParams {
                capacity: profile_capacity(&scale),
                hot_stride: HOT_STRIDE,
                stretch: STRETCH,
                risk: RISK,
            },
            0,
        )
        .progress_bound_slots();
        tel::set_value("e17.progress_bound_slots", bound as f64);
    }
    let bch = CodeSpec::bch_line(6);
    let campaign = policy_campaign(&scale);
    let policies = roster(&scale)
        .into_iter()
        .map(|(label, policy)| {
            // Profiler counters are process-global; the delta across this
            // roster entry's reps isolates its hit/dirty mix (other
            // policies never touch these counters).
            let before = [
                tel::counter_value(tel::Counter::ProfilerHits),
                tel::counter_value(tel::Counter::ProfilerMisses),
                tel::counter_value(tel::Counter::ProfilerDirtyProbes),
                tel::counter_value(tel::Counter::ScrubProbes),
            ];
            let reports = reps(&scale, &bch, &policy, &campaign, threads);
            let after = [
                tel::counter_value(tel::Counter::ProfilerHits),
                tel::counter_value(tel::Counter::ProfilerMisses),
                tel::counter_value(tel::Counter::ProfilerDirtyProbes),
                tel::counter_value(tel::Counter::ScrubProbes),
            ];
            let n = reports.len() as f64;
            let mut row = PolicyRow {
                label: label.clone(),
                ue_per_gib_day: 0.0,
                probes: 0.0,
                scrub_writes: 0.0,
                energy_uj: 0.0,
                hit_rate: None,
                base_rate: None,
            };
            for r in &reports {
                row.ue_per_gib_day += r.ue_per_gib_day();
                row.probes += r.stats.scrub_probes as f64;
                row.scrub_writes += r.stats.scrub_writebacks as f64;
                row.energy_uj += r.scrub_energy_uj;
            }
            row.ue_per_gib_day /= n;
            row.probes /= n;
            row.scrub_writes /= n;
            row.energy_uj /= n;
            let [hits, misses, dirty, probes] = [
                after[0] - before[0],
                after[1] - before[1],
                after[2] - before[2],
                after[3] - before[3],
            ];
            row.hit_rate = event_rate(hits, misses);
            if dirty > 0 {
                row.base_rate = event_rate(dirty, probes.saturating_sub(dirty));
            }
            if tel::enabled() {
                tel::set_value(&format!("e17.{label}.ue_per_gib_day"), row.ue_per_gib_day);
                tel::set_value(&format!("e17.{label}.probes"), row.probes);
                tel::set_value(&format!("e17.{label}.scrub_writes"), row.scrub_writes);
                tel::set_value(&format!("e17.{label}.energy_uj"), row.energy_uj);
                if let (Some(h), Some(b)) = (row.hit_rate, row.base_rate) {
                    tel::set_value("e17.profiler_hit_rate", h);
                    tel::set_value("e17.random_hit_rate", b);
                }
            }
            row
        })
        .collect();

    let burst = burst_campaign(&scale);
    let codes = [
        ("bch-6".to_string(), CodeSpec::bch_line(6), THETA),
        ("rs:72,64".to_string(), CodeSpec::rs_line(72, 64), 1),
    ]
    .into_iter()
    .map(|(label, code, theta)| {
        // 4x the nominal budget: the code table compares ECC strength,
        // so probes should not be the bottleneck the way they are in the
        // budget-focused policy table.
        let policy = profiled_kind(&scale, theta, 4.0);
        let reports = reps(&scale, &code, &policy, &burst, threads);
        let n = reports.len() as f64;
        let mut row = CodeRow {
            label: label.clone(),
            ue_per_gib_day: 0.0,
            ue_events: 0.0,
            probes: 0.0,
            scrub_writes: 0.0,
        };
        for r in &reports {
            row.ue_per_gib_day += r.ue_per_gib_day();
            row.ue_events += r.uncorrectable() as f64;
            row.probes += r.stats.scrub_probes as f64;
            row.scrub_writes += r.stats.scrub_writebacks as f64;
        }
        row.ue_per_gib_day /= n;
        row.ue_events /= n;
        row.probes /= n;
        row.scrub_writes /= n;
        if tel::enabled() {
            tel::set_value(
                &format!("e17.code.{label}.ue_per_gib_day"),
                row.ue_per_gib_day,
            );
            tel::set_value(&format!("e17.code.{label}.ue_events"), row.ue_events);
        }
        row
    })
    .collect::<Vec<_>>();
    if tel::enabled() {
        let find = |l: &str| codes.iter().find(|r| r.label == l).map(|r| r.ue_events);
        if let (Some(b), Some(r)) = (find("bch-6"), find("rs:72,64")) {
            tel::set_value("e17.bch_ue", b);
            tel::set_value("e17.rs_ue", r);
        }
    }
    E17Results { policies, codes }
}

/// Runs E17 and renders its tables.
pub fn run(scale: Scale) -> String {
    render(&compute(scale))
}

/// Runs E17 once, returning the rendered tables plus headline metrics
/// for the `BENCH_e17.json` record.
pub fn run_with_metrics(scale: Scale) -> (String, Vec<(String, f64)>) {
    let results = compute(scale);
    let mut metrics = Vec::new();
    for row in &results.policies {
        metrics.push((format!("{}.ue_per_gib_day", row.label), row.ue_per_gib_day));
        metrics.push((format!("{}.scrub_writes", row.label), row.scrub_writes));
        if let Some(h) = row.hit_rate {
            metrics.push((format!("{}.hit_rate", row.label), h));
        }
    }
    for row in &results.codes {
        metrics.push((format!("code.{}.ue_events", row.label), row.ue_events));
    }
    (render(&results), metrics)
}

/// Renders both tables.
fn render(results: &E17Results) -> String {
    let mut out = String::from(
        "E17: profiling-guided scrub + symbol ECC head-to-head\n\
         (concentrated-error campaign, db-oltp demand traffic)\n\n\
         Policy table (BCH-6):\n",
    );
    let mut table = Table::new(vec![
        "policy",
        "ue/GiB-day",
        "probes",
        "scrub_writes",
        "energy_uJ",
        "hit%",
        "base%",
    ]);
    for row in &results.policies {
        let pct = |v: Option<f64>| match v {
            Some(x) => format!("{:.1}", x * 100.0),
            None => "-".to_string(),
        };
        table.row(vec![
            row.label.clone(),
            format!("{:.3}", row.ue_per_gib_day),
            fmt_count(row.probes),
            fmt_count(row.scrub_writes),
            format!("{:.1}", row.energy_uj),
            pct(row.hit_rate),
            pct(row.base_rate),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\nCode table (17-bit burst campaign, profiled policy):\n");
    let mut table = Table::new(vec![
        "code",
        "ue/GiB-day",
        "ue_events",
        "probes",
        "scrub_writes",
    ]);
    for row in &results.codes {
        table.row(vec![
            row.label.clone(),
            format!("{:.3}", row.ue_per_gib_day),
            format!("{:.1}", row.ue_events),
            fmt_count(row.probes),
            fmt_count(row.scrub_writes),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: with errors concentrated on repeat-offender lines,\n\
         the profiler's hit rate beats the run's base dirty rate, and the\n\
         quiet-stretch + lazy-plus write-back spends fewer writes than the\n\
         combined scheme at equal-or-better UE. On the burst campaign the\n\
         symbol code corrects every 17-bit burst (<= 3 byte symbols) that\n\
         BCH-6's bit budget cannot, so the RS row shows strictly fewer UEs —\n\
         the reverse of the random-error ranking the oracle suite pins.\n",
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
    fn policy_table_profiles_pay_off() {
        let r = compute(tiny());
        assert_eq!(r.policies.len(), 3);
        let by = |l: &str| r.policies.iter().find(|x| x.label == l).unwrap();
        let combined = by("combined");
        let tour = by("tour");
        let profiled = by("profiled");
        assert!(profiled.probes > 0.0 && combined.probes > 0.0);
        // At the *same* token budget, the profiler's quiet stretch spends
        // strictly fewer probes and writes than the plain tour under the
        // concentrated campaign — the budget-matched claim that holds at
        // every scale. (The combined-scheme comparison needs enough tour
        // cycles for stretch batching to pay off, so CI gates it at quick
        // and full scale rather than here.)
        assert!(
            profiled.probes < tour.probes,
            "profiled {profiled:?} vs tour {tour:?}"
        );
        assert!(
            profiled.scrub_writes < tour.scrub_writes,
            "profiled {profiled:?} vs tour {tour:?}"
        );
    }

    #[test]
    fn burst_campaign_favors_the_symbol_code() {
        let r = compute(tiny());
        assert_eq!(r.codes.len(), 2);
        let by = |l: &str| r.codes.iter().find(|x| x.label == l).unwrap();
        let bch = by("bch-6");
        let rs = by("rs:72,64");
        // Every 17-bit burst defeats BCH-6 and fits RS-4's symbol budget.
        assert!(rs.ue_events < bch.ue_events, "rs {rs:?} vs bch {bch:?}");
    }
}
