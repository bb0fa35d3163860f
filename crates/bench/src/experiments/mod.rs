//! Experiment implementations E1–E13 (see DESIGN.md's experiment index).
//!
//! Every experiment is a pure function `run(scale) -> String` returning
//! the rendered tables; the `exp_*` binaries print them and the
//! `experiments` bench target runs them all in quick mode.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod x1;

use pcm_ecc::CodeSpec;
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, SimReport, Simulation};

use crate::scale::Scale;

/// Builds and runs one simulation on `threads` bank-sweep workers.
///
/// Results are bit-identical for every thread count (the simulator's
/// determinism contract), so the split between outer job-level and inner
/// bank-level parallelism is purely a scheduling decision. When the
/// process has a `--fault-campaign` installed, it is attached to every
/// simulation (the campaign's own seed keeps that deterministic too).
pub(crate) fn run_sim(
    scale: &Scale,
    device: DeviceConfig,
    code: CodeSpec,
    policy: PolicyKind,
    traffic: DemandTraffic,
    seed: u64,
    threads: usize,
) -> SimReport {
    let mut builder = SimConfig::builder();
    builder
        .num_lines(scale.num_lines)
        .device(device)
        .code(code)
        .policy(policy)
        .traffic(traffic)
        .horizon_s(scale.horizon_s)
        .seed(seed)
        .threads(threads);
    if let Some(spec) = crate::runner::fault_campaign() {
        builder.fault_campaign(spec);
    }
    Simulation::new(builder.build()).run()
}

/// Splits a thread budget between outer (job fan-out) and inner (per-bank
/// sweep) parallelism: with more than one independent job, the outer level
/// gets the whole budget and each simulation runs its sweeps inline.
fn split_threads(budget: usize, jobs: usize) -> (usize, usize) {
    let outer = budget.max(1).min(jobs.max(1));
    let inner = if outer > 1 { 1 } else { budget.max(1) };
    (outer, inner)
}

/// Aggregated metrics over repeated seeds (averages).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Metrics {
    pub ue: f64,
    pub demand_ue: f64,
    pub scrub_writes: f64,
    pub scrub_probes: f64,
    pub scrub_energy_uj: f64,
    pub mean_wear: f64,
    pub worn_cells: f64,
    pub scrub_utilization: f64,
    pub read_latency_ns: f64,
    pub measured_latency_ns: f64,
}

impl Metrics {
    pub fn of(reports: &[SimReport]) -> Self {
        let n = reports.len() as f64;
        assert!(n > 0.0, "no reports to aggregate");
        let mut m = Metrics::default();
        for r in reports {
            m.ue += r.uncorrectable() as f64;
            m.demand_ue += r.stats.demand_ue as f64;
            m.scrub_writes += r.stats.scrub_writebacks as f64;
            m.scrub_probes += r.stats.scrub_probes as f64;
            m.scrub_energy_uj += r.scrub_energy_uj;
            m.mean_wear += r.mean_wear;
            m.worn_cells += r.worn_cells as f64;
            m.scrub_utilization += r.scrub_utilization;
            m.read_latency_ns += r.demand_read_latency_ns;
            m.measured_latency_ns += r.measured_read_latency_ns;
        }
        m.ue /= n;
        m.demand_ue /= n;
        m.scrub_writes /= n;
        m.scrub_probes /= n;
        m.scrub_energy_uj /= n;
        m.mean_wear /= n;
        m.worn_cells /= n;
        m.scrub_utilization /= n;
        m.read_latency_ns /= n;
        m.measured_latency_ns /= n;
        m
    }
}

/// Runs a configuration once per rep seed and aggregates, fanning the
/// rep jobs out over [`scrub_exec::default_threads`] workers.
pub(crate) fn run_reps(
    scale: &Scale,
    device: &DeviceConfig,
    code: &CodeSpec,
    policy: &PolicyKind,
    traffic: &DemandTraffic,
    base_seed: u64,
) -> Metrics {
    run_reps_threads(
        scale,
        device,
        code,
        policy,
        traffic,
        base_seed,
        scrub_exec::default_threads(),
    )
}

/// [`run_reps`] with an explicit thread budget. Each rep's seed depends
/// only on `(base_seed, rep)`, so the aggregate is bit-identical for every
/// budget; `par_map` additionally returns reports in rep order.
pub fn run_reps_threads(
    scale: &Scale,
    device: &DeviceConfig,
    code: &CodeSpec,
    policy: &PolicyKind,
    traffic: &DemandTraffic,
    base_seed: u64,
    threads: usize,
) -> Metrics {
    let (outer, inner) = split_threads(threads, scale.reps as usize);
    let reports: Vec<SimReport> =
        scrub_exec::par_map(outer, (0..scale.reps).collect(), |_, rep| {
            run_sim(
                scale,
                device.clone(),
                code.clone(),
                policy.clone(),
                traffic.clone(),
                base_seed + rep as u64 * 1000,
                inner,
            )
        });
    Metrics::of(&reports)
}

/// Averages a metric across the whole workload suite, fanning the
/// `workload × rep` grid out over [`scrub_exec::default_threads`] workers.
pub(crate) fn run_suite(
    scale: &Scale,
    device: &DeviceConfig,
    code: &CodeSpec,
    policy: &PolicyKind,
    base_seed: u64,
) -> Metrics {
    run_suite_threads(
        scale,
        device,
        code,
        policy,
        base_seed,
        scrub_exec::default_threads(),
    )
}

/// [`run_suite`] with an explicit thread budget.
///
/// The whole `workload × rep` grid is flattened into one job list so the
/// pool stays busy even when `reps == 1`. Every job's seed is a pure
/// function of `(base_seed, rep)` and its RNG streams of `(seed, bank)`,
/// so results are independent of scheduling; reports are regrouped by
/// workload in suite order before averaging (f64 accumulation order is
/// part of the determinism contract).
pub fn run_suite_threads(
    scale: &Scale,
    device: &DeviceConfig,
    code: &CodeSpec,
    policy: &PolicyKind,
    base_seed: u64,
    threads: usize,
) -> Metrics {
    let workloads = WorkloadId::all();
    let jobs: Vec<(WorkloadId, u32)> = workloads
        .iter()
        .flat_map(|&id| (0..scale.reps).map(move |rep| (id, rep)))
        .collect();
    let (outer, inner) = split_threads(threads, jobs.len());
    let reports: Vec<SimReport> = scrub_exec::par_map(outer, jobs, |_, (id, rep)| {
        run_sim(
            scale,
            device.clone(),
            code.clone(),
            policy.clone(),
            DemandTraffic::suite(id),
            base_seed + rep as u64 * 1000,
            inner,
        )
    });
    let per_workload: Vec<Metrics> = reports
        .chunks(scale.reps as usize)
        .map(Metrics::of)
        .collect();
    assert_eq!(per_workload.len(), workloads.len());
    let n = per_workload.len() as f64;
    let mut m = Metrics::default();
    for w in &per_workload {
        m.ue += w.ue / n;
        m.demand_ue += w.demand_ue / n;
        m.scrub_writes += w.scrub_writes / n;
        m.scrub_probes += w.scrub_probes / n;
        m.scrub_energy_uj += w.scrub_energy_uj / n;
        m.mean_wear += w.mean_wear / n;
        m.worn_cells += w.worn_cells / n;
        m.scrub_utilization += w.scrub_utilization / n;
        m.read_latency_ns += w.read_latency_ns / n;
        m.measured_latency_ns += w.measured_latency_ns / n;
    }
    m
}

/// The evaluation's baseline configuration: DRAM-style basic scrub over
/// SECDED at a 15-minute sweep.
pub(crate) fn baseline_policy() -> (CodeSpec, PolicyKind) {
    (
        CodeSpec::secded_line(),
        PolicyKind::Basic { interval_s: 900.0 },
    )
}

/// The paper's combined mechanism over BCH-6 at the same base sweep.
pub(crate) fn combined_policy() -> (CodeSpec, PolicyKind) {
    (CodeSpec::bch_line(6), PolicyKind::combined_default(900.0))
}

/// Configurations compared in the bandwidth-overhead experiment (E9):
/// basic scrub across rates, plus the combined mechanism.
pub(crate) fn roster_for_bandwidth() -> Vec<(String, CodeSpec, PolicyKind)> {
    let mut v: Vec<(String, CodeSpec, PolicyKind)> = [60.0, 300.0, 900.0, 3600.0]
        .into_iter()
        .map(|interval_s| {
            (
                format!("basic@{interval_s:.0}s"),
                CodeSpec::secded_line(),
                PolicyKind::Basic { interval_s },
            )
        })
        .collect();
    let (code, policy) = combined_policy();
    v.push(("combined@900s".to_string(), code, policy));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_average_reports() {
        let scale = Scale {
            num_lines: 256,
            horizon_s: 1800.0,
            reps: 2,
            mc_cells: 100,
        };
        let (code, policy) = baseline_policy();
        let m = run_reps(
            &scale,
            &DeviceConfig::default(),
            &code,
            &policy,
            &DemandTraffic::Idle,
            9,
        );
        assert!(m.scrub_probes > 0.0);
    }
}
