//! E16 — fleet self-healing under recurring shard failures.
//!
//! E15 proves placement churn never changes fleet results; E16 measures
//! what failures *cost*. A fleet runs under a deterministic chaos
//! schedule that panics one (rotating) shard every `k` cadence rounds,
//! for `k` ∈ {2, 4, 8}, across the four scrub policies. The supervisor
//! retries each failed shard from its last good checkpoint with bounded
//! backoff, and the experiment reports the repair bill: retries taken,
//! checkpoint rounds replayed (rounds lost), and the worst observed
//! recovery time (MTTR, in rounds and seconds).
//!
//! The headline invariant rides along: every chaos cell's final rollup
//! must be **byte-identical** to the same policy's failure-free control
//! run (`all_converged` in `BENCH_e16.json`; the CI chaos job fails if
//! it is ever 0), with zero quarantines — recovery is repair, not
//! degradation.

use pcm_analysis::Table;
use scrub_telemetry as tel;
use scrubd::{ChaosSpec, Fleet, FleetConfig};

use crate::scale::Scale;

/// The four scrub policies compared throughout the study.
const POLICIES: [&str; 4] = ["basic", "threshold", "age-aware", "adaptive"];

/// Kill cadences: a shard panic every `k` cadence rounds.
const KILL_EVERY: [u64; 3] = [2, 4, 8];

/// Fleet sizing derived from the experiment scale: quick is a CI-sized
/// fleet over 12 cadence rounds, full doubles the fleet and the horizon.
fn fleet_config(scale: &Scale, policy: &str) -> FleetConfig {
    let (banks, shards, horizon_s) = if scale.num_lines >= Scale::full().num_lines {
        (256u64, 8u32, 7_200.0)
    } else {
        (64, 4, 3_600.0)
    };
    format!(
        "[fleet]\n\
         banks = {banks}\n\
         lines-per-bank = 16\n\
         shards = {shards}\n\
         seed = 1606\n\
         horizon-s = {horizon_s}\n\
         cadence-s = 300\n\
         policy = {policy}@300\n\
         threads = 0\n\
         [tenants]\n\
         mix = web:rate=60,read=0.9,pattern=zipf:1.2;\
         batch:rate=20,read=0.2,pattern=uniform\n",
    )
    .parse()
    .expect("E16 fleet config is well-formed")
}

/// One chaos cell: a policy under a kill-every-`k`-rounds schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Policy name.
    pub policy: String,
    /// A shard panic every this many cadence rounds.
    pub kill_every: u64,
    /// Panics injected over the horizon.
    pub injected: u64,
    /// Failed round attempts rolled back for retry.
    pub retries: u64,
    /// Checkpoint rounds replayed — the progress bill of all failures.
    pub recovery_rounds: u64,
    /// Worst failure-to-recovered time, in rounds.
    pub mttr_rounds: u64,
    /// Worst failure-to-recovered time, in seconds of simulated time.
    pub mttr_s: f64,
    /// Rounds the fleet actually took (retries extend the schedule).
    pub rounds: u64,
    /// Shards left quarantined (must be 0 — every failure is transient).
    pub quarantined: u64,
    /// Final rollup byte-identical to the failure-free control run.
    pub converged: bool,
}

/// E16's computed results.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryResult {
    /// Fleet shape for the report header.
    pub banks: u64,
    /// Shard count.
    pub shards: u32,
    /// Nominal cadence rounds to the horizon (failure-free).
    pub nominal_rounds: u64,
    /// One row per (policy, kill cadence).
    pub cells: Vec<Cell>,
}

impl RecoveryResult {
    /// True when every cell converged with zero quarantines.
    pub fn all_converged(&self) -> bool {
        self.cells.iter().all(|c| c.converged && c.quarantined == 0)
    }
}

/// The chaos schedule for one cell: a single-round panic on shard
/// `(i - 1) % shards` at every round `i·k` up to the nominal horizon.
fn chaos_spec(shards: u32, kill_every: u64, nominal_rounds: u64) -> (ChaosSpec, u64) {
    let mut spec = String::from("seed=1606");
    let mut injected = 0u64;
    let mut round = kill_every;
    while round <= nominal_rounds {
        let shard = (injected % shards as u64) as u32;
        spec.push_str(&format!(";panic_shard={shard}@{round}"));
        injected += 1;
        round += kill_every;
    }
    (spec.parse().expect("generated chaos spec parses"), injected)
}

/// Runs the control and chaos fleets for every cell.
pub fn compute(scale: Scale) -> RecoveryResult {
    let probe = fleet_config(&scale, POLICIES[0]);
    let banks = probe.banks;
    let shards = probe.shards;
    let nominal_rounds = (probe.horizon_s / probe.cadence_s).ceil() as u64;

    let mut cells = Vec::new();
    for policy in POLICIES {
        let config = fleet_config(&scale, policy);
        let mut control = Fleet::new(config.clone());
        while !control.done() {
            control.advance_round();
        }
        let control_rollup = control.rollup().to_json();

        for kill_every in KILL_EVERY {
            let (spec, injected) = chaos_spec(shards, kill_every, nominal_rounds);
            let mut fleet = Fleet::new(config.clone());
            fleet.set_chaos(Some(spec));
            while !fleet.done() {
                fleet.advance_round();
            }
            let stats = fleet.stats().clone();
            cells.push(Cell {
                policy: policy.to_string(),
                kill_every,
                injected,
                retries: stats.retries,
                recovery_rounds: stats.recovery_rounds,
                mttr_rounds: stats.mttr_max_rounds,
                mttr_s: stats.mttr_max_rounds as f64 * config.cadence_s,
                rounds: fleet.round(),
                quarantined: fleet.quarantined(),
                converged: fleet.rollup().to_json() == control_rollup,
            });
        }
    }
    let result = RecoveryResult {
        banks,
        shards,
        nominal_rounds,
        cells,
    };
    if tel::enabled() {
        tel::set_value(
            "e16.all_converged",
            if result.all_converged() { 1.0 } else { 0.0 },
        );
        for cell in &result.cells {
            let key = format!("e16.{}.k{}", cell.policy, cell.kill_every);
            tel::set_value(&format!("{key}.mttr_rounds"), cell.mttr_rounds as f64);
            tel::set_value(
                &format!("{key}.recovery_rounds"),
                cell.recovery_rounds as f64,
            );
        }
    }
    result
}

/// Runs E16 and renders its tables.
pub fn run(scale: Scale) -> String {
    render(&compute(scale))
}

/// Runs E16 once, returning the rendered tables plus headline metrics
/// for the `BENCH_e16.json` record.
pub fn run_with_metrics(scale: Scale) -> (String, Vec<(String, f64)>) {
    let result = compute(scale);
    let mut metrics = vec![(
        "all_converged".to_string(),
        if result.all_converged() { 1.0 } else { 0.0 },
    )];
    let mut worst_mttr = 0u64;
    for cell in &result.cells {
        let key = format!("{}.k{}", cell.policy, cell.kill_every);
        metrics.push((format!("{key}.retries"), cell.retries as f64));
        metrics.push((
            format!("{key}.recovery_rounds"),
            cell.recovery_rounds as f64,
        ));
        metrics.push((format!("{key}.mttr_rounds"), cell.mttr_rounds as f64));
        metrics.push((
            format!("{key}.converged"),
            if cell.converged { 1.0 } else { 0.0 },
        ));
        worst_mttr = worst_mttr.max(cell.mttr_rounds);
    }
    metrics.push(("worst_mttr_rounds".to_string(), worst_mttr as f64));
    (render(&result), metrics)
}

fn render(result: &RecoveryResult) -> String {
    let mut out = format!(
        "E16: fleet self-healing under recurring shard failures\n\
         ({} banks in {} shards, {} nominal cadence rounds; one shard\n\
         panic every k rounds, retried from the last good checkpoint)\n\n",
        result.banks, result.shards, result.nominal_rounds,
    );
    let mut table = Table::new(vec![
        "policy",
        "kill_every",
        "injected",
        "retries",
        "rounds_lost",
        "mttr_rounds",
        "mttr_s",
        "rounds",
        "rollup",
    ]);
    for cell in &result.cells {
        table.row(vec![
            cell.policy.clone(),
            format!("{}", cell.kill_every),
            format!("{}", cell.injected),
            format!("{}", cell.retries),
            format!("{}", cell.recovery_rounds),
            format!("{}", cell.mttr_rounds),
            format!("{:.0}", cell.mttr_s),
            format!("{}", cell.rounds),
            if cell.converged && cell.quarantined == 0 {
                "identical".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: every cell byte-identical to its failure-free control\n\
         run with zero quarantines — recovery replays, never alters, results.\n\
         rounds_lost grows with kill frequency (smaller k, more failures) while\n\
         MTTR stays bounded by the backoff cap regardless of policy: the repair\n\
         bill is per-incident, so the policy choice does not change resilience.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            num_lines: 512,
            horizon_s: 1800.0,
            reps: 1,
            mc_cells: 100,
        }
    }

    #[test]
    fn every_cell_converges_and_pays_a_bounded_repair_bill() {
        let result = compute(tiny());
        assert_eq!(result.cells.len(), POLICIES.len() * KILL_EVERY.len());
        assert!(result.all_converged(), "{result:?}");
        for cell in &result.cells {
            assert_eq!(
                cell.retries, cell.injected,
                "each injected panic costs exactly one retry: {cell:?}"
            );
            assert!(
                cell.injected == 0 || cell.mttr_rounds >= 1,
                "a failure takes at least a round to repair: {cell:?}"
            );
            assert!(
                cell.rounds >= result.nominal_rounds,
                "retries never shorten the schedule: {cell:?}"
            );
        }
        // More frequent kills cost more replayed rounds.
        let lost = |k: u64| -> u64 {
            result
                .cells
                .iter()
                .filter(|c| c.kill_every == k)
                .map(|c| c.recovery_rounds)
                .sum()
        };
        assert!(
            lost(2) > lost(8),
            "kill-every-2 should out-bill kill-every-8: {:?} vs {:?}",
            lost(2),
            lost(8)
        );
    }
}
