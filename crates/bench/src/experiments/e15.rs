//! E15 — fleet-scale scrub service under open-loop tenant demand.
//!
//! Everything before E15 simulates one memory. E15 exercises the `scrubd`
//! fleet layer end-to-end at experiment scale: a fleet of banks sharded
//! over the worker pool, each shard running the combined mechanism while
//! a multi-tenant open-loop mix (an interactive web
//! tenant, a write-heavy batch tenant, a cold archive tenant) drives
//! demand at configured per-tenant rates.
//!
//! Two fleets run from the same config: a *continuous* one, and a
//! *migrated* one that drains a different shard to a checkpoint at every
//! cadence boundary and resumes it on another worker. The headline result
//! is the fleet invariant — the migrated fleet's merged rollup is
//! **byte-identical** to the continuous one's (`migration_identical` in
//! `BENCH_e15.json`; CI fails the fleet job if it is ever 0) — plus the
//! per-tenant service-level table: open-loop attainment near 1.0 shows
//! the fleet kept up with every tenant's configured demand.
//!
//! Full scale is the acceptance-size fleet: 10,240 banks in 16 shards.

use pcm_analysis::{fmt_count, Table};
use scrub_telemetry as tel;
use scrubd::{Fleet, FleetConfig, TenantSlo};

use crate::scale::Scale;

/// Fleet sizing derived from the experiment scale: quick is the CI fleet
/// (64 banks × 4 shards), full is the acceptance fleet (10,240 banks × 16
/// shards).
pub fn fleet_config(scale: &Scale) -> FleetConfig {
    let (banks, shards, horizon_s) = if scale.num_lines >= Scale::full().num_lines {
        (10_240u64, 16u32, 3_600.0)
    } else {
        (64, 4, 1_800.0)
    };
    format!(
        "[fleet]\n\
         banks = {banks}\n\
         lines-per-bank = 16\n\
         shards = {shards}\n\
         seed = 3605\n\
         horizon-s = {horizon_s}\n\
         cadence-s = {cadence}\n\
         policy = combined@900\n\
         threads = 0\n\
         [tenants]\n\
         mix = web:rate=120,read=0.95,pattern=zipf:1.2;\
         batch:rate=40,read=0.2,pattern=zipf:1.4;\
         archive:rate=4,read=0.99,pattern=uniform\n",
        cadence = horizon_s / 6.0,
    )
    .parse()
    .expect("E15 fleet config is well-formed")
}

/// E15's computed results.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Fleet shape for the report header.
    pub banks: u64,
    /// Shard count.
    pub shards: u32,
    /// Cadence rounds completed.
    pub rounds: u64,
    /// Drain-and-resume migrations performed by the migrated fleet.
    pub migrations: u64,
    /// Whether the migrated fleet's rollup was byte-identical to the
    /// continuous fleet's — the headline invariant.
    pub migration_identical: bool,
    /// Per-tenant service levels from the continuous fleet.
    pub slo: Vec<TenantSlo>,
    /// Fleet totals from the continuous rollup: (demand ops, scrub
    /// probes, scrub writebacks, detected UE, demand UE).
    pub totals: (u64, u64, u64, u64, u64),
}

/// Runs both fleets and computes the differential.
pub fn compute(scale: Scale) -> FleetResult {
    let config = fleet_config(&scale);
    let banks = config.banks;
    let shards = config.shards;

    let mut continuous = Fleet::new(config.clone());
    while !continuous.done() {
        continuous.advance_round();
    }

    // The migrated fleet drains shard (round-1) % shards at every cadence
    // boundary and resumes it on the next worker — placement churn the
    // rollup must not see.
    let mut migrated = Fleet::new(config);
    while !migrated.done() {
        migrated.advance_round();
        if !migrated.done() {
            let victim = (migrated.round() as u32 - 1) % shards;
            migrated
                .migrate(victim, None)
                .expect("victim shard id is always in range");
        }
    }

    let rollup = continuous.rollup();
    let migration_identical = rollup.to_json() == migrated.rollup().to_json();
    let counter = |k: &str| rollup.counters.get(k).copied().unwrap_or(0);
    let result = FleetResult {
        banks,
        shards,
        rounds: continuous.round(),
        migrations: migrated.migrations(),
        migration_identical,
        slo: continuous.slo(),
        totals: (
            counter("fleet.demand_reads") + counter("fleet.demand_writes"),
            counter("fleet.scrub_probes"),
            counter("fleet.scrub_writebacks"),
            counter("fleet.detected_ue"),
            counter("fleet.demand_ue"),
        ),
    };
    if tel::enabled() {
        tel::set_value(
            "e15.migration_identical",
            if result.migration_identical { 1.0 } else { 0.0 },
        );
        tel::set_value("e15.migrations", result.migrations as f64);
        tel::set_value("e15.demand_ops", result.totals.0 as f64);
        for row in &result.slo {
            tel::set_value(&format!("e15.{}.attainment", row.name), row.attainment);
        }
    }
    result
}

/// Runs E15 and renders its tables.
pub fn run(scale: Scale) -> String {
    render(&compute(scale))
}

/// Runs E15 once, returning the rendered tables plus headline metrics
/// for the `BENCH_e15.json` record.
pub fn run_with_metrics(scale: Scale) -> (String, Vec<(String, f64)>) {
    let result = compute(scale);
    let mut metrics = vec![
        (
            "migration_identical".to_string(),
            if result.migration_identical { 1.0 } else { 0.0 },
        ),
        ("migrations".to_string(), result.migrations as f64),
        ("demand_ops".to_string(), result.totals.0 as f64),
        ("demand_ue".to_string(), result.totals.4 as f64),
    ];
    for row in &result.slo {
        metrics.push((format!("{}.attainment", row.name), row.attainment));
    }
    (render(&result), metrics)
}

fn render(result: &FleetResult) -> String {
    let mut out = format!(
        "E15: fleet-scale scrub service under open-loop tenant demand\n\
         ({} banks in {} shards, combined mechanism, {} cadence rounds;\n\
         migrated fleet drained-and-resumed a shard at every boundary)\n\n",
        fmt_count(result.banks as f64),
        result.shards,
        result.rounds,
    );
    let mut table = Table::new(vec![
        "tenant",
        "expected_ops",
        "reads",
        "writes",
        "attainment",
    ]);
    for row in &result.slo {
        table.row(vec![
            row.name.clone(),
            fmt_count(row.expected_ops),
            fmt_count(row.reads as f64),
            fmt_count(row.writes as f64),
            format!("{:.3}", row.attainment),
        ]);
    }
    out.push_str(&table.render());
    let (demand, probes, writebacks, detected, demand_ue) = result.totals;
    out.push_str(&format!(
        "\nfleet totals: {} demand ops, {} scrub probes, {} writebacks, \
         {} detected UE, {} demand UE\n\
         migration differential: {} migrations, rollup {}\n",
        fmt_count(demand as f64),
        fmt_count(probes as f64),
        fmt_count(writebacks as f64),
        detected,
        demand_ue,
        result.migrations,
        if result.migration_identical {
            "byte-identical to the continuous run"
        } else {
            "DIVERGED from the continuous run (fleet invariant violated!)"
        },
    ));
    out.push_str(
        "\nExpected shape: attainment ~1.0 for every tenant (open-loop demand is\n\
         delivered at the configured rate regardless of scrub load), and the\n\
         migrated rollup byte-identical — placement never changes results.\n",
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
    fn migration_differential_is_identical_and_tenants_are_served() {
        let result = compute(tiny());
        assert_eq!(result.banks, 64);
        assert_eq!(result.shards, 4);
        assert!(result.migrations >= 4, "{result:?}");
        assert!(result.migration_identical, "fleet invariant violated");
        assert_eq!(result.slo.len(), 3);
        for row in &result.slo {
            assert!(
                (row.attainment - 1.0).abs() < 0.2,
                "open-loop attainment should track the configured rate: {row:?}"
            );
        }
        assert!(result.totals.1 > 0, "combined mechanism must probe");
    }
}
