//! X1 — extensions beyond the paper's evaluated configuration, each
//! applied on top of the combined mechanism:
//!
//! * **time-aware sensing** (age-compensated read thresholds),
//! * **CRC-first lightweight probes** (full decode only on dirty lines),
//! * **Start-Gap wear leveling** (rotating logical→physical mapping),
//! * **in-band scrub** (demand reads trigger write-back of drifted lines).
//!
//! These correspond to the "many of our solutions will also apply..." /
//! future-work directions of the paper; DESIGN.md lists them as the
//! optional-feature deliverable.

use pcm_analysis::{fmt_count, Table};
use pcm_ecc::CodeSpec;
use pcm_memsim::ProbeKind;
use pcm_model::{DeviceConfig, SensingMode};
use pcm_workloads::WorkloadId;
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, SimReport, Simulation};

use crate::scale::Scale;

fn run_one(
    scale: &Scale,
    device: DeviceConfig,
    probe_kind: ProbeKind,
    wear_leveling: Option<u32>,
    inband: Option<u32>,
    seed: u64,
) -> SimReport {
    let mut b = SimConfig::builder();
    b.num_lines(scale.num_lines)
        .device(device)
        .code(CodeSpec::bch_line(6))
        .policy(PolicyKind::combined_default(900.0))
        .traffic(DemandTraffic::suite(WorkloadId::WebServe))
        .horizon_s(scale.horizon_s)
        .seed(seed)
        .probe_kind(probe_kind);
    if let Some(p) = wear_leveling {
        b.wear_leveling(p);
    }
    if let Some(t) = inband {
        b.inband_writeback(t);
    }
    Simulation::new(b.build()).run()
}

/// Runs X1 and renders its table.
pub fn run(scale: Scale) -> String {
    let nominal = DeviceConfig::default();
    let time_aware = DeviceConfig::builder()
        .sensing(SensingMode::AgeCompensated)
        .build();
    let rows: Vec<(&str, SimReport)> = vec![
        (
            "combined (paper)",
            run_one(
                &scale,
                nominal.clone(),
                ProbeKind::FullDecode,
                None,
                None,
                0xA1,
            ),
        ),
        (
            "+time-aware sensing",
            run_one(&scale, time_aware, ProbeKind::FullDecode, None, None, 0xA1),
        ),
        (
            "+CRC-first probes",
            run_one(
                &scale,
                nominal.clone(),
                ProbeKind::CrcThenDecode,
                None,
                None,
                0xA1,
            ),
        ),
        (
            "+start-gap leveling",
            run_one(
                &scale,
                nominal.clone(),
                ProbeKind::FullDecode,
                Some(8),
                None,
                0xA1,
            ),
        ),
        (
            "+in-band scrub",
            run_one(&scale, nominal, ProbeKind::FullDecode, None, Some(4), 0xA1),
        ),
    ];
    let mut out =
        String::from("X1: extension mechanisms on top of the combined scrub (web-serve)\n\n");
    let mut table = Table::new(vec![
        "config",
        "UEs",
        "scrub_writes",
        "scrub_energy_uJ",
        "max_wear",
        "wl_copies",
    ]);
    for (label, r) in rows {
        table.row(vec![
            label.to_string(),
            fmt_count(r.uncorrectable() as f64),
            fmt_count(r.scrub_writes() as f64),
            fmt_count(r.scrub_energy_uj),
            r.max_wear.to_string(),
            fmt_count(r.stats.wear_level_writes as f64),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nExpected shape: time-aware sensing slashes UEs and write-backs at the\n\
         device level; CRC probes cut scrub decode energy; start-gap flattens\n\
         max wear at a small write-copy cost; in-band scrub mops up drifted\n\
         lines the sweep hasn't reached yet.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn module_compiles() {
        // Execution covered by the experiments bench target.
    }
}
