//! Kill-and-resume chaos campaigns for the budgeted tour policy.
//!
//! The tour's extra state — bucket level, defer streak, tour position,
//! per-bank origins — must survive a checkpoint taken at an arbitrary
//! moment (mid-tour, mid-throttle, with a fault campaign rewriting cells
//! underneath it) such that the resumed run is byte-identical to one
//! that never stopped. The harness kills
//! the simulation at k in-flight points, resumes from the serialized
//! bytes alone, and re-checkpoints immediately to prove the round trip
//! is a fixed point.
//!
//! The E14 cadence test lives in its own function because the runner's
//! `--checkpoint-every` global is process-wide (this file being its own
//! test binary keeps that install isolated from other suites).

use scrub_bench::experiments::e14;
use scrub_bench::{runner, Scale};
use scrub_core::{DemandTraffic, PolicyKind, SimConfig, SimReport, Simulation};

const LINES: u32 = 1024;
const HORIZON_S: f64 = 3.0 * 3600.0;

/// A budget tight enough that db-oltp demand keeps the bucket drained —
/// every checkpoint lands with a non-trivial defer streak and fractional
/// token level to serialize.
fn tour_policy() -> PolicyKind {
    PolicyKind::Tour {
        interval_s: 900.0,
        theta: 4,
        iops: LINES as f64 / 900.0,
        burst: 16.0,
        max_defer: 8,
    }
}

fn config() -> SimConfig {
    let mut b = SimConfig::builder();
    b.num_lines(LINES)
        .code(pcm_ecc::CodeSpec::bch_line(6))
        .policy(tour_policy())
        .traffic(DemandTraffic::suite(pcm_workloads::WorkloadId::DbOltp))
        .horizon_s(HORIZON_S)
        .seed(4242)
        .threads(1)
        .fault_campaign(
            "seed=11;stuck=lines:32,cells:3;seu=lines:128,count:2,window:3600"
                .parse()
                .expect("valid campaign spec"),
        )
        .repair(pcm_memsim::RepairConfig::default());
    b.build()
}

/// Kills the run at `k` evenly spaced points, resuming each time from
/// the serialized bytes only. Each kill also checks the resume is a
/// fixed point (re-checkpointing immediately reproduces the bytes).
/// Returns the final report and whether any kill landed mid-tour.
fn run_killed(k: u32) -> (SimReport, bool) {
    let cadence_s = HORIZON_S / (k + 1) as f64;
    let mut mid_tour = false;
    let mut sim = Simulation::new(config());
    for i in 1..=k {
        sim.run_to(i as f64 * cadence_s);
        // Every probe advances the tour cursor by one, so a probe count
        // off a whole-tour multiple means this checkpoint caught the
        // tour mid-flight.
        if !sim
            .memory()
            .stats()
            .scrub_probes
            .is_multiple_of(u64::from(LINES))
        {
            mid_tour = true;
        }
        let bytes = sim.checkpoint().expect("checkpoint");
        let cfg = sim.config().clone();
        drop(sim); // the kill: nothing survives but the bytes
        sim = Simulation::resume(cfg, &bytes).expect("resume");
        let again = sim.checkpoint().expect("re-checkpoint");
        assert_eq!(
            bytes, again,
            "resume(kill {i}/{k}) is not a checkpoint fixed point"
        );
        let cfg = sim.config().clone();
        sim = Simulation::resume(cfg, &again).expect("second resume");
    }
    (sim.finish(), mid_tour)
}

#[test]
fn killed_tour_runs_are_byte_identical_to_continuous() {
    scrub_exec::set_default_threads(1);
    let continuous = Simulation::new(config()).run();
    assert!(
        continuous.engine.idle_slots > 0,
        "budget never throttled — the chaos run is not exercising \
         bucket state: {:?}",
        continuous.engine
    );
    let mut any_mid_tour = false;
    for k in 1..=3 {
        let (killed, mid_tour) = run_killed(k);
        any_mid_tour |= mid_tour;
        assert_eq!(
            killed, continuous,
            "{k} kill(s) diverged from the continuous run"
        );
        assert_eq!(killed.csv_row(), continuous.csv_row());
    }
    assert!(
        any_mid_tour,
        "no kill ever landed mid-tour; the campaign proves nothing about \
         tour-state serialization"
    );
}

/// E14's metrics are bit-identical when every rep is forced through the
/// kill-and-resume path by the runner's `--checkpoint-every` global.
#[test]
fn e14_metrics_survive_checkpoint_cadence() {
    scrub_exec::set_default_threads(1);
    let scale = Scale {
        num_lines: 512,
        horizon_s: 4.0 * 3600.0,
        reps: 1,
        mc_cells: 100,
    };
    let continuous = e14::compute(scale);
    runner::set_checkpoint_every_s(1800.0);
    assert_eq!(runner::checkpoint_every_s(), Some(1800.0));
    let split = e14::compute(scale);
    assert_eq!(continuous, split, "E14 rows moved under --checkpoint-every");
}
