//! The fast-path differential harness: [`Simulation::run`] (idle
//! skip-ahead plus bank-parallel batched sweeps) must be observationally
//! identical to the slot-at-a-time reference [`Simulation::run_unbatched`].
//! For every scrub mechanism, under an active fault campaign and demand
//! traffic, the fast path's report, CSV row, telemetry counters, and
//! sim-event journal must match the reference exactly — continuous, and
//! split at k checkpoints with a serialize/resume round-trip at each.
//!
//! Both paths emit campaign boundary markers at segment end, so journals
//! are compared in order; only sequence numbers and worker ids (scheduling
//! artifacts) are ignored.
//!
//! The telemetry recorder is process-global, so everything lives in ONE
//! test function — this file being its own integration-test binary
//! guarantees a fresh process.

use scrub_bench::experiments::e13;
use scrub_core::{
    set_skewed_fast_forward_for_test, DemandTraffic, PolicyKind, SimConfig, SimReport, Simulation,
};
use scrub_telemetry as tel;

/// The run under test: demand traffic (pending ops interleave with scrub
/// slots), a campaign with SEU-window, intermittent-period, and burst
/// boundaries (the burst lands exactly on the k=1 checkpoint boundary to
/// pin the half-open segment semantics), and the repair hierarchy.
fn config(policy: &PolicyKind) -> SimConfig {
    let mut b = SimConfig::builder();
    b.num_lines(1024)
        .code(pcm_ecc::CodeSpec::bch_line(6))
        .policy(policy.clone())
        .traffic(DemandTraffic::suite(pcm_workloads::WorkloadId::KvCache))
        .horizon_s(3.0 * 3600.0)
        .seed(77)
        .threads(1)
        .fault_campaign(
            "seed=7;stuck=lines:32,cells:3;seu=lines:128,count:2,window:3600;\
             intermittent=lines:4,cells:2,period:600;burst=lines:2,bits:5,at:5400"
                .parse()
                .expect("valid campaign spec"),
        )
        .repair(pcm_memsim::RepairConfig::default())
        .ue_recovery(pcm_memsim::RecoveryConfig { recover_prob: 0.5 });
    b.build()
}

/// The journal in order as (time bits, payload). Sequence numbers and
/// worker ids are scheduling artifacts, not results.
fn journal(docs: &[tel::Document]) -> Vec<(u64, String)> {
    docs.iter()
        .flat_map(|d| d.events.iter())
        .map(|e| (e.t_s.to_bits(), format!("{:?}", e.kind)))
        .collect()
}

/// Runs one simulation on the fast path, split at `k` evenly spaced
/// checkpoints with a full serialize/deserialize round-trip at each.
/// Returns the final report and the per-segment telemetry documents.
fn run_split(policy: &PolicyKind, k: u32) -> (SimReport, Vec<tel::Document>) {
    let cfg = config(policy);
    let cadence_s = cfg.horizon_s / (k + 1) as f64;
    let mut docs = Vec::new();
    tel::reset();
    let mut sim = Simulation::new(cfg);
    for i in 1..=k {
        sim.run_to(i as f64 * cadence_s);
        let bytes = sim.checkpoint().expect("checkpoint");
        let cfg = sim.config().clone();
        docs.push(tel::snapshot());
        tel::reset();
        sim = Simulation::resume(cfg, &bytes).expect("resume");
    }
    let report = sim.finish();
    docs.push(tel::snapshot());
    (report, docs)
}

#[test]
fn fast_path_is_observationally_identical_to_unbatched_reference() {
    scrub_exec::set_default_threads(1);
    tel::install(tel::Config {
        journal_capacity: 4096,
        event_mask: tel::EventClass::Sim.bit(),
    });

    let mut roster = e13::roster();
    roster.push((
        "adaptive",
        PolicyKind::Adaptive {
            interval_s: 900.0,
            theta: 4,
            regions: 16,
        },
    ));
    roster.push(("profiled", PolicyKind::profiled_default(900.0)));

    let mut total_idle_skipped = 0u64;
    for (label, policy) in roster {
        tel::reset();
        let reference = Simulation::new(config(&policy)).run_unbatched();
        let reference_doc = tel::snapshot();
        tel::reset();
        let fast = Simulation::new(config(&policy)).run();
        let fast_doc = tel::snapshot();

        assert_eq!(fast, reference, "{label}: report diverged from reference");
        assert_eq!(
            fast.csv_row(),
            reference.csv_row(),
            "{label}: CSV row diverged from reference"
        );
        assert_eq!(
            fast_doc.counters, reference_doc.counters,
            "{label}: telemetry counters diverged from reference"
        );
        assert_eq!(
            journal(std::slice::from_ref(&fast_doc)),
            journal(std::slice::from_ref(&reference_doc)),
            "{label}: sim-event journal diverged from reference"
        );
        assert!(
            fast_doc.counters.get("campaign_boundaries").copied() > Some(0),
            "{label}: no campaign boundaries crossed; the harness is not \
             exercising marker emission"
        );
        total_idle_skipped += fast_doc
            .counters
            .get("engine_idle_slots")
            .copied()
            .unwrap_or(0);

        // Split runs must land on the same report, and their per-segment
        // journals, concatenated, on the same journal.
        for k in 1..=2u32 {
            let (report, docs) = run_split(&policy, k);
            assert_eq!(
                report, reference,
                "{label}: split run diverged from reference at k={k}"
            );
            assert_eq!(
                journal(&docs),
                journal(std::slice::from_ref(&reference_doc)),
                "{label}: split-run journal diverged at k={k}"
            );
        }
    }
    assert!(
        total_idle_skipped > 0,
        "no engine idle slots recorded anywhere; the fast-forward path \
         is not being exercised"
    );

    // Tripwire: the harness must be able to fail. A deliberately skewed
    // fast-forward (overshoots each idle skip by one slot) must produce a
    // diverging report for a mechanism that uses idle_until.
    tel::set_enabled(false);
    let policy = PolicyKind::combined_default(900.0);
    let reference = Simulation::new(config(&policy)).run_unbatched();
    set_skewed_fast_forward_for_test(true);
    let skewed = Simulation::new(config(&policy)).run();
    set_skewed_fast_forward_for_test(false);
    assert_ne!(
        skewed, reference,
        "a skewed fast-forward still matched the reference — the \
         differential harness cannot detect an incorrect skip-ahead"
    );
    // And with the skew cleared the fast path matches again, pinning the
    // divergence on the skew rather than on ambient state.
    let fast = Simulation::new(config(&policy)).run();
    assert_eq!(fast, reference, "fast path diverged after skew cleared");
}
