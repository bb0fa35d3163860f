//! The two single-simulation workloads, driven through `Simulation`'s
//! public API: built from config (plus a benchmark-generated trace),
//! advanced in `run_to` rounds, finished into a `SimReport`.

use std::sync::Arc;
use std::time::Instant;

use pcm_ecc::CodeSpec;
use pcm_memsim::TraceSource;
use pcm_workloads::WorkloadId;
use scrub_core::{DemandTraffic, EngineKind, PolicyKind, SimConfig, SimReport, Simulation};
use scrub_oracle::{BasicScrubOracle, DriftOracle, ScrubPrediction};

use crate::layers::{self, TimedTrace, TraceClock, TRACE_SEED_OFFSET};
use crate::stats::{
    fnv1a, host_metrics, latency_pair, median, median_ref_s, memsim_counts, metric, not_applicable,
    peak_rss_mib, pooled_rounds, ref_seconds_of, repeat, Kind, Ledger, Meter, Metric, Timing,
    MIN_REPS,
};

/// A single-simulation workload.
pub struct SimWorkload {
    lines: u32,
    code: CodeSpec,
    policy: PolicyKind,
    /// Full-sweep interval of the policy (s).
    interval_s: f64,
    demand: Option<WorkloadId>,
    engine: EngineKind,
    horizon_s: f64,
    /// Simulated seconds per `run_to` round.
    cadence_s: f64,
}

/// One complete run from a built simulation to its report.
struct Rep {
    report: SimReport,
    timing: Timing,
}

/// What a traced run adds to a [`Rep`].
struct Traced {
    rep: Rep,
    next_op_calls: u64,
    next_op_ns: u64,
    run_to_ns: f64,
}

fn digest(report: &SimReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

impl SimWorkload {
    /// The paper's DRAM-style baseline: every line probed once per
    /// interval and rewritten on any error, with no demand traffic.
    pub fn scrub_sweep() -> Self {
        Self {
            lines: 131_072,
            code: CodeSpec::secded_line(),
            policy: PolicyKind::Basic { interval_s: 900.0 },
            interval_s: 900.0,
            demand: None,
            engine: EngineKind::Stepped,
            horizon_s: 6.0 * 3600.0,
            cadence_s: 600.0,
        }
    }

    /// The paper's proposal under OLTP demand on the event engine.
    pub fn oltp_combined() -> Self {
        Self {
            lines: 32_768,
            code: CodeSpec::bch_line(6),
            policy: PolicyKind::combined_default(900.0),
            interval_s: 900.0,
            demand: Some(WorkloadId::DbOltp),
            engine: EngineKind::Event,
            horizon_s: 6.0 * 3600.0,
            cadence_s: 600.0,
        }
    }

    fn rounds(&self) -> usize {
        (self.horizon_s / self.cadence_s).round() as usize
    }

    fn line_hours(&self) -> f64 {
        self.lines as f64 * self.horizon_s / 3600.0
    }

    pub fn config(&self, seed: u64) -> SimConfig {
        let traffic = match self.demand {
            // The traffic field only labels the run and lets a checkpoint
            // rebuild the generator; the benchmark supplies the trace.
            Some(id) => DemandTraffic::suite(id),
            None => DemandTraffic::Idle,
        };
        SimConfig::builder()
            .num_lines(self.lines)
            .code(self.code.clone())
            .policy(self.policy.clone())
            .traffic(traffic)
            .horizon_s(self.horizon_s)
            .seed(seed)
            .engine(self.engine)
            .threads(1)
            .build()
    }

    fn trace(&self, seed: u64) -> Option<Box<dyn TraceSource>> {
        self.demand.map(|id| -> Box<dyn TraceSource> {
            Box::new(id.build(self.lines, 1.0, seed.wrapping_add(TRACE_SEED_OFFSET)))
        })
    }

    fn build(&self, config: SimConfig, trace: Option<Box<dyn TraceSource>>) -> Simulation {
        match trace {
            Some(t) => Simulation::with_trace(config, t),
            None => Simulation::new(config),
        }
    }

    /// CPU time of one cold set-up in reference seconds:
    /// `Simulation::new` / `with_trace`, including the drift-model tables
    /// a fresh process builds on first use. The trace generator is built
    /// outside the timed span.
    pub fn setup_probe(&self, seed: u64) -> f64 {
        let config = self.config(seed);
        let trace = self.trace(seed);
        let (sim, setup) = ref_seconds_of(|| self.build(config, trace));
        drop(std::hint::black_box(sim));
        setup
    }

    /// Advances `sim` through rounds `from + 1 ..= to`.
    fn advance(&self, sim: &mut Simulation, from: usize, to: usize) -> Timing {
        let mut meter = Meter::start();
        for r in from + 1..=to {
            meter.round(|| sim.run_to(r as f64 * self.cadence_s));
        }
        meter.finish()
    }

    fn untraced_rep(&self, seed: u64) -> Rep {
        let mut sim = self.build(self.config(seed), self.trace(seed));
        let timing = self.advance(&mut sim, 0, self.rounds());
        Rep {
            report: sim.finish(),
            timing,
        }
    }

    fn traced_rep(&self, seed: u64) -> Traced {
        let clock = Arc::new(TraceClock::default());
        let trace = self
            .trace(seed)
            .map(|t| -> Box<dyn TraceSource> { Box::new(TimedTrace::new(t, Arc::clone(&clock))) });
        let mut sim = self.build(self.config(seed), trace);
        let start = Instant::now();
        let timing = self.advance(&mut sim, 0, self.rounds());
        let run_to_ns = start.elapsed().as_nanos() as f64;
        Traced {
            rep: Rep {
                report: sim.finish(),
                timing,
            },
            next_op_calls: clock.calls(),
            next_op_ns: clock.ns(),
            run_to_ns,
        }
    }

    /// Checkpoint checks and layer probes, one more operation. A
    /// checkpoint taken halfway resumes and runs on to the horizon into
    /// the reference report; the benchmark-built trace gives the same
    /// report as the generator `Simulation::new` builds from the config;
    /// and at the horizon the run's state is timed for checkpoint save
    /// and restore and for `ecc` classify over the error counts it left
    /// in its lines.
    fn probe_final_state(&self, seed: u64, ledger: &mut Ledger, reference: u64) -> Vec<Metric> {
        let config = self.config(seed);
        let (rounds, half) = (self.rounds(), self.rounds() / 2);
        let mut sim = self.build(config.clone(), self.trace(seed));
        self.advance(&mut sim, 0, half);
        let resumed = sim
            .checkpoint()
            .map_err(|e| e.to_string())
            .and_then(|bytes| Simulation::resume(config.clone(), &bytes).map_err(|e| e.to_string()))
            .map(|mut resumed| {
                self.advance(&mut resumed, half, rounds);
                digest(&resumed.finish())
            });
        let mut ok = ledger.check(
            "checkpoint taken halfway resumes to the reference report",
            resumed == Ok(reference),
        );
        self.advance(&mut sim, half, rounds);
        if self.demand.is_some() {
            let mut own = Simulation::new(config.clone());
            self.advance(&mut own, 0, rounds);
            ok &= ledger.check(
                "benchmark-built trace equals Simulation::new's",
                digest(&own.finish()) == reference,
            );
        }
        let mut metrics = vec![metric(
            "ecc.classify.ns",
            layers::ecc_classify_ns(&self.code, &[&sim]),
            "ns",
            Kind::Host,
        )];
        match layers::checkpoint(&mut sim, &config) {
            Ok(m) => metrics.extend(m),
            Err(e) => {
                ledger.check(format!("checkpoint at the horizon: {e}"), false);
                ok = false;
                metrics.extend([
                    not_applicable("checkpoint.save_ms", "ms", Kind::Host),
                    not_applicable("checkpoint.restore_ms", "ms", Kind::Host),
                    not_applicable("checkpoint.bytes_per_line", "B", Kind::Host),
                ]);
            }
        }
        ok &= ledger.check(
            "report digest equals the first run's",
            digest(&sim.finish()) == reference,
        );
        ledger.op(ok);
        metrics
    }

    /// The closed-form reference for `scrub-sweep`; `None` for workloads
    /// it does not model.
    fn oracle(&self) -> Option<ScrubPrediction> {
        let PolicyKind::Basic { interval_s } = self.policy else {
            return None;
        };
        if self.demand.is_some() {
            return None;
        }
        let device = self.config(0).device;
        let drift = DriftOracle::new(&device);
        let model = BasicScrubOracle::new(
            &device,
            &self.code,
            &drift,
            self.lines,
            interval_s,
            self.horizon_s,
        );
        Some(model.predict())
    }

    /// Checks one report against the reference digest and the oracle.
    fn check_report(
        &self,
        ledger: &mut Ledger,
        report: &SimReport,
        reference: u64,
        oracle: Option<&ScrubPrediction>,
    ) -> bool {
        let mut ok = ledger.check(
            "report digest equals the first run's",
            digest(report) == reference,
        );
        if let Some(pred) = oracle {
            ok &= ledger.check(
                "probes equal the oracle's exactly",
                report.stats.scrub_probes == pred.probes,
            );
            let w = report.stats.scrub_writebacks as f64;
            // The repository's oracle-agreement band: 3.3 sd plus 3 %
            // model slack for the tables' interpolation error.
            let band = 3.3 * pred.writebacks_sd + 0.03 * pred.writebacks_mean + 1.0;
            ok &= ledger.check(
                "write-backs within the oracle's sd band",
                (w - pred.writebacks_mean).abs() <= band,
            );
        }
        ok
    }

    fn sim_metrics(&self, report: &SimReport) -> Vec<Metric> {
        let days = self.horizon_s / 86_400.0;
        vec![
            metric(
                "scrub_writes_per_line_day",
                report.scrub_writes() as f64 / self.lines as f64 / days,
                "1/line/day",
                Kind::Sim,
            ),
            metric(
                "scrub_energy_nj_per_line_day",
                report.scrub_energy_nj_per_line_day(),
                "nJ/line/day",
                Kind::Sim,
            ),
        ]
    }

    /// Untraced measurement: the end-to-end metrics.
    pub fn run(&self, seed: u64, seconds: u64, setup_s: f64) -> (Ledger, Vec<Metric>) {
        let mut ledger = Ledger::default();
        let reps = repeat(seconds, MIN_REPS, &mut ledger, || {
            Ok(self.untraced_rep(seed))
        });
        let peak_rss = peak_rss_mib();
        ledger.check("VmHWM readable", peak_rss.is_some());
        let Some(first) = reps.first() else {
            return (ledger, Vec::new());
        };
        let oracle = self.oracle();
        let reference = digest(&first.report);
        for rep in &reps {
            let ok = self.check_report(&mut ledger, &rep.report, reference, oracle.as_ref());
            ledger.op(ok);
        }
        let runs: Vec<&Timing> = reps.iter().map(|r| &r.timing).collect();
        let mut metrics = host_metrics(setup_s, self.line_hours(), &runs, peak_rss.unwrap_or(0.0));
        metrics.extend(self.sim_metrics(&first.report));
        (ledger, metrics)
    }

    /// Traced measurement: untraced and traced runs alternate, then the
    /// per-layer metrics, the tracing overhead and the metrics that need
    /// a trace or apply to one workload only.
    /// `bytes_per_line` is `memsim.bytes_per_line`, measured in a fresh
    /// process ([`layers::memsim_bytes_per_line`]).
    pub fn run_traced(
        &self,
        seed: u64,
        seconds: u64,
        bytes_per_line: f64,
    ) -> (Ledger, Vec<Metric>) {
        let mut ledger = Ledger::default();
        let pairs = repeat(seconds, 2, &mut ledger, || {
            Ok((self.untraced_rep(seed), self.traced_rep(seed)))
        });
        let Some((first, _)) = pairs.first() else {
            return (ledger, Vec::new());
        };
        let oracle = self.oracle();
        let reference = digest(&first.report);
        for (plain, traced) in &pairs {
            let ok = self.check_report(&mut ledger, &plain.report, reference, oracle.as_ref());
            ledger.op(ok);
            let ok = self.check_report(&mut ledger, &traced.rep.report, reference, oracle.as_ref());
            ledger.op(ok);
        }
        let probes = self.probe_final_state(seed, &mut ledger, reference);

        let plain: Vec<&Timing> = pairs.iter().map(|(p, _)| &p.timing).collect();
        let traced: Vec<&Traced> = pairs.iter().map(|(_, t)| t).collect();
        let traced_timing: Vec<&Timing> = traced.iter().map(|t| &t.rep.timing).collect();
        let plain_rounds = pooled_rounds(&plain);
        let overhead = (median_ref_s(&traced_timing) / median_ref_s(&plain) - 1.0) * 100.0;
        let round_overhead =
            (median(&pooled_rounds(&traced_timing)) / median(&plain_rounds) - 1.0) * 100.0;

        let report = &traced[0].rep.report;
        let stats = &report.stats;
        let engine = &report.engine;
        let per =
            |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(|t| f(t)).collect::<Vec<_>>());
        let self_ms = per(&|t| (t.run_to_ns - t.next_op_ns as f64) / 1e6);
        let events =
            (engine.probe_slots + engine.idle_slots + stats.demand_reads + stats.demand_writes)
                as f64;
        let slots = (engine.probe_slots + engine.idle_slots) as f64;
        let decodes = (stats.scrub_probes + stats.demand_reads) as f64;
        let gap = oracle.as_ref().map(|p| {
            (stats.scrub_writebacks as f64 - p.writebacks_mean).abs() / p.writebacks_mean * 100.0
        });

        let mut metrics = vec![
            metric("trace_overhead_pct", overhead, "%", Kind::Host),
            metric("trace_overhead_round_pct", round_overhead, "%", Kind::Host),
            metric("fail_ratio", ledger.fail_ratio(), "ratio", Kind::Run),
        ];
        metrics.extend(latency_pair(
            "round_p50_ms",
            "round_tail_ms",
            &plain_rounds,
            2 * self.rounds(),
        ));
        metrics.extend([
            not_applicable("control_p50_ms", "ms", Kind::Host),
            not_applicable("control_tail_ms", "ms", Kind::Host),
            metric(
                "ue_per_gib_day",
                report.ue_per_gib_day(),
                "UE/GiB/day",
                Kind::Sim,
            ),
            metric(
                "read_latency_ns",
                report.measured_read_latency_ns,
                "ns",
                Kind::Sim,
            ),
            match gap {
                Some(g) => metric("oracle_gap_pct", g, "%", Kind::Sim),
                None => not_applicable("oracle_gap_pct", "%", Kind::Sim),
            },
            not_applicable("slo_attainment_min", "ratio", Kind::Sim),
            metric(
                "workloads.next_op.calls",
                per(&|t| t.next_op_calls as f64),
                "count",
                Kind::Host,
            ),
            metric(
                "workloads.next_op.ns",
                per(&|t| t.next_op_ns as f64 / t.next_op_calls.max(1) as f64),
                "ns",
                Kind::Host,
            ),
            metric(
                "workloads.share",
                per(&|t| t.next_op_ns as f64 / t.run_to_ns),
                "ratio",
                Kind::Host,
            ),
            metric("core.run_to.self_ms", self_ms, "ms", Kind::Host),
            metric(
                "core.ns_per_event",
                self_ms * 1e6 / events.max(1.0),
                "ns",
                Kind::Host,
            ),
            metric(
                "core.probe_slots",
                engine.probe_slots as f64,
                "count",
                Kind::Sim,
            ),
            metric(
                "core.idle_slots",
                engine.idle_slots as f64,
                "count",
                Kind::Sim,
            ),
            metric(
                "core.useful_slot_ratio",
                engine.probe_slots as f64 / slots.max(1.0),
                "ratio",
                Kind::Sim,
            ),
        ]);
        metrics.extend(memsim_counts(stats));
        metrics.extend([
            metric(
                "ecc.corrected_bits_per_probe",
                stats.corrected_bits as f64 / decodes.max(1.0),
                "bits",
                Kind::Sim,
            ),
            metric(
                "ecc.ue_events",
                report.uncorrectable() as f64,
                "count",
                Kind::Sim,
            ),
        ]);
        let config = self.config(seed);
        metrics.extend(layers::memsim(&config, self.interval_s));
        metrics.push(metric(
            "memsim.bytes_per_line",
            bytes_per_line,
            "B",
            Kind::Host,
        ));
        metrics.extend(layers::pcm(&config.device, self.horizon_s));
        metrics.extend(probes);
        for (name, unit, kind) in [
            ("exec.parallel_efficiency", "ratio", Kind::Host),
            ("exec.shard_skew", "ratio", Kind::Host),
            ("scrubd.advance_round.ms", "ms", Kind::Host),
            ("scrubd.persist.ms", "ms", Kind::Host),
            ("scrubd.wal_append.ms", "ms", Kind::Host),
            ("scrubd.take_pending.ms", "ms", Kind::Host),
            ("scrubd.migrate.ms", "ms", Kind::Host),
            ("scrubd.retries", "count", Kind::Run),
            ("scrubd.quarantined", "count", Kind::Run),
            ("telemetry.publish.ms", "ms", Kind::Host),
            ("telemetry.publish_bytes", "B", Kind::Host),
        ] {
            metrics.push(not_applicable(name, unit, kind));
        }
        (ledger, metrics)
    }
}
