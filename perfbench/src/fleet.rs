//! The `fleet-tenants` workload: a `scrubd` fleet driven through the
//! library's public API, repeating the daemon's round loop — persist
//! generations, append to the journal, publish status, rollup and health
//! — with one `migrate` command always in flight through `ControlDir`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pcm_memsim::{MemStats, TraceSource};
use scrub_core::{SimReport, Simulation};
use scrubd::status::{self, FleetState};
use scrubd::{Command, ControlDir, Fleet, FleetConfig, GenStore, RoundEvent, RoundRecord, Wal};

use crate::layers::{self, TimedTrace, TraceClock, TRACE_SEED_OFFSET};
use crate::stats::{
    fnv1a, host_metrics, latency_pair, median, median_ref_s, memsim_counts, metric, not_applicable,
    peak_rss_mib, pooled_rounds, ref_seconds_of, repeat, Kind, Ledger, Meter, Metric, Timing,
    MIN_REPS,
};

const TENANTS: &str = "web:rate=120,read=0.95,pattern=zipf:1.2;kv:suite=kv-cache,scale=0.5;\
                       logs:rate=40,read=0.05,pattern=seq";

pub struct FleetWorkload {
    banks: u64,
    lines_per_bank: u32,
    shards: u32,
    horizon_s: f64,
    cadence_s: f64,
    /// Shard fan-out workers: the host's available parallelism.
    threads: usize,
}

/// A control directory under the benchmark's scratch space, emptied on
/// creation and removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn fresh(path: PathBuf) -> WorkDir {
        let _ = std::fs::remove_dir_all(&path);
        WorkDir(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fleet ready for its first round, with the daemon's durable state.
struct Service {
    fleet: Fleet,
    ctl: ControlDir,
    gens: GenStore,
    wal: Wal,
}

/// The daemon's loop state: the service, the command watermark, and
/// when each in-flight command was submitted.
struct RoundLoop {
    svc: Service,
    /// Per-step timings, kept only by traced runs.
    steps: Option<Steps>,
    watermark: Option<u64>,
    in_flight: VecDeque<Instant>,
    control_ms: Vec<f64>,
    applied: u64,
}

impl RoundLoop {
    /// Consumes pending commands at a round boundary, as `scrubd` does,
    /// timing each from submission to applied.
    fn apply(&mut self) -> Result<(), String> {
        let (svc, steps) = (&mut self.svc, &mut self.steps);
        let intake = step(steps.as_mut().map(|s| &mut s.take_pending), || {
            svc.ctl.take_pending(self.watermark)
        })?;
        self.watermark = intake.watermark;
        for cmd in intake.commands {
            let Command::Migrate { shard, worker } = cmd? else {
                return Err("unexpected control command".into());
            };
            let m = step(steps.as_mut().map(|s| &mut s.migrate), || {
                svc.fleet.migrate(shard, worker)
            })?;
            svc.ctl
                .write_atomic(&svc.ctl.snapshot_path(m.shard), &m.snapshot)?;
            let submitted_at = self
                .in_flight
                .pop_front()
                .ok_or("a command was applied that was never submitted")?;
            self.control_ms.push(ms_since(submitted_at));
            self.applied += 1;
        }
        Ok(())
    }

    /// Advances one round, then persists, journals and publishes as
    /// `scrubd` does. Returns whether the round had no failed or
    /// quarantined shard.
    fn round(&mut self) -> Result<bool, String> {
        let (svc, steps) = (&mut self.svc, &mut self.steps);
        let events = step(steps.as_mut().map(|s| &mut s.advance), || {
            svc.fleet.advance_round()
        });
        let clean = !events.iter().any(|e| {
            matches!(
                e,
                RoundEvent::Failed { .. } | RoundEvent::Quarantined { .. }
            )
        });
        let round = svc.fleet.round();
        step(steps.as_mut().map(|s| &mut s.persist), || {
            for shard in svc.fleet.shards() {
                let (bytes, sealed_round) = shard.last_good();
                if sealed_round == round {
                    svc.gens
                        .persist(shard.id, bytes)
                        .map_err(|e| e.to_string())?;
                }
            }
            Ok::<(), String>(())
        })?;
        let record = RoundRecord {
            round,
            t_ms: (svc.fleet.clock_s() * 1000.0).round() as u64,
            seq: self.watermark.unwrap_or(u64::MAX),
            health: svc
                .fleet
                .shards()
                .iter()
                .map(|s| (s.id, s.health().clone()))
                .collect(),
        };
        step(steps.as_mut().map(|s| &mut s.wal), || {
            svc.wal.append(&record)
        })
        .map_err(|e| e.to_string())?;
        let state = if svc.fleet.done() {
            FleetState::Finished
        } else {
            FleetState::Running
        };
        let bytes = step(steps.as_mut().map(|s| &mut s.publish), || {
            publish(svc, state, self.watermark)
        })?;
        if let Some(s) = steps.as_mut() {
            s.publish_bytes.push(bytes as f64);
        }
        Ok(clean)
    }
}

/// Per-step wall times of one traced run (ms per round).
#[derive(Default)]
struct Steps {
    advance: Vec<f64>,
    persist: Vec<f64>,
    wal: Vec<f64>,
    take_pending: Vec<f64>,
    migrate: Vec<f64>,
    publish: Vec<f64>,
    publish_bytes: Vec<f64>,
}

/// One complete fleet run.
struct Rep {
    /// The rounds, from the first command intake to the last publish.
    timing: Timing,
    control_ms: Vec<f64>,
    /// Rounds without a `Failed` or `Quarantined` event.
    clean_rounds: u64,
    rounds: u64,
    /// End-of-run checks, `(name, passed)`.
    checks: Vec<(String, bool)>,
    digest: u64,
    reports: Vec<SimReport>,
    shard_stats: Vec<MemStats>,
    slo_min: f64,
    retries: u64,
    quarantined: u64,
    steps: Option<Steps>,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Times `f` into `slot` when the run is traced.
fn step<R>(slot: Option<&mut Vec<f64>>, f: impl FnOnce() -> R) -> R {
    match slot {
        Some(samples) => {
            let start = Instant::now();
            let r = f();
            samples.push(ms_since(start));
            r
        }
        None => f(),
    }
}

/// Writes the round's documents as `scrubd` does; returns bytes written.
fn publish(svc: &Service, state: FleetState, cmd_seq: Option<u64>) -> Result<usize, String> {
    let (fleet, ctl) = (&svc.fleet, &svc.ctl);
    let mut bytes = 0;
    for shard in fleet.shards() {
        let doc = fleet
            .shard_document(shard.id)
            .ok_or_else(|| format!("shard {} has no document", shard.id))?
            .to_json();
        ctl.write_atomic(&ctl.shard_doc_path(shard.id), doc.as_bytes())?;
        bytes += doc.len();
    }
    let rollup = fleet.rollup().to_json();
    ctl.write_atomic(&ctl.rollup_path(), rollup.as_bytes())?;
    let health = fleet.health_document().to_json();
    ctl.write_atomic(&ctl.health_path(), health.as_bytes())?;
    let rendered = status::render(fleet, state, cmd_seq);
    ctl.write_atomic(&ctl.status_path(), rendered.as_bytes())?;
    Ok(bytes + rollup.len() + health.len() + rendered.len())
}

impl FleetWorkload {
    pub fn new() -> Self {
        Self {
            banks: 512,
            lines_per_bank: 64,
            shards: 8,
            horizon_s: 24.0 * 3600.0,
            cadence_s: 600.0,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    fn rounds(&self) -> usize {
        (self.horizon_s / self.cadence_s).ceil() as usize
    }

    fn lines(&self) -> f64 {
        self.banks as f64 * self.lines_per_bank as f64
    }

    fn line_hours(&self) -> f64 {
        self.lines() * self.horizon_s / 3600.0
    }

    pub fn config(&self, seed: u64) -> FleetConfig {
        // Shard seeds XOR the shard id into the fleet seed, so fleet seeds
        // that differ only in their low bits permute one set of shard
        // streams. Spreading the benchmark seed over all bits keeps every
        // benchmark seed a different fleet.
        let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        format!(
            "[fleet]\nbanks = {}\nlines-per-bank = {}\nshards = {}\nseed = {seed}\n\
             horizon-s = {}\ncadence-s = {}\npolicy = profiled@900\nengine = event\n\
             threads = {}\n[tenants]\nmix = {TENANTS}\n",
            self.banks,
            self.lines_per_bank,
            self.shards,
            self.horizon_s,
            self.cadence_s,
            self.threads
        )
        .parse()
        .expect("the benchmark's fleet config is valid")
    }

    /// Builds the fleet and its durable state as `scrubd` does before its
    /// first round: shards with their t=0 checkpoints, the control
    /// directory, a fresh journal, and every shard's t=0 generation.
    fn start(&self, seed: u64, dir: &Path) -> Result<Service, String> {
        let config = self.config(seed);
        let ctl = ControlDir::new(dir);
        let gens = GenStore::new(dir.join("snapshots"), config.supervisor.generations);
        let fingerprint = config.fingerprint();
        let fleet = Fleet::new(config);
        ctl.ensure_layout()?;
        let wal = Wal::create(dir, fingerprint).map_err(|e| e.to_string())?;
        for shard in fleet.shards() {
            gens.persist(shard.id, shard.last_good().0)
                .map_err(|e| e.to_string())?;
        }
        Ok(Service {
            fleet,
            ctl,
            gens,
            wal,
        })
    }

    /// CPU time of one cold fleet set-up in reference seconds (see
    /// [`FleetWorkload::start`]).
    pub fn setup_probe(&self, seed: u64, scratch: &Path) -> Result<f64, String> {
        let dir = WorkDir::fresh(scratch.join("setup"));
        let (svc, setup) = ref_seconds_of(|| self.start(seed, &dir.0));
        let svc = svc?;
        drop(svc);
        Ok(setup)
    }

    /// One closed-loop run of the daemon's round loop to the horizon.
    fn rep(&self, seed: u64, dir: &Path, traced: bool) -> Result<Rep, String> {
        let mut d = RoundLoop {
            svc: self.start(seed, dir)?,
            steps: traced.then(Steps::default),
            watermark: None,
            in_flight: VecDeque::new(),
            control_ms: Vec::new(),
            applied: 0,
        };
        let (mut submitted, mut clean_rounds) = (0u64, 0u64);
        publish(&d.svc, FleetState::Running, None)?;
        let mut meter = Meter::start();
        while !d.svc.fleet.done() {
            meter.round(|| {
                d.apply()?;
                // Exactly one command is in flight through every round.
                let cmd = Command::Migrate {
                    shard: (submitted % self.shards as u64) as u32,
                    worker: None,
                };
                d.in_flight.push_back(Instant::now());
                d.svc.ctl.submit(&cmd, d.watermark)?;
                submitted += 1;
                clean_rounds += u64::from(d.round()?);
                Ok::<(), String>(())
            })?;
        }
        let timing = meter.finish();
        // The command submitted before the last round is consumed after
        // it, as `scrubd` drains its queue once the horizon is reached.
        d.apply()?;
        publish(&d.svc, FleetState::Finished, d.watermark)?;
        let (svc, steps, control_ms, applied) = (d.svc, d.steps, d.control_ms, d.applied);
        let fleet = &svc.fleet;

        let shard_stats: Vec<MemStats> = fleet.shards().iter().map(|s| s.stats()).collect();
        let rollup = fleet.rollup();
        let sum = |f: fn(&MemStats) -> u64| shard_stats.iter().map(f).sum::<u64>();
        let counter = |k: &str| rollup.counters.get(k).copied();
        let reconciled = [
            ("fleet.demand_reads", sum(|s| s.demand_reads)),
            ("fleet.demand_writes", sum(|s| s.demand_writes)),
            ("fleet.scrub_probes", sum(|s| s.scrub_probes)),
            ("fleet.scrub_writebacks", sum(|s| s.scrub_writebacks)),
            ("fleet.corrected_bits", sum(|s| s.corrected_bits)),
            ("fleet.detected_ue", sum(|s| s.detected_ue)),
            ("fleet.demand_ue", sum(|s| s.demand_ue)),
        ]
        .iter()
        .all(|(k, v)| counter(k) == Some(*v));
        // Each shard's sealed end-of-run checkpoint, finished, gives its
        // full report (energy and latency are not in the shard stats).
        let config = fleet.config();
        let mut reports = Vec::new();
        for shard in fleet.shards() {
            let sim = Simulation::resume(config.shard_config(shard.id), shard.last_good().0)
                .map_err(|e| format!("shard {}: {e}", shard.id))?;
            reports.push(sim.finish());
        }
        let mut digest_text = rollup.to_json();
        for r in &reports {
            digest_text.push_str(&format!("{r:?}"));
        }
        let checks = vec![
            (
                "rollup counters equal the sum of shard stats".to_string(),
                reconciled,
            ),
            ("no shard quarantined".to_string(), fleet.quarantined() == 0),
            (
                "every submitted migrate applied".to_string(),
                submitted == applied && fleet.migrations() == submitted,
            ),
            (
                "every shard sealed a checkpoint at the horizon".to_string(),
                reports.iter().all(|r| r.horizon_s == self.horizon_s)
                    && fleet.shards().iter().all(|s| s.clock_s() >= self.horizon_s),
            ),
        ];
        let slo_min = fleet
            .slo()
            .iter()
            .map(|t| t.attainment)
            .fold(f64::INFINITY, f64::min);
        Ok(Rep {
            rounds: timing.rounds_ms.len() as u64,
            timing,
            control_ms,
            clean_rounds,
            checks,
            digest: fnv1a(digest_text.as_bytes()),
            reports,
            shard_stats,
            slo_min,
            retries: fleet.stats().retries,
            quarantined: fleet.quarantined(),
            steps,
        })
    }

    /// Runs one rep of each kind in `kinds` (traced or not), each in a
    /// fresh control directory, until the deadline and at least `min`
    /// times; then records every round and check in `ledger`.
    fn collect(
        &self,
        seed: u64,
        seconds: u64,
        scratch: &Path,
        kinds: &[bool],
        min: usize,
        ledger: &mut Ledger,
    ) -> Vec<(bool, Rep)> {
        let sets = repeat(seconds, min, ledger, || {
            kinds
                .iter()
                .map(|&traced| {
                    let dir = WorkDir::fresh(scratch.join("fleet"));
                    self.rep(seed, &dir.0, traced).map(|rep| (traced, rep))
                })
                .collect::<Result<Vec<_>, String>>()
        });
        let reps: Vec<(bool, Rep)> = sets.into_iter().flatten().collect();
        let reference = reps.first().map(|(_, rep)| rep.digest);
        for (_, rep) in &reps {
            let mut ok = true;
            for (name, passed) in &rep.checks {
                ok &= ledger.check(name.clone(), *passed);
            }
            ok &= ledger.check(
                "rollup and shard reports equal the first run's",
                Some(rep.digest) == reference,
            );
            // Every round is an operation; a failed end-of-run check fails
            // the last one if no round failed.
            let failed_rounds = rep.rounds - rep.clean_rounds;
            ledger.attempted += rep.rounds;
            ledger.failed += if ok {
                failed_rounds
            } else {
                failed_rounds.max(1)
            };
        }
        reps
    }

    fn sim_metrics(&self, reports: &[SimReport]) -> Vec<Metric> {
        let days = self.horizon_s / 86_400.0;
        let writes: u64 = reports.iter().map(|r| r.scrub_writes()).sum();
        let energy_uj: f64 = reports.iter().map(|r| r.scrub_energy_uj).sum();
        vec![
            metric(
                "scrub_writes_per_line_day",
                writes as f64 / self.lines() / days,
                "1/line/day",
                Kind::Sim,
            ),
            metric(
                "scrub_energy_nj_per_line_day",
                energy_uj * 1e3 / self.lines() / days,
                "nJ/line/day",
                Kind::Sim,
            ),
        ]
    }

    /// Untraced measurement: the end-to-end metrics.
    pub fn run(
        &self,
        seed: u64,
        seconds: u64,
        setup_s: f64,
        scratch: &Path,
    ) -> (Ledger, Vec<Metric>) {
        let mut ledger = Ledger::default();
        let reps: Vec<Rep> = self
            .collect(seed, seconds, scratch, &[false], MIN_REPS, &mut ledger)
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let peak_rss = peak_rss_mib();
        ledger.check("VmHWM readable", peak_rss.is_some());
        let Some(first) = reps.first() else {
            return (ledger, Vec::new());
        };
        let runs: Vec<&Timing> = reps.iter().map(|r| &r.timing).collect();
        let mut metrics = host_metrics(setup_s, self.line_hours(), &runs, peak_rss.unwrap_or(0.0));
        metrics.extend(self.sim_metrics(&first.reports));
        (ledger, metrics)
    }

    /// Replays every shard alone from its config, with the tenant mix
    /// built by the benchmark and timed, advancing and checkpointing it
    /// each round as the fleet does. Gives per-shard busy time for the
    /// `exec` metrics and the `core`/`workloads` split.
    fn replay(&self, seed: u64) -> Result<Replay, String> {
        let config = self.config(seed);
        let clock = Arc::new(TraceClock::default());
        let mut replay = Replay::default();
        for id in 0..config.shards {
            let shard_config = config.shard_config(id);
            let trace: Box<dyn TraceSource> = Box::new(TimedTrace::new(
                Box::new(config.tenants.build(
                    config.shard_lines(),
                    1.0 / config.shards as f64,
                    config.shard_seed(id).wrapping_add(TRACE_SEED_OFFSET),
                )),
                Arc::clone(&clock),
            ));
            let mut sim = Simulation::with_trace(shard_config.clone(), trace);
            let mut busy_ms = 0.0;
            let target = |r: usize| (r as f64 * self.cadence_s).min(self.horizon_s);
            let half = self.rounds() / 2;
            let mut halfway = Vec::new();
            for r in 1..=self.rounds() {
                let start = Instant::now();
                sim.run_to(target(r));
                replay.run_to_ms += ms_since(start);
                let bytes = sim.checkpoint().map_err(|e| e.to_string())?;
                busy_ms += ms_since(start);
                if r == half {
                    halfway = bytes;
                }
            }
            replay.busy_ms.push(busy_ms);
            if id == 0 {
                replay.checkpoint_metrics = layers::checkpoint(&mut sim, &shard_config)?;
                let mut resumed = Simulation::resume(shard_config.clone(), &halfway)
                    .map_err(|e| e.to_string())?;
                for r in half + 1..=self.rounds() {
                    resumed.run_to(target(r));
                }
                replay.resumed_report = Some(resumed.finish());
            }
            replay.sims.push(sim);
        }
        replay.next_op_calls = clock.calls();
        replay.next_op_ms = clock.ns() as f64 / 1e6;
        Ok(replay)
    }

    /// Traced measurement: untraced and traced fleet runs alternate, then
    /// a one-by-one shard replay, then the per-layer metrics.
    /// `bytes_per_line` is `memsim.bytes_per_line`, measured in a fresh
    /// process ([`layers::memsim_bytes_per_line`]).
    pub fn run_traced(
        &self,
        seed: u64,
        seconds: u64,
        scratch: &Path,
        bytes_per_line: f64,
    ) -> (Ledger, Vec<Metric>) {
        let mut ledger = Ledger::default();
        let reps = self.collect(seed, seconds, scratch, &[false, true], 1, &mut ledger);
        let plain: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
        let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        let (Some(first), Some(last)) = (traced.first(), traced.last()) else {
            return (ledger, Vec::new());
        };
        let Some(replay) = repeat(0, 1, &mut ledger, || self.replay(seed)).pop() else {
            return (ledger, Vec::new());
        };
        let replay_stats: Vec<MemStats> = replay.sims.iter().map(|s| s.memory().stats()).collect();
        let mut ok = ledger.check(
            "shards replayed alone match the fleet's shard stats",
            replay_stats == first.shard_stats,
        );
        ok &= ledger.check(
            "replayed shard 0 resumed from its halfway checkpoint matches the fleet's",
            replay.resumed_report.as_ref() == Some(&first.reports[0]),
        );
        ledger.op(ok);

        let plain_timing: Vec<&Timing> = plain.iter().map(|r| &r.timing).collect();
        let traced_timing: Vec<&Timing> = traced.iter().map(|r| &r.timing).collect();
        let plain_rounds = pooled_rounds(&plain_timing);
        let traced_rounds = pooled_rounds(&traced_timing);
        let overhead = (median_ref_s(&traced_timing) / median_ref_s(&plain_timing) - 1.0) * 100.0;
        let round_overhead = (median(&traced_rounds) / median(&plain_rounds) - 1.0) * 100.0;
        let control: Vec<f64> = reps
            .iter()
            .flat_map(|(_, r)| r.control_ms.iter().copied())
            .collect();
        let steps: Vec<&Steps> = traced.iter().filter_map(|r| r.steps.as_ref()).collect();
        let pooled = |f: fn(&Steps) -> &Vec<f64>| {
            median(
                &steps
                    .iter()
                    .flat_map(|s| f(s).iter().copied())
                    .collect::<Vec<_>>(),
            )
        };
        let advance_total: f64 = median(
            &steps
                .iter()
                .map(|s| s.advance.iter().sum::<f64>())
                .collect::<Vec<_>>(),
        );

        let reports = &first.reports;
        let mut stats = MemStats::default();
        for s in &first.shard_stats {
            stats.absorb(s);
        }
        let (mut probe_slots, mut idle_slots) = (0u64, 0u64);
        for r in reports {
            probe_slots += r.engine.probe_slots;
            idle_slots += r.engine.idle_slots;
        }
        let ue: u64 = reports.iter().map(|r| r.uncorrectable()).sum();
        let gib = self.lines() * 64.0 / (1u64 << 30) as f64;
        let days = self.horizon_s / 86_400.0;
        let read_latency = reports
            .iter()
            .map(|r| r.measured_read_latency_ns * r.stats.demand_reads as f64)
            .sum::<f64>()
            / (stats.demand_reads as f64).max(1.0);
        let events = (probe_slots + idle_slots + stats.demand_reads + stats.demand_writes) as f64;
        let self_ms = replay.run_to_ms - replay.next_op_ms;
        let busy_total: f64 = replay.busy_ms.iter().sum();
        let busy_max = replay.busy_ms.iter().copied().fold(0.0, f64::max);
        let decodes = (stats.scrub_probes + stats.demand_reads) as f64;

        let mut metrics = vec![
            metric("trace_overhead_pct", overhead, "%", Kind::Host),
            metric("trace_overhead_round_pct", round_overhead, "%", Kind::Host),
            metric("fail_ratio", ledger.fail_ratio(), "ratio", Kind::Run),
        ];
        let guaranteed = self.rounds();
        metrics.extend(latency_pair(
            "round_p50_ms",
            "round_tail_ms",
            &plain_rounds,
            guaranteed,
        ));
        metrics.extend(latency_pair(
            "control_p50_ms",
            "control_tail_ms",
            &control,
            2 * guaranteed,
        ));
        metrics.extend([
            metric(
                "ue_per_gib_day",
                ue as f64 / gib / days,
                "UE/GiB/day",
                Kind::Sim,
            ),
            metric("read_latency_ns", read_latency, "ns", Kind::Sim),
            not_applicable("oracle_gap_pct", "%", Kind::Sim),
            metric("slo_attainment_min", last.slo_min, "ratio", Kind::Sim),
            metric(
                "workloads.next_op.calls",
                replay.next_op_calls as f64,
                "count",
                Kind::Host,
            ),
            metric(
                "workloads.next_op.ns",
                replay.next_op_ms * 1e6 / (replay.next_op_calls as f64).max(1.0),
                "ns",
                Kind::Host,
            ),
            metric(
                "workloads.share",
                replay.next_op_ms / replay.run_to_ms,
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
            metric("core.probe_slots", probe_slots as f64, "count", Kind::Sim),
            metric("core.idle_slots", idle_slots as f64, "count", Kind::Sim),
            metric(
                "core.useful_slot_ratio",
                probe_slots as f64 / ((probe_slots + idle_slots) as f64).max(1.0),
                "ratio",
                Kind::Sim,
            ),
        ]);
        metrics.extend(memsim_counts(&stats));
        metrics.extend([
            metric(
                "ecc.corrected_bits_per_probe",
                stats.corrected_bits as f64 / decodes.max(1.0),
                "bits",
                Kind::Sim,
            ),
            metric("ecc.ue_events", ue as f64, "count", Kind::Sim),
        ]);
        let config = self.config(seed);
        let shard0 = config.shard_config(0);
        metrics.extend(layers::memsim(&shard0, 900.0));
        metrics.push(metric(
            "memsim.bytes_per_line",
            bytes_per_line,
            "B",
            Kind::Host,
        ));
        metrics.extend(layers::pcm(&shard0.device, self.horizon_s));
        let sims: Vec<&Simulation> = replay.sims.iter().collect();
        metrics.push(metric(
            "ecc.classify.ns",
            layers::ecc_classify_ns(&shard0.code, &sims),
            "ns",
            Kind::Host,
        ));
        metrics.extend(replay.checkpoint_metrics.iter().cloned());
        metrics.extend([
            metric(
                "exec.parallel_efficiency",
                busy_total / (self.threads as f64 * advance_total),
                "ratio",
                Kind::Host,
            ),
            metric(
                "exec.shard_skew",
                busy_max / (busy_total / replay.busy_ms.len() as f64),
                "ratio",
                Kind::Host,
            ),
            metric(
                "scrubd.advance_round.ms",
                pooled(|s| &s.advance),
                "ms",
                Kind::Host,
            ),
            metric(
                "scrubd.persist.ms",
                pooled(|s| &s.persist),
                "ms",
                Kind::Host,
            ),
            metric("scrubd.wal_append.ms", pooled(|s| &s.wal), "ms", Kind::Host),
            metric(
                "scrubd.take_pending.ms",
                pooled(|s| &s.take_pending),
                "ms",
                Kind::Host,
            ),
            metric(
                "scrubd.migrate.ms",
                pooled(|s| &s.migrate),
                "ms",
                Kind::Host,
            ),
            metric("scrubd.retries", last.retries as f64, "count", Kind::Run),
            metric(
                "scrubd.quarantined",
                last.quarantined as f64,
                "count",
                Kind::Run,
            ),
            metric(
                "telemetry.publish.ms",
                pooled(|s| &s.publish),
                "ms",
                Kind::Host,
            ),
            metric(
                "telemetry.publish_bytes",
                pooled(|s| &s.publish_bytes),
                "B",
                Kind::Host,
            ),
        ]);
        (ledger, metrics)
    }
}

/// What the one-by-one shard replay measured.
#[derive(Default)]
struct Replay {
    sims: Vec<Simulation>,
    busy_ms: Vec<f64>,
    run_to_ms: f64,
    next_op_ms: f64,
    next_op_calls: u64,
    checkpoint_metrics: Vec<Metric>,
    /// Shard 0 resumed from its halfway checkpoint and run to the horizon.
    resumed_report: Option<SimReport>,
}
