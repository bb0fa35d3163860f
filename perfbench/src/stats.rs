//! Summary statistics, process probes and the result record.

use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// Whether a metric describes the simulator (host) or the modelled PCM
/// (sim). A speed-only change must leave every sim metric identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What the simulator costs on the host running it.
    Host,
    /// What the modelled memory would do; deterministic for a seed.
    Sim,
    /// Bookkeeping about the benchmark run itself.
    Run,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Run => "run",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
    /// Free text printed beside the value (percentile, sample count, n/a).
    pub note: String,
}

/// Builds a [`Metric`] without a note.
pub fn metric(name: &'static str, value: f64, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name,
        value,
        unit,
        kind,
        note: String::new(),
    }
}

/// A metric that does not apply to the workload: value 0, marked `n/a`.
pub fn not_applicable(name: &'static str, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        note: "n/a on this workload".to_string(),
        ..metric(name, 0.0, unit, kind)
    }
}

/// Operations attempted and failed, plus the named correctness checks.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// `(check, times passed, times run)`, in first-run order.
    pub checks: Vec<(String, u32, u32)>,
}

impl Ledger {
    /// Records one operation that either succeeded or failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records one run of a named check and returns whether it passed.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) -> bool {
        let name = name.into();
        let i = match self.checks.iter().position(|(n, _, _)| *n == name) {
            Some(i) => i,
            None => {
                self.checks.push((name, 0, 0));
                self.checks.len() - 1
            }
        };
        self.checks[i].1 += u32::from(passed);
        self.checks[i].2 += 1;
        passed
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, p, n)| p == n)
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles tried for a tail figure, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// The highest ladder percentile that leaves at least ten of `samples`
/// beyond it under the nearest-rank rule. Callers pass the sample count a
/// run is guaranteed to collect, so the percentile is the same on every
/// run of a workload.
pub fn tail_percentile(samples: usize) -> f64 {
    assert!(samples > 0, "tail percentile of no samples");
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples - nearest_rank(samples, p) >= TAIL_BEYOND)
        .unwrap_or(50.0)
}

fn nearest_rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail summary: the `pct`-th percentile of `samples` values, with the
/// count strictly beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl Tail {
    pub fn of(xs: &[f64], pct: f64) -> Tail {
        assert!(!xs.is_empty(), "tail of no samples");
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let rank = nearest_rank(v.len(), pct);
        Tail {
            pct,
            value: v[rank - 1],
            samples: v.len(),
            beyond: v.len() - rank,
        }
    }

    pub fn note(&self) -> String {
        format!(
            "p{} of {} samples, {} beyond",
            self.pct, self.samples, self.beyond
        )
    }
}

/// When a time-boxed measurement stops: after at least `min` passes, and
/// once another pass would end more than half a pass past `seconds`.
struct Budget {
    start: Instant,
    seconds: f64,
    min: usize,
    passes: usize,
}

impl Budget {
    fn new(seconds: u64, min: usize) -> Budget {
        Budget {
            start: Instant::now(),
            seconds: seconds as f64,
            min,
            passes: 0,
        }
    }

    /// Whether to start another pass; counts it if so.
    fn another(&mut self) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let per_pass = elapsed / self.passes.max(1) as f64;
        let go = self.passes < self.min || elapsed + per_pass / 2.0 < self.seconds;
        self.passes += usize::from(go);
        go
    }
}

/// A latency pair: the median and the highest percentile with at least
/// ten of `guaranteed` samples beyond it, both noted with sample counts.
pub fn latency_pair(
    p50_name: &'static str,
    tail_name: &'static str,
    samples_ms: &[f64],
    guaranteed: usize,
) -> [Metric; 2] {
    let tail = Tail::of(samples_ms, tail_percentile(guaranteed));
    [
        Metric {
            note: format!("{} samples", samples_ms.len()),
            ..metric(p50_name, median(samples_ms), "ms", Kind::Host)
        },
        Metric {
            note: tail.note(),
            ..metric(tail_name, tail.value, "ms", Kind::Host)
        },
    ]
}

/// Process CPU time so far (user + system, every thread), in seconds.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    /// Linux's clock id for the calling process's CPU time.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // supports; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Reference-kernel iterations per reference second: about one CPU
/// second's worth on the machine the benchmark was tuned on (a 2.0 GHz
/// Xeon vCPU) while no neighbour competed for its core.
const REFERENCE_ITERS_PER_S: f64 = 1e8;

/// Iterations of one reference pass, about 0.3 ms.
const REFERENCE_PASS_ITERS: u32 = 1 << 15;

/// Runs one pass of the reference kernel and returns its CPU seconds.
///
/// The kernel is fixed code of the benchmark's own (a 64-bit LCG, a
/// logarithm per step, an unpredictable branch to an exponential), so no
/// change to the repository changes its cost. On a shared virtual
/// machine the neighbours' load slows every instruction stream, this
/// kernel and the simulator alike, by up to half; CPU time scaled by the
/// kernel's own slowdown stays far steadier than CPU time or wall time.
fn reference_pass() -> f64 {
    let start = cpu_s();
    let mut x = black_box(1u64);
    let mut f = 0.0f64;
    for _ in 0..REFERENCE_PASS_ITERS {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        f += ((x >> 11) as f64 * 1e-16 + 1.0).ln();
        if x >> 60 == 3 {
            f = f.exp().min(1e9);
        }
    }
    black_box(f);
    cpu_s() - start
}

/// How fast the host runs now, in reference seconds per CPU second, from
/// `passes` passes of the reference kernel.
fn speed(ref_cpu_s: f64, passes: u32) -> f64 {
    f64::from(passes) * f64::from(REFERENCE_PASS_ITERS) / REFERENCE_ITERS_PER_S / ref_cpu_s
}

/// Runs `f`, returning its process CPU time in reference seconds: CPU
/// seconds times the host speed measured just before.
pub fn ref_seconds_of<R>(f: impl FnOnce() -> R) -> (R, f64) {
    const PASSES: u32 = 16;
    let ref_cpu: f64 = (0..PASSES).map(|_| reference_pass()).sum();
    let start = cpu_s();
    let r = f();
    (r, (cpu_s() - start) * speed(ref_cpu, PASSES))
}

/// Times one complete run round by round: wall time per round, and the
/// run's CPU time, with one reference pass before every round to scale
/// it to reference seconds.
pub struct Meter {
    start_cpu: f64,
    rounds_ms: Vec<f64>,
    ref_cpu_s: f64,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            start_cpu: cpu_s(),
            rounds_ms: Vec::new(),
            ref_cpu_s: 0.0,
        }
    }

    /// Runs and times one round.
    pub fn round<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.ref_cpu_s += reference_pass();
        let start = Instant::now();
        let r = f();
        self.rounds_ms.push(start.elapsed().as_secs_f64() * 1e3);
        r
    }

    pub fn finish(self) -> Timing {
        let passes = self.rounds_ms.len() as u32;
        let cpu = cpu_s() - self.start_cpu - self.ref_cpu_s;
        let speed = if passes == 0 {
            1.0
        } else {
            speed(self.ref_cpu_s, passes)
        };
        Timing {
            rounds_ms: self.rounds_ms,
            ref_s: cpu * speed,
            speed,
        }
    }
}

/// Wall and CPU time of one complete run.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Wall time of each round, in round order (ms).
    pub rounds_ms: Vec<f64>,
    /// Process CPU time of the run, without the reference passes, in
    /// reference seconds.
    pub ref_s: f64,
    /// Host speed during the run, in reference seconds per CPU second.
    pub speed: f64,
}

/// Every round's wall time of every run, pooled.
pub fn pooled_rounds(runs: &[&Timing]) -> Vec<f64> {
    runs.iter()
        .flat_map(|t| t.rounds_ms.iter().copied())
        .collect()
}

/// Median reference seconds of one complete run.
pub fn median_ref_s(runs: &[&Timing]) -> f64 {
    median(&runs.iter().map(|t| t.ref_s).collect::<Vec<_>>())
}

/// Complete runs an untraced measurement makes, whatever `--seconds`
/// says, so its median is over at least this many.
pub const MIN_REPS: usize = 3;

/// Runs `rep` until `seconds` have passed and at least `min` times. An
/// error or a panic is a failed operation and a failed check named after
/// it; after more than `min` of them the measurement gives up.
pub fn repeat<R>(
    seconds: u64,
    min: usize,
    ledger: &mut Ledger,
    mut rep: impl FnMut() -> Result<R, String>,
) -> Vec<R> {
    let mut budget = Budget::new(seconds, min);
    let mut out = Vec::new();
    let mut failures = 0;
    while budget.another() {
        let failure = match panic::catch_unwind(AssertUnwindSafe(&mut rep)) {
            Ok(Ok(r)) => {
                out.push(r);
                continue;
            }
            Ok(Err(e)) => format!("run failed: {e}"),
            Err(_) => "run panicked".to_string(),
        };
        ledger.check(failure, false);
        ledger.op(false);
        failures += 1;
        if failures > min {
            break;
        }
    }
    out
}

/// The end-to-end host metrics of a measurement whose runs each simulate
/// `line_hours`; `peak_rss_mib` is read before any check that allocates
/// for itself.
pub fn host_metrics(
    setup_s: f64,
    line_hours: f64,
    runs: &[&Timing],
    peak_rss_mib: f64,
) -> Vec<Metric> {
    let speed = median(&runs.iter().map(|t| t.speed).collect::<Vec<_>>());
    vec![
        Metric {
            note: "CPU time in reference seconds, median of fresh processes".to_string(),
            ..metric("setup_s", setup_s, "s", Kind::Host)
        },
        Metric {
            note: format!(
                "median of {} runs; host speed {speed:.3} ref-s per CPU second",
                runs.len()
            ),
            ..metric(
                "line_hours_per_s",
                line_hours / median_ref_s(runs),
                "line-h/ref-s",
                Kind::Host,
            )
        },
        metric("peak_rss_mib", peak_rss_mib, "MiB", Kind::Host),
    ]
}

/// The `memsim` layer's own counters.
pub fn memsim_counts(stats: &pcm_memsim::MemStats) -> [Metric; 5] {
    [
        metric(
            "memsim.scrub_probes",
            stats.scrub_probes as f64,
            "count",
            Kind::Sim,
        ),
        metric(
            "memsim.scrub_writebacks",
            stats.scrub_writebacks as f64,
            "count",
            Kind::Sim,
        ),
        metric(
            "memsim.demand_reads",
            stats.demand_reads as f64,
            "count",
            Kind::Sim,
        ),
        metric(
            "memsim.demand_writes",
            stats.demand_writes as f64,
            "count",
            Kind::Sim,
        ),
        metric(
            "memsim.writeback_per_probe",
            stats.scrub_writebacks as f64 / (stats.scrub_probes as f64).max(1.0),
            "ratio",
            Kind::Sim,
        ),
    ]
}

/// FNV-1a over `bytes`: the digest the benchmark compares simulated
/// reports by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn proc_status_bytes(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| {
        l.strip_prefix(field)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    Some(proc_status_bytes("VmHWM")? / (1024.0 * 1024.0))
}

/// Resident set of this process now (`VmRSS`), in bytes.
pub fn rss_bytes() -> Option<f64> {
    proc_status_bytes("VmRSS")
}

/// Writes the human-readable table and, as the last line, the JSON
/// result record.
pub fn print_result(workload: &str, ledger: &Ledger, metrics: &[Metric]) {
    println!("== {workload}");
    for (name, passed, runs) in &ledger.checks {
        let verdict = if passed == runs { "ok" } else { "FAILED" };
        println!("check {name:<62} {verdict} ({passed}/{runs})");
    }
    for m in metrics {
        println!(
            "{:<34} {:>16.6} {:<12} [{}] {}",
            m.name,
            m.value,
            m.unit,
            m.kind.label(),
            m.note
        );
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.correct(),
        ledger.attempted,
        ledger.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` on f64 prints the shortest string that reads back to the
        // same value, so no digits are lost.
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        assert_eq!(tail_percentile(108), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        let xs: Vec<f64> = (1..=108).map(f64::from).collect();
        let t = Tail::of(&xs, 90.0);
        assert_eq!((t.value, t.beyond), (98.0, 10));
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let start = cpu_s();
        let spin = (0..2_000_000u64).fold(0u64, |a, i| a.wrapping_mul(31).wrapping_add(i));
        black_box(spin);
        assert!(cpu_s() > start);
    }

    #[test]
    fn meter_scales_cpu_time_by_host_speed() {
        let mut meter = Meter::start();
        for _ in 0..4 {
            meter.round(|| black_box((0..200_000u64).sum::<u64>()));
        }
        let t = meter.finish();
        assert_eq!(t.rounds_ms.len(), 4);
        assert!(t.speed > 0.0 && t.ref_s > 0.0);
    }

    #[test]
    fn repeat_counts_errors_and_panics() {
        let mut ledger = Ledger::default();
        let mut n = 0;
        let out = repeat(0, 4, &mut ledger, || {
            n += 1;
            match n {
                2 => Err("bad".to_string()),
                3 => panic!("boom"),
                _ => Ok(n),
            }
        });
        assert_eq!(out, vec![1, 4]);
        assert_eq!((ledger.attempted, ledger.failed), (2, 2));
    }
}
