//! The repository benchmark. Runs one workload and prints its metrics:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it alternates untraced and traced runs and prints the
//! per-layer metrics and the tracing overhead. Either way it checks the
//! outputs and ends with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics`. `--workload all` runs every workload in turn, each in
//! a process of its own.

mod fleet;
mod layers;
mod sims;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use fleet::FleetWorkload;
use scrub_core::SimConfig;
use sims::SimWorkload;
use stats::{median, print_result, Ledger, Metric};

const WORKLOADS: [&str; 3] = ["scrub-sweep", "oltp-combined", "fleet-tenants"];

/// Cold set-ups per measurement, each in a fresh process; the median is
/// reported as `setup_s`.
const SETUP_PROBES: usize = 5;

/// Where fleet control directories live, relative to the working
/// directory (the benchmark writes nowhere else).
const SCRATCH: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    probe: Option<Probe>,
}

/// A one-number measurement made in a fresh child process, which pays
/// the one-time costs a user's process pays and whose allocator holds no
/// freed memory.
#[derive(Debug, Clone, Copy)]
enum Probe {
    /// CPU seconds of one cold set-up.
    Setup,
    /// `memsim.bytes_per_line`.
    MemsimBytes,
}

impl Probe {
    fn flag(self) -> &'static str {
        match self {
            Probe::Setup => "setup",
            Probe::MemsimBytes => "memsim-bytes",
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {}|all --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut probe = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed")));
            }
            "--seconds" => {
                let s: u64 = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(1..=600).contains(&s) {
                    usage("--seconds must be 1..=600");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                });
            }
            "--probe" => {
                probe = Some(match value().as_str() {
                    "setup" => Probe::Setup,
                    "memsim-bytes" => Probe::MemsimBytes,
                    _ => usage("--probe must be setup or memsim-bytes"),
                });
            }
            _ => usage(&format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        probe,
    }
}

/// The memory `memsim` probes are made on: the workload's own, or one
/// shard's for the fleet.
fn memsim_config(workload: &str, seed: u64) -> SimConfig {
    match workload {
        "fleet-tenants" => FleetWorkload::new().config(seed).shard_config(0),
        "scrub-sweep" => SimWorkload::scrub_sweep().config(seed),
        _ => SimWorkload::oltp_combined().config(seed),
    }
}

/// Makes one probe measurement in this process.
fn probe(probe: Probe, workload: &str, seed: u64, scratch: &Path) -> Result<f64, String> {
    match (probe, workload) {
        (Probe::MemsimBytes, _) => layers::memsim_bytes_per_line(&memsim_config(workload, seed))
            .ok_or_else(|| "VmRSS unreadable".to_string()),
        (Probe::Setup, "fleet-tenants") => FleetWorkload::new().setup_probe(seed, scratch),
        (Probe::Setup, "scrub-sweep") => Ok(SimWorkload::scrub_sweep().setup_probe(seed)),
        (Probe::Setup, _) => Ok(SimWorkload::oltp_combined().setup_probe(seed)),
    }
}

/// Median of `times` probe measurements, each in a fresh process.
fn probe_in_children(
    kind: Probe,
    times: usize,
    workload: &str,
    seed: u64,
    ledger: &mut Ledger,
) -> f64 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut samples = Vec::new();
    for _ in 0..times {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--probe", kind.flag()])
            .output();
        let parsed = out.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .trim()
                .parse::<f64>()
                .ok()
        });
        let name = format!("{} probe process succeeded", kind.flag());
        if ledger.check(name, parsed.is_some()) {
            samples.extend(parsed);
        }
    }
    if samples.is_empty() {
        0.0
    } else {
        median(&samples)
    }
}

fn run(workload: &str, args: &Args, scratch: &Path) -> (Ledger, Vec<Metric>) {
    let (seed, seconds) = (args.seed, args.seconds);
    let mut probe_ledger = Ledger::default();
    let (mut ledger, metrics) = if args.trace {
        let bytes = probe_in_children(Probe::MemsimBytes, 1, workload, seed, &mut probe_ledger);
        match workload {
            "fleet-tenants" => FleetWorkload::new().run_traced(seed, seconds, scratch, bytes),
            "scrub-sweep" => SimWorkload::scrub_sweep().run_traced(seed, seconds, bytes),
            _ => SimWorkload::oltp_combined().run_traced(seed, seconds, bytes),
        }
    } else {
        let setup_s = probe_in_children(
            Probe::Setup,
            SETUP_PROBES,
            workload,
            seed,
            &mut probe_ledger,
        );
        match workload {
            "fleet-tenants" => FleetWorkload::new().run(seed, seconds, setup_s, scratch),
            "scrub-sweep" => SimWorkload::scrub_sweep().run(seed, seconds, setup_s),
            _ => SimWorkload::oltp_combined().run(seed, seconds, setup_s),
        }
    };
    ledger.checks.extend(probe_ledger.checks);
    (ledger, metrics)
}

/// Runs every workload, each in a child process of its own so that
/// process-wide figures such as `peak_rss_mib` are the workload's alone.
/// The children's output passes through; returns whether all succeeded.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("the running executable has a path");
    WORKLOADS.iter().all(|name| {
        Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .is_ok_and(|s| s.success())
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let scratch = PathBuf::from(SCRATCH).join(format!("{}", std::process::id()));
    if args.workload == "all" {
        return if run_all(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if let Some(kind) = args.probe {
        let result = probe(kind, &args.workload, args.seed, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        return match result {
            Ok(s) => {
                println!("{s:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {} probe failed: {e}", kind.flag());
                ExitCode::FAILURE
            }
        };
    }
    let (mut ledger, metrics) = run(&args.workload, &args, &scratch);
    let finite = metrics.iter().all(|m| m.value.is_finite());
    ledger.check("every metric is a finite number", finite);
    print_result(&args.workload, &ledger, &metrics);
    let _ = std::fs::remove_dir_all(&scratch);
    if std::fs::read_dir(SCRATCH).is_ok_and(|mut d| d.next().is_none()) {
        let _ = std::fs::remove_dir(SCRATCH);
    }
    // The verdict is the result's `correct` field; a printed result is a
    // completed measurement.
    ExitCode::SUCCESS
}
