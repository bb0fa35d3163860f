//! Shared entry point for the `exp_*` binaries: flag parsing, wall-clock
//! timing, and the machine-readable `BENCH_<exp>.json` record.
//!
//! Every experiment binary funnels through [`main`] (or [`main_with`] when
//! it can report headline metrics without recomputation), which
//!
//! 1. parses `--threads N`, `--quick`, `--full`, and `--bench-out PATH`,
//! 2. resolves the worker pool (flag > `SCRUBSIM_THREADS` > machine),
//! 3. runs the experiment and prints its tables to stdout, and
//! 4. writes a small JSON record — experiment id, thread count, wall-clock
//!    seconds, scale, and any headline metrics — next to the working
//!    directory (stderr announces the path, keeping stdout diffable).

use std::sync::OnceLock;
use std::time::Instant;

use pcm_memsim::CampaignSpec;
use scrub_telemetry as tel;

use crate::scale::Scale;

/// The process-wide fault campaign installed by `--fault-campaign`.
static FAULT_CAMPAIGN: OnceLock<CampaignSpec> = OnceLock::new();

/// The campaign every simulation in this process should attach, if one
/// was requested (via `--fault-campaign` or [`set_fault_campaign`]).
pub fn fault_campaign() -> Option<CampaignSpec> {
    FAULT_CAMPAIGN.get().copied()
}

/// Installs the process-wide fault campaign (flag parsing does this;
/// public so tests can exercise the campaign path). First install wins —
/// the campaign is part of a run's identity and must not change mid-run.
pub fn set_fault_campaign(spec: CampaignSpec) {
    let _ = FAULT_CAMPAIGN.set(spec);
}

/// The process-wide checkpoint cadence installed by `--checkpoint-every`.
static CHECKPOINT_EVERY_S: OnceLock<f64> = OnceLock::new();

/// The checkpoint cadence (simulated seconds) every simulation in this
/// process should split at, if one was requested. Experiments honoring it
/// run each simulation through `scrub_core::run_split` — exercising the
/// full serialize/resume path — and must produce output byte-identical to
/// a continuous run's.
pub fn checkpoint_every_s() -> Option<f64> {
    CHECKPOINT_EVERY_S.get().copied()
}

/// Installs the process-wide checkpoint cadence (flag parsing does this;
/// public so tests can exercise the split path). First install wins.
pub fn set_checkpoint_every_s(every_s: f64) {
    let _ = CHECKPOINT_EVERY_S.set(every_s);
}

/// The process-wide scrub IOPS budget installed by `--scrub-iops`.
static SCRUB_IOPS: OnceLock<f64> = OnceLock::new();

/// The token-bucket refill rate budgeted tour policies should run at, if
/// one was requested (via `--scrub-iops` or [`set_scrub_iops`]).
pub fn scrub_iops() -> Option<f64> {
    SCRUB_IOPS.get().copied()
}

/// Installs the process-wide scrub IOPS budget (flag parsing does this;
/// public so tests can exercise budgeted runs). First install wins.
pub fn set_scrub_iops(iops: f64) {
    let _ = SCRUB_IOPS.set(iops);
}

struct Opts {
    threads: Option<usize>,
    scale: Option<Scale>,
    bench_out: Option<String>,
    telemetry_out: Option<String>,
    fault_campaign: Option<CampaignSpec>,
    checkpoint_every_s: Option<f64>,
    horizon_s: Option<f64>,
    scrub_iops: Option<f64>,
}

fn usage(exp: &str) -> ! {
    eprintln!(
        "usage: exp_{exp} [--threads N] [--quick|--full] [--bench-out PATH] [--telemetry-out PATH]\n\
         \x20                [--fault-campaign SPEC]\n\
         \x20 --threads N        worker pool size (default: $SCRUBSIM_THREADS or all cores)\n\
         \x20 --quick            CI-sized scale (same as SCRUB_QUICK=1)\n\
         \x20 --full             paper-sized scale (overrides SCRUB_QUICK)\n\
         \x20 --bench-out P      where to write the JSON record (default: BENCH_{exp}.json)\n\
         \x20 --telemetry-out P  enable the telemetry recorder and write its versioned\n\
         \x20                    JSON document (counters, phases, event journal) to P\n\
         \x20 --fault-campaign S deterministic fault campaign attached to every simulation,\n\
         \x20                    e.g. 'seed=1;stuck=lines:8,cells:6;seu=lines:16,count:4,window:3600'\n\
         \x20 --checkpoint-every SECS\n\
         \x20                    run each simulation as checkpoint/resume segments of this\n\
         \x20                    many simulated seconds (results are byte-identical)\n\
         \x20 --horizon-s SECS   override the scale's simulated horizon (e.g. 31536000\n\
         \x20                    for a 1-year run)\n\
         \x20 --scrub-iops N     token-bucket refill rate for budgeted tour policies\n\
         \x20                    (experiments that sweep budgets scale their sweep by it)"
    );
    std::process::exit(2);
}

/// One-line fatal error for a malformed flag or environment value: the
/// message names the offending input, stderr gets exactly one line, and
/// the exit code matches usage errors.
fn fail(exp: &str, msg: &str) -> ! {
    eprintln!("exp_{exp}: {msg}");
    std::process::exit(2);
}

fn parse_opts(exp: &str) -> Opts {
    let mut opts = Opts {
        threads: None,
        scale: None,
        bench_out: None,
        telemetry_out: None,
        fault_campaign: None,
        checkpoint_every_s: None,
        horizon_s: None,
        scrub_iops: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage(exp));
        match flag.as_str() {
            "--threads" => {
                let raw = value();
                match raw.parse::<usize>() {
                    Ok(n) if n > 0 => opts.threads = Some(n),
                    _ => fail(
                        exp,
                        &format!("--threads must be a positive integer, got {raw:?}"),
                    ),
                }
            }
            "--quick" => opts.scale = Some(Scale::quick()),
            "--full" => opts.scale = Some(Scale::full()),
            "--bench-out" => opts.bench_out = Some(value()),
            "--telemetry-out" => opts.telemetry_out = Some(value()),
            "--fault-campaign" => {
                let raw = value();
                match raw.parse::<CampaignSpec>() {
                    Ok(spec) => opts.fault_campaign = Some(spec),
                    Err(e) => fail(exp, &e),
                }
            }
            "--checkpoint-every" => {
                let raw = value();
                match raw.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => opts.checkpoint_every_s = Some(s),
                    _ => fail(
                        exp,
                        &format!(
                            "--checkpoint-every must be a positive finite number, got {raw:?}"
                        ),
                    ),
                }
            }
            "--scrub-iops" => {
                let raw = value();
                match raw.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => opts.scrub_iops = Some(s),
                    _ => fail(
                        exp,
                        &format!("--scrub-iops must be a positive finite number, got {raw:?}"),
                    ),
                }
            }
            "--horizon-s" => {
                let raw = value();
                match raw.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => opts.horizon_s = Some(s),
                    _ => fail(
                        exp,
                        &format!("--horizon-s must be a positive finite number, got {raw:?}"),
                    ),
                }
            }
            _ => usage(exp),
        }
    }
    opts
}

/// Renders one f64 as JSON (finite numbers only; anything else is null).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_record(
    exp: &str,
    threads: usize,
    wall_s: f64,
    scale: &Scale,
    metrics: &[(String, f64)],
) -> String {
    let metric_fields: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("    \"{}\": {}", json_escape(k), json_f64(*v)))
        .collect();
    format!(
        "{{\n  \"experiment\": \"{}\",\n  \"threads\": {},\n  \
         \"wall_s\": {},\n  \"horizon_s\": {},\n  \
         \"scale\": {{\n    \"num_lines\": {},\n    \"horizon_s\": {},\n    \
         \"reps\": {},\n    \"mc_cells\": {}\n  }},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json_escape(exp),
        threads,
        json_f64(wall_s),
        json_f64(scale.horizon_s),
        scale.num_lines,
        json_f64(scale.horizon_s),
        scale.reps,
        scale.mc_cells,
        metric_fields.join(",\n")
    )
}

/// Runs an experiment binary that has no cheap headline metrics.
pub fn main(exp: &'static str, run: fn(Scale) -> String) {
    main_with(exp, |scale| (run(scale), Vec::new()));
}

/// Runs an experiment binary whose closure also returns `(name, value)`
/// headline metrics for the JSON record (computed in the same pass as the
/// rendered tables — never by re-running the experiment).
pub fn main_with<F>(exp: &'static str, run: F)
where
    F: FnOnce(Scale) -> (String, Vec<(String, f64)>),
{
    let opts = parse_opts(exp);
    // Validate the environment up front: a malformed SCRUBSIM_THREADS
    // fails loudly here instead of being silently ignored mid-run.
    if let Err(e) = scrub_exec::env_threads() {
        fail(exp, &e);
    }
    if let Some(n) = opts.threads {
        scrub_exec::set_default_threads(n);
    }
    if let Some(spec) = opts.fault_campaign {
        set_fault_campaign(spec);
    }
    if let Some(every_s) = opts.checkpoint_every_s {
        set_checkpoint_every_s(every_s);
    }
    if let Some(iops) = opts.scrub_iops {
        set_scrub_iops(iops);
    }
    let threads = scrub_exec::default_threads();
    let mut scale = opts.scale.unwrap_or_else(Scale::from_env);
    if let Some(h) = opts.horizon_s {
        scale.horizon_s = h;
    }
    if opts.telemetry_out.is_some() {
        tel::install(tel::Config::default());
        tel::set_meta("experiment", exp);
        tel::set_meta("threads", &threads.to_string());
        tel::set_meta("num_lines", &scale.num_lines.to_string());
        tel::set_meta("horizon_s", &format!("{}", scale.horizon_s));
        tel::set_meta("reps", &scale.reps.to_string());
        if let Some(spec) = fault_campaign() {
            tel::set_meta("fault_campaign", &spec.to_string());
        }
    }
    let started = Instant::now();
    let (output, metrics) = {
        let _scope = tel::phase(&format!("exp.{exp}"));
        run(scale)
    };
    let wall_s = started.elapsed().as_secs_f64();
    println!("{output}");
    let record = render_record(exp, threads, wall_s, &scale, &metrics);
    let path = opts
        .bench_out
        .unwrap_or_else(|| format!("BENCH_{exp}.json"));
    match std::fs::write(&path, &record) {
        Ok(()) => eprintln!("[{exp}] {wall_s:.2}s on {threads} thread(s); record: {path}"),
        Err(e) => eprintln!("[{exp}] could not write {path}: {e}"),
    }
    if let Some(tel_path) = opts.telemetry_out {
        // Mirror the BENCH headline metrics into the document's value map
        // so one file carries both the report numbers and the op-level
        // counters they must reconcile with.
        for (k, v) in &metrics {
            tel::set_value(&format!("bench.{k}"), *v);
        }
        let doc = tel::snapshot();
        match std::fs::write(&tel_path, doc.to_json()) {
            Ok(()) => eprintln!("[{exp}] telemetry document: {tel_path}"),
            Err(e) => eprintln!("[{exp}] could not write {tel_path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_valid_shape() {
        let scale = Scale::quick();
        let rec = render_record(
            "e6",
            4,
            1.25,
            &scale,
            &[("ue_reduction_pct".to_string(), 96.5)],
        );
        assert!(rec.contains("\"experiment\": \"e6\""));
        assert!(!rec.contains("\"engine\""));
        assert!(rec.contains("\"threads\": 4"));
        assert!(rec.contains(&format!("\"horizon_s\": {}", scale.horizon_s)));
        assert!(rec.contains("\"ue_reduction_pct\": 96.5"));
        // Balanced braces — cheap sanity check on the hand-rolled JSON.
        let open = rec.matches('{').count();
        let close = rec.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn non_finite_metrics_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn escapes_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
