//! The fleet configuration file: how many banks, how they shard, and
//! which tenants drive them.
//!
//! The format is INI-style plain text — sections in brackets, one
//! `key = value` per line, `#` comments — because the daemon must fail
//! with a readable one-line error on any malformed input (satellite
//! requirement), and a hand-rolled parser keeps the error text exact:
//!
//! ```text
//! [fleet]
//! banks = 64            # total simulated banks across the fleet
//! lines-per-bank = 64   # 64-byte lines per bank
//! shards = 4            # fleet is split into this many shard simulations
//! seed = 42
//! horizon-s = 3600
//! cadence-s = 600       # telemetry roll-up / control-poll cadence
//! policy = combined@900 # NAME@SWEEP_INTERVAL_S, or "none"
//! engine = event        # accepted and ignored: stepped | event
//! threads = 0           # shard fan-out workers (0 = auto)
//!
//! [tenants]
//! mix = alpha:rate=120,read=0.7;beta:suite=kv-cache,scale=0.5
//!
//! [supervisor]
//! max-retries = 3       # failed attempts before quarantine
//! backoff-base-rounds = 1
//! backoff-cap-rounds = 8
//! backoff-jitter-rounds = 1
//! generations = 3       # rotated checkpoint generations per shard
//! checkpoint-every-rounds = 1
//! ```
//!
//! `banks` is a `u64` on purpose: a fleet of millions of banks is
//! expressed directly and divided over shards, each shard staying within
//! one simulation's 32-bit line space.

use std::str::FromStr;

use pcm_workloads::TenantMixSpec;
use scrub_core::{DemandTraffic, PolicyKind, SimConfig};

use crate::health::SupervisorConfig;

/// Parsed, validated fleet configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Total banks across the whole fleet.
    pub banks: u64,
    /// 64-byte lines per bank.
    pub lines_per_bank: u32,
    /// Number of shard simulations the fleet splits into.
    pub shards: u32,
    /// Master seed; every shard derives its own stream from it.
    pub seed: u64,
    /// Simulated horizon (seconds).
    pub horizon_s: f64,
    /// Telemetry roll-up / control-poll cadence (seconds).
    pub cadence_s: f64,
    /// Scrub mechanism every shard runs.
    pub policy: PolicyKind,
    /// Canonical `NAME@INTERVAL` form of `policy`, for status output.
    pub policy_spec: String,
    /// Worker threads for the shard fan-out (0 = auto).
    pub threads: usize,
    /// The open-loop tenant mix driving demand.
    pub tenants: TenantMixSpec,
    /// Self-healing knobs (`[supervisor]` section; defaults apply when
    /// the section is absent).
    pub supervisor: SupervisorConfig,
}

/// SplitMix64 finalizer: decorrelates per-shard seeds derived from the
/// fleet master seed, so adjacent shard ids never see adjacent RNG
/// streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FleetConfig {
    /// Banks assigned to each shard (`banks / shards`; division is exact,
    /// enforced at parse time).
    pub fn banks_per_shard(&self) -> u32 {
        (self.banks / self.shards as u64) as u32
    }

    /// Lines in one shard's memory.
    pub fn shard_lines(&self) -> u32 {
        self.banks_per_shard() * self.lines_per_bank
    }

    /// The seed shard `shard` simulates under. Depends only on
    /// `(fleet seed, shard id)`, so a drained shard resumed on another
    /// worker rebuilds the identical stream.
    pub fn shard_seed(&self, shard: u32) -> u64 {
        splitmix64(self.seed ^ (0xF1EE_7000 + shard as u64))
    }

    /// The [`SimConfig`] shard `shard` runs. Each shard carries the full
    /// tenant mix at `1/shards` rate, so fleet-aggregate demand matches
    /// the spec; shards parallelize across the pool, so each simulation
    /// runs its own sweeps inline (`threads = 1`).
    pub fn shard_config(&self, shard: u32) -> SimConfig {
        let mut b = SimConfig::builder();
        b.num_lines(self.shard_lines())
            .banks(self.banks_per_shard())
            .policy(self.policy.clone())
            .traffic(DemandTraffic::OpenLoop {
                spec: self.tenants.clone(),
                rate_scale: 1.0 / self.shards as f64,
            })
            .horizon_s(self.horizon_s)
            .seed(self.shard_seed(shard))
            .threads(1);
        b.build()
    }

    /// Resolved shard fan-out worker count.
    pub fn pool_threads(&self) -> usize {
        if self.threads == 0 {
            scrub_exec::default_threads()
        } else {
            self.threads
        }
    }

    /// Stable fingerprint over every field that changes simulation
    /// results. The write-ahead journal pins this so `--resume-fleet`
    /// under a different config is refused instead of silently producing
    /// a different fleet. Thread count is deliberately excluded — it
    /// never changes results.
    pub fn fingerprint(&self) -> u64 {
        let canon = format!(
            "banks={} lpb={} shards={} seed={} horizon={} cadence={} policy={} \
             tenants={:?} retries={} gens={} ckpt_every={}",
            self.banks,
            self.lines_per_bank,
            self.shards,
            self.seed,
            self.horizon_s,
            self.cadence_s,
            self.policy_spec,
            self.tenants,
            self.supervisor.max_retries,
            self.supervisor.generations,
            self.supervisor.checkpoint_every_rounds,
        );
        let mut fp = 0xCAFE_F00D_u64;
        for chunk in canon.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            fp = splitmix64(fp ^ u64::from_le_bytes(word));
        }
        fp
    }
}

/// Parses `NAME@INTERVAL_S` (or bare `none`) into a [`PolicyKind`],
/// using the evaluation's derived parameters (θ=4 under BCH-6, 64
/// regions, age filter at two-thirds of the sweep).
fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    if s == "none" {
        return Ok(PolicyKind::None);
    }
    let (name, interval) = s
        .split_once('@')
        .ok_or_else(|| format!("policy must be NAME@INTERVAL_S or \"none\", got {s:?}"))?;
    let interval_s: f64 = interval
        .parse()
        .map_err(|_| format!("policy interval {interval:?} is not a number"))?;
    if !interval_s.is_finite() || interval_s <= 0.0 {
        return Err(format!("policy interval must be positive, got {interval}"));
    }
    let theta = 4;
    match name {
        "basic" => Ok(PolicyKind::Basic { interval_s }),
        "threshold" => Ok(PolicyKind::Threshold { interval_s, theta }),
        "age-aware" => Ok(PolicyKind::AgeAware {
            interval_s,
            theta,
            min_age_s: interval_s * 2.0 / 3.0,
        }),
        "adaptive" => Ok(PolicyKind::Adaptive {
            interval_s,
            theta,
            regions: 64,
        }),
        "combined" => Ok(PolicyKind::combined_default(interval_s)),
        "profiled" => Ok(PolicyKind::profiled_default(interval_s)),
        other => Err(format!("unknown policy {other:?}")),
    }
}

/// The retired simulation-core selector: still validated so a typo is
/// reported, then ignored — there is one core.
fn check_engine(s: &str) -> Result<(), String> {
    match s {
        "stepped" | "event" => Ok(()),
        other => Err(format!("engine must be stepped|event, got {other:?}")),
    }
}

impl FromStr for FleetConfig {
    type Err = String;

    /// Parses and validates the INI text. Every rejection is a single
    /// line naming the offending key or line number.
    fn from_str(text: &str) -> Result<Self, String> {
        let mut section = String::new();
        let mut banks: Option<u64> = None;
        let mut lines_per_bank: u32 = 64;
        let mut shards: Option<u32> = None;
        let mut seed: u64 = 0;
        let mut horizon_s: Option<f64> = None;
        let mut cadence_s: Option<f64> = None;
        let mut policy_spec = "combined@900".to_string();
        let mut threads: usize = 0;
        let mut mix: Option<TenantMixSpec> = None;
        let mut supervisor = SupervisorConfig::default();

        for (lineno, raw) in text.lines().enumerate() {
            let line = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unterminated section header", lineno + 1))?;
                match name {
                    "fleet" | "tenants" | "supervisor" => section = name.to_string(),
                    other => return Err(format!("line {}: unknown section [{other}]", lineno + 1)),
                }
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                format!("line {}: expected key = value, got {line:?}", lineno + 1)
            })?;
            let (key, value) = (key.trim(), value.trim());
            let num = |what: &str| -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("{what} must be a number, got {value:?}"))
            };
            match (section.as_str(), key) {
                ("fleet", "banks") => {
                    banks =
                        Some(value.parse().map_err(|_| {
                            format!("banks must be a positive integer, got {value:?}")
                        })?)
                }
                ("fleet", "lines-per-bank") => {
                    lines_per_bank = value.parse().map_err(|_| {
                        format!("lines-per-bank must be a positive integer, got {value:?}")
                    })?
                }
                ("fleet", "shards") => {
                    shards =
                        Some(value.parse().map_err(|_| {
                            format!("shards must be a positive integer, got {value:?}")
                        })?)
                }
                ("fleet", "seed") => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("seed must be an integer, got {value:?}"))?
                }
                ("fleet", "horizon-s") => horizon_s = Some(num("horizon-s")?),
                ("fleet", "cadence-s") => cadence_s = Some(num("cadence-s")?),
                ("fleet", "policy") => policy_spec = value.to_string(),
                ("fleet", "engine") => check_engine(value)?,
                ("fleet", "threads") => {
                    threads = value
                        .parse()
                        .map_err(|_| format!("threads must be an integer, got {value:?}"))?
                }
                ("tenants", "mix") => mix = Some(value.parse::<TenantMixSpec>()?),
                ("supervisor", "max-retries") => {
                    supervisor.max_retries = value.parse().map_err(|_| {
                        format!("max-retries must be a non-negative integer, got {value:?}")
                    })?
                }
                ("supervisor", "backoff-base-rounds") => {
                    supervisor.backoff_base_rounds = value.parse().map_err(|_| {
                        format!("backoff-base-rounds must be a positive integer, got {value:?}")
                    })?
                }
                ("supervisor", "backoff-cap-rounds") => {
                    supervisor.backoff_cap_rounds = value.parse().map_err(|_| {
                        format!("backoff-cap-rounds must be a positive integer, got {value:?}")
                    })?
                }
                ("supervisor", "backoff-jitter-rounds") => {
                    supervisor.backoff_jitter_rounds = value.parse().map_err(|_| {
                        format!(
                            "backoff-jitter-rounds must be a non-negative integer, got {value:?}"
                        )
                    })?
                }
                ("supervisor", "generations") => {
                    supervisor.generations = value.parse().map_err(|_| {
                        format!("generations must be a positive integer, got {value:?}")
                    })?
                }
                ("supervisor", "checkpoint-every-rounds") => {
                    supervisor.checkpoint_every_rounds = value.parse().map_err(|_| {
                        format!("checkpoint-every-rounds must be a positive integer, got {value:?}")
                    })?
                }
                (_, key) => {
                    return Err(format!(
                        "line {}: unknown key {key:?} in section [{section}]",
                        lineno + 1
                    ))
                }
            }
        }

        let banks = banks.ok_or("missing [fleet] banks")?;
        let shards = shards.ok_or("missing [fleet] shards")?;
        let horizon_s = horizon_s.ok_or("missing [fleet] horizon-s")?;
        let cadence_s = cadence_s.ok_or("missing [fleet] cadence-s")?;
        let tenants = mix.ok_or("missing [tenants] mix")?;
        if banks == 0 {
            return Err("banks must be positive".to_string());
        }
        if shards == 0 {
            return Err("shards must be positive".to_string());
        }
        if lines_per_bank == 0 {
            return Err("lines-per-bank must be positive".to_string());
        }
        if banks % shards as u64 != 0 {
            return Err(format!(
                "banks ({banks}) must divide evenly into {shards} shards"
            ));
        }
        let per_shard = banks / shards as u64;
        if per_shard
            .checked_mul(lines_per_bank as u64)
            .is_none_or(|lines| lines > u32::MAX as u64)
        {
            return Err(format!(
                "shard too large: {per_shard} banks x {lines_per_bank} lines overflows the \
                 32-bit line space"
            ));
        }
        if !horizon_s.is_finite() || horizon_s <= 0.0 {
            return Err(format!("horizon-s must be positive, got {horizon_s}"));
        }
        if !cadence_s.is_finite() || cadence_s <= 0.0 {
            return Err(format!("cadence-s must be positive, got {cadence_s}"));
        }
        let policy = parse_policy(&policy_spec)?;
        if supervisor.generations == 0 {
            return Err("generations must be positive".to_string());
        }
        if supervisor.backoff_cap_rounds == 0 || supervisor.backoff_base_rounds == 0 {
            return Err("backoff rounds must be positive".to_string());
        }
        if supervisor.checkpoint_every_rounds == 0 {
            return Err("checkpoint-every-rounds must be positive".to_string());
        }
        Ok(FleetConfig {
            banks,
            lines_per_bank,
            shards,
            seed,
            horizon_s,
            cadence_s,
            policy,
            policy_spec,
            threads,
            tenants,
            supervisor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# tiny fleet
[fleet]
banks = 8
lines-per-bank = 32
shards = 4
seed = 7
horizon-s = 1200
cadence-s = 300
policy = combined@900
engine = event

[tenants]
mix = alpha:rate=40;beta:suite=kv-cache,scale=0.5
";

    #[test]
    fn parses_the_reference_config() {
        let c: FleetConfig = GOOD.parse().expect("parses");
        assert_eq!(c.banks, 8);
        assert_eq!(c.shards, 4);
        assert_eq!(c.banks_per_shard(), 2);
        assert_eq!(c.shard_lines(), 64);
        assert_eq!(c.tenants.tenants.len(), 2);
        assert_eq!(c.policy, PolicyKind::combined_default(900.0));
    }

    #[test]
    fn shard_configs_differ_only_by_seed() {
        let c: FleetConfig = GOOD.parse().expect("parses");
        let a = c.shard_config(0);
        let b = c.shard_config(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.horizon_s, b.horizon_s);
        // Rate is split evenly across shards.
        match &a.traffic {
            DemandTraffic::OpenLoop { rate_scale, .. } => {
                assert!((rate_scale - 0.25).abs() < 1e-12)
            }
            other => panic!("expected open-loop traffic, got {other:?}"),
        }
    }

    #[test]
    fn shard_seeds_are_stable_and_distinct() {
        let c: FleetConfig = GOOD.parse().expect("parses");
        assert_eq!(c.shard_seed(3), c.shard_seed(3));
        let seeds: std::collections::HashSet<_> = (0..4).map(|s| c.shard_seed(s)).collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn rejects_malformed_configs() {
        let cases: Vec<(String, &str)> = vec![
            ("".to_string(), "missing [fleet] banks"),
            (GOOD.replace("banks = 8", "banks = 9"), "divide evenly"),
            (
                GOOD.replace("shards = 4", "shards = 0"),
                "shards must be positive",
            ),
            (
                GOOD.replace("banks = 8", "banks = nope"),
                "positive integer",
            ),
            (
                GOOD.replace("horizon-s = 1200", "horizon-s = -1"),
                "horizon-s must be positive",
            ),
            (
                GOOD.replace("cadence-s = 300", "cadence-s = nan"),
                "cadence-s must be positive",
            ),
            (
                GOOD.replace("policy = combined@900", "policy = warp@900"),
                "unknown policy",
            ),
            (
                GOOD.replace("policy = combined@900", "policy = basic"),
                "NAME@INTERVAL_S",
            ),
            (
                GOOD.replace("engine = event", "engine = quantum"),
                "stepped|event",
            ),
            (GOOD.replace("[tenants]", "[folks]"), "unknown section"),
            (
                GOOD.replace("mix = alpha:rate=40;", "mix = alpha:rate=0;"),
                "rate",
            ),
            (GOOD.replace("seed = 7", "seed ~ 7"), "key = value"),
            (GOOD.replace("seed = 7", "speed = 7"), "unknown key"),
            (
                GOOD.replace("mix = alpha:rate=40;beta:suite=kv-cache,scale=0.5", ""),
                "missing [tenants] mix",
            ),
        ];
        for (text, needle) in cases {
            let err = text.parse::<FleetConfig>().expect_err(&format!(
                "config should be rejected (wanted error with {needle:?})"
            ));
            assert!(
                err.contains(needle),
                "error {err:?} does not mention {needle:?}"
            );
        }
    }

    #[test]
    fn supervisor_section_defaults_and_overrides() {
        let c: FleetConfig = GOOD.parse().expect("parses");
        assert_eq!(c.supervisor, SupervisorConfig::default());

        let text = format!(
            "{GOOD}\n[supervisor]\nmax-retries = 1\ngenerations = 5\n\
             backoff-cap-rounds = 2\ncheckpoint-every-rounds = 2\n"
        );
        let c: FleetConfig = text.parse().expect("parses");
        assert_eq!(c.supervisor.max_retries, 1);
        assert_eq!(c.supervisor.generations, 5);
        assert_eq!(c.supervisor.backoff_cap_rounds, 2);
        assert_eq!(c.supervisor.checkpoint_every_rounds, 2);

        for (bad, needle) in [
            ("generations = 0", "generations must be positive"),
            ("backoff-base-rounds = 0", "backoff rounds"),
            ("checkpoint-every-rounds = 0", "checkpoint-every-rounds"),
            ("max-retries = lots", "non-negative integer"),
        ] {
            let text = format!("{GOOD}\n[supervisor]\n{bad}\n");
            let err = text.parse::<FleetConfig>().expect_err(bad);
            assert!(err.contains(needle), "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn fingerprint_tracks_result_affecting_fields_only() {
        let c: FleetConfig = GOOD.parse().expect("parses");
        assert_eq!(c.fingerprint(), c.fingerprint());

        let reseeded: FleetConfig = GOOD
            .replace("seed = 7", "seed = 8")
            .parse()
            .expect("parses");
        assert_ne!(c.fingerprint(), reseeded.fingerprint());

        let rethreaded: FleetConfig = GOOD
            .replace("engine = event", "engine = event\nthreads = 3")
            .parse()
            .expect("parses");
        assert_eq!(
            c.fingerprint(),
            rethreaded.fingerprint(),
            "thread count never changes results, so it must not change the fingerprint"
        );

        let stepped: FleetConfig = GOOD
            .replace("engine = event", "engine = stepped")
            .parse()
            .expect("parses");
        assert_eq!(
            c.fingerprint(),
            stepped.fingerprint(),
            "the ignored engine key never changes results, so it must not change the fingerprint"
        );
    }

    #[test]
    fn rejects_oversized_shards() {
        let text = GOOD
            .replace("banks = 8", "banks = 67108864")
            .replace("shards = 4", "shards = 1")
            .replace("lines-per-bank = 32", "lines-per-bank = 65536");
        let err = text.parse::<FleetConfig>().expect_err("overflow rejected");
        assert!(err.contains("32-bit line space"), "{err}");
    }

    #[test]
    fn policy_spec_round_trips_names() {
        for spec in [
            "none",
            "basic@600",
            "threshold@900",
            "age-aware@900",
            "adaptive@450",
            "profiled@900",
        ] {
            let text = GOOD.replace("policy = combined@900", &format!("policy = {spec}"));
            let c: FleetConfig = text.parse().expect("parses");
            assert_eq!(c.policy_spec, spec);
        }
    }
}
