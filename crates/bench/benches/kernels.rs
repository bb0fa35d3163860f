//! Sampling kernel pin: the three write-path kernels that sample through
//! precomputed tables and the read path's squeeze-first binomials, each
//! against an in-process reference that draws the same uniforms the way
//! the simulator did before, with a speed gate and a machine-readable
//! record.
//!
//! Kernels and references:
//!
//! * `on_write` — [`FaultEngine::on_write`] (wear-failure table plus the
//!   occupancy walk tables) against the same write evaluated with two
//!   endurance-CDF calls and the occupancy walks
//!   ([`PrecomputedMultinomial::sample_into_by_walk`]).
//! * `occupancy_288` — one 288-cell, four-level occupancy re-roll through
//!   the walk tables against the walks alone.
//! * `secded_classify_3` — [`CodeSpec::classify`] of three errors on
//!   SECDED 8×(72,64) (stack counts, inline position list) against the
//!   same placement through a heap `Vec` and `HashSet`.
//! * `read_288` — [`FaultEngine::advance_and_transient`] on a 288-cell
//!   line read one 900 s scrub interval after its write, whose per-level
//!   binomials settle the zero outcome with a squeeze before computing
//!   `qⁿ`, against the same read with every small-mean lane's `qⁿ`
//!   computed up front by a batched exponentiation.
//!
//! Each pair is first checked to produce identical outcomes and an
//! identical generator state over the timed call sequence, then timed
//! best of `GATE_REPS`; the gate asserts every fast path is at least
//! `KERNEL_SPEEDUP_FLOOR` × faster than its reference. A ratio to a
//! reference in the same process does not depend on host speed. Criterion
//! microbenches of the same pairs run first.
//!
//! The measurements land in `BENCH_kernels.json` at the workspace root.
//!
//! Run with: `cargo bench -p scrub-bench --bench kernels`

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use pcm_ecc::{ClassifyOutcome, CodeSpec, CorrectionSemantics};
use pcm_memsim::{FaultEngine, LineState, SimTime, MAX_LEVELS};
use pcm_model::math::{sample_binomial, PrecomputedMultinomial};
use pcm_model::{DeviceConfig, DriftModel, EnduranceSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every fast path must beat its reference by at least this factor
/// (best of `GATE_REPS`).
const KERNEL_SPEEDUP_FLOOR: f64 = 1.5;

/// Timed repetitions per path; the minimum is kept.
const GATE_REPS: usize = 3;

/// Calls per timed repetition.
const CALLS: usize = 200_000;

/// Lines the `on_write` kernels cycle through, so wear stays within the
/// wear-failure table as it does in a simulation (a few dozen writes per
/// line per run).
const LINES: usize = 4096;

/// Cells per line of the default device under SECDED (576 bits, two per
/// cell).
const CELLS: u32 = 288;

const SEED: u64 = 17;

/// The write path without tables: two endurance-CDF evaluations for the
/// wear-failure step and the occupancy walks, with every draw in
/// [`FaultEngine::on_write`]'s order.
struct ReferenceWrite {
    endurance: EnduranceSpec,
    occupancy: std::sync::Arc<PrecomputedMultinomial>,
    conflict_prob: f64,
}

impl ReferenceWrite {
    fn new(device: &DeviceConfig, engine: &FaultEngine) -> Self {
        let levels = device.stack().num_levels();
        Self {
            endurance: *device.endurance(),
            occupancy: engine.occupancy_tables().clone(),
            conflict_prob: 1.0 - 1.0 / levels as f64,
        }
    }

    fn on_write(&self, line: &mut LineState, now: SimTime, rng: &mut StdRng) {
        let w1 = line.wear;
        line.wear = line.wear.saturating_add(1);
        let susceptible = CELLS - line.worn_cells as u32;
        if susceptible > 0 {
            let f1 = self.endurance.fail_cdf(w1 as u64);
            let f2 = self.endurance.fail_cdf(line.wear as u64);
            let dp = if f1 >= 1.0 {
                1.0
            } else {
                ((f2 - f1) / (1.0 - f1)).clamp(0.0, 1.0)
            };
            line.worn_cells += sample_binomial(rng, susceptible, dp) as u16;
        }
        let live = CELLS - line.worn_cells as u32;
        let mut counts = [0u32; 4];
        self.occupancy
            .sample_into_by_walk(rng, live, &mut counts[..self.occupancy.len()]);
        for (o, &c) in line.occupancy.iter_mut().zip(&counts) {
            *o = c as u16;
        }
        line.drift_failed = [0; 4];
        line.last_write = now;
        line.last_eval = now;
        line.ue_recorded = false;
        let unpatched = (line.worn_cells - line.ecp_assigned) as u32;
        let conflicts = sample_binomial(rng, unpatched, self.conflict_prob);
        let double_bit = sample_binomial(rng, conflicts, 1.0 / 3.0);
        line.worn_conflict_bits = (conflicts + double_bit) as u16;
    }
}

/// SECDED classification with the error placement through a heap `Vec`
/// of counts and a `HashSet` of positions, drawing exactly as
/// [`CodeSpec::classify`] does.
fn reference_classify(code: &CodeSpec, errors: u32, rng: &mut StdRng) -> ClassifyOutcome {
    let CorrectionSemantics::PerWord { words, word_bits } = code.semantics() else {
        panic!("reference classify covers per-word codes");
    };
    let total = (words * word_bits) as usize;
    let e = (errors as usize).min(total);
    let mut counts = vec![0u32; words as usize];
    let mut chosen = HashSet::with_capacity(e);
    while chosen.len() < e {
        let pos = rng.gen_range(0..total);
        if chosen.insert(pos) {
            counts[pos / word_bits as usize] += 1;
        }
    }
    let mut detected = false;
    let mut corrected = 0;
    for &c in &counts {
        match c {
            0 => {}
            1 => corrected += 1,
            2 => detected = true,
            n if n % 2 == 1 => {
                if rng.gen::<f64>() < code.alias_prob() {
                    return ClassifyOutcome::Miscorrected;
                }
                detected = true;
            }
            _ => detected = true,
        }
    }
    if detected {
        ClassifyOutcome::DetectedUncorrectable
    } else {
        ClassifyOutcome::Corrected { bits: corrected }
    }
}

/// Mean above which `sample_binomial` walks from the mode, and the
/// largest `n` it does so for.
const MODE_CUTOFF: f64 = 10.0;
const MODE_MAX_N: u32 = 4096;

/// Up to four binomial draws the way the read path drew them before its
/// zero squeeze: every bottom-walk lane's `qⁿ` prefactor computed by one
/// four-lane exponentiation before any uniform is drawn, then each lane
/// inverted in order (mode-walk and degenerate lanes by
/// [`sample_binomial`] itself). Draw-identical to four sequential
/// [`sample_binomial`] calls.
fn prefactor_binomial4(rng: &mut StdRng, ns: [u32; 4], ps: [f64; 4]) -> [u32; 4] {
    let tail = |p: f64| {
        if p <= 0.5 {
            (p, false)
        } else {
            (1.0 - p, true)
        }
    };
    let mut qs = [1.0f64; 4];
    let mut es = [0u32; 4];
    let mut bottom = [false; 4];
    for l in 0..4 {
        let (n, p) = (ns[l], ps[l]);
        if n == 0 || p <= 0.0 || p >= 1.0 {
            continue;
        }
        let (p, _) = tail(p);
        let q = 1.0 - p;
        if q != 1.0 && (n as f64 * p < MODE_CUTOFF || n > MODE_MAX_N) {
            bottom[l] = true;
            qs[l] = q;
            es[l] = n;
        }
    }
    // Branchless four-lane binary exponentiation, each lane in the
    // sampler's multiply order.
    let mut pmf0s = [1.0f64; 4];
    while es.iter().any(|&e| e > 0) {
        for l in 0..4 {
            pmf0s[l] *= if es[l] & 1 == 1 { qs[l] } else { 1.0 };
            qs[l] *= qs[l];
            es[l] /= 2;
        }
    }
    let mut out = [0u32; 4];
    for l in 0..4 {
        if !bottom[l] {
            out[l] = sample_binomial(rng, ns[l], ps[l]);
            continue;
        }
        let (n, (p, flip)) = (ns[l], tail(ps[l]));
        let r = p / (1.0 - p);
        let mut u: f64 = rng.gen();
        let (mut k, mut pmf) = (0u32, pmf0s[l]);
        while k < n && u >= pmf {
            u -= pmf;
            k += 1;
            pmf *= r * (n - k + 1) as f64 / k as f64;
        }
        out[l] = if flip { n - k } else { k };
    }
    out
}

/// [`FaultEngine::advance_and_transient`] with its per-level binomials
/// drawn by [`prefactor_binomial4`]: drift increments first, then the
/// transient draw, in the engine's order.
struct ReferenceRead {
    model: std::sync::Arc<DriftModel>,
    levels: usize,
}

impl ReferenceRead {
    fn new(device: &DeviceConfig) -> Self {
        Self {
            model: device.drift_model_shared(),
            levels: device.stack().num_levels(),
        }
    }

    fn advance_and_transient(
        &self,
        line: &mut LineState,
        now: SimTime,
        rng: &mut StdRng,
    ) -> (u32, u32) {
        let levels = self.levels;
        let mut p2s = [0.0f64; MAX_LEVELS];
        let mut trs = [0.0f64; MAX_LEVELS];
        self.model
            .p_read_levels(line.age_at(now), &mut p2s[..levels], &mut trs[..levels]);
        if now > line.last_eval {
            let mut p1s = [0.0f64; MAX_LEVELS];
            self.model
                .p_up_levels(line.last_eval.since(line.last_write), &mut p1s[..levels]);
            let mut ns = [0u32; MAX_LEVELS];
            let mut dps = [0.0f64; MAX_LEVELS];
            for lv in 0..levels {
                let alive = line.occupancy[lv] - line.drift_failed[lv];
                let (p1, p2) = (p1s[lv], p2s[lv]);
                if alive == 0 || p2 <= p1 {
                    continue;
                }
                ns[lv] = alive as u32;
                dps[lv] = if p1 >= 1.0 {
                    0.0
                } else {
                    ((p2 - p1) / (1.0 - p1)).clamp(0.0, 1.0)
                };
            }
            let ks = prefactor_binomial4(rng, ns, dps);
            for (failed, &k) in line.drift_failed.iter_mut().zip(&ks) {
                *failed += k as u16;
            }
            line.last_eval = now;
        }
        let mut ns = [0u32; MAX_LEVELS];
        for (lv, n) in ns.iter_mut().enumerate().take(levels) {
            *n = (line.occupancy[lv] - line.drift_failed[lv]) as u32;
        }
        let ks = prefactor_binomial4(rng, ns, trs);
        (line.persistent_bit_errors(), ks.iter().sum())
    }
}

/// A fingerprint of every outcome of a run plus the final generator state.
type Run = (u64, [u64; 4]);

/// One kernel under test: each path runs the given number of calls from a
/// fixed seed.
struct Kernel {
    name: &'static str,
    fast: Box<dyn FnMut(usize) -> Run>,
    reference: Box<dyn FnMut(usize) -> Run>,
}

fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x0100_0000_01b3)
}

fn fresh_lines(engine: &FaultEngine) -> Vec<LineState> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (0..LINES)
        .map(|_| engine.fresh_line(SimTime::ZERO, &mut rng))
        .collect()
}

/// Runs `calls` writes, cycling through the lines; folds every resulting
/// line state into the fingerprint.
fn write_run(
    calls: usize,
    lines: &[LineState],
    mut write: impl FnMut(&mut LineState, SimTime, &mut StdRng),
) -> Run {
    let mut lines = lines[..calls.min(LINES)].to_vec();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut acc = 0u64;
    for i in 0..calls {
        let line = &mut lines[i % LINES];
        write(line, SimTime::from_secs(i as f64), &mut rng);
        acc = fold(acc, line.wear as u64);
        acc = fold(acc, line.worn_cells as u64);
        acc = fold(acc, line.worn_conflict_bits as u64);
        for &o in &line.occupancy {
            acc = fold(acc, o as u64);
        }
    }
    (acc, rng.state())
}

/// Age of every read in the `read_288` kernel: one scrub interval.
const READ_AGE_S: f64 = 900.0;

/// Runs `calls` reads, cycling through the lines; each reads a copy of its
/// freshly written line `READ_AGE_S` later, so every read is the same
/// one-interval-old probe. Folds the error counts and the advanced drift
/// state into the fingerprint.
fn read_run(
    calls: usize,
    lines: &[LineState],
    mut read: impl FnMut(&mut LineState, SimTime, &mut StdRng) -> (u32, u32),
) -> Run {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut acc = 0u64;
    let now = SimTime::from_secs(READ_AGE_S);
    for i in 0..calls {
        let mut line = lines[i % LINES];
        let (persistent, transient) = read(&mut line, now, &mut rng);
        acc = fold(acc, persistent as u64);
        acc = fold(acc, transient as u64);
        for &f in &line.drift_failed {
            acc = fold(acc, f as u64);
        }
    }
    (acc, rng.state())
}

fn occupancy_run(calls: usize, sample: impl Fn(&mut StdRng, &mut [u32])) -> Run {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut acc = 0u64;
    let mut out = [0u32; 4];
    for _ in 0..calls {
        sample(&mut rng, &mut out);
        for &k in &out {
            acc = fold(acc, k as u64);
        }
    }
    (acc, rng.state())
}

fn classify_run(calls: usize, classify: impl Fn(&mut StdRng) -> ClassifyOutcome) -> Run {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut acc = 0u64;
    for _ in 0..calls {
        let code = match classify(&mut rng) {
            ClassifyOutcome::Clean => 0,
            ClassifyOutcome::Corrected { bits } => 1 + bits as u64,
            ClassifyOutcome::DetectedUncorrectable => 1000,
            ClassifyOutcome::Miscorrected => 2000,
        };
        acc = fold(acc, code);
    }
    (acc, rng.state())
}

fn kernels() -> Vec<Kernel> {
    let device = DeviceConfig::default();
    let engine = FaultEngine::new(&device, CELLS);
    let reference = ReferenceWrite::new(&device, &engine);
    let lines = fresh_lines(&engine);
    let occupancy = engine.occupancy_tables().clone();
    let occupancy_ref = occupancy.clone();
    let secded = CodeSpec::secded_line();
    let secded_ref = secded.clone();
    let lines_ref = lines.clone();
    let read_engine = engine.clone();
    let read_ref = ReferenceRead::new(&device);
    let read_lines = lines.clone();
    let read_lines_ref = lines.clone();
    vec![
        Kernel {
            name: "on_write",
            fast: Box::new(move |calls| {
                write_run(calls, &lines, |l, t, r| engine.on_write(l, t, r))
            }),
            reference: Box::new(move |calls| {
                write_run(calls, &lines_ref, |l, t, r| reference.on_write(l, t, r))
            }),
        },
        Kernel {
            name: "occupancy_288",
            fast: Box::new(move |calls| {
                occupancy_run(calls, |r, out| occupancy.sample_into(r, CELLS, out))
            }),
            reference: Box::new(move |calls| {
                occupancy_run(calls, |r, out| {
                    occupancy_ref.sample_into_by_walk(r, CELLS, out)
                })
            }),
        },
        Kernel {
            name: "secded_classify_3",
            fast: Box::new(move |calls| classify_run(calls, |r| secded.classify(3, r))),
            reference: Box::new(move |calls| {
                classify_run(calls, |r| reference_classify(&secded_ref, 3, r))
            }),
        },
        Kernel {
            name: "read_288",
            fast: Box::new(move |calls| {
                read_run(calls, &read_lines, |l, t, r| {
                    read_engine.advance_and_transient(l, t, r)
                })
            }),
            reference: Box::new(move |calls| {
                read_run(calls, &read_lines_ref, |l, t, r| {
                    read_ref.advance_and_transient(l, t, r)
                })
            }),
        },
    ]
}

/// Calls per criterion iteration.
const MICRO_CALLS: usize = 1000;

fn bench_kernels_micro(c: &mut Criterion) {
    for mut k in kernels() {
        c.bench_function(&format!("{}_x{MICRO_CALLS}_fast", k.name), |b| {
            b.iter(|| black_box((k.fast)(MICRO_CALLS)))
        });
        c.bench_function(&format!("{}_x{MICRO_CALLS}_reference", k.name), |b| {
            b.iter(|| black_box((k.reference)(MICRO_CALLS)))
        });
    }
}

/// Best-of-`GATE_REPS` nanoseconds per call of `run` over `CALLS` calls.
fn best_ns(run: &mut dyn FnMut(usize) -> Run) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..GATE_REPS {
        let start = Instant::now();
        black_box(run(CALLS));
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / CALLS as f64
}

/// `cargo bench` runs the binary with the package directory as cwd; the
/// BENCH records live at the workspace root, two levels up.
fn workspace_path(name: &str) -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap_or(manifest).join(name)
}

fn gate_and_record() {
    let mut entries = Vec::new();
    let mut failures = Vec::new();
    for mut k in kernels() {
        assert_eq!(
            (k.fast)(CALLS),
            (k.reference)(CALLS),
            "{}: fast path and reference disagree",
            k.name
        );
        let fast_ns = best_ns(&mut k.fast);
        let reference_ns = best_ns(&mut k.reference);
        let speedup = reference_ns / fast_ns;
        println!(
            "[kernels] {}: fast {fast_ns:.1} ns/call, reference \
             {reference_ns:.1} ns/call ({speedup:.2}x); outcomes identical",
            k.name
        );
        if speedup < KERNEL_SPEEDUP_FLOOR {
            failures.push(format!("{} {speedup:.2}x", k.name));
        }
        entries.push(format!(
            "    \"{}\": {{\n      \"fast_ns\": {fast_ns},\n      \
             \"reference_ns\": {reference_ns},\n      \"speedup\": {speedup}\n    }}",
            k.name
        ));
    }
    let record = format!(
        "{{\n  \"experiment\": \"kernels\",\n  \"threads\": 1,\n  \
         \"calls\": {CALLS},\n  \"reps\": {GATE_REPS},\n  \
         \"speedup_floor\": {KERNEL_SPEEDUP_FLOOR},\n  \"kernels\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write(workspace_path("BENCH_kernels.json"), &record) {
        Ok(()) => eprintln!("[kernels] record: BENCH_kernels.json"),
        Err(e) => eprintln!("[kernels] could not write record: {e}"),
    }
    assert!(
        failures.is_empty(),
        "kernels below the {KERNEL_SPEEDUP_FLOOR}x floor: {}",
        failures.join(", ")
    );
}

criterion_group!(benches, bench_kernels_micro);

fn main() {
    benches();
    gate_and_record();
}
