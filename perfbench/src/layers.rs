//! Per-layer probes: timed direct calls into one layer's public
//! functions, and the trace wrapper that times the workload generator.
//! Only traced runs use them.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pcm_ecc::CodeSpec;
use pcm_memsim::{LineAddr, MemGeometry, MemOp, Memory, SimTime, TraceSource};
use pcm_model::DeviceConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scrub_core::{SimConfig, Simulation};

use crate::stats::{median, metric, rss_bytes, Kind, Metric};

/// What `Simulation` adds to its seed to seed the trace generator it
/// builds from the config (`crates/core/src/sim.rs`, for both suite and
/// tenant-mix traffic). The benchmark builds the same trace itself; its
/// checks compare the result with `Simulation::new`'s.
pub const TRACE_SEED_OFFSET: u64 = 0x9E37_79B9;

/// Calls and nanoseconds spent in a trace's `next_op`, shared between
/// the wrapper (owned by the simulation) and the benchmark.
#[derive(Debug, Default)]
pub struct TraceClock {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl TraceClock {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// A [`TraceSource`] that times every `next_op` of the source it wraps
/// and otherwise forwards everything, so reports and checkpoints are
/// the same as with the bare source.
#[derive(Debug)]
pub struct TimedTrace {
    inner: Box<dyn TraceSource>,
    clock: Arc<TraceClock>,
}

impl TimedTrace {
    pub fn new(inner: Box<dyn TraceSource>, clock: Arc<TraceClock>) -> Self {
        Self { inner, clock }
    }
}

impl TraceSource for TimedTrace {
    fn next_op(&mut self) -> Option<MemOp> {
        let start = Instant::now();
        let op = self.inner.next_op();
        let ns = start.elapsed().as_nanos() as u64;
        // Statistics only; nothing else is published through them.
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        self.clock.ns.fetch_add(ns, Ordering::Relaxed);
        op
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.load_state(bytes)
    }

    fn tenant_ops(&self) -> Option<Vec<(String, u64, u64)>> {
        self.inner.tenant_ops()
    }
}

/// Calls per timed loop of a direct-call probe.
const CALLS: u32 = 1 << 16;

/// Repeats of each timed loop; the median is reported.
const REPEATS: usize = 5;

fn per_call_ns(mut body: impl FnMut(u32)) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..CALLS {
                body(i);
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&samples)
}

fn memory(config: &SimConfig) -> Memory {
    Memory::new(
        config.geometry,
        config.device.clone(),
        config.code.clone(),
        config.seed,
    )
}

/// `memsim.bytes_per_line`: how much the resident set grows while a
/// `Memory` built like the workload's is created, per line. Meant for a
/// fresh process, whose allocator has no freed memory to hand back; the
/// shared drift-model tables are built first and left out.
pub fn memsim_bytes_per_line(config: &SimConfig) -> Option<f64> {
    drop(config.device.drift_model_shared());
    let before = rss_bytes()?;
    let mem = black_box(memory(config));
    let grown = rss_bytes()? - before;
    drop(mem);
    Some(grown / config.geometry.num_lines() as f64)
}

/// `memsim`: the cost of each access kind, timed on a fresh `Memory`
/// built like the workload's. Probes and write-backs go to lines aged one
/// sweep interval, as a scrub pass finds them.
pub fn memsim(config: &SimConfig, interval_s: f64) -> Vec<Metric> {
    let geometry: MemGeometry = config.geometry;
    let lines = geometry.num_lines();
    let mut mem = memory(config);
    let demand_lines = mem.demand_lines();
    let mut clock = interval_s;
    let mut next_time = || {
        clock += 1e-3;
        SimTime::from_secs(clock)
    };
    let probe = per_call_ns(|i| {
        black_box(mem.scrub_probe(LineAddr(i % lines), next_time()));
    });
    let writeback = per_call_ns(|i| mem.scrub_writeback(LineAddr(i % lines), next_time()));
    let read = per_call_ns(|i| {
        black_box(mem.demand_read(LineAddr(i % demand_lines), next_time()));
    });
    let write = per_call_ns(|i| mem.demand_write(LineAddr(i % demand_lines), next_time()));
    vec![
        metric("memsim.scrub_probe.ns", probe, "ns", Kind::Host),
        metric("memsim.scrub_writeback.ns", writeback, "ns", Kind::Host),
        metric("memsim.demand_read.ns", read, "ns", Kind::Host),
        metric("memsim.demand_write.ns", write, "ns", Kind::Host),
    ]
}

/// `pcm`: an uncached drift-model build (the LUT quadrature every process
/// pays once) and the fused per-read probability lookup.
pub fn pcm(device: &DeviceConfig, max_age_s: f64) -> Vec<Metric> {
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(device.drift_model());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let model = device.drift_model_shared();
    let mut up = [0.0f64; pcm_memsim::MAX_LEVELS];
    let mut tr = [0.0f64; pcm_memsim::MAX_LEVELS];
    let step = max_age_s / CALLS as f64;
    let lookup = per_call_ns(|i| {
        model.p_read_levels(black_box(1.0 + step * i as f64), &mut up, &mut tr);
        black_box((&up, &tr));
    });
    vec![
        metric(
            "pcm.drift_model_build_ms",
            median(&builds),
            "ms",
            Kind::Host,
        ),
        metric("pcm.p_read_levels.ns", lookup, "ns", Kind::Host),
    ]
}

/// `ecc`: classify cost over the resident error counts a run left in its
/// lines (lines without errors excluded, as a decoder's early exit skips
/// them). Falls back to one error per line when the run left none.
pub fn ecc_classify_ns(code: &CodeSpec, sims: &[&Simulation]) -> f64 {
    let mut errors: Vec<u32> = sims
        .iter()
        .flat_map(|sim| {
            let mem = sim.memory();
            mem.geometry()
                .iter_lines()
                .map(|a| mem.line(a).persistent_bit_errors())
        })
        .filter(|&e| e > 0)
        .collect();
    if errors.is_empty() {
        errors.push(1);
    }
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let n = errors.len() as u32;
    per_call_ns(|i| {
        black_box(code.classify(errors[(i % n) as usize], &mut rng));
    })
}

/// `checkpoint`: median save and restore time of `sim`, and its size per
/// line.
///
/// # Errors
///
/// Any checkpoint or resume error, as text.
pub fn checkpoint(sim: &mut Simulation, config: &SimConfig) -> Result<Vec<Metric>, String> {
    let mut saves = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        bytes = sim.checkpoint().map_err(|e| e.to_string())?;
        saves.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let mut restores = Vec::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        let resumed = Simulation::resume(config.clone(), &bytes).map_err(|e| e.to_string())?;
        restores.push(start.elapsed().as_secs_f64() * 1e3);
        drop(black_box(resumed));
    }
    let per_line = bytes.len() as f64 / config.geometry.num_lines() as f64;
    Ok(vec![
        metric("checkpoint.save_ms", median(&saves), "ms", Kind::Host),
        metric("checkpoint.restore_ms", median(&restores), "ms", Kind::Host),
        metric("checkpoint.bytes_per_line", per_line, "B", Kind::Host),
    ])
}
