//! Criterion microbenchmarks of the performance-critical substrates:
//! GF arithmetic, BCH encode/decode, drift-model evaluation, the fault
//! engine and its write path, and end-to-end simulation stepping.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pcm_ecc::{BchCode, BitBuf, CodeSpec, GfTable, LineCode, SecdedLine};
use pcm_memsim::{FaultEngine, LineAddr, MemGeometry, Memory, SimTime};
use pcm_model::DeviceConfig;
use pcm_workloads::WorkloadId;
use scrub_core::{BasicScrub, CombinedScrub, ScrubEngine};

fn bench_gf_arith(c: &mut Criterion) {
    let gf = GfTable::new(10);
    c.bench_function("gf1024_mul_chain_1k", |b| {
        b.iter(|| {
            let mut acc = 1u16;
            for i in 1..1024u16 {
                acc = gf.mul(acc, i) ^ gf.inv(i);
            }
            std::hint::black_box(acc)
        })
    });
}

fn random_data(rng: &mut StdRng, bits: usize) -> BitBuf {
    let mut b = BitBuf::zeros(bits);
    for i in 0..bits {
        if rng.gen::<bool>() {
            b.set(i, true);
        }
    }
    b
}

fn bench_bch_codec(c: &mut Criterion) {
    let code = BchCode::new(10, 4, 512);
    let mut rng = StdRng::seed_from_u64(1);
    let data = random_data(&mut rng, 512);
    let clean = code.encode(&data);
    c.bench_function("bch4_encode_512b", |b| {
        b.iter(|| std::hint::black_box(code.encode(&data)))
    });
    c.bench_function("bch4_decode_clean", |b| {
        b.iter_batched(
            || clean.clone(),
            |mut cw| std::hint::black_box(code.decode(&mut cw)),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("bch4_decode_4_errors", |b| {
        b.iter_batched(
            || {
                let mut cw = clean.clone();
                for pos in [3usize, 100, 333, 490] {
                    cw.flip(pos);
                }
                cw
            },
            |mut cw| std::hint::black_box(code.decode(&mut cw)),
            BatchSize::SmallInput,
        )
    });
    let secded = SecdedLine::new();
    let sd_clean = secded.encode(&data);
    c.bench_function("secded_line_decode_clean", |b| {
        b.iter_batched(
            || sd_clean.clone(),
            |mut cw| std::hint::black_box(secded.decode(&mut cw)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_drift_eval(c: &mut Criterion) {
    let model = DeviceConfig::default().drift_model();
    c.bench_function("drift_p_up_lut", |b| {
        let mut t = 1.0f64;
        b.iter(|| {
            t = if t > 1e9 { 1.0 } else { t * 1.001 };
            std::hint::black_box(model.p_up(2, t))
        })
    });
    c.bench_function("drift_p_up_exact_quadrature", |b| {
        b.iter(|| std::hint::black_box(model.p_up_exact(2, 86_400.0)))
    });
}

fn bench_fault_engine(c: &mut Criterion) {
    let engine = FaultEngine::new(&DeviceConfig::default(), 288);
    c.bench_function("fault_engine_advance_1h", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter_batched(
            || engine.fresh_line(SimTime::ZERO, &mut rng),
            |mut line| {
                let mut r = StdRng::seed_from_u64(3);
                std::hint::black_box(engine.advance(&mut line, SimTime::from_secs(3600.0), &mut r))
            },
            BatchSize::SmallInput,
        )
    });
    // One scrub probe's read: a line written at 0 read one 900 s interval
    // later (the `kernels` bench gates it as `read_288`).
    c.bench_function("fault_engine_read_aged_900s", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let lines: Vec<_> = (0..4096)
            .map(|_| engine.fresh_line(SimTime::ZERO, &mut rng))
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let mut line = lines[i % 4096];
            std::hint::black_box(engine.advance_and_transient(
                &mut line,
                SimTime::from_secs(900.0),
                &mut rng,
            ))
        })
    });
}

/// The write path's three table-driven kernels, one call per iteration
/// (the `kernels` bench gates them against their references).
fn bench_write_path(c: &mut Criterion) {
    let engine = FaultEngine::new(&DeviceConfig::default(), 288);
    c.bench_function("fault_engine_on_write", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let mut lines: Vec<_> = (0..4096)
            .map(|_| engine.fresh_line(SimTime::ZERO, &mut rng))
            .collect();
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let line = &mut lines[i % 4096];
            engine.on_write(line, SimTime::from_secs(i as f64), &mut rng);
            std::hint::black_box(line.occupancy)
        })
    });
    c.bench_function("occupancy_reroll_288", |b| {
        let tables = engine.occupancy_tables();
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = [0u32; 4];
        b.iter(|| {
            tables.sample_into(&mut rng, 288, &mut out);
            std::hint::black_box(out)
        })
    });
    let secded = CodeSpec::secded_line();
    c.bench_function("secded_classify_3_errors", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        b.iter(|| std::hint::black_box(secded.classify(3, &mut rng)))
    });
}

fn bench_sim_throughput(c: &mut Criterion) {
    c.bench_function("scrub_sweep_4k_lines_basic", |b| {
        b.iter_batched(
            || {
                let mem = Memory::new(
                    MemGeometry::new(4096, 8),
                    DeviceConfig::default(),
                    CodeSpec::secded_line(),
                    4,
                );
                let engine = ScrubEngine::new(Box::new(BasicScrub::new(4096.0, 4096)));
                (mem, engine)
            },
            |(mut mem, mut engine)| {
                for _ in 0..4096 {
                    engine.step(&mut mem);
                }
                std::hint::black_box(mem.stats().scrub_probes)
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("scrub_sweep_4k_lines_combined", |b| {
        b.iter_batched(
            || {
                let mem = Memory::new(
                    MemGeometry::new(4096, 8),
                    DeviceConfig::default(),
                    CodeSpec::bch_line(6),
                    5,
                );
                let engine =
                    ScrubEngine::new(Box::new(CombinedScrub::new(4096.0, 4096, 5, 16, 600.0)));
                (mem, engine)
            },
            |(mut mem, mut engine)| {
                for _ in 0..4096 {
                    engine.step(&mut mem);
                }
                std::hint::black_box(mem.stats().scrub_probes)
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("demand_op_replay_10k", |b| {
        use pcm_memsim::{OpKind, TraceSource};
        b.iter_batched(
            || {
                let mem = Memory::new(
                    MemGeometry::new(4096, 8),
                    DeviceConfig::default(),
                    CodeSpec::bch_line(6),
                    6,
                );
                let trace = WorkloadId::DbOltp.build(4096, 1.0, 7);
                (mem, trace)
            },
            |(mut mem, mut trace)| {
                for _ in 0..10_000 {
                    let op = trace.next_op().expect("infinite");
                    match op.kind {
                        OpKind::Read => {
                            mem.demand_read(op.addr, op.at);
                        }
                        OpKind::Write => mem.demand_write(op.addr, op.at),
                    }
                }
                std::hint::black_box(mem.stats().demand_reads)
            },
            BatchSize::LargeInput,
        )
    });
    // Keep a trivial use of LineAddr so the import stays meaningful if
    // benches above are edited.
    std::hint::black_box(LineAddr(0));
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gf_arith,
        bench_bch_codec,
        bench_drift_eval,
        bench_fault_engine,
        bench_write_path,
        bench_sim_throughput
);
criterion_main!(benches);
