//! Checkpoint benchmarks: the durability tier's edge costs and its
//! steady-state tax on an accelerated run.
//!
//! * **checkpoint_save / checkpoint_load** — one full checkpoint frame
//!   encode (per-section checksums, whole-file checksum chain, tmp+rename)
//!   of a realistic run state (4 KiB state vector plus serialized
//!   predictor-bank and economics blobs), and the scan+verify+decode back
//!   out of it. Save is the per-interval cost the `checkpoint.interval`
//!   config must be read against; load is the one-time resume cost.
//! * **checkpoint_fingerprint** — the config+initial-state fingerprint
//!   computed once per `accelerate` call, checkpointing on or off.
//! * **accelerate_collatz_tiny_checkpointed** — the end-to-end steady
//!   state: the same run as `accelerate_collatz_tiny` with checkpointing
//!   on at the default interval, so drift in the occurrence-loop tick
//!   (heartbeat + interval check + save) is caught by the bench gate. The
//!   <5% on/off bound itself is asserted by `kill_resume_soak overhead`.
//!
//! All four feed `bench/baseline.json` through the blocking CI bench gate.

use asc_bench::config_for;
use asc_core::checkpoint::{self, RunCheckpoint};
use asc_core::config::AscConfig;
use asc_core::recognizer::RecognizedIp;
use asc_core::runtime::LascRuntime;
use asc_workloads::registry::{build, Benchmark, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;

/// A realistic mid-run checkpoint: a 4 KiB state vector and learned-state
/// blobs in the size range the miss-driven path serializes.
fn sample_checkpoint() -> RunCheckpoint {
    RunCheckpoint {
        sequence: 1,
        fingerprint: 0xfee1_600d,
        occurrence: 4_096,
        rip: RecognizedIp {
            ip: 32,
            stride: 1,
            mean_superstep: 1_800.0,
            accuracy: 0.85,
            score: 1_530.0,
        },
        unique_ips: 40,
        converge_instructions: 80_000,
        resume_instret: 9_000_000,
        fast_forwarded: 4_000_000,
        state: (0..4096u32).map(|i| (i % 251) as u8).collect(),
        bank: Some((0..2048u32).map(|i| (i % 13) as u8).collect()),
        economics: Some((0..256u32).map(|i| (i % 7) as u8).collect()),
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("asc-bench-checkpoint-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_save_load(c: &mut Criterion) {
    let ckpt = sample_checkpoint();

    let dir = bench_dir("save");
    c.bench_function("checkpoint_save", |b| {
        b.iter(|| checkpoint::save(black_box(&dir), black_box(&ckpt), 3).unwrap())
    });
    let _ = std::fs::remove_dir_all(&dir);

    let dir = bench_dir("load");
    checkpoint::save(&dir, &ckpt, 3).unwrap();
    c.bench_function("checkpoint_load", |b| {
        b.iter(|| {
            let scan = checkpoint::load_newest(black_box(&dir), ckpt.fingerprint);
            let found = scan.checkpoint.expect("intact checkpoint loads");
            assert_eq!(scan.rejected_files, 0);
            found.occurrence
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_fingerprint(c: &mut Criterion) {
    let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
    let initial = workload.program.initial_state().unwrap();
    let config = AscConfig::default();
    c.bench_function("checkpoint_fingerprint", |b| {
        b.iter(|| checkpoint::run_fingerprint(black_box(&config), black_box(&initial)))
    });
}

fn bench_checkpointed_run(c: &mut Criterion) {
    let workload = build(Benchmark::Collatz, Scale::Tiny).unwrap();
    let dir = bench_dir("run");
    let mut config = config_for(Scale::Tiny);
    config.checkpoint.enabled = true;
    config.checkpoint.directory = Some(dir.clone());
    let runtime = LascRuntime::new(config).unwrap();
    c.bench_function("accelerate_collatz_tiny_checkpointed", |b| {
        b.iter(|| {
            let report = runtime.accelerate(black_box(&workload.program)).unwrap();
            assert!(workload.verify(&report.final_state));
            report.fast_forwarded_instructions
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_save_load, bench_fingerprint, bench_checkpointed_run);
criterion_main!(benches);
