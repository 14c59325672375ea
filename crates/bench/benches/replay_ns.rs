//! Criterion bench for the replay hot path: ns/event of `ReplaySim::run`
//! on the four captures the repository benchmark reports as
//! `replay.ns_per_event.*` (canneal, gups, mcf, libquantum at the
//! paper-default 64 KB metadata cache).
//!
//! With `Throughput::Elements(total_events)` criterion reports per-event
//! time directly. Recorded measurements come from the benchmark itself:
//! `python3 perfbench/run.py --workload fig2_sweep --seed 1296126035 --seconds 25 --trace 1`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use maps_sim::{CapturedTrace, ReplaySim, SimConfig};
use maps_workloads::Benchmark;

const N: u64 = 200_000;

fn bench_replay_ns(c: &mut Criterion) {
    let cfg = SimConfig::paper_default();
    for bench in [
        Benchmark::Canneal,
        Benchmark::Gups,
        Benchmark::Mcf,
        Benchmark::Libquantum,
    ] {
        let trace = CapturedTrace::record(&cfg, bench.build(3), N);
        let mut group = c.benchmark_group(format!("replay_ns/{}", bench.name()));
        group.throughput(Throughput::Elements(trace.total_events()));
        group.sample_size(10);
        group.bench_function("replay", |b| {
            b.iter(|| ReplaySim::new(cfg.clone(), &trace).run().cycles);
        });
        group.finish();
    }
}

criterion_group!(benches, bench_replay_ns);
criterion_main!(benches);
