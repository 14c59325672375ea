//! The isolation pass: each layer's public entry point timed alone over
//! the workload's own front ends, giving unit costs and exact counts.
//!
//! Per sampled capture key (one per profile, in job order) it times
//! `Workload::next_access`, `Hierarchy::access_from`, `TraceBuilder::push`,
//! an `EventCursor` drain, `MetadataEngine::handle_read_from` /
//! `handle_write_from` (per call, timer cost subtracted), the engine with
//! the metadata cache disabled, `MetadataCache::access` over the recorded
//! metadata stream, `CounterStore::record_write` over the writebacks and
//! `GroupedReuseProfiler::observe` over the metadata stream.
//!
//! Engine and cache runs use the workload's own metadata-cache designs
//! (see [`designs`]), one per sampled capture in turn, so on
//! policy_campaign the EVA, partitioned and randomized caches are timed
//! as well as the shared set-associative one. Workloads that run no
//! metadata cache (frontend_sweep, reuse_profile) are timed with the
//! paper-default 64 KB cache on their own front ends, so every workload
//! reports every layer.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use maps_analysis::GroupedReuseProfiler;
use maps_bench::{captured_trace, JobKind, SimJob};
use maps_secure::{CounterStore, SecureConfig};
use maps_sim::itermin::{run_iter_min_on, run_min_on};
use maps_sim::{
    CapturedTrace, FrontEndKey, Hierarchy, MdcConfig, MemEvent, MetadataCache, MetadataEngine,
    NullObserver, PartitionMode, PolicyChoice, RecordingObserver, ReplaySim, SimConfig,
    TraceBuilder,
};
use maps_trace::{AccessKind, BlockKind, TenantId, BLOCKS_PER_PAGE, PAGE_BYTES};
use maps_workloads::{Benchmark, Workload as _};

use crate::plan::Workload;

/// Profiles whose replay cost `BENCH_soa_engine.json` tracked.
pub const REPLAY_PROFILES: [Benchmark; 4] = [
    Benchmark::Canneal,
    Benchmark::Gups,
    Benchmark::Mcf,
    Benchmark::Libquantum,
];

/// Most metadata accesses fed to the reuse profiler per capture.
const PROFILER_CAP: usize = 200_000;

/// Summed work and time of the isolation pass.
#[derive(Default)]
struct Totals {
    accesses: u64,
    workload_ns: f64,
    hierarchy_ns: f64,
    events: u64,
    encode_ns: f64,
    decode_ns: f64,
    bytes: u64,
    reads: u64,
    writes: u64,
    read_ns: f64,
    write_ns: f64,
    nomdc_ns: f64,
    mdc_accesses: u64,
    tree_walks: u64,
    tree_levels: u64,
    dram_meta: u64,
    page_overflows: u64,
    max_cascade: u64,
    mdc_ns: f64,
    mdc_hits: u64,
    mdc_stream: u64,
    hit_ns: f64,
    hit_probes: u64,
    counter_ns: f64,
    counter_writes: u64,
    observe_ns: f64,
    observed: u64,
}

/// Median cost of an empty `Instant::now` pair, subtracted from every
/// per-call engine timing.
fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let t = Instant::now();
            (Instant::now() - t).as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The engine a replay of `trace` under `cfg` would build.
fn engine_for(cfg: &SimConfig, trace: &CapturedTrace, mdc: &MdcConfig) -> MetadataEngine {
    let memory = cfg.memory_bytes.max(trace.footprint_bytes()).max(4096);
    MetadataEngine::with_speculation_window(
        SecureConfig::new(memory.next_multiple_of(PAGE_BYTES), cfg.counter_mode),
        mdc,
        cfg.dram.latency_cycles,
        cfg.hash_latency,
        cfg.speculation,
        cfg.speculation_window,
    )
}

/// The workload's metadata-cache designs: the first enabled config of
/// each (structure, partitioning, policy) family among its secure replay
/// and occupancy points, in job order. MIN configs are left out (their
/// oracle is built per trace; `itermin.*` times them). A workload that
/// runs no metadata cache gets the paper default.
pub fn designs(workload: &Workload) -> Vec<MdcConfig> {
    let mut families = Vec::new();
    let mut out = Vec::new();
    for job in workload.jobs() {
        let mdc = &job.cfg.mdc;
        let timed_kind = matches!(job.kind, JobKind::Replay | JobKind::Occupancy { .. });
        let oracle = matches!(mdc.policy, PolicyChoice::Min(_) | PolicyChoice::TraceMin(_));
        if !job.cfg.secure || mdc.size_bytes == 0 || !timed_kind || oracle {
            continue;
        }
        let family = (
            std::mem::discriminant(&mdc.design),
            std::mem::discriminant(&mdc.partition),
            mdc.policy.name(),
        );
        if !families.contains(&family) {
            families.push(family);
            out.push(mdc.clone());
        }
    }
    if out.is_empty() {
        out.push(MdcConfig::paper_default());
    }
    out
}

/// The tenant a recorded metadata access is charged to: page-interleaved
/// over the tenants of a per-tenant partition, the host otherwise.
fn tenant_of(mdc: &MdcConfig, block: u64) -> TenantId {
    match mdc.partition {
        PartitionMode::PerTenant { tenants } if tenants > 1 => {
            TenantId(((block / BLOCKS_PER_PAGE) % tenants as u64) as u8)
        }
        _ => TenantId::HOST,
    }
}

/// One job per profile with a captured front end, in job order.
pub fn sample(workload: &Workload, limit: usize) -> Vec<&SimJob> {
    let mut seen: HashSet<Benchmark> = HashSet::new();
    workload
        .jobs()
        .filter(|j| !matches!(j.kind, JobKind::Occupancy { .. }))
        .filter(|j| seen.insert(j.bench))
        .take(limit)
        .collect()
}

fn front_end(t: &mut Totals, job: &SimJob) {
    let cfg = &job.cfg;
    let mut workload = job.bench.build(job.seed);
    let start = Instant::now();
    let accesses: Vec<_> = (0..job.accesses)
        .map(|_| (workload.next_access(), workload.current_tenant()))
        .collect();
    t.workload_ns += ns_since(start);
    t.accesses += job.accesses;

    let mut hierarchy = Hierarchy::new(cfg);
    let mut buf = Vec::with_capacity(8);
    let mut events: Vec<(MemEvent, u64)> = Vec::with_capacity(accesses.len() * 2);
    let start = Instant::now();
    let mut pending = 0u64;
    for (access, tenant) in &accesses {
        pending += u64::from(access.icount);
        hierarchy.access_from(access, *tenant, &mut buf);
        for &event in &buf {
            events.push((event, std::mem::take(&mut pending)));
        }
    }
    t.hierarchy_ns += ns_since(start);

    let mut builder = TraceBuilder::new(
        workload.name(),
        workload.footprint_bytes(),
        FrontEndKey::of(cfg),
    );
    builder.mark_warmup_end();
    let start = Instant::now();
    for &(event, icount) in &events {
        builder.push(event, icount);
    }
    t.encode_ns += ns_since(start);
    black_box(builder.finish(pending));
    t.events += events.len() as u64;
}

fn decode(t: &mut Totals, trace: &CapturedTrace) {
    let runs = (0..3)
        .map(|_| {
            let start = Instant::now();
            let sum = trace.events().fold(0u64, |acc, e| {
                acc ^ e.event.block().index() ^ e.icount_delta
            });
            black_box(sum);
            ns_since(start)
        })
        .collect();
    t.decode_ns += median(runs);
    t.bytes += trace.encoded_len() as u64;
}

fn engine(
    t: &mut Totals,
    cfg: &SimConfig,
    trace: &CapturedTrace,
    overhead: f64,
) -> RecordingObserver {
    let mdc = &cfg.mdc;
    let mut eng = engine_for(cfg, trace, mdc);
    for e in trace.events() {
        let start = Instant::now();
        match e.event {
            MemEvent::Read(block, tenant) => {
                black_box(eng.handle_read_from(block, tenant, &mut NullObserver));
                t.read_ns += (ns_since(start) - overhead).max(0.0);
                t.reads += 1;
            }
            MemEvent::Write(block, tenant) => {
                eng.handle_write_from(block, tenant, &mut NullObserver);
                t.write_ns += (ns_since(start) - overhead).max(0.0);
                t.writes += 1;
            }
        }
    }
    let s = eng.stats();
    t.mdc_accesses += s.meta.metadata_total().accesses;
    t.tree_walks += s.tree_walks;
    t.tree_levels += s.tree_walk_level_misses;
    t.dram_meta += s.dram_meta.total();
    t.page_overflows += s.page_overflows;
    t.max_cascade = t.max_cascade.max(s.max_cascade_depth);

    let mut plain = engine_for(cfg, trace, &MdcConfig::disabled());
    let start = Instant::now();
    for e in trace.events() {
        match e.event {
            MemEvent::Read(block, tenant) => {
                black_box(plain.handle_read_from(block, tenant, &mut NullObserver));
            }
            MemEvent::Write(block, tenant) => {
                plain.handle_write_from(block, tenant, &mut NullObserver)
            }
        }
    }
    t.nomdc_ns += ns_since(start);

    let mut recorded = RecordingObserver::new();
    let mut eng = engine_for(cfg, trace, mdc);
    for e in trace.events() {
        match e.event {
            MemEvent::Read(block, tenant) => {
                eng.handle_read_from(block, tenant, &mut recorded);
            }
            MemEvent::Write(block, tenant) => eng.handle_write_from(block, tenant, &mut recorded),
        }
    }
    recorded
}

fn mdcache(t: &mut Totals, cfg: &MdcConfig, recorded: &RecordingObserver) {
    let Some(mut cache) = MetadataCache::new(cfg) else {
        return;
    };
    let stream: Vec<_> = recorded
        .records
        .iter()
        .map(|r| {
            let key = r.block.index();
            (
                key,
                r.kind,
                r.access == AccessKind::Write,
                tenant_of(cfg, key),
            )
        })
        .collect();
    let start = Instant::now();
    for &(key, kind, write, tenant) in &stream {
        black_box(cache.access(key, kind, write, tenant));
    }
    t.mdc_ns += ns_since(start);
    let stats = cache.stats().total();
    t.mdc_hits += stats.hits;
    t.mdc_stream += stats.accesses;

    let (ns, probes, _) = hit_probe(cfg);
    t.hit_ns += ns;
    t.hit_probes += probes;
}

/// Hit cost: half the cache's lines, consecutive keys (spread over all
/// sets), touched once to fill and then timed while resident. Returns
/// (ns, probes timed, hits among them).
fn hit_probe(cfg: &MdcConfig) -> (f64, u64, u64) {
    let Some(mut cache) = MetadataCache::new(cfg) else {
        return (0.0, 0, 0);
    };
    let lines = cfg.size_bytes / 64 / 2;
    for key in 0..lines {
        cache.access(key, BlockKind::Counter, false, TenantId::HOST);
    }
    let before = cache.stats().total().hits;
    let rounds = 50;
    let start = Instant::now();
    for _ in 0..rounds {
        for key in 0..lines {
            black_box(cache.access(key, BlockKind::Counter, false, TenantId::HOST));
        }
    }
    let ns = ns_since(start);
    (ns, rounds * lines, cache.stats().total().hits - before)
}

fn counters(t: &mut Totals, cfg: &SimConfig, trace: &CapturedTrace) {
    let writes: Vec<_> = trace
        .events()
        .filter_map(|e| match e.event {
            MemEvent::Write(block, _) => Some(block),
            MemEvent::Read(..) => None,
        })
        .collect();
    let mut store = CounterStore::new(cfg.counter_mode);
    let start = Instant::now();
    for &block in &writes {
        black_box(store.record_write(block));
    }
    t.counter_ns += ns_since(start);
    t.counter_writes += writes.len() as u64;
}

fn analysis(t: &mut Totals, recorded: &RecordingObserver) {
    let mut profiler = GroupedReuseProfiler::new();
    let stream = &recorded.records[..recorded.records.len().min(PROFILER_CAP)];
    let start = Instant::now();
    for r in stream {
        profiler.observe(r);
    }
    t.observe_ns += ns_since(start);
    t.observed += stream.len() as u64;
    black_box(profiler);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the isolation pass; returns `(metric name, value)` pairs plus the
/// unit costs the replay ledger needs (decode, read, write ns/event).
pub fn run(workload: &Workload, seed: u64, limit: usize) -> (Vec<(String, f64)>, [f64; 3]) {
    let overhead = timer_overhead_ns();
    let mut t = Totals::default();
    let designs = designs(workload);
    let jobs = sample(workload, limit);
    // Every capture and every design at least once; captures take the
    // designs in turn.
    for i in 0..jobs.len().max(designs.len()) {
        let Some(&job) = jobs.get(i % jobs.len().max(1)) else {
            break;
        };
        let mut cfg = job.cfg.clone();
        cfg.secure = true;
        cfg.mdc = designs[i % designs.len()].clone();
        front_end(&mut t, job);
        let trace = captured_trace(&job.cfg, job.bench, job.seed, job.accesses);
        decode(&mut t, &trace);
        let recorded = engine(&mut t, &cfg, &trace, overhead);
        mdcache(&mut t, &cfg.mdc, &recorded);
        counters(&mut t, &cfg, &trace);
        analysis(&mut t, &recorded);
    }

    let events = t.events as f64;
    let hit_ns = ratio(t.hit_ns, t.hit_probes as f64);
    let misses = (t.mdc_stream - t.mdc_hits) as f64;
    let engine_ns = t.read_ns + t.write_ns;
    let mdc_ns_per = ratio(t.mdc_ns, t.mdc_stream as f64);
    let counter_ns_per = ratio(t.counter_ns, t.counter_writes as f64);
    let explained = t.mdc_accesses as f64 * mdc_ns_per + t.writes as f64 * counter_ns_per;
    let decode_ns = ratio(t.decode_ns, events);
    let read_ns = ratio(t.read_ns, t.reads as f64);
    let write_ns = ratio(t.write_ns, t.writes as f64);

    let mut m: Vec<(String, f64)> = vec![
        (
            "workloads.ns_per_access",
            ratio(t.workload_ns, t.accesses as f64),
        ),
        (
            "hierarchy.ns_per_access",
            ratio(t.hierarchy_ns, t.accesses as f64),
        ),
        (
            "hierarchy.events_per_access",
            ratio(events, t.accesses as f64),
        ),
        ("capture.encode_ns_per_event", ratio(t.encode_ns, events)),
        ("capture.decode_ns_per_event", decode_ns),
        ("capture.bytes_per_event", ratio(t.bytes as f64, events)),
        ("engine.read_ns_per_event", read_ns),
        ("engine.write_ns_per_event", write_ns),
        ("engine.nomdc_ns_per_event", ratio(t.nomdc_ns, events)),
        (
            "engine.mdc_accesses_per_event",
            ratio(t.mdc_accesses as f64, events),
        ),
        (
            "engine.tree_levels_per_walk",
            ratio(t.tree_levels as f64, t.tree_walks as f64),
        ),
        (
            "engine.dram_meta_per_event",
            ratio(t.dram_meta as f64, events),
        ),
        ("engine.page_overflows", t.page_overflows as f64),
        ("engine.max_cascade_depth", t.max_cascade as f64),
        ("mdcache.ns_per_access", mdc_ns_per),
        (
            "mdcache.hit_ratio",
            ratio(t.mdc_hits as f64, t.mdc_stream as f64),
        ),
        ("mdcache.hit_ns", hit_ns),
        (
            "mdcache.miss_ns",
            ratio(t.mdc_ns - hit_ns * t.mdc_hits as f64, misses),
        ),
        ("counters.ns_per_write", counter_ns_per),
        (
            "analysis.ns_per_observe",
            ratio(t.observe_ns, t.observed as f64),
        ),
        (
            "ledger.engine_residual_ratio",
            ratio(engine_ns - explained, engine_ns),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    // BENCH_soa_engine.json's quantity: replay ns/event at the paper
    // default on 200k-access captures, median of three warm runs.
    let cfg = SimConfig::paper_default();
    for bench in REPLAY_PROFILES {
        let trace = captured_trace(&cfg, bench, seed, 200_000);
        black_box(ReplaySim::new(cfg.clone(), &trace).run());
        let runs = (0..3)
            .map(|_| {
                let start = Instant::now();
                black_box(ReplaySim::new(cfg.clone(), &trace).run());
                ns_since(start)
            })
            .collect();
        m.push((
            format!("replay.ns_per_event.{}", bench.name()),
            median(runs) / trace.total_events() as f64,
        ));
    }

    // fig6's MIN / iterMIN shape on one capture: 64 KB, no warm-up.
    let mut cfg = SimConfig::paper_default();
    cfg.warmup_fraction = 0.0;
    let trace = captured_trace(&cfg, Benchmark::Mcf, seed, 120_000);
    let start = Instant::now();
    black_box(run_min_on(&cfg, &trace));
    m.push((
        "itermin.min_ms_per_point".to_string(),
        ns_since(start) / 1e6,
    ));
    let start = Instant::now();
    let iter = run_iter_min_on(&cfg, &trace, 4);
    m.push((
        "itermin.itermin_ms_per_point".to_string(),
        ns_since(start) / 1e6,
    ));
    m.push((
        "itermin.iterations".to_string(),
        iter.misses_per_iteration.len().saturating_sub(1) as f64,
    ));
    (m, [decode_ns, read_ns, write_ns])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_campaign_times_its_partitioned_and_randomized_designs() {
        let workload = crate::plan::workload("policy_campaign", maps_bench::SEED).unwrap();
        let designs = designs(&workload);
        let randomized = |m: &MdcConfig| matches!(m.design, maps_sim::MdcDesign::Randomized { .. });
        assert!(designs.iter().any(randomized));
        assert!(designs
            .iter()
            .any(|m| matches!(m.partition, PartitionMode::Static(_))));
        assert!(designs
            .iter()
            .any(|m| matches!(m.partition, PartitionMode::Dynamic { .. })));
        assert!(designs
            .iter()
            .any(|m| matches!(m.partition, PartitionMode::PerTenant { .. })));
        assert!(designs.iter().any(|m| m.policy == PolicyChoice::Eva));
        assert_eq!(designs.len(), 7);
        assert!(designs.len() <= sample(&workload, 14).len());
    }

    #[test]
    fn fig2_times_its_shared_set_associative_cache() {
        let workload = crate::plan::workload("fig2_sweep", maps_bench::SEED).unwrap();
        let designs = designs(&workload);
        assert_eq!(designs.len(), 1);
        assert_eq!(designs[0].partition, PartitionMode::None);
        assert_eq!(designs[0].design, maps_sim::MdcDesign::SetAssoc);
    }

    #[test]
    fn cacheless_workloads_fall_back_to_the_paper_default() {
        for name in ["frontend_sweep", "reuse_profile"] {
            let workload = crate::plan::workload(name, maps_bench::SEED).unwrap();
            assert_eq!(designs(&workload), vec![MdcConfig::paper_default()]);
        }
    }

    #[test]
    fn hit_probe_only_hits() {
        let (_, probes, hits) = hit_probe(&MdcConfig::paper_default());
        assert!(probes > 0);
        assert_eq!(hits, probes);
    }
}
