//! The four benchmark workloads as fixed job lists.
//!
//! Every list comes from the repository's own figure drivers, enumerated
//! through `PlanHost` (so the sweep definitions are not copied here),
//! except `reuse_profile`, whose fig3/fig4 drivers live in binaries and
//! are reproduced as plain points. The benchmark seed and access counts
//! are written into each job; nothing is read from `MAPS_*` variables.

use maps_bench::figures::{fig2, fig6, fig7, fig_occupancy};
use maps_bench::{PlanHost, SimJob, SweepHost, LLC_SIZES, SEED};
use maps_sim::{MdcConfig, SimConfig};
use maps_workloads::Benchmark;

/// Accesses per fig2-shaped point (the ROADMAP's headline sweep size).
pub const FIG2_ACCESSES: u64 = 200_000;
/// Accesses per frontend_sweep point.
pub const FRONTEND_ACCESSES: u64 = 200_000;
/// Seeds per (LLC, profile) pair in frontend_sweep.
pub const FRONTEND_SEEDS: u64 = 3;
/// fig3's profiles, at fig3's own access count (`fig3.rs`).
pub const FIG3_PROFILES: [Benchmark; 6] = [
    Benchmark::Canneal,
    Benchmark::Libquantum,
    Benchmark::Fft,
    Benchmark::Leslie3d,
    Benchmark::Mcf,
    Benchmark::Barnes,
];
/// Accesses per fig3 point (`fig3.rs`).
pub const FIG3_ACCESSES: u64 = 400_000;
/// Accesses per fig4 point, every profile (`fig4.rs`).
pub const FIG4_ACCESSES: u64 = 300_000;

/// How a workload's points are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `RunContext::sweep`, one call per phase (what `LocalHost` does).
    Local,
    /// The `maps_farm::Farm` queue: one driver thread per figure submits
    /// its phases in order, a worker pool drains the shared queue.
    Farm,
    /// `parallel_map` over direct `SecureSim::run_observed` runs with a
    /// `GroupedReuseProfiler` attached (what fig3/fig4 do).
    Profile,
}

/// One sweep phase of one figure.
pub struct Phase {
    /// Figure the phase belongs to.
    pub figure: String,
    /// Phase name as the figure driver declared it.
    pub name: String,
    /// Points; each job's `key` is the point id, unique in the workload.
    pub jobs: Vec<SimJob>,
}

/// A workload: its executor and its phases, in declaration order.
pub struct Workload {
    /// Workload name (as listed in `BENCHMARK.json`).
    pub name: &'static str,
    /// Executor the phases run through.
    pub executor: Executor,
    /// Phases in declaration order.
    pub phases: Vec<Phase>,
}

impl Workload {
    /// Every point, in declaration order.
    pub fn jobs(&self) -> impl Iterator<Item = &SimJob> {
        self.phases.iter().flat_map(|p| p.jobs.iter())
    }

    /// Number of declared points.
    pub fn len(&self) -> usize {
        self.phases.iter().map(|p| p.jobs.len()).sum()
    }
}

/// Every workload name.
pub const NAMES: [&str; 4] = [
    "fig2_sweep",
    "policy_campaign",
    "frontend_sweep",
    "reuse_profile",
];

/// Moves a job from the figures' seed base onto the benchmark seed. At the
/// default seed (`SEED`) every job keeps the exact seed its figure gives
/// it; other seeds shift all jobs alike, keeping derived seeds distinct.
fn reseed(seed: u64, job_seed: u64) -> u64 {
    job_seed ^ SEED ^ seed
}

/// Enumerates one figure driver's phases without simulating, re-keyed as
/// `figure/phase/key` and moved onto `seed` and `accesses`.
fn planned(figure: &str, drive: fn(&mut dyn SweepHost), seed: u64, accesses: u64) -> Vec<Phase> {
    let mut host = PlanHost::new();
    drive(&mut host);
    host.phases
        .into_iter()
        .map(|(name, jobs)| Phase {
            figure: figure.to_string(),
            jobs: jobs
                .into_iter()
                .map(|mut job| {
                    job.key = format!("{figure}/{name}/{}", job.key);
                    job.seed = reseed(seed, job.seed);
                    job.accesses = accesses;
                    job
                })
                .collect(),
            name,
        })
        .collect()
}

/// Builds the named workload for `seed`, or `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let (name, executor, phases) = match name {
        "fig2_sweep" => (
            NAMES[0],
            Executor::Local,
            planned("fig2", fig2::drive, seed, FIG2_ACCESSES),
        ),
        "policy_campaign" => {
            let mut phases = planned("fig6", fig6::drive, seed, 120_000);
            phases.extend(planned("fig7", fig7::drive, seed, 150_000));
            phases.extend(planned("fig_occupancy", fig_occupancy::drive, seed, 60_000));
            (NAMES[1], Executor::Farm, phases)
        }
        "frontend_sweep" => (NAMES[2], Executor::Local, frontend_phases(seed)),
        "reuse_profile" => (NAMES[3], Executor::Profile, profile_phases(seed)),
        _ => return None,
    };
    Some(Workload {
        name,
        executor,
        phases,
    })
}

/// fig2's insecure baselines at every LLC size and several seeds: every
/// point is its own front end, so nothing is replayed twice.
fn frontend_phases(seed: u64) -> Vec<Phase> {
    let baselines = planned("fig2", fig2::drive, seed, FRONTEND_ACCESSES)
        .into_iter()
        .find(|p| p.name == "baselines")
        .map(|p| p.jobs)
        .unwrap_or_default();
    let mut jobs = Vec::new();
    for &llc in &LLC_SIZES {
        for s in 0..FRONTEND_SEEDS {
            for base in &baselines {
                let mut job = base.clone();
                job.key = format!("frontend/llc{}/s{s}/{}", llc >> 10, base.bench.name());
                job.cfg = base.cfg.with_llc_bytes(llc);
                job.seed = base.seed ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                jobs.push(job);
            }
        }
    }
    vec![Phase {
        figure: "frontend".to_string(),
        name: "baselines".to_string(),
        jobs,
    }]
}

/// fig3's and fig4's own points: 2 MB LLC, metadata cache disabled,
/// fig3's six profiles at 400k accesses and fig4's fourteen at 300k,
/// profiled through a `GroupedReuseProfiler`.
fn profile_phases(seed: u64) -> Vec<Phase> {
    let cfg = SimConfig::paper_default().with_mdc(MdcConfig::disabled());
    let phase = |figure: &str, benches: &[Benchmark], accesses: u64| Phase {
        figure: figure.to_string(),
        name: "profile".to_string(),
        jobs: benches
            .iter()
            .map(|&bench| SimJob {
                seed: reseed(seed, SEED),
                ..SimJob::replay(
                    format!("{figure}/profile/{}", bench.name()),
                    cfg.clone(),
                    bench,
                    accesses,
                )
            })
            .collect(),
    };
    vec![
        phase("fig3", &FIG3_PROFILES, FIG3_ACCESSES),
        phase("fig4", &Benchmark::ALL, FIG4_ACCESSES),
    ]
}
