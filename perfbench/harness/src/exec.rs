//! Runs one workload through the repository's executors, timing every
//! point around the exec closure the executor accepts.
//!
//! Three modes share one code path:
//!
//! * plain — end-to-end timing, no spans;
//! * traced — the same run with a span at every layer boundary
//!   (workload → phase → point → capture / replay / itermin / direct);
//!   inside a point the layers are reached through the same public calls
//!   `exec_job` makes (`captured_trace` + `ReplaySim::run`, `run_min_on`,
//!   `run_iter_min_on`, `run_occupancy`), so reports stay identical;
//! * setup — stops the process at the first point dispatched, so set-up
//!   can be measured many times per benchmark run.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use maps_analysis::{GroupedReuseProfiler, ReuseClass};
use maps_bench::{captured_trace, exec_job, CaptureKey, JobKind, PlanHost, RunContext, SimJob};
use maps_farm::Farm;
use maps_obs::{fingerprint64, Json};
use maps_sim::itermin::{run_iter_min_on, run_min, run_min_on};
use maps_sim::{ReplaySim, SecureSim, SimReport};
use maps_trace::{MetaGroup, BLOCK_BYTES};

use crate::plan::{Executor, Workload};
use crate::spans::Spans;

/// What a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end timing only.
    Plain,
    /// Spans at every layer boundary.
    Traced,
    /// Exit at the first point dispatched.
    Setup,
}

/// fig3's CDF sample points in bytes: the reuse_profile digest covers the
/// CDF at exactly the distances the figure prints.
const CDF_POINTS: [u64; 13] = [
    512,
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    128 << 10,
    288 << 10,
    512 << 10,
    1 << 20,
    2 << 20,
    4 << 20,
    16 << 20,
    64 << 20,
];

/// One replay inside a traced point: the ledger's raw input.
pub struct ReplayCost {
    /// Host nanoseconds in `ReplaySim::run`.
    pub ns: f64,
    /// Events decoded (warm-up included).
    pub events: u64,
    /// Share of measured engine events that were reads (`None` when the
    /// point is insecure and no engine runs).
    pub read_share: Option<f64>,
}

/// Everything one run observed.
pub struct RunRecord {
    /// Instant the first point was dispatched.
    pub first: Option<Instant>,
    /// Unix time of the first dispatch (compared with the parent's clock
    /// to get set-up time from process start).
    pub first_unix: f64,
    /// Instant the last point finished.
    pub last: Option<Instant>,
    /// Host ms inside the exec closure per executed point, in completion
    /// order (dedup-shared farm points execute once).
    pub executed_ms: Vec<f64>,
    /// Digest of every declared point's outputs (`None` = failed).
    pub digests: Vec<(String, Option<String>)>,
    /// Simulated instructions over executed points.
    pub instructions: u64,
    /// Worker threads the executor ran.
    pub workers: usize,
    /// Farm submissions over farm computations (1 off the farm).
    pub dedup_ratio: f64,
    /// Replay costs of traced replay points.
    pub replays: Vec<ReplayCost>,
    /// Capture spans of points that found another worker's recording in
    /// flight or done, in ms (only waits longer than a hit are real).
    pub capture_wait_ms: f64,
    /// Host-speed probe times (`probe::probe_ns`), one after every
    /// executed point, in ns.
    pub probe_ns: Vec<f64>,
}

/// Shared state of a running workload.
pub struct Recorder {
    mode: Mode,
    spans: Spans,
    first: OnceLock<(Instant, f64)>,
    last: Mutex<Option<Instant>>,
    executed_ms: Mutex<Vec<f64>>,
    instructions: Mutex<u64>,
    failed: Mutex<HashSet<String>>,
    extras: Mutex<HashMap<String, String>>,
    parents: Mutex<HashMap<String, u64>>,
    claims: Mutex<HashSet<CaptureKey>>,
    replays: Mutex<Vec<ReplayCost>>,
    capture_wait_ns: Mutex<f64>,
    probe_ns: Mutex<Vec<f64>>,
}

/// Probes a set-up-only process runs after the first dispatch, so its
/// set-up time can be put at the reference speed too.
const SETUP_PROBES: usize = 24;

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// Digest of a report plus any extra figure output (reuse CDFs).
pub fn digest(report: &SimReport, extra: &str) -> String {
    format!(
        "{:016x}",
        fingerprint64(&format!("{}|{extra}", report.to_json().to_pretty()))
    )
}

/// The reuse_profile point's figure output: fig3's per-type CDF at its
/// sample distances and fig4's class fractions, as exact float bits.
pub fn cdf_digest(profiler: &GroupedReuseProfiler) -> String {
    let mut out = String::new();
    for group in MetaGroup::ALL {
        let cdf = profiler.cdf(group);
        for point in CDF_POINTS {
            let frac = cdf.fraction_at_or_below(point / BLOCK_BYTES);
            out.push_str(&format!("{:x},", frac.to_bits()));
        }
    }
    let classes = profiler.combined().class_counts();
    for class in ReuseClass::ALL {
        out.push_str(&format!("{:x},", classes.fraction(class).to_bits()));
    }
    out
}

/// A reuse_profile point: direct `SecureSim::run_observed` with the
/// profiler attached.
pub fn profile_point(job: &SimJob) -> (SimReport, String) {
    let mut sim = SecureSim::new(job.cfg.clone(), job.bench.build(job.seed));
    let mut profiler = GroupedReuseProfiler::new();
    let report = sim.run_observed(job.accesses, &mut profiler);
    (report, cdf_digest(&profiler))
}

impl Recorder {
    pub fn new(mode: Mode) -> Self {
        Recorder {
            mode,
            spans: Spans::new(mode == Mode::Traced),
            first: OnceLock::new(),
            last: Mutex::new(None),
            executed_ms: Mutex::new(Vec::new()),
            instructions: Mutex::new(0),
            failed: Mutex::new(HashSet::new()),
            extras: Mutex::new(HashMap::new()),
            parents: Mutex::new(HashMap::new()),
            claims: Mutex::new(HashSet::new()),
            replays: Mutex::new(Vec::new()),
            capture_wait_ns: Mutex::new(0.0),
            probe_ns: Mutex::new(Vec::new()),
        }
    }

    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Marks the first dispatch; in set-up mode, reports it and exits.
    fn dispatched(&self) {
        let (_, unix) = *self.first.get_or_init(|| (Instant::now(), unix_now()));
        if self.mode == Mode::Setup {
            // Exit while holding the lock: no other worker can interleave
            // output with the one report.
            let _only = Self::lock(&self.last);
            let probes = (0..SETUP_PROBES)
                .map(|_| Json::Float(crate::probe::probe_ns()))
                .collect();
            let report = Json::Obj(vec![
                ("mode".to_string(), Json::Str("setup".to_string())),
                ("first_unix".to_string(), Json::Float(unix)),
                ("probe_ns".to_string(), Json::Arr(probes)),
            ]);
            print!("{}", report.to_pretty());
            let _ = std::io::Write::flush(&mut std::io::stdout());
            std::process::exit(0);
        }
    }

    /// The exec closure every executor is handed: times the point and
    /// counts a panic as a failed point instead of aborting the sweep
    /// (`catch` is off for the farm, which retries and quarantines).
    fn exec(&self, job: &SimJob, profile: bool, catch: bool) -> SimReport {
        self.dispatched();
        let start = Instant::now();
        let parent = Self::lock(&self.parents)
            .get(&job.key)
            .copied()
            .unwrap_or(0);
        let run = || {
            self.spans
                .record(parent, "point", &job.key, |id| {
                    self.run_point(id, job, profile)
                })
                .0
        };
        let report = if catch {
            match catch_unwind(AssertUnwindSafe(run)) {
                Ok(report) => report,
                Err(_) => {
                    Self::lock(&self.failed).insert(job.key.clone());
                    PlanHost::placeholder_report()
                }
            }
        } else {
            run()
        };
        let end = Instant::now();
        // Outside the point's time, on the same worker, at the same moment.
        let probe = crate::probe::probe_ns();
        Self::lock(&self.probe_ns).push(probe);
        *Self::lock(&self.instructions) += report.instructions;
        Self::lock(&self.executed_ms).push((end - start).as_secs_f64() * 1e3);
        let mut last = Self::lock(&self.last);
        if last.is_none_or(|l| l < end) {
            *last = Some(end);
        }
        report
    }

    /// Runs one point; traced runs split it at the layer calls.
    fn run_point(&self, id: u64, job: &SimJob, profile: bool) -> SimReport {
        if profile {
            let ((report, extra), _) = self
                .spans
                .record(id, "direct", &job.key, |_| profile_point(job));
            Self::lock(&self.extras).insert(job.key.clone(), extra);
            return report;
        }
        if self.mode != Mode::Traced {
            return exec_job(job);
        }
        let sp = &self.spans;
        match job.kind {
            JobKind::Replay => {
                let trace = self.capture(id, job);
                let (report, ns) = sp.record(id, "replay", &job.key, |_| {
                    ReplaySim::new(job.cfg.clone(), &trace).run()
                });
                let rw = report.engine.reads + report.engine.writes;
                Self::lock(&self.replays).push(ReplayCost {
                    ns,
                    events: trace.total_events(),
                    read_share: (job.cfg.secure && rw > 0)
                        .then(|| report.engine.reads as f64 / rw as f64),
                });
                report
            }
            JobKind::Min => {
                let trace = self.capture(id, job);
                sp.record(id, "itermin", &job.key, |_| run_min_on(&job.cfg, &trace))
                    .0
            }
            JobKind::IterMin { iterations } => {
                let trace = self.capture(id, job);
                sp.record(id, "itermin", &job.key, |_| {
                    run_iter_min_on(&job.cfg, &trace, iterations).report
                })
                .0
            }
            JobKind::Occupancy { victim_pages } => {
                sp.record(id, "direct", &job.key, |_| {
                    maps_bench::run_occupancy(&job.cfg, job.seed, job.accesses, victim_pages)
                })
                .0
            }
        }
    }

    /// `captured_trace` under a span. The first point to claim a capture
    /// key records it; any other point's capture span is waiting time.
    fn capture(&self, parent: u64, job: &SimJob) -> std::sync::Arc<maps_sim::CapturedTrace> {
        let recorder = Self::lock(&self.claims).insert(job.capture_key());
        let (trace, ns) = self.spans.record(parent, "capture", &job.key, |_| {
            captured_trace(&job.cfg, job.bench, job.seed, job.accesses)
        });
        if !recorder {
            *Self::lock(&self.capture_wait_ns) += ns;
        }
        trace
    }

    fn set_parent(&self, jobs: &[SimJob], phase_span: u64) {
        let mut parents = Self::lock(&self.parents);
        for job in jobs {
            parents.insert(job.key.clone(), phase_span);
        }
    }

    fn digest_of(&self, key: &str, report: &SimReport) -> Option<String> {
        if Self::lock(&self.failed).contains(key) {
            return None;
        }
        let extra = Self::lock(&self.extras)
            .get(key)
            .cloned()
            .unwrap_or_default();
        Some(digest(report, &extra))
    }

    fn finish(
        self,
        digests: Vec<(String, Option<String>)>,
        workers: usize,
        dedup: f64,
    ) -> (RunRecord, Spans) {
        let first = self.first.get().copied();
        let record = RunRecord {
            first: first.map(|f| f.0),
            first_unix: first.map_or(0.0, |f| f.1),
            last: *Self::lock(&self.last),
            executed_ms: self
                .executed_ms
                .into_inner()
                .unwrap_or_else(|p| p.into_inner()),
            digests,
            instructions: *Self::lock(&self.instructions),
            workers,
            dedup_ratio: dedup,
            replays: self.replays.into_inner().unwrap_or_else(|p| p.into_inner()),
            capture_wait_ms: *Self::lock(&self.capture_wait_ns) / 1e6,
            probe_ns: self.probe_ns.into_inner().unwrap_or_else(|p| p.into_inner()),
        };
        (record, self.spans)
    }
}

/// Worker threads for this host: at most the machine's parallelism.
pub fn worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Runs the workload once, writing executor artifacts under `out`.
pub fn run(workload: &Workload, mode: Mode, out: &Path) -> (RunRecord, Spans) {
    let rec = Recorder::new(mode);
    let ((digests, workers, dedup), _) = rec.spans.record(0, "workload", workload.name, |root| {
        match workload.executor {
            Executor::Local => run_local(workload, &rec, root, out),
            Executor::Farm => run_farm(workload, &rec, root, out),
            Executor::Profile => run_profile(workload, &rec, root),
        }
    });
    rec.finish(digests, workers, dedup)
}

fn run_local(
    workload: &Workload,
    rec: &Recorder,
    root: u64,
    out: &Path,
) -> (Vec<(String, Option<String>)>, usize, f64) {
    let ckpt = out.join(format!("{}.ckpt", workload.name));
    let _ = std::fs::remove_file(&ckpt);
    let mut ctx = RunContext::with_paths(
        workload.name,
        out.join(format!("{}.manifest.json", workload.name)),
        ckpt,
        None,
    );
    let mut digests = Vec::new();
    for phase in &workload.phases {
        let (reports, _) = rec.spans.record(root, "phase", &phase.name, |id| {
            rec.set_parent(&phase.jobs, id);
            ctx.sweep(
                &format!("{}/{}", phase.figure, phase.name),
                &phase.jobs,
                |j| j.key.clone(),
                |j| rec.exec(j, false, true),
            )
        });
        for (job, report) in phase.jobs.iter().zip(&reports) {
            digests.push((job.key.clone(), rec.digest_of(&job.key, report)));
        }
    }
    ctx.finish();
    let workers = worker_count().min(workload.len().max(1));
    (digests, workers, 1.0)
}

fn run_profile(
    workload: &Workload,
    rec: &Recorder,
    root: u64,
) -> (Vec<(String, Option<String>)>, usize, f64) {
    let mut digests = Vec::new();
    for phase in &workload.phases {
        let (reports, _) = rec.spans.record(root, "phase", &phase.name, |id| {
            rec.set_parent(&phase.jobs, id);
            maps_bench::parallel_map(phase.jobs.iter().collect(), |j| rec.exec(j, true, true))
        });
        for (job, report) in phase.jobs.iter().zip(&reports) {
            digests.push((job.key.clone(), rec.digest_of(&job.key, report)));
        }
    }
    let workers = worker_count().min(workload.len().max(1));
    (digests, workers, 1.0)
}

fn run_farm(
    workload: &Workload,
    rec: &Recorder,
    root: u64,
    out: &Path,
) -> (Vec<(String, Option<String>)>, usize, f64) {
    let ckpt = out.join("campaign.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let identity: String = workload.jobs().map(SimJob::identity).collect();
    let farm = Farm::new(workload.name, fingerprint64(&identity), ckpt);
    let workers = worker_count();
    // Figures run on their own driver threads, phases in order within a
    // figure, exactly as `run_campaign` drives its `FarmHost`s.
    let mut figures: Vec<&str> = Vec::new();
    for phase in &workload.phases {
        if !figures.contains(&phase.figure.as_str()) {
            figures.push(&phase.figure);
        }
    }
    let per_figure: Vec<Vec<(String, Option<String>)>> = std::thread::scope(|s| {
        let farm = &farm;
        let pool = s.spawn(move || {
            maps_bench::parallel_map_with((0..workers).collect(), workers, |_| {
                farm.worker_loop(&|job: &SimJob| rec.exec(job, false, false));
            });
        });
        let drivers: Vec<_> = figures
            .iter()
            .map(|&figure| {
                s.spawn(move || {
                    let mut digests = Vec::new();
                    for phase in workload.phases.iter().filter(|p| p.figure == figure) {
                        let label = format!("{figure}/{}", phase.name);
                        rec.spans.record(root, "phase", &label, |id| {
                            rec.set_parent(&phase.jobs, id);
                            let fps = farm.submit(&phase.jobs);
                            for (job, fp) in phase.jobs.iter().zip(fps) {
                                let digest = match farm.wait(&[fp]) {
                                    Ok(reports) => {
                                        reports.first().and_then(|r| rec.digest_of(&job.key, r))
                                    }
                                    Err(_) => None,
                                };
                                digests.push((job.key.clone(), digest));
                            }
                        });
                    }
                    digests
                })
            })
            .collect();
        // A driver that panicked reports every point of its figure as
        // failed rather than dropping them from the count.
        let per_figure = drivers
            .into_iter()
            .zip(&figures)
            .map(|(d, &figure)| {
                d.join().unwrap_or_else(|_| {
                    workload
                        .phases
                        .iter()
                        .filter(|p| p.figure == figure)
                        .flat_map(|p| p.jobs.iter().map(|j| (j.key.clone(), None)))
                        .collect()
                })
            })
            .collect();
        farm.close();
        if pool.join().is_err() {
            eprintln!("maps-perfbench: farm worker pool panicked");
        }
        per_figure
    });
    let _ = farm.remove_checkpoint();
    let stats = farm.stats();
    let digests: Vec<_> = per_figure.into_iter().flatten().collect();
    let dedup = digests.len() as f64 / stats.computed.max(1) as f64;
    (digests, workers, dedup)
}

/// The fixed cross-check sample: the workload's first point plus the
/// first gups and canneal points at its smallest metadata cache.
pub fn cross_check_sample(workload: &Workload) -> Vec<&SimJob> {
    let checkable = |j: &&SimJob| matches!(j.kind, JobKind::Replay | JobKind::Min);
    let smallest = workload
        .jobs()
        .filter(checkable)
        .map(|j| j.cfg.mdc.size_bytes)
        .min()
        .unwrap_or(0);
    let mut sample: Vec<&SimJob> = workload.jobs().filter(checkable).take(1).collect();
    for bench in [
        maps_workloads::Benchmark::Gups,
        maps_workloads::Benchmark::Canneal,
    ] {
        if let Some(job) = workload
            .jobs()
            .filter(checkable)
            .find(|j| j.bench == bench && j.cfg.mdc.size_bytes == smallest)
        {
            sample.push(job);
        }
    }
    sample
}

/// Recomputes the sample through the other path: direct `run_sim` /
/// `run_min` for captured points, and capture + observed replay for the
/// direct reuse_profile points. Returns `(key, digest)` pairs.
pub fn cross_check(workload: &Workload) -> Vec<(String, String)> {
    cross_check_sample(workload)
        .into_iter()
        .map(|job| {
            let d = if workload.executor == Executor::Profile {
                let trace = captured_trace(&job.cfg, job.bench, job.seed, job.accesses);
                let mut profiler = GroupedReuseProfiler::new();
                let report = ReplaySim::new(job.cfg.clone(), &trace).run_observed(&mut profiler);
                digest(&report, &cdf_digest(&profiler))
            } else if job.kind == JobKind::Min {
                digest(&run_min(&job.cfg, job.bench, job.seed, job.accesses), "")
            } else {
                digest(
                    &maps_bench::run_sim(&job.cfg, job.bench, job.seed, job.accesses),
                    "",
                )
            };
            (job.key.clone(), d)
        })
        .collect()
}
