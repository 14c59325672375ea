//! One benchmark process: runs one workload once and prints one JSON
//! document with everything it measured. `perfbench/run.py` drives it.
//!
//! ```text
//! maps-perfbench <workload> --seed <n> --out <dir> --mode plain|traced|setup [--cross-check]
//! ```
//!
//! * `plain` — end-to-end timing and per-point digests;
//! * `traced` — the same run with layer spans (written to
//!   `<dir>/spans.json`), then the isolation pass, then the per-layer
//!   metrics derived from both;
//! * `setup` — exits at the first point dispatched, reporting when
//!   (and host-speed probe times taken after it).
//!
//! `--cross-check` recomputes a fixed sample of points through the other
//! simulation path after the run and reports their digests.

mod exec;
mod iso;
mod plan;
mod probe;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

use exec::{Mode, RunRecord};
use maps_obs::Json;
use spans::Spans;

/// Profiles sampled by the isolation pass (one capture per profile).
const ISO_CAPTURES: usize = 14;

struct Args {
    workload: String,
    seed: u64,
    out: PathBuf,
    mode: Mode,
    cross_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let workload = args.next().ok_or("missing workload name")?;
    let (mut seed, mut out, mut mode, mut cross_check) = (None, None, Mode::Plain, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--mode" => {
                mode = match value()?.as_str() {
                    "plain" => Mode::Plain,
                    "traced" => Mode::Traced,
                    "setup" => Mode::Setup,
                    other => return Err(format!("unknown mode {other}")),
                }
            }
            "--cross-check" => cross_check = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        out: out.ok_or("missing --out")?,
        mode,
        cross_check,
    })
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `VmHWM` (peak resident set) of this process, in kB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Per-layer metrics of a traced run: trace-derived ones plus the
/// isolation pass, joined in the replay ledger.
fn per_layer(
    workload: &plan::Workload,
    seed: u64,
    record: &RunRecord,
    spans: &Spans,
) -> Vec<(String, f64)> {
    let totals = spans.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let wall_ms = match (record.first, record.last) {
        (Some(f), Some(l)) => (l - f).as_secs_f64() * 1e3,
        _ => 0.0,
    };
    let busy_ms: f64 = record.executed_ms.iter().sum();
    // Host-speed probes run on the workers between points; that time is
    // the benchmark's, not the executor's.
    let probe_ms: f64 = record.probe_ns.iter().sum::<f64>() / 1e6;
    let worker_ms = record.workers as f64 * wall_ms - probe_ms;
    let points = record.executed_ms.len().max(1) as f64;
    let recordings = maps_bench::capture_recordings();
    let point_ns = total("point").total_ns as f64;
    let capture = total("capture");

    let (mut m, [decode_ns, read_ns, write_ns]) = iso::run(workload, seed, ISO_CAPTURES);
    let replay_ns: f64 = record.replays.iter().map(|r| r.ns).sum();
    let explained: f64 = record
        .replays
        .iter()
        .map(|r| {
            let engine = r
                .read_share
                .map_or(0.0, |s| s * read_ns + (1.0 - s) * write_ns);
            r.events as f64 * (decode_ns + engine)
        })
        .sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.extend(
        [
            ("capture.share", ratio(capture.total_ns as f64, point_ns)),
            (
                "capture.reuse_ratio",
                ratio(capture.count as f64, recordings as f64),
            ),
            ("executor.busy_ratio", ratio(busy_ms, worker_ms)),
            (
                "executor.overhead_ms_per_point",
                (worker_ms - busy_ms) / points,
            ),
            ("executor.capture_wait_ms", record.capture_wait_ms),
            ("farm.dedup_ratio", record.dedup_ratio),
            (
                "ledger.replay_residual_ratio",
                ratio(replay_ns - explained, replay_ns),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v)),
    );
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("maps-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = plan::workload(&args.workload, args.seed) else {
        eprintln!(
            "maps-perfbench: unknown workload {} (known: {})",
            args.workload,
            plan::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("maps-perfbench: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    let (record, spans) = exec::run(&workload, args.mode, &args.out);
    let wall_s = match (record.first, record.last) {
        (Some(f), Some(l)) => (l - f).as_secs_f64(),
        _ => 0.0,
    };
    let rss_kb = peak_rss_kb();

    let mode = if args.mode == Mode::Traced {
        "traced"
    } else {
        "plain"
    };
    let mut out = vec![
        ("mode", Json::Str(mode.to_string())),
        ("workload", Json::Str(workload.name.to_string())),
        ("points", Json::UInt(workload.len() as u64)),
        ("first_unix", Json::Float(record.first_unix)),
        ("wall_s", Json::Float(wall_s)),
        ("instructions", Json::UInt(record.instructions)),
        ("workers", Json::UInt(record.workers as u64)),
        ("peak_rss_kb", Json::UInt(rss_kb)),
        (
            "capture_recordings",
            Json::UInt(maps_bench::capture_recordings()),
        ),
        (
            "executed_ms",
            Json::Arr(
                record
                    .executed_ms
                    .iter()
                    .map(|&ms| Json::Float(ms))
                    .collect(),
            ),
        ),
        (
            "probe_ns",
            Json::Arr(record.probe_ns.iter().map(|&ns| Json::Float(ns)).collect()),
        ),
        (
            "digests",
            Json::Obj(
                record
                    .digests
                    .iter()
                    .map(|(k, d)| (k.clone(), d.clone().map_or(Json::Null, Json::Str)))
                    .collect(),
            ),
        ),
    ];

    if args.mode == Mode::Traced {
        let path = args.out.join("spans.json");
        if let Err(e) = spans.write(&path) {
            eprintln!("maps-perfbench: {}: {e}", path.display());
        }
        let totals = spans
            .totals()
            .into_iter()
            .map(|(name, t)| {
                let totals = obj(vec![
                    ("count", Json::UInt(t.count)),
                    ("total_ms", Json::Float(t.total_ns as f64 / 1e6)),
                    ("self_ms", Json::Float(t.self_ns as f64 / 1e6)),
                ]);
                (name.to_string(), totals)
            })
            .collect();
        out.push(("spans", Json::Obj(totals)));
        let layers = per_layer(&workload, args.seed, &record, &spans)
            .into_iter()
            .map(|(k, v)| (k, Json::Float(v)))
            .collect();
        out.push(("per_layer", Json::Obj(layers)));
    }
    if args.cross_check {
        let checks = exec::cross_check(&workload)
            .into_iter()
            .map(|(k, d)| (k, Json::Str(d)))
            .collect();
        out.push(("cross_check", Json::Obj(checks)));
    }
    print!("{}", obj(out).to_pretty());
    ExitCode::SUCCESS
}
