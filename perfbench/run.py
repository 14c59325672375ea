#!/usr/bin/env python3
"""MAPS benchmark: end-to-end and per-layer metrics for four sweep workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig2_sweep --seed 1 --seconds 20 --trace 0

Builds the harness crate in perfbench/harness (target dir: $CARGO_TARGET_DIR,
default .bench_build), then runs the workload in fresh processes: with
--trace 0, whole-workload processes back to back until --seconds have passed,
plus set-up-only processes, and prints the end-to-end metrics; with --trace 1,
one untraced process, one traced process (spans, isolation pass) and prints
the per-layer metrics. End-to-end times are put at a reference host speed
(`speed_factor`). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness")
DIGESTS = os.path.join(HERE, "digests")

#: The figures' seed base (`maps_bench::SEED`, "MAPS"); stored digests exist
#: for this seed only.
DEFAULT_SEED = 0x4D415053
WORKLOADS = ("fig2_sweep", "policy_campaign", "frontend_sweep", "reuse_profile")
#: Set-up-only processes per untraced run, on top of the whole-workload ones.
SETUP_REPEATS = 7
#: No harness process may run longer than this (the whole run has 180 s).
PROCESS_TIMEOUT_S = 150
#: Do not start another whole-workload process past this point of a run.
LAST_START_S = 120
#: Host-speed probe time (ns) that defines the reference speed. Every
#: reported time is the measured time × REFERENCE_PROBE_NS / the median
#: probe time of the process it was measured in (see `speed_factor`).
REFERENCE_PROBE_NS = 350_000.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics


def percentile(values, p):
    """The p-th percentile of values, linearly interpolated between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest whole percentile leaving at least 10 of n samples beyond it
    (p97 for 350 samples); 50 when there are too few samples for a tail."""
    if n <= 20:
        return 50
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n) + 1e-9))


def speed_factor(probe_ns):
    """How much faster than the reference the host ran during a process:
    the reference probe time over the process's median probe time. The
    probe (`harness/src/probe.rs`) is fixed work, independent of the
    simulator, timed on the workers between points, so it slows and speeds
    with the shared host at the same moments as the points do."""
    if not probe_ns:
        raise ValueError("process reported no host-speed probes")
    return REFERENCE_PROBE_NS / statistics.median(probe_ns)


def point_stats(ms):
    """(p50, tail value, tail percentile, sample count) of point times."""
    p = tail_percentile(len(ms))
    return percentile(ms, 50), percentile(ms, p), p, len(ms)


# ---------------------------------------------------------------- correctness


def check_points(digests, expected=None, cross=None, reference=None):
    """Returns (attempted, failed keys) for one process.

    digests: key -> digest, None for a point that panicked or was
    quarantined. expected: stored digests (default seed only); a point
    missing from the run or disagreeing with them fails. cross: the
    direct-path recomputation of the sample; disagreement fails the point.
    reference: another process's digests for the same seed (traced vs.
    untraced); disagreement fails the point.
    """
    keys = set(digests)
    if expected is not None:
        keys |= set(expected)
    failed = set()
    for key in keys:
        d = digests.get(key)
        if d is None:
            failed.add(key)
        elif expected is not None and expected.get(key) != d:
            failed.add(key)
        elif reference is not None and reference.get(key) != d:
            failed.add(key)
    for key, d in (cross or {}).items():
        if digests.get(key) != d:
            failed.add(key)
    return len(keys), failed


def stored_digests(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    path = os.path.join(DIGESTS, workload + ".json")
    with open(path) as f:
        return json.load(f)["points"]


# ---------------------------------------------------------------- processes


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HARNESS, "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError("harness build failed")
    return os.path.join(target, "release", "maps-perfbench")


def harness_env():
    """The caller's environment without MAPS_* knobs: the benchmark fixes
    every input itself."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MAPS_")}


def run_harness(binary, workload, seed, mode, out, cross_check=False):
    """Runs one harness process; returns (its JSON record, spawn time)."""
    os.makedirs(out, exist_ok=True)
    cmd = [binary, workload, "--seed", str(seed), "--out", out, "--mode", mode]
    if cross_check:
        cmd.append("--cross-check")
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=harness_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} {mode} process timed out")
    if proc.returncode != 0:
        log(stderr[-4000:])
        raise RuntimeError(f"{workload} {mode} process exited {proc.returncode}")
    if not stdout.strip():
        raise RuntimeError(f"{workload} {mode} process printed nothing")
    return json.loads(stdout), started


# ---------------------------------------------------------------- runs


def end_to_end_metrics(records, setups, attempted, failed):
    """End-to-end metrics of one run: medians over its processes, except
    `peak_rss_mb`, the highest peak any of them reached (which points
    overlap on the workers, and so the peak, varies from process to
    process). Times are put at the reference host speed, each with the
    speed factor of its own process; `setups` are already."""
    factors = [speed_factor(r["probe_ns"]) for r in records]
    walls = [r["wall_s"] * f for r, f in zip(records, factors)]
    per_proc = [point_stats([ms * f for ms in r["executed_ms"]])
                for r, f in zip(records, factors)]
    med = statistics.median
    return {
        "wall_s": (med(walls), "s"),
        "sim_mips": (med(r["instructions"] / w / 1e6 for r, w in zip(records, walls)),
                     "Minstr/s"),
        "setup_s": (med(setups), "s"),
        "point_ms_p50": (med(s[0] for s in per_proc), "ms"),
        "point_ms_tail": (med(s[1] for s in per_proc), "ms"),
        "peak_rss_mb": (max(r["peak_rss_kb"] / 1024.0 for r in records), "MB"),
        "point_ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def plain_run(binary, workload, seed, seconds, out):
    """Whole-workload processes until `seconds` pass, then set-up-only ones."""
    expected = stored_digests(workload, seed)
    t0 = time.time()
    records, setups = [], []
    attempted = failed = 0
    while True:
        started_at = time.time() - t0
        rec, started = run_harness(binary, workload, seed, "plain",
                                   os.path.join(out, f"p{len(records)}"),
                                   cross_check=not records)
        if not records:
            cross = rec.get("cross_check", {})
        n, bad = check_points(rec["digests"], expected, cross)
        attempted += n
        failed += len(bad)
        for key in sorted(bad):
            log(f"[perfbench] point failed: {key}")
        records.append(rec)
        setups.append((rec["first_unix"] - started) * speed_factor(rec["probe_ns"]))
        elapsed = time.time() - t0
        last = elapsed - started_at
        if elapsed >= seconds or elapsed + last > LAST_START_S:
            break
    for i in range(SETUP_REPEATS):
        rec, started = run_harness(binary, workload, seed, "setup",
                                   os.path.join(out, f"s{i}"))
        setups.append((rec["first_unix"] - started) * speed_factor(rec["probe_ns"]))

    metrics = end_to_end_metrics(records, setups, attempted, failed)
    n = len(records[0]["executed_ms"])
    walls = [r["wall_s"] for r in records]
    factors = [speed_factor(r["probe_ns"]) for r in records]
    peaks = [r["peak_rss_kb"] for r in records]
    notes = [
        f"processes: {len(records)} whole-workload + {SETUP_REPEATS} set-up-only, "
        f"{records[0]['workers']} worker threads each (closed loop)",
        f"point_ms_p50 over {n} executed points per process; point_ms_tail is "
        f"p{tail_percentile(n)} "
        f"of the same {n} samples (median over processes)",
        f"measured wall per process (s): {', '.join(f'{w:.3f}' for w in walls)}",
        f"host speed factor per process (reference probe {REFERENCE_PROBE_NS:.0f} ns / "
        f"median probe): {', '.join(f'{f:.3f}' for f in factors)}",
        "times below are measured times x their process's speed factor",
        f"peak RSS per process (MB): "
        f"{', '.join(f'{kb / 1024.0:.1f}' for kb in peaks)}",
        f"correctness: {'stored digests + ' if expected is not None else ''}"
        f"direct-path cross-check of {len(cross)} points; {failed} of {attempted} points failed",
    ]
    return metrics, attempted, failed, notes


def traced_run(binary, workload, seed, out):
    """One untraced and one traced process; per-layer metrics."""
    expected = stored_digests(workload, seed)
    plain, _ = run_harness(binary, workload, seed, "plain", os.path.join(out, "plain"),
                           cross_check=True)
    traced, _ = run_harness(binary, workload, seed, "traced", os.path.join(out, "traced"))
    attempted = failed = 0
    cross = plain["cross_check"]
    for rec, ref in ((plain, None), (traced, plain["digests"])):
        n, bad = check_points(rec["digests"], expected, cross, ref)
        attempted += n
        failed += len(bad)
        for key in sorted(bad):
            log(f"[perfbench] point failed ({rec['mode']}): {key}")
    layers = dict(traced["per_layer"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    spans_dir = os.path.join(ROOT, ".bench_out", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    kept = os.path.join(spans_dir, f"{workload}-seed{seed}.json")
    shutil.copyfile(os.path.join(out, "traced", "spans.json"), kept)
    notes = [f"spans written to {os.path.relpath(kept, ROOT)}"]
    for name, t in sorted(traced["spans"].items()):
        notes.append(f"span {name:9s} count {t['count']:6d}  total {t['total_ms']:10.1f} ms"
                     f"  self {t['self_ms']:10.1f} ms")
    return layers, attempted, failed, notes


# ---------------------------------------------------------------- main


def finite(v):
    """Whether a reported value is a finite number (the harness writes
    `null` for NaN and infinities)."""
    return isinstance(v, (int, float)) and math.isfinite(v)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="store this run's per-point digests (default seed only)")
    args = ap.parse_args(argv)

    out = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    try:
        binary = build()
        if args.write_digests:
            if args.seed != DEFAULT_SEED:
                raise RuntimeError(f"digests are stored for seed {DEFAULT_SEED} only")
            rec, _ = run_harness(binary, args.workload, args.seed, "plain", out)
            os.makedirs(DIGESTS, exist_ok=True)
            with open(os.path.join(DIGESTS, args.workload + ".json"), "w") as f:
                json.dump({"seed": args.seed, "points": rec["digests"]}, f, indent=0, sort_keys=True)
                f.write("\n")
            return 0
        log("[perfbench] statistics start after the configs' 10% warm-up, except "
            "fig6-shaped points (policy_campaign), which start cold because MIN needs it")
        if args.trace:
            values, attempted, failed, notes = traced_run(binary, args.workload, args.seed, out)
            units = {m["name"]: m["unit"] for m in declared_metrics(True)}
            metrics = {k: (v, units.get(k, "")) for k, v in values.items()}
        else:
            metrics, attempted, failed, notes = plain_run(
                binary, args.workload, args.seed, args.seconds, out)
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"[perfbench] error: {e}")
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    names = [m["name"] for m in declared_metrics(bool(args.trace))]
    missing = [n for n in names if n not in metrics]
    extra = [n for n in metrics if n not in names]
    bad = [k for k, (v, _) in metrics.items() if not finite(v)]
    for note in notes:
        print(note)
    for name in names:
        if name in metrics:
            value, unit = metrics[name]
            print(f"{name} = {value:.6g} {unit}")
    if missing or extra or bad:
        log(f"[perfbench] missing metrics {missing}, undeclared {extra}, non-finite {bad}")
    result = {
        "correct": failed == 0 and not missing and not extra and not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if finite(v)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
