"""toricgit benchmark: one seeded workload, checked, with every metric named.

    python3 perfbench/run.py --workload {sweep,enumerate,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a child process
(worker.py) on the checkout's own `src`.  Times are in reference seconds,
calibrated against a fixed kernel for the host's speed (calibrate.py).  With --trace 0 the last stdout
line holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a separate traced run.  Both are also merged into
`.bench_build/perfbench/results/<workload>-seed<N>.json`, next to the
Python version, the CPU count and the commit.  See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 170
WORKLOADS = ("sweep", "enumerate", "cli")

# end-to-end metric -> unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def nearest_rank(values, q):
    """The q-th percentile as an observed value (nearest-rank method)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(report):
    """Metrics in reference seconds: each raw time times the calibration
    factor of the moment it was measured in."""
    passes = report["passes"]
    # percentiles per pass, so that every pass contributes the same call mix
    latencies = [[s * f for _, s, f in p["calls"]] for p in passes]
    walls = [sum(c) for c in latencies]
    metrics = {
        "setup_s": statistics.median(s * f for s, f in report["setup"]),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(p["ops"] / w for p, w in zip(passes, walls)),
        "call_p50_ms": 1000 * statistics.median(nearest_rank(c, 50) for c in latencies),
        "call_p90_ms": 1000 * statistics.median(nearest_rank(c, 90) for c in latencies),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def environment():
    """Python version, usable CPUs, and the code measured."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "toricgit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def layer_table(per_layer):
    lines = [f"{'per-layer metric (per pass)':<34} {'value':>14}  unit"]
    for name, m in per_layer.items():
        lines.append(f"{name:<34} {m['value']:>14.6g}  {m['unit']}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    for needed in (os.path.join(ROOT, "src", "toricgit", "__init__.py"),
                   os.path.join(ROOT, "inputs")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    work_dir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", ROOT, "--work-dir", work_dir,
    ] + (["--tiny"] if args.tiny else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted = sum(p["attempted"] for p in report["passes"])
    failures = [f for p in report["passes"] for f in p["failures"]]
    run = {
        "seconds": args.seconds,
        "passes": len(report["passes"]),
        "calls": sum(len(p["calls"]) for p in report["passes"]),
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
    }
    if args.trace:
        metrics = report["per_layer"]
        section = {"per_layer": metrics, "traced_run": run,
                   "untraced_pass_wall_s": report["untraced_wall_s"],
                   "entry_points": report["entry_points"],
                   "span_stats": report["span_stats"]}
        lines = layer_table(metrics)
    else:
        metrics = end_to_end(report)
        section = {"end_to_end": metrics, "run": run,
                   "setup_raw_s_and_factor": report["setup"],
                   "raw_pass_walls_s": [sum(s for _, s, _ in p["calls"])
                                        for p in report["passes"]],
                   "calls_label_raw_s_factor": [p["calls"] for p in report["passes"]],
                   "kernel_samples_s": report["kernel_samples_s"]}
        lines = [f"{k:<14} {m['value']:>14.6g}  {m['unit']}" for k, m in metrics.items()]

    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}")
    document = {}
    if os.path.isfile(stem + ".json"):
        with open(stem + ".json", encoding="utf-8") as handle:
            document = json.load(handle)
    document.update(section, workload=args.workload, seed=args.seed,
                    environment=environment())
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": report["spans"]}, handle)

    print(f"workload {args.workload}, seed {args.seed}, {run['passes']} passes, "
          f"{run['attempted']} checks, {run['failed']} failed "
          f"(failed_ratio {run['failed_ratio']:.6g})")
    for line in lines + failures[:5]:
        print(line)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
