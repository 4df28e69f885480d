"""One workload in its own process: set up, run timed passes, check outputs.

Started by run.py; prints one JSON object on its last stdout line.  Load is
a closed loop on one thread: each call into toricgit starts only after the
previous one returned.  Passes repeat until --seconds have elapsed, and
every pass does the same work on fresh library objects.

A pass's time is the sum of its calls' times.  A timer runs the
calibration kernel (calibrate.py) twice a second; the worker reports, with
each call, its time less the kernel runs inside it and the factor that
turns that time into reference seconds.

With --trace 1 the worker first times one untraced pass, then installs the
layer tracer and runs the traced passes; the ratio of the two pass times
is the tracing overhead.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9


def import_toricgit(src):
    """Import toricgit afresh from `src`, dropping any earlier copy."""
    for name in [n for n in sys.modules if n.split(".")[0] == "toricgit"]:
        del sys.modules[name]
    cli = importlib.import_module("toricgit.cli")  # pulls in every layer
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"toricgit was imported from {cli.__file__}, not {src}")
    mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "toricgit"}
    return SimpleNamespace(
        cli=cli,
        corpus=mods["toricgit.corpus"],
        fans=mods["toricgit.fans"],
        quotients=mods["toricgit.quotients"],
        modules=mods,
    )


def make_workload(name, root, work_dir):
    import workloads

    if name == "sweep":
        return workloads.Sweep()
    if name == "enumerate":
        return workloads.Enumerate()
    if name == "cli":
        return workloads.Cli(os.path.join(root, "inputs"), work_dir)
    raise ValueError(f"unknown workload {name!r}")


def timed_passes(workload, tk, inputs, seconds, cal):
    """Run passes until `seconds` have elapsed (at least one).  A kernel run
    before and after each pass gives every call calibration neighbours even
    when the timer is off."""
    passes = []
    start = time.perf_counter()
    cal.tick()
    while True:
        passes.append(workload.run_pass(tk, inputs))
        cal.tick()
        if time.perf_counter() - start >= seconds:
            return passes


def calibrated_calls(result, cal):
    """(label, work seconds, factor) for each call of a pass."""
    return [(label, *cal.calibrate(start, seconds))
            for label, start, seconds in result.calls]


def pass_wall(calls):
    return sum(seconds * factor for _, seconds, factor in calls)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--root", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import calibrate
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    workload = make_workload(args.workload, args.root, args.work_dir)

    # the kernel runs on a timer through set-up and the untraced passes; the
    # traced run keeps it off, so that no kernel time lands inside a span
    cal = calibrate.Calibrator()
    for _ in range(calibrate.NEIGHBOURS):
        cal.tick()
    cal.start_timer()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tk = import_toricgit(src)
        inputs = workload.build(tk, args.seed, reference, args.tiny)
        setups.append((t0, time.perf_counter() - t0))
    if args.trace:
        cal.stop_timer()

    report = {}
    if args.trace:
        import tracer as tracing

        baseline = timed_passes(workload, tk, inputs, 0, cal)
        tracer = tracing.Tracer()
        tracer.install(tk.modules)
        passes = timed_passes(workload, tk, inputs, args.seconds, cal)
        calls = [calibrated_calls(r, cal) for r in passes]
        count = len(passes)
        factor = statistics.median(f for c in calls for _, _, f in c)
        layers = {}
        for metric, (unit, read) in tracing.PER_LAYER.items():
            value = read(tracer)
            if unit == "s":
                value *= factor / count  # reference seconds per pass
            elif unit == "count":
                value /= count
            layers[metric] = {"value": value, "unit": unit}
        traced_wall = statistics.median(pass_wall(c) for c in calls)
        untraced_wall = pass_wall(calibrated_calls(baseline[0], cal))
        layers["trace.overhead_ratio"] = {
            "value": traced_wall / untraced_wall, "unit": "ratio"}
        report["per_layer"] = layers
        report["untraced_wall_s"] = untraced_wall
        report["entry_points"] = tracer.installed
        report["span_stats"] = {
            name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
            for name, s in sorted(tracer.stats.items()) if s[0]
        }
        report["spans"] = tracer.spans
    else:
        passes = timed_passes(workload, tk, inputs, args.seconds, cal)
        cal.stop_timer()
    for _ in range(calibrate.NEIGHBOURS):
        cal.tick()

    report["setup"] = [cal.calibrate(t0, seconds) for t0, seconds in setups]
    report["kernel_samples_s"] = cal.samples
    report["passes"] = [
        {
            "ops": r.ops,
            "calls": calibrated_calls(r, cal),
            "attempted": r.attempted,
            "failures": r.failures,
        }
        for r in passes
    ]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
