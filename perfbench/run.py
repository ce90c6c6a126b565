#!/usr/bin/env python3
"""masseylink benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else.  With ``--trace 0`` the run
measures the end-to-end metrics of BENCHMARK.json for at least ``--seconds``
seconds, in whole units of work, with the rates counted in reference seconds
(``speed.py``); with ``--trace 1`` it makes one traced unit
and reports the per-layer metrics.  The last line of stdout is the JSON
result; a fuller report and the spans go to ``.bench_out/``.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3      # set-up steps are repeated and their median taken
COLD_IMPORTS = 9       # a fresh interpreter's start-up is short and noisy
MODULES = ("cli", "diagram", "embed", "magnus", "massey", "rational")


class BenchError(Exception):
    pass


def import_package(root):
    """Import masseylink from ``root/src``; returns (modules, seconds)."""
    src = (root / "src").resolve()
    if not (src / "masseylink" / "__init__.py").is_file():
        raise BenchError("no masseylink sources under %s" % src)
    t0 = time.perf_counter()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {m: importlib.import_module("masseylink." + m) for m in MODULES}
    elapsed = time.perf_counter() - t0
    if Path(mods["cli"].__file__).resolve().parent != src / "masseylink":
        raise BenchError("masseylink imported from %s" % mods["cli"].__file__)
    return types.SimpleNamespace(**mods), elapsed


def cold_import(root):
    """Median wall seconds of COLD_IMPORTS fresh interpreters importing the
    package, the start-up a command-line user pays on every call, and the
    wall seconds of each.  The speed meter measures its own process, not a
    child's, so this step stays in wall seconds."""
    code = "import sys; sys.path.insert(0, %r); import masseylink.cli" % str(root / "src")
    walls = []
    for _ in range(COLD_IMPORTS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", code], check=True)
        walls.append(time.perf_counter() - t)
    return statistics.median(walls), walls


def git_commit(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    h = hashlib.sha256()
    for p in sorted((root / "src" / "masseylink").rglob("*")):
        if p.suffix in (".py", ".json") and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def tail(values):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Below 20 samples that
    percentile would not exceed the median, so the maximum is reported.
    """
    s = sorted(values)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def loglog_slope(points):
    """Least-squares slope of ln(latency) against ln(crossings)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    if len(set(xs)) < 2:
        return None
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def measure(root, workload, seed, seconds, trace, small=False):
    """One benchmark run; returns (metrics, report)."""
    ml, import_s = import_package(root)
    # set-up steps in this process are timed in reference seconds too
    setup = SpeedMeter()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    expected = json.loads((HERE / "expected.json").read_text())
    w = workloads.WORKLOADS[workload](ml, expected, seed, small, str(out_dir))
    steps = {"cold_import": cold_import(root)}
    with setup:
        steps["generate"] = setup.repeat(w.setup, SETUP_REPEATS)
    w.prepare()

    tracer = Tracer() if trace else None
    meter = None if trace else SpeedMeter()
    samples = workloads.Samples(tracer, meter)
    gc.collect()
    if tracer:
        tracer.install()
    try:
        # the shared embedding of orderings_warm is traced too, once and
        # without the meter: its build is what verify pruning should shorten
        if hasattr(w, "build") and trace:
            w.build()
        elif hasattr(w, "build"):
            with setup:
                steps["build"] = setup.repeat(w.build, SETUP_REPEATS)
        setup_s = sum(ref for ref, _ in steps.values())
        with meter or contextlib.nullcontext():
            t0 = time.perf_counter()
            units = 0
            while True:
                w.unit(units, samples)
                units += 1
                wall = time.perf_counter() - t0
                if trace or wall >= seconds:
                    break
    finally:
        if tracer:
            tracer.restore()

    answers = len(samples.latency)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {
            "backend": ml.rational.Q.__module__,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": git_commit(root),
            "src_sha256": source_digest(root),
        },
        "units": units, "wall_s": wall, "answers": answers,
        "attempted": samples.attempted, "failed": samples.failed,
        "errors": samples.errors,
        "answers_log": samples.log,
        "bad_inputs": getattr(w, "bad_inputs", ""),
        "setup": {"import_s": import_s,
                  "steps_s_and_walls": steps,
                  "speeds": setup.speeds},
    }
    if trace:
        overhead = tracer.overhead_s()
        report["trace_overhead"] = {"seconds": overhead, "share_of_wall": overhead / wall}
        metrics = tracer.metrics(answers)
        spans_path = out_dir / ("spans-%s-s%d.json" % (workload, seed))
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "call"],
             "spans": tracer.spans}))
        return metrics, report
    if not answers:
        return {}, report
    t_value, t_pct, t_beyond = tail(samples.latency)
    # Latency percentiles and the scaling exponent are reported, not metrics:
    # between runs of the same code they spread by more than the largest
    # bound BENCHMARK.json may set (see README.md).
    report["percentiles"] = {
        "latency_p50_s": {"percentile": 50.0, "samples": answers,
                          "value": statistics.median(samples.latency)},
        "latency_tail_s": {"percentile": t_pct, "samples": answers,
                           "beyond": t_beyond, "value": t_value},
    }
    report["scaling_exponent"] = {"value": loglog_slope(samples.fit),
                                  "fit_samples": len(samples.fit)}
    # the rates are per reference second (speed.py); the report also keeps
    # them per second of wall time outside the reference runs
    report["wall_rates"] = {"answers_per_s": answers / meter.work_s,
                            "crossings_per_s": sum(samples.crossings) / meter.work_s}
    report["speed"] = {"samples": len(meter.speeds), "reference_runs_s": meter.ref_s,
                       "work_s": meter.work_s, "reference_s": meter.reference_s,
                       "median": statistics.median(meter.speeds),
                       "min": min(meter.speeds), "max": max(meter.speeds)}
    metrics = {
        "setup_s": setup_s,
        "answers_per_ref_s": answers / meter.reference_s,
        "crossings_per_ref_s": sum(samples.crossings) / meter.reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, report


def main(argv=None):
    ap = argparse.ArgumentParser(description="masseylink benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = ROOT
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        metrics, report = measure(root, args.workload, args.seed, args.seconds,
                                  args.trace)
    except (BenchError, OSError, ValueError) as e:
        sys.stderr.write("benchmark cannot run: %s\n" % e)
        return 2

    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    missing = sorted(set(units) - set(metrics))
    correct = (report["failed"] == 0 and report["attempted"] > 0
               and not report["bad_inputs"] and not missing)
    report["missing_metrics"] = missing
    report["metrics"] = metrics
    (root / ".bench_out" / ("report-%s-s%d-t%d.json"
                            % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(report, indent=1, sort_keys=True))

    env = report["env"]
    print("# %s seed=%d trace=%d backend=%s nproc=%s python=%s commit=%s"
          % (args.workload, args.seed, args.trace, env["backend"], env["nproc"],
             env["python"], env["commit"]))
    print("# %d units in %.3f s, %d answers, %d of %d attempted failed"
          % (report["units"], report["wall_s"], report["answers"],
             report["failed"], report["attempted"]))
    for key, p in sorted(report.get("percentiles", {}).items()):
        print("# %s: %s" % (key, json.dumps(p, sort_keys=True)))
    if "speed" in report:
        print("# speed: %s; per wall second: %s"
              % (json.dumps(report["speed"], sort_keys=True),
                 json.dumps(report["wall_rates"], sort_keys=True)))
    if "scaling_exponent" in report:
        print("# scaling_exponent: %s" % json.dumps(report["scaling_exponent"]))
    if "trace_overhead" in report:
        o = report["trace_overhead"]
        print("# tracing overhead %.4f s, %.2f%% of the traced wall time"
              % (o["seconds"], 100 * o["share_of_wall"]))
    for why in report["errors"] + ([report["bad_inputs"]] if report["bad_inputs"] else []):
        print("# FAILED %s" % why)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
