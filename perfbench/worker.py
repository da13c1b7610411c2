"""One workload in one fresh process; started by run.py, not by hand.

Prints `ready` once the inputs exist (run.py times set-up up to that
line) and `scale <factor> work_s <seconds>` right after: the calibration
and the nominal length of the passes to come (run.py's time limit).
Then, unless --setup-only, it runs the passes, checks every output, and
prints one JSON line with the raw results. A traced run first runs
half its passes untraced, then installs tracing for the rest, and finally
repeats set-up under tracing to attribute it to generators.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it. With 21 samples or fewer that sample is the median
    or below it, no tail at all, so the maximum stands in."""
    s = sorted(times)
    n = len(s)
    if n < 22:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def medians(groups: dict) -> dict:
    return {k: [statistics.median(v), len(v)] for k, v in sorted(groups.items())}


def blas_info() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def child_spans(span_dir: str) -> list:
    """Spans written by traced CLI subprocesses, parents re-indexed so the
    files concatenate into one list."""
    spans = []
    for name in sorted(os.listdir(span_dir), key=lambda s: int(s.split(".")[0])):
        with open(os.path.join(span_dir, name)) as fh:
            base = len(spans)
            spans.extend((l, f, a, b, p + base if p >= 0 else -1, m, nb)
                         for l, f, a, b, p, m, nb in json.load(fh))
    return spans


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import framekit
    if not os.path.abspath(framekit.__file__).startswith(SRC + os.sep):
        print(f"error: framekit imported from {framekit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.workdir)
    print("ready", flush=True)
    import speed
    c = statistics.median(speed.calibrate() for _ in range(3))
    passes = max(1, round(args.seconds / wl.nominal_s))
    work_s = 0.0 if args.setup_only else passes * wl.nominal_s
    print(f"scale {speed.scale(c)!r} work_s {work_s!r}", flush=True)
    if args.setup_only:
        return 0

    untraced = max(1, passes // 2) if args.trace else passes
    traced = max(1, passes - untraced) if args.trace else 0
    rss_who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    walls, raw_walls, times, names, steps, cals = [], [], [], [], {}, []
    failed = attempted = 0
    for i in range(untraced):
        p = workloads.Pass()
        wl.run_pass(p, inputs)
        p.finish()
        if i == 0:  # before any check has run, so checks never set the peak
            peak_rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024.0
        scaled = p.task_times()
        walls.append(sum(scaled))
        raw_walls.append(sum(step[2] for step in p.steps))
        cals += [cal for _, cal in p.calibrations]
        times += scaled
        names += p.task_names
        for step, t in zip(p.steps, p.step_times()):
            steps.setdefault(step[1], []).append(t)
        failed += p.verify()
        attempted += len(p.task_names)

    result = {"passes": untraced, "walls": walls, "raw_walls": raw_walls,
              "calibration_s": statistics.median(cals),
              "numpy": sys.modules["numpy"].__version__,
              "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
              "blas": blas_info(), "peak_rss_mb": peak_rss_mb}

    if traced:
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)
        rec.enabled = False
        traced_walls, layers = [], []
        for i in range(traced):
            span_dir = None
            if wl.in_children:
                span_dir = os.path.join(args.workdir, f"spans-{os.getpid()}-{i}")
                os.makedirs(span_dir)
            p = workloads.Pass(span_dir)
            rec.enabled = True
            wl.run_pass(p, inputs)
            rec.enabled = False
            p.finish()
            traced_walls.append(sum(p.task_times()))
            spans = rec.take() + (child_spans(span_dir) if span_dir else [])
            layers.append(tracing.aggregate(spans))
            failed += p.verify()
            attempted += len(p.task_names)
        rec.enabled = True
        wl.setup(args.seed, args.workdir)
        rec.enabled = False
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["generators.self_s"] = tracing.aggregate(rec.take())["generators.self_s"]
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["traced_walls"] = traced_walls
        result["layers"] = metrics

    if wl.known_defect:
        result["known_defect"] = wl.known_defect(args.seed)
    value, pct = tail(times)
    per_task = {}
    for name, t in zip(names, times):
        per_task.setdefault(name, []).append(t)
    result.update({
        "failed": failed, "attempted": attempted,
        "wall_s": statistics.median(walls),
        "task_p50_s": statistics.median(times),
        "task_tail_s": value, "tail_pct": pct, "samples": len(times),
        "per_task": medians(per_task), "per_step": medians(steps),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
