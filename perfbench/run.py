"""framekit benchmark: one workload, one seed, every metric checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_small, dense_duals, small_batch, subset_sweep (see
perfbench/README.md for why each exists and what it measures).

One closed-loop client in one process drives all load. BLAS is pinned to
one thread. Set-up is timed in fresh processes from start until the
inputs are ready, several times, and reported as the median. The worker
then runs whole passes of the workload's fixed task list, about S
seconds' worth at the baseline speed, and checks every output against an
independent reference. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics from
a traced run. Lines before it give the environment, per-task medians and
every metric with its unit. Exits 2 without a result when the framekit
sources are missing or the worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
SETUP_SAMPLES = 5  # the worker's own set-up plus four set-up-only processes
IMPORT_ROUNDS = 3
STARTUP_TIMEOUT_S = 120.0  # until a worker has made its inputs; also a cold import
CPU = min(os.sched_getaffinity(0))
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("task_p50_s", "s"),
              ("task_tail_s", "s"), ("peak_rss_mb", "MB"))
IMPORTS = (("import.python_s", "pass"), ("import.numpy_s", "import numpy"),
           ("import.framekit_s", "import framekit"))


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FRAMEKIT_SEED", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_worker(args, workdir: str, env: dict, setup_only: bool):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so a timeout can kill the CLI calls it runs too.
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)


def run_worker(args, workdir: str, env: dict, setup_only: bool) -> tuple:
    """(seconds from process start to `ready` at reference speed, raw
    seconds, last stdout line). The worker and its children are killed
    when set-up takes STARTUP_TIMEOUT_S, or the passes three times their
    nominal length plus a minute."""
    start = perf_counter()
    timed_out = threading.Event()

    def kill(proc) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def time_out(proc) -> None:
        timed_out.set()
        kill(proc)

    with start_worker(args, workdir, env, setup_only) as proc:
        timer = threading.Timer(STARTUP_TIMEOUT_S, time_out, (proc,))
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = perf_counter() - start
            scale = proc.stdout.readline().split()
            timer.cancel()
            if scale[:1] == ["scale"] and not timed_out.is_set():
                timer = threading.Timer(60.0 + 3.0 * float(scale[3]), time_out, (proc,))
                timer.start()
            rest, _ = proc.communicate()
        except BaseException:  # interrupted or terminated: take the worker along
            kill(proc)
            raise
        finally:
            timer.cancel()
    if timed_out.is_set():
        raise BenchError("worker timed out")
    if proc.returncode != 0 or first.strip() != "ready" or scale[:1] != ["scale"]:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready * float(scale[1]), ready, lines[-1] if lines else ""


def cold_start(code: str, env: dict) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=STARTUP_TIMEOUT_S)
    return perf_counter() - start


def environment(worker: dict) -> dict:
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "framekit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": sys.version.split()[0], "numpy": worker["numpy"],
            "scipy": worker["scipy"], "blas": worker["blas"],
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "pinned_cpu": CPU,
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "framekit", "__init__.py")):
        print(f"error: framekit sources not found under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))  # runs the clean-up below
    os.sched_setaffinity(0, {CPU})  # children inherit: calibration and work share a core
    env = child_env()
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        try:
            run_worker(args, workdir, env, True)  # warm-up: bytecode, page cache
            setups, raw_setups, imports = [], [], {}
            if args.trace:
                samples = {name: [] for name, _ in IMPORTS}
                for _ in range(IMPORT_ROUNDS):
                    for name, code in IMPORTS:
                        samples[name].append(cold_start(code, env))
                imports = {k: statistics.median(v) for k, v in samples.items()}
            else:
                for _ in range(SETUP_SAMPLES - 1):
                    scaled, raw, _ = run_worker(args, workdir, env, True)
                    setups.append(scaled)
                    raw_setups.append(raw)
            main_scaled, main_raw, line = run_worker(args, workdir, env, False)
            worker = json.loads(line)
        except (BenchError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    setups.append(main_scaled)
    raw_setups.append(main_raw)

    print("env " + json.dumps(environment(worker)))
    print(f"workload {args.workload} seed {args.seed} passes {worker['passes']}")
    print(f"raw (unscaled) walls_s {[round(w, 4) for w in worker['raw_walls']]}"
          f" setups_s {[round(s, 4) for s in raw_setups]}"
          f" calibration_s {worker['calibration_s']:.5f}")
    print(f"scaled walls_s {[round(w, 4) for w in worker['walls']]}"
          f" setups_s {[round(s, 4) for s in setups]}")
    for kind in ("task", "step"):
        for name, (median, count) in worker["per_" + kind].items():
            print(f"{kind} {name} median_s {median:.6g} count {count}")
    if args.trace:
        found = dict(imports, **worker["layers"])
        metrics = {name: found[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        print(f"traced walls_s {[round(w, 4) for w in worker['traced_walls']]}")
    else:
        metrics = {"setup_s": statistics.median(setups)}
        metrics.update({k: worker[k] for k in ("wall_s", "task_p50_s",
                                               "task_tail_s", "peak_rss_mb")})
        units = dict(END_TO_END)
    for name, value in metrics.items():
        note = ""
        if name == "task_tail_s":
            note = f" (p{worker['tail_pct']:.2f} of {worker['samples']} samples)"
        print(f"metric {name} {value:.6g} {units[name]}{note}")
    if "known_defect" in worker:
        misses, frames = worker["known_defect"]
        print(f"known_defect canonical_dual: {misses} of {frames} frames miss "
              f"V*U = I within atol (untimed, not in failed; see README)")
    rate = worker["failed"] / worker["attempted"]
    print(f"metric error_rate {rate:.6g} ratio ({worker['failed']} failed of "
          f"{worker['attempted']} attempted)")
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
