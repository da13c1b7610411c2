"""Self-test of the benchmark in short mode (one pass per workload).

Usage, from the repository root:

    python3 perfbench/selftest.py

For each workload named in BENCHMARK.json it runs `run.py --seconds 1`
untraced and traced, and checks that the last line has exactly the keys
correct/attempted/failed/metrics, that every end-to-end or per-layer
metric of BENCHMARK.json is present with its unit and nothing else, that
end-to-end values are positive, and that error_rate is 0. It prints the
known-defect line of a run where there is one. It also checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark. Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def check_result(spec: dict, workload: str, trace: int) -> list:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != KEYS:
        problems.append(f"{where}: keys {sorted(res)}")
    section = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            problems.append(f"{where}: metric {name} unit {got.get(name)!r}, "
                            f"expected {want.get(name)!r}")
    for name, v in res["metrics"].items():
        value = v.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or (not trace and value <= 0):
            problems.append(f"{where}: metric {name} has value {value!r}")
    if res["attempted"] < 1 or res["failed"] != 0 or res["correct"] is not True:
        problems.append(f"{where}: error_rate {res['failed']}/{res['attempted']}")
    for line in proc.stdout.splitlines():
        if line.startswith("known_defect"):
            print(f"    {where}: {line}")
    if not problems:
        print(f"ok  {where}: {len(got)} metrics, {res['attempted']} tasks, error_rate 0")
    return problems


def check_refuses_without_sources(workload: str) -> list:
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-selftest-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
        proc = run(bare, workload, 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"benchmark ran without framekit sources (exit {proc.returncode})"]
    print("ok  refuses to run without the framekit sources")
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    problems = check_refuses_without_sources(workloads[0])
    for workload in workloads:
        for trace in (0, 1):
            problems += check_result(spec, workload, trace)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
