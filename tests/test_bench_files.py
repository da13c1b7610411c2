"""Each committed BENCH_*.json meets its claim.

A file whose claim is null records runs and claims no gain.  Otherwise
the claim names a workload and a metric that BENCHMARK.json declares,
both sides of the claimed metric have runs, paired one to one, no run
has a failed task, and the change meets the claim's rule: it wins at
least 9 of 10 pairs and beats the parent's median by more than the
parent's interquartile range.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def claim_failure(data, benchmark):
    """Why the BENCH record data does not meet its claim under the
    benchmark declaration, or None if it does or claims nothing."""
    claim = data["claim"]
    if claim is None:
        return None
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    if claim["workload"] not in workloads or claim["metric"] not in metrics:
        return (f"claim names {claim['workload']!r}/{claim['metric']!r}, "
                f"not in BENCHMARK.json")
    runs = data["workloads"][claim["workload"]]
    parent = runs["metrics"][claim["metric"]]["parent"]
    change = runs["metrics"][claim["metric"]]["change"]
    if not 0 < len(parent) == len(change):
        return f"{len(parent)} parent and {len(change)} change runs"
    if any(runs["failed"]["parent"] + runs["failed"]["change"]):
        return "a run has failed tasks"
    sign = 1 if claim["better"] == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = sign * (median - statistics.median(change))
    if 10 * wins < 9 * len(parent):
        return f"the change wins {wins} of {len(parent)} pairs"
    if not gain > q3 - q1:
        return f"the median gain {gain:.6g} is not above the parent IQR {q3 - q1:.6g}"
    return None


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_meets_its_claim(path):
    assert claim_failure(json.loads(path.read_text()), BENCHMARK) is None


# parent runs of the in-memory claims: median 14.5, IQR 4.5
PARENT = [float(v) for v in range(10, 20)]


def record(change, failed=0, metric="task_tail_s"):
    """A claim on subset_sweep with the PARENT runs, the given change runs,
    and `failed` tasks in the first change run."""
    return {"claim": {"workload": "subset_sweep", "metric": metric, "better": "lower"},
            "workloads": {"subset_sweep": {
                "failed": {"parent": [0] * len(PARENT),
                           "change": [failed] + [0] * (len(change) - 1)},
                "metrics": {metric: {"parent": PARENT, "change": change}}}}}


def test_claim_rule_refuses_what_falls_short():
    assert claim_failure(record([p - 5.0 for p in PARENT]), BENCHMARK) is None
    assert claim_failure({"claim": None}, BENCHMARK) is None
    # each falls short of the rule for the reason named
    short = (
        (record([p - 6.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]),
         "wins 8 of 10 pairs"),
        (record([p - 4.5 for p in PARENT]), "gain 4.5 is not above the parent IQR 4.5"),
        (record([p - 5.0 for p in PARENT], failed=1), "a run has failed tasks"),
        (record([p - 5.0 for p in PARENT[:9]]), "10 parent and 9 change runs"),
        (record([p - 5.0 for p in PARENT], metric="task_p99_s"), "not in BENCHMARK.json"),
    )
    for data, reason in short:
        assert reason in (claim_failure(data, BENCHMARK) or ""), reason
