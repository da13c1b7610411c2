"""The four workloads: how each makes its inputs and what one pass runs.

A pass is the workload's fixed task list. Every task is one call into
framekit (or, for cli_small, one CLI subprocess); it is timed on its
own and its output is checked after the pass by `checks`, outside the
timed region. `setup` functions make all inputs from the workload seed;
nothing in a pass draws random numbers.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import framekit as fk

import checks as ck
import speed

TOL = fk.ToleranceConfig()
CALIBRATE_EVERY_S = 0.15
HERE = os.path.dirname(os.path.abspath(__file__))


class Pass:
    """One pass of a workload's task list.

    A task is a group of steps opened by `task`; a step is one call into
    framekit (or one CLI subprocess) and is timed on its own. Outputs are
    checked by `verify` after the pass, outside the timed region. Before a
    step, when CALIBRATE_EVERY_S has passed since the last calibration,
    the machine speed is measured again, and `finish` measures it once
    more after the last step. A traced cli_small pass has its CLI
    subprocesses write spans to span_dir.
    """

    def __init__(self, span_dir=None) -> None:
        self.span_dir = span_dir
        self.task_names: list = []
        self.steps: list = []  # (task index, step name, seconds, check, output)
        self.calibrations: list = []  # (index of the next step, seconds)
        self._next_calibration = 0.0

    def _calibrate(self) -> None:
        self.calibrations.append((len(self.steps), speed.calibrate()))
        self._next_calibration = perf_counter() + CALIBRATE_EVERY_S

    def task(self, name: str) -> None:
        self.task_names.append(name)

    def run(self, name: str, check, fn, *args):
        if perf_counter() >= self._next_calibration:
            self._calibrate()
        start = perf_counter()
        try:
            out = fn(*args)
        except Exception:
            elapsed = perf_counter() - start
            traceback.print_exc()
            check = out = None
        else:
            elapsed = perf_counter() - start
        self.steps.append((len(self.task_names) - 1, name, elapsed, check, out))
        return out

    def finish(self) -> None:
        self._calibrate()

    def step_times(self) -> list:
        """Step times at reference speed, each scaled by the mean of the
        calibrations just before and just after it."""
        out = []
        cals = self.calibrations
        k = 0
        for i, step in enumerate(self.steps):
            while k + 1 < len(cals) and cals[k + 1][0] <= i:
                k += 1
            after = cals[k + 1][1] if k + 1 < len(cals) else cals[k][1]
            out.append(step[2] * speed.scale((cals[k][1] + after) / 2.0))
        return out

    def task_times(self) -> list:
        out = [0.0] * len(self.task_names)
        for step, t in zip(self.steps, self.step_times()):
            out[step[0]] += t
        return out

    def verify(self) -> int:
        """Number of failed tasks: a step raised or missed its check."""
        failed = set()
        for task, name, _, check, out in self.steps:
            ok = False
            if check is not None:
                try:
                    ok = bool(check(out))
                except Exception:
                    traceback.print_exc()
            if not ok:
                print(f"check failed: {self.task_names[task]} / {name}", file=sys.stderr)
                failed.add(task)
        return len(failed)


class Item:
    """One input frame with its free operator W, an optional fixed J, and
    its reference facts, computed on first use so set-up stays lean."""

    def __init__(self, frame, w, j=None, label="") -> None:
        self.frame, self.w, self.j, self.label = frame, w, j, label
        self._ref = None

    @property
    def ref(self) -> ck.Reference:
        if self._ref is None:
            self._ref = ck.Reference(np.asarray(self.frame.vectors))
        return self._ref


def _seeds(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed % 2**63)
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def _gaussian(rng, rows: int, cols: int, complex_valued: bool) -> np.ndarray:
    g = rng.standard_normal((rows, cols))
    if complex_valued:
        g = (g + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return g


def _make_item(kind: str, d: int, n: int, field: str, seed: int, with_j: bool,
               label: str) -> Item:
    if kind == "random":
        f = fk.random_frame(d, n, seed, field)
    else:
        f = fk.parseval_projection_frame(d, n, seed, field)
    w = _gaussian(np.random.default_rng(seed + 1), n, d, field == "complex")
    j = fk.IndexSet.from_iterable(range(1, n // 2 + 1), n) if with_j else None
    return Item(f, w, j, label)


def pipeline(p: Pass, it: Item) -> None:
    """The dual/Parseval pipeline on one frame (and nu_bounds when the
    frame is Parseval and carries a fixed J)."""
    f, w, lab = it.frame, it.w, it.label
    p.task("pipeline" + lab)
    p.run("frame_bounds" + lab, lambda b: it.ref.bounds_ok(b.a_opt, b.b_opt),
          fk.frame_bounds, f)
    p.run("excess" + lab,
          lambda r: r.excess == it.ref.excess and r.rank == it.ref.rank,
          fk.excess, f, TOL)
    p.run("canonical_dual" + lab, lambda g: it.ref.canonical_ok(g.vectors),
          fk.canonical_dual, f, TOL)
    h = p.run("dual_from_free_operator" + lab,
              lambda g: it.ref.free_dual_ok(g.vectors, w),
              fk.dual_from_free_operator, f, w, TOL)
    p.run("check_duality" + lab,
          lambda r: r.is_exact_dual and ck.close(
              r.deviation_norm, ck.dual_residual(it.ref.f, h.vectors)),
          fk.check_duality, f, h, TOL)
    p.run("verify_excess_equality" + lab,
          lambda ok: ok is True and ck.rank(h.vectors) == it.ref.rank,
          fk.verify_excess_equality, f, h, TOL)
    e = p.run("parseval_dual_exists" + lab,
              lambda r: (r.exists == it.ref.parseval_dual_exists
                         and r.deviation_dim == it.ref.deviation_dim
                         and r.excess_val == it.ref.excess),
              fk.parseval_dual_exists, f, TOL)
    if e is not None and e.exists:
        p.run("construct_parseval_dual" + lab,
              lambda r: (ck.dual_residual(it.ref.f, r.dual.vectors) <= ck.ATOL
                         and ck.parseval_residual(r.dual.vectors) <= ck.ATOL),
              fk.construct_parseval_dual, f, TOL)
    if it.j is not None:
        p.run("nu_bounds" + lab,
              lambda b: it.ref.nu_ok(it.j.members, b.nu_minus, b.nu_plus),
              fk.nu_bounds, f, it.j, TOL)


# --- dense_duals ------------------------------------------------------------

# One 500x1000 frame only: a pipeline there takes about 7 s, and a run
# must stay near its nominal length (see WORKLOADS).
DENSE = [("random", 200, 400, "real"), ("random", 200, 400, "complex"),
         ("parseval", 200, 400, "real"), ("parseval", 200, 400, "complex"),
         ("random", 500, 1000, "real")]


def setup_dense(seed: int, workdir: str) -> list:
    return [_make_item(kind, d, n, field, s, kind == "parseval", f"@{d}x{n}")
            for (kind, d, n, field), s in zip(DENSE, _seeds(seed, len(DENSE)))]


def pass_dense(p: Pass, items: list) -> None:
    for it in items:
        pipeline(p, it)


# --- small_batch ------------------------------------------------------------

def _mb3():
    k = np.arange(3)
    return np.sqrt(2.0 / 3.0) * np.column_stack(
        [np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)])


def _tiny_random_frames(seeds):
    """The gate's ensemble of 210 tiny random frames: d 2..6, n d..d+5,
    seven of each size, real and complex alternating, seeded from `seeds`."""
    sizes = itertools.product(range(2, 7), range(6), range(7))
    for k, ((d, extra, _), s) in enumerate(zip(sizes, seeds)):
        yield fk.random_frame(d, d + extra, s, "real" if k % 2 == 0 else "complex")


def setup_small(seed: int, workdir: str) -> dict:
    seeds = iter(_seeds(seed, 400))
    # The acceptance gate's own ensemble of random frames, with frame seeds
    # 0..209 as there; the workload seed draws the free operators W.
    # `canonical_dual_misses` runs the same ensemble drawn from the workload
    # seed, where a known defect shows (see README).
    randoms = []
    for f in _tiny_random_frames(range(210)):
        w = _gaussian(np.random.default_rng(next(seeds)), f.n, f.dim,
                      f.field == "complex")
        randoms.append(Item(f, w, None, "@tiny"))
    parsevals = []
    for i, (d, extra) in enumerate(itertools.product((2, 3), (1, 2))):
        for r in range(13):
            field = "real" if (13 * i + r) % 2 == 0 else "complex"
            it = _make_item("parseval", d, d + extra, field, next(seeds), True,
                            "@tiny")
            x = _gaussian(np.random.default_rng(next(seeds)), 1, d,
                          field == "complex")[0]
            it.x = x / np.linalg.norm(x)
            it.subsets = [fk.IndexSet(members=m, n=it.frame.n)
                          for r_ in range(it.frame.n + 1)
                          for m in itertools.combinations(range(1, it.frame.n + 1), r_)]
            parsevals.append(it)
    # The acceptance-06 pair (no Parseval dual: excess too small, lower
    # bound too small) and mb3, which is Parseval and so its own answer.
    searches = [Item(fk.Frame(dim=2, field="real", vectors=v), None)
                for v in ([[2.0, 0.0], [0.0, 1.0]], 0.5 * _mb3(), _mb3())]
    return {"randoms": randoms, "parsevals": parsevals, "searches": searches}


# A square frame with cond(U) ~ 3e4 on which framekit's canonical dual
# misses V*U = I by more than atol (see README, known defect).
DEFECT_FRAME = (4, 4, 1688094018, "real")


def canonical_dual_misses(seed: int) -> tuple:
    """(misses, frames): framekit's canonical dual checked like a workload
    task on DEFECT_FRAME and on the tiny-frame ensemble drawn from the
    workload seed. It runs after the passes, untimed, and its misses are
    reported on their own line, not in a run's failed tasks: the defect is
    framekit's, known, and would fail every run."""
    frames = [fk.random_frame(*DEFECT_FRAME),
              *_tiny_random_frames(_seeds(seed + 1, 210))]
    misses = 0
    for f in frames:
        try:
            ok = ck.Reference(np.asarray(f.vectors)).canonical_ok(
                fk.canonical_dual(f, TOL).vectors)
        except Exception:
            ok = False
        misses += not ok
    return misses, len(frames)


def pass_small(p: Pass, inputs: dict) -> None:
    for it in inputs["randoms"]:
        pipeline(p, it)
    for it in inputs["parsevals"]:
        pipeline(p, it)
    for it in inputs["parsevals"]:
        p.task("identity_all_j@tiny")
        for j in it.subsets:
            p.run("identity_sides@tiny",
                  lambda s, it=it, j=j: it.ref.identity_ok(j.members, it.x, *s),
                  fk.identity_sides, it.frame, j, it.x, TOL)
    p.task("best_parseval_dual_residual@tiny")
    for it in inputs["searches"]:
        p.run("best_parseval_dual_residual@tiny",
              lambda r, it=it: it.ref.best_parseval_ok(r),
              fk.best_parseval_dual_residual, it.frame, TOL)


# --- subset_sweep -----------------------------------------------------------

# The two cheap sizes appear twice, so that the median task time of a run
# falls inside the (3, 18) group. With each size once, the median is the
# mean of the slowest (3, 18) and the fastest (2, 20) sweep, two extremes:
# over ten seeds its spread was 16 %, twice that of wall_s.
SWEEP = [(2, 20, "real"), (3, 18, "complex"), (3, 18, "complex"),
         (3, 20, "real"), (5, 16, "complex"), (5, 16, "complex")]


def setup_sweep(seed: int, workdir: str) -> list:
    return [Item(fk.parseval_projection_frame(d, n, s, field), None,
                 label=f"@{d}x{n}")
            for (d, n, field), s in zip(SWEEP, _seeds(seed, len(SWEEP)))]


def _sweep_ok(it: Item, out) -> bool:
    value, j = out
    lo, _ = it.ref.nu_range(j.members)
    again = fk.nu_bounds(it.frame, j, TOL).nu_minus
    return (j.n == it.frame.n and ck.NU_LOW <= value <= ck.NU_HIGH
            and ck.close(value, lo) and ck.close(value, again))


def pass_sweep(p: Pass, items: list) -> None:
    for it in items:
        p.task("nu_minus_global" + it.label)
        p.run("nu_minus_global" + it.label, lambda out, it=it: _sweep_ok(it, out),
              fk.nu_minus_global, it.frame, TOL)


# --- cli_small --------------------------------------------------------------

class CliInputs:
    """Frame files for the CLI, written into a fresh directory."""

    def __init__(self, seed: int, workdir: str) -> None:
        s = _seeds(seed, 8)
        self.seed = s[7]
        self.dir = os.path.join(workdir, f"inputs-{os.getpid()}-{seed}")
        os.makedirs(self.dir, exist_ok=True)
        rng = np.random.default_rng(s[6])
        f = fk.random_frame(3, 6, s[0], "real")
        # A dual made here, not by framekit: U S^-1 + Q W.
        fv = np.asarray(f.vectors)
        u_sinv = np.linalg.solve(ck.frame_operator(fv).T, np.conj(fv).T).T
        w = rng.standard_normal((6, 3))
        v = u_sinv + w - u_sinv @ (fv.T @ w)
        g = fk.Frame(dim=3, field="real", vectors=np.conj(v).real)
        a = fk.random_frame(3, 7, s[1], "real")
        scale = np.sqrt(2.0 / ck.Reference(np.asarray(a.vectors)).eigs[0])
        admissible = fk.Frame(dim=3, field="real", vectors=scale * a.vectors)
        p = fk.parseval_projection_frame(3, 10, s[2], "complex")
        self.items = {"f": Item(f, None), "g": Item(g, None),
                      "adm": Item(admissible, None), "p": Item(p, None)}
        for name, it in self.items.items():
            fk.write_frame(it.frame, self.path(name))
        self.gen_seed = s[3]
        self.calls = _cli_checks(self)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name + ".json")


def _report(out, verdict: str = "pass"):
    """Payload of a CLI report that exited 0 with the given verdict."""
    rc, stdout = out
    if rc != 0:
        return None
    rep = json.loads(stdout)
    return rep["payload"] if rep["verdict"] == verdict else None


def _cli_checks(c: CliInputs) -> list:
    """(subcommand arguments, check of (exit code, stdout)) for one pass."""
    def ref(name: str) -> ck.Reference:
        return c.items[name].ref

    seed = str(c.seed)
    gen_out = os.path.join(c.dir, "gen.json")

    def gen(o):
        pay = _report(o, verdict="n/a")
        with open(gen_out) as fh:
            obj = json.load(fh)
        vec = ck.parse_rows(obj["vectors"], obj["field"])
        return (pay["excess"] == 5 and pay["is_parseval"] is True
                and vec.shape == (8, 3) and ck.parseval_residual(vec) <= ck.ATOL)

    def analyze(o):
        pay = _report(o, verdict="n/a")
        return (ref("f").bounds_ok(pay["a_opt"], pay["b_opt"])
                and pay["excess"] == ref("f").excess and pay["is_frame"] is True)

    def dual(o):
        pay = _report(o)
        vec = ck.parse_rows(pay["dual_vectors"], "real")
        return (ck.dual_residual(ref("f").f, vec) <= ck.ATOL
                and pay["excess_equal"] is True)

    def check(o):
        pay = _report(o)
        return pay["is_exact_dual"] is True and pay["excess_equal"] is True

    def parseval_dual(o):
        pay = _report(o)
        vec = ck.parse_rows(pay["dual_vectors"], "real")
        return (pay["exists"] is ref("adm").parseval_dual_exists is True
                and ck.dual_residual(ref("adm").f, vec) <= ck.ATOL
                and ck.parseval_residual(vec) <= ck.ATOL)

    def nu_j(o):
        pay = _report(o)
        return ref("p").nu_ok((1, 3), pay["nu_minus"], pay["nu_plus"])

    def nu_global(o):
        pay = _report(o)
        lo, _ = ref("p").nu_range(pay["witness_j"])
        return ck.NU_LOW <= pay["nu_minus"] <= ck.NU_HIGH and ck.close(pay["nu_minus"], lo)

    def identity(o):
        return _report(o)["max_residual"] <= ck.ATOL

    def tail(o):
        pay = _report(o)
        return pay["holds"] is True and pay["n0"] == ref("p").tail_threshold(0.5)

    def lemma(o):
        return max(_report(o).values()) <= ck.ATOL

    f, g, adm, p = (c.path(k) for k in ("f", "g", "adm", "p"))
    return [
        (["gen", "--kind", "parseval-projection", "--dim", "3", "--n", "8",
          "--seed", str(c.gen_seed), "--out", gen_out], gen),
        (["analyze", f], analyze),
        (["dual", f, "--mode", "random", "--seed", seed], dual),
        (["check", f, g], check),
        (["parseval-dual", adm], parseval_dual),
        (["nu", p, "--j", "1,3"], nu_j),
        (["nu", p, "--global-min"], nu_global),
        (["identity", p, "--j", "1,3", "--trials", "50", "--seed", seed], identity),
        (["tail", p, "--eps", "0.5"], tail),
        (["lemma", f, g, "--probes", "10", "--seed", seed], lemma),
    ]


def setup_cli(seed: int, workdir: str) -> CliInputs:
    return CliInputs(seed, workdir)


def cli_call(argv: list, span_file=None) -> tuple:
    """One CLI call as a subprocess: `python -m framekit`, or the traced
    entry point when a span file is given. Returns (exit code, stdout)."""
    if span_file is None:
        cmd = [sys.executable, "-m", "framekit", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), span_file, *argv]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def pass_cli(p: Pass, c: CliInputs) -> None:
    for i, (argv, check) in enumerate(c.calls):
        span_file = p.span_dir and os.path.join(p.span_dir, f"{i}.json")
        p.task(argv[0])
        p.run(argv[0], check, cli_call, argv, span_file)


class Workload(NamedTuple):
    setup: Callable  # (seed, workdir) -> inputs
    run_pass: Callable  # (Pass, inputs) -> None
    nominal_s: float  # one pass with its checks, at the baseline
    in_children: bool  # the work runs in subprocesses (peak RSS, spans)
    known_defect: Callable = None  # (seed) -> (misses, attempts), untimed


WORKLOADS = {
    # 5 s, under a pass's 6.5 s, so that a 15 s run makes three passes:
    # 30 calls, enough for a tail percentile with ten calls beyond it.
    "cli_small": Workload(setup_cli, pass_cli, 5.0, True),
    "dense_duals": Workload(setup_dense, pass_dense, 13.0, False),
    "small_batch": Workload(setup_small, pass_small, 0.6, False,
                            canonical_dual_misses),
    "subset_sweep": Workload(setup_sweep, pass_sweep, 5.0, False),
}
