"""Mutant table: each row breaks one decision in `src/` and names the test
files that must catch it.

    python tests/mutants.py

applies each mutant to a temporary copy of `src/`, runs `pytest -x -q` on
the row's test files against that copy, and prints killed or survived.
It exits 1 if any mutant survives or its run ends in an error other than
a failing test.  The table lists only mutants the tests kill; a known
survivor joins it together with the test that kills it.  Standard
library only; pytest does not collect this file, and the Tier-1 test
`test_mutants.py` checks that each old snippet still occurs exactly once
in `src/`.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    old: str  # occurs exactly once in that file
    new: str
    tests: Tuple[str, ...]  # pytest arguments, relative to the repository root


MUTANTS = (
    Mutant("rank cutoff made absolute",
           "framekit/frames.py",
           'decide(sigma[-1], ">", tol.rank_rtol * sigma[0]).holds)',
           'decide(sigma[-1], ">", tol.rank_rtol).holds)',
           ("tests/test_frames.py",)),
    Mutant("pseudo-dual grade without the rounding-noise test",
           "framekit/duals.py",
           "is_pseudo = is_approx or (sigma_min > noise and\n",
           "is_pseudo = is_approx or (True and\n",
           ("tests/test_duals.py",)),
    Mutant("lemma kernel residual on the Im T basis",
           "framekit/duals.py",
           "basis, t_matrix, s_matrix = adjoint(im_s_adj),",
           "basis, t_matrix, s_matrix = adjoint(im_t),",
           ("tests/test_acceptance.py",)),
    Mutant("the > rule holds at equality",
           "framekit/frames.py",
           '">": operator.gt',
           '">": operator.ge',
           ("tests/test_decisions.py",)),
    Mutant("excess equality without reading the grade",
           "framekit/duals.py",
           "if not check_duality(f, g, tol).is_pseudo_dual:",
           "if not check_duality(f, g, tol):",
           ("tests/test_duals.py",)),
    Mutant("pair certificate without g's own rank check",
           "framekit/duals.py",
           "(certified or is_frame(g, tol))",
           "certified",
           ("tests/test_duals.py",)),
    Mutant("report envelope with verdict and payload swapped",
           "framekit/cli.py",
           '"verdict": verdict, "payload": payload,',
           '"payload": payload, "verdict": verdict,',
           ("tests/test_reports.py",)),
    Mutant("pair rounding allowance made 1000 times larger",
           "framekit/duals.py",
           "noise = 4 * f.n * f.dim * _EPS * u_norm * v_norm",
           "noise = 4000 * f.n * f.dim * _EPS * u_norm * v_norm",
           ("tests/test_duals.py",)),
    Mutant("lemma kernel residual without its scale",
           "framekit/duals.py",
           "kernel_residual = min(1.0, float(np.linalg.norm(x)) / scale)",
           "kernel_residual = min(1.0, float(np.linalg.norm(x)) / 1.0)",
           ("tests/test_duals.py",)),
    Mutant("verify_tail_bound reports holds=True unconditionally",
           "framekit/identity.py",
           "bound, direct > bound and mirrored > bound)",
           "bound, True)",
           ("tests/test_identity.py",)),
    Mutant("identity_residual without its empty-set check",
           "framekit/identity.py",
           "if len(xs) == 0:",
           "if False:",
           ("tests/test_identity.py",)),
)


def run(mutant: Mutant) -> Tuple[str, float]:
    """('killed' | 'survived' | 'error', seconds) of the row's tests on a
    copy of `src/` with the mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "error", 0.0
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
    # pytest exits 1 when a test failed; 0 means every test passed
    outcome = {0: "survived", 1: "killed"}.get(result.returncode, "error")
    return outcome, seconds


def main() -> int:
    start = time.perf_counter()
    bad = 0
    for mutant in MUTANTS:
        outcome, seconds = run(mutant)
        bad += outcome != "killed"
        print(f"{outcome:8s} {seconds:5.1f} s  {mutant.name}  ({', '.join(mutant.tests)})",
              flush=True)
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
