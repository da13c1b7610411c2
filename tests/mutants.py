"""Mutant table: each row breaks one decision in `src/` and names the test
files, or single tests, that must catch it.

    python tests/mutants.py

applies each mutant to a temporary copy of `src/`, runs `pytest -x -q` on
the row's tests against that copy, and prints killed or survived.  It
exits 1 if any mutant survives or its run ends in an error other than a
failing test.  The table lists only mutants the tests kill; a known
survivor joins it together with the test that kills it.  `PROOF_ONLY`
lists the rounding allowances that no known input needs, each with the
derivation that keeps it; the runner skips them.  Standard library only;
pytest does not collect this file, and the Tier-1 test `test_mutants.py`
checks that each old snippet of either table still occurs exactly once
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
    tests: Tuple[str, ...]  # test files or test ids, relative to the repository root


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
    Mutant("Grams formed whatever the Frobenius norm of V*U - I",
           "framekit/duals.py",
           "if np.vdot(vu, vu).real <= _NEAR_DUAL ** 2:",
           "if True:",
           ("tests/test_duals.py::test_far_pair_keeps_the_svd",)),
    Mutant("Grams never formed",
           "framekit/duals.py",
           "if np.vdot(vu, vu).real <= _NEAR_DUAL ** 2:",
           "if False:",
           ("tests/test_frames.py::test_one_factorization_per_frame",)),
    Mutant("Gram path up to ||V*U - I||_F = sqrt(d) / 2",
           "framekit/duals.py",
           "if np.vdot(vu, vu).real <= _NEAR_DUAL ** 2:",
           "if np.vdot(vu, vu).real <= d * _NEAR_DUAL ** 2:",
           ("tests/test_duals.py::test_every_pair_class_pays_for_one_spectral_call",)),
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
    Mutant("approximate grade holds at its rounding allowance",
           "framekit/duals.py",
           "is_approx = is_exact or 1.0 - deviation > noise",
           "is_approx = is_exact or 1.0 - deviation >= noise",
           ("tests/test_duals.py::test_grades_at_their_rounding_allowance",)),
    Mutant("pseudo-dual grade holds at its rounding allowance",
           "framekit/duals.py",
           "is_pseudo = is_approx or (sigma_min > noise and\n",
           "is_pseudo = is_approx or (sigma_min >= noise and\n",
           ("tests/test_duals.py::test_grades_at_their_rounding_allowance",)),
    Mutant("lemma kernel residual without its scale",
           "framekit/duals.py",
           "kernel_residual = min(1.0, float(np.linalg.norm(x)) / scale)",
           "kernel_residual = min(1.0, float(np.linalg.norm(x)) / 1.0)",
           ("tests/test_duals.py",)),
    Mutant("verify_tail_bound reports holds=True unconditionally",
           "framekit/identity.py",
           'decide(1.0, "<", eps, minus=min(direct, mirrored)).holds)',
           "True)",
           ("tests/test_identity.py",)),
    Mutant("verify_tail_bound against the rounded bound fl(1 - eps)",
           "framekit/identity.py",
           'decide(1.0, "<", eps, minus=min(direct, mirrored)).holds)',
           "direct > 1.0 - eps and mirrored > 1.0 - eps)",
           ("tests/test_identity.py",)),
    Mutant("identity_residual without its empty-set check",
           "framekit/identity.py",
           "if len(xs) == 0:",
           "if False:",
           ("tests/test_identity.py",)),
    Mutant("Parseval-dual existence without its lower-bound condition",
           "framekit/parseval.py",
           'exists = not decide(1.0, ">", tol.eig_one_atol, minus=a_opt).holds and dev <= exc',
           "exists = dev <= exc",
           ("tests/test_decisions.py",)),
    Mutant("Parseval-dual lower bound against the rounded fl(1 - eig_one_atol)",
           "framekit/parseval.py",
           'exists = not decide(1.0, ">", tol.eig_one_atol, minus=a_opt).holds and dev <= exc',
           'exists = decide(a_opt, ">=", 1.0 - tol.eig_one_atol).holds and dev <= exc',
           ("tests/test_decisions.py::test_eigenvalue_one_band_at_its_edge",
            "tests/test_decisions.py::test_eigenvalue_band_verdicts_match_the_exact_oracle")),
    Mutant("nu_in_range against the rounded fl(3/4 - atol)",
           "framekit/identity.py",
           'decide(0.75, "<=", tol.atol, minus=nu_minus).holds',
           'decide(nu_minus, ">=", 0.75 - tol.atol).holds',
           ("tests/test_decisions.py::test_library_verdicts_of_the_cli_at_atol",)),
    Mutant("nu_in_range on the rounded gap fl(3/4 - nu_minus)",
           "framekit/identity.py",
           'decide(0.75, "<=", tol.atol, minus=nu_minus).holds',
           'decide(0.75 - nu_minus, "<=", tol.atol).holds',
           ("tests/test_decisions.py::test_gap_verdicts_are_exact_at_every_tolerance",)),
    Mutant("projected_basis_frame on the rounded gap |norm - 1|",
           "framekit/generators.py",
           'decide(max(norm, 1.0), ">", tol.atol, minus=min(norm, 1.0))',
           'decide(abs(norm - 1.0), ">", tol.atol)',
           ("tests/test_decisions.py::test_gap_verdicts_are_exact_at_every_tolerance",)),
    Mutant("is_parseval on the rounded gap max(1 - lambda_min, lambda_max - 1)",
           "framekit/frames.py",
           'return (decide(1.0, "<=", tol.atol, minus=lo).holds\n'
           '            and decide(hi, "<=", tol.atol, minus=1.0).holds)',
           'return decide(max(1.0 - lo, hi - 1.0), "<=", tol.atol).holds',
           ("tests/test_decisions.py::test_gap_verdicts_are_exact_at_every_tolerance",)),
    Mutant("deviation dimension on the rounded gap |lambda - 1|",
           "framekit/parseval.py",
           'decide(np.maximum(eigs, 1.0), ">", tol.eig_one_atol,\n'
           '                     minus=np.minimum(eigs, 1.0))',
           'decide(np.abs(eigs - 1.0), ">", tol.eig_one_atol)',
           ("tests/test_decisions.py::test_gap_verdicts_are_exact_at_every_tolerance",)),
    Mutant("deviation dimension with atol as the band half-width",
           "framekit/parseval.py",
           'decide(np.maximum(eigs, 1.0), ">", tol.eig_one_atol,',
           'decide(np.maximum(eigs, 1.0), ">", tol.atol,',
           ("tests/test_decisions.py",)),
    Mutant("identity_residual cuts a lone vector into blocks",
           "framekit/identity.py",
           "xs = np.atleast_2d(xs)  # one vector is one trial, whatever the block size",
           "xs = xs",
           ("tests/test_identity.py",)),
    Mutant("subset sweep's certify window without its rounding term",
           "framekit/identity.py",
           "_ROUNDING = 16",
           "_ROUNDING = 0",
           ("tests/test_identity.py",)),
    Mutant("complex array written as its real part",
           "framekit/io.py",
           "value = np.stack([value.real, value.imag], axis=-1)",
           "value = value.real",
           ("tests/test_io_cli.py",)),
    Mutant("identity_sides without the upper bound on the squared norm",
           "framekit/identity.py",
           "if not (0.0 < norms < np.inf if x.ndim == 1\n"
           "            else ((0.0 < norms) & (norms < np.inf)).all()):",
           "if not (0.0 < norms if x.ndim == 1\n"
           "            else (0.0 < norms).all()):",
           ("tests/test_identity.py",)),
    Mutant("minor tables pairing (I, J) with (I', I')",
           "framekit/identity.py",
           "c_rows.append(offsets[d - k] + comp[a] * size + comp[b])",
           "c_rows.append(offsets[d - k] + comp[a] * size + comp[a])",
           ("tests/test_identity.py",)),
)



class ProofOnly(NamedTuple):
    """A rounding allowance that no known input needs: the mutant that
    drops it survives the tests, and `why`, the derivation that gives the
    allowance, is the reason it stays until a proof shows it is not
    needed (a search that finds no failing input is not such a proof)."""

    name: str
    file: str
    old: str
    new: str
    why: str


# Searched with 257 frames exact in floats, so that ||S - I|| = 0 and the
# certify window is its rounding term alone: columns of the 16 x 16
# Hadamard matrix / 4, direct sums of columns of the 4 x 4 one / 2, and
# H4 / 2 rotations of vectors on the axes with dyadic lengths, d up to 6
# and n up to 18.  Many have subsets whose S_J has the eigenvalue 1/2
# exactly, where |det(S_J - I/2)| = 0 meets the limit.  `_ROUNDING = 0`
# changed the witness on 11 of them (one is in `test_identity.py`); the
# two mutants below changed no value and no witness of `nu_minus_global`
# against the exhaustive sweep.
PROOF_ONLY = (
    ProofOnly("det limit without the bilinear evaluation term of eta",
              "framekit/identity.py",
              "eta += _product_roundings(d) * d ** (d / 2) * 3 ** d * (1.0 + e)",
              "eta += 0",
              "Each of the d! terms of det(L + C) reaches the bilinear sum "
              "through at most N = `_product_roundings(d)` roundings, so the sum "
              "strays from det(L + C) by at most N eps per(|L| + |C|) <= "
              "N d^(d/2) 3^(d - 1) (3/2 + 2e) eps after the division by "
              "(1/2 + e)^(d - 1) (`nu_minus_global`, eta).  The other term, "
              "_DET_ROUNDING d^2 n eps, covers only the rounding of the sum, "
              "the shift and eigvalsh, not this one, which is 1.5e8 eps at d = 6."),
    ProofOnly("det limit without its upward rounding factor",
              "framekit/identity.py",
              "* (eta * _EPS + reach) * (1.0 + 4.0 * _EPS)",
              "* (eta * _EPS + reach)",
              "With u = eps/2, the screen's m is at most r / (1 - u)^2 for the "
              "computed r = fl(sqrt(fl(x+ - 3/4))), and three more roundings (the "
              "sum eta eps + r, the product with s, the factor itself) lose at "
              "most (1 - u)^3; 1 + 4 eps = 1 + 8u makes (1 - u)^5 (1 + 8u) > 1, "
              "so the computed limit is at least s (eta + m) >= |det| "
              "(`nu_minus_global`, screen).  Without it a subset at the limit "
              "may be pruned by the rounding of the limit alone."),
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
