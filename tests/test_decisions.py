"""Tolerance decisions: one rule per comparison, made in the library.

Every comparison with a threshold built from a `ToleranceConfig` field
goes through `frames.decide`.  The tests here put each converted
comparison exactly at its threshold, and one ulp to the failing side,
and check the verdict that the comparison's rule gives; and they check
that the CLI makes no such comparison itself and that no source rounds a
band edge c +- tol.
"""

import ast
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import framekit as fk
import framekit.cli
import framekit.identity
import framekit.linalg
from framekit.duals import canonical_dual_analysis
from framekit.linalg import subspace_distance
from framekit.parseval import _nearest_parseval_dual
from helpers import (TOL, admissible_frame, band_ensemble, cayley_parseval,
                     exact_band_verdict, exact_frame_operator, exact_quantity_matrix,
                     inertia, orthonormal_range, random_dual_pair, record_calls, shapes,
                     square_roots)

TOLERANCE_FIELDS = set(fk.ToleranceConfig._fields)


def below(x):
    return float(np.nextafter(x, -np.inf))


def above(x):
    return float(np.nextafter(x, np.inf))


def frame(rows):
    rows = np.asarray(rows, dtype=float)
    return fk.Frame(dim=rows.shape[1], field="real", vectors=rows)


def test_decide_keeps_each_rule_at_equality():
    assert fk.decide(0.5, "<=", 0.5) == fk.Decision(0.5, 0.5, True)
    assert fk.decide(0.5, ">=", 0.5).holds
    assert not fk.decide(0.5, "<", 0.5).holds
    assert not fk.decide(0.5, ">", 0.5).holds
    verdicts = fk.decide(np.array([0.25, 0.5, 0.75]), ">", 0.5).holds
    assert verdicts.tolist() == [False, False, True]


def test_decide_broadcasts_a_scalar_term_at_a_tie():
    # one term an array, the other a scalar: the ties are decided on the
    # exact gap as when both are arrays
    assert fk.decide(np.array([1.5]), ">", 0.5, minus=1.0).holds.tolist() == [False]
    assert fk.decide(1.0, "<", 0.5, minus=np.array([0.5, 0.25])).holds.tolist() == [
        False, False]
    # fl(0.75 - 0.15) = 0.6, though 3/4 - 0.15 exceeds 0.6
    gaps = fk.decide(0.75, "<=", 0.6, minus=np.array([0.15, 0.25]))
    assert gaps.value.tolist() == [0.6, 0.5] and gaps.holds.tolist() == [False, True]


def test_cli_compares_nothing_with_a_tolerance():
    with open(framekit.cli.__file__) as source:
        tree = ast.parse(source.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            read = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            assert not read & TOLERANCE_FIELDS, ast.unparse(node)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            assert name not in ("operator_norm", "eye", "tail_threshold"), ast.unparse(node)


def test_no_threshold_is_a_tolerance_added_to_a_constant():
    # the gap rule: a band around c compares x - c or c - x with the
    # tolerance itself, never x with a rounded c +- tol; scaled rules such
    # as rank_rtol * sigma_1, and tolerances plus non-constant allowances,
    # stay allowed
    def is_number(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            node = node.operand
        return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
                and isinstance(node.value, (int, float)))

    def reads_tolerance(node):
        return any(isinstance(n, ast.Attribute) and n.attr in TOLERANCE_FIELDS
                   for n in ast.walk(node))

    sources = sorted(Path(framekit.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                sides = (node.left, node.right)
                assert not (any(map(is_number, sides)) and any(map(reads_tolerance, sides))), \
                    f"{path.name}:{node.lineno}: {ast.unparse(node)}"


def test_every_gap_reaches_decide_as_its_two_terms():
    # a gap x - c or c - x from a numeric constant c is passed as its two
    # terms (decide(x, rule, tol, minus=c)) and never rounded first, not
    # even inside abs or np.abs
    def is_number(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            node = node.operand
        return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
                and isinstance(node.value, (int, float)))

    calls, rounded = 0, []
    for path in sorted(Path(framekit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args
                    and getattr(node.func, "id", getattr(node.func, "attr", "")) == "decide"):
                continue
            calls += 1
            rounded += [f"{path.name}:{gap.lineno}: {ast.unparse(node)}"
                        for gap in ast.walk(node.args[0])
                        if isinstance(gap, ast.BinOp) and isinstance(gap.op, ast.Sub)
                        and (is_number(gap.left) or is_number(gap.right))]
    assert calls > 15 and rounded == []


def test_linalg_takes_no_tolerance():
    # every rank and range basis is read from a frame's cached SVD under
    # the rank rule of frames.py; linalg holds tolerance-free kernels only
    with open(framekit.linalg.__file__) as source:
        tree = ast.parse(source.read())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert functions
    for node in functions:
        args = node.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        assert not names & {"rtol", "atol", "tol"}, node.name
    for name in ("rank_from_singular_values", "matrix_rank", "orthonormal_range",
                 "orthonormal_nullspace"):
        assert not hasattr(framekit.linalg, name), name


def test_rank_rule_at_its_cutoff():
    # singular values 1 and 0.5: at rank_rtol = 0.5 the second is cut off
    f = frame([[1, 0], [0, 0.5]])
    assert f.svd.sigma.tolist() == [1.0, 0.5]
    at = TOL._replace(rank_rtol=0.5)
    assert not fk.is_frame(f, at)
    assert fk.kernel_of_synthesis(f, at).shape == (2, 1)
    assert fk.is_frame(f, TOL._replace(rank_rtol=below(0.5)))
    assert fk.kernel_of_synthesis(f, TOL._replace(rank_rtol=below(0.5))).shape == (2, 0)
    # a residual S T - I of 0.5 is accepted at atol = 0.5; Im T and Im S*
    # keep their one column each
    report = fk.verify_lemma_decomposition(np.array([[1.0], [0.0]]),
                                           np.array([[1.5, 0.0]]), 3, 0,
                                           TOL._replace(atol=0.5))
    assert report.st_is_identity_residual == 0.5
    with pytest.raises(fk.NotLeftInverseError):
        fk.verify_lemma_decomposition(np.array([[1.0], [0.0]]), np.array([[1.5, 0.0]]),
                                      3, 0, TOL._replace(atol=below(0.5)))


def test_free_dual_guard_at_its_cutoff():
    # cond(S) = 4: refused at rank_rtol = 1/4, built just below it
    f = frame([[1, 0], [0, 0.5]])
    w = np.zeros((2, 2))
    with pytest.raises(fk.IllConditionedError):
        fk.dual_from_free_operator(f, w, TOL._replace(rank_rtol=0.25))
    fk.dual_from_free_operator(f, w, TOL._replace(rank_rtol=below(0.25)))


def test_pair_certificate_at_its_threshold():
    # sigma_min(V*U) = 1 against (rank_rtol + 16 eps) ||U||_2 ||V||_F
    # = (1/2) * 1 * 2: not certified, so g's own SVD decides
    f = frame([[1], [0], [0], [0]])
    rtol = 0.5 - 16 * 2.0 ** -52
    g = frame([[1], [1], [1], [1]])
    assert fk.check_duality(f, g, TOL._replace(rank_rtol=rtol)).is_exact_dual
    assert "svd" in vars(g)
    g = frame([[1], [1], [1], [1]])
    fk.check_duality(f, g, TOL._replace(rank_rtol=below(rtol)))
    assert "svd" not in vars(g)


def test_pair_grades_at_their_thresholds(monkeypatch):
    f = frame([[1]])
    g = frame([[1.5]])  # V*U - I = 0.5
    assert fk.check_duality(f, g, TOL._replace(atol=0.5)).is_exact_dual
    assert not fk.check_duality(f, g, TOL._replace(atol=below(0.5))).is_exact_dual
    # ||V*U - I|| = 1/2 is the edge of the Gram path, one float more takes
    # the SVD; both grade as SVDs of V*U would
    [svd] = record_calls(monkeypatch, np.linalg, "svd")
    edge = fk.check_duality(f, g, TOL)
    assert shapes(svd) == [] and edge.deviation_norm == 0.5
    over = np.nextafter(1.5, 2.0)
    above = fk.check_duality(f, frame([[over]]), TOL)
    assert shapes(svd) == [(2, 1, 1)] and above.deviation_norm == over - 1.0
    assert edge[:3] == above[:3] == (False, True, True)
    # V*U = diag(4, 2): rank 1 at rank_rtol = 1/2, so not pseudo-dual
    f = frame([[1, 0], [0, 1], [0, 0]])
    g = frame([[4, 0], [0, 2], [0, 2]])
    assert not fk.check_duality(f, g, TOL._replace(rank_rtol=0.5)).is_pseudo_dual
    assert fk.check_duality(f, g, TOL._replace(rank_rtol=below(0.5))).is_pseudo_dual


def test_excess_equality_at_its_threshold():
    # the verdict is the pseudo-dual grade: V*U = diag(4, 2) has rank 2
    # below rank_rtol = 1/2 and rank 1 at it
    f = frame([[1, 0], [0, 1], [0, 0]])
    g = frame([[4, 0], [0, 2], [0, 2]])
    assert fk.verify_excess_equality(f, g, TOL._replace(rank_rtol=below(0.5))) is True
    with pytest.raises(fk.NotPseudoDualError):
        fk.verify_excess_equality(f, g, TOL._replace(rank_rtol=0.5))


def test_residual_checks_at_atol():
    # imaginary dust of 0.25 on a real field
    vectors = np.array([[1 + 0.25j], [0.5 + 0j]])
    fk.derived_frame("real", vectors, TOL._replace(atol=0.25))
    with pytest.raises(fk.FramekitError):
        fk.derived_frame("real", vectors, TOL._replace(atol=below(0.25)))
    # Parseval within eig_one_atol: eigenvalues 1 and 1/4
    f = frame([[1, 0], [0, 0.5]])
    assert f.eigenvalue_range == (0.25, 1.0)
    assert fk.is_parseval(f, TOL._replace(eig_one_atol=0.75))
    assert not fk.is_parseval(f, TOL._replace(eig_one_atol=below(0.75)))
    # a unit coefficient vector up to atol
    alpha = np.array([0.5, 0.5])
    miss = abs(float(np.linalg.norm(alpha)) - 1.0)
    fk.projected_basis_frame(alpha, TOL._replace(atol=miss))
    with pytest.raises(fk.NotUnitError):
        fk.projected_basis_frame(alpha, TOL._replace(atol=below(miss)))


def test_projection_checks_at_atol():
    basis = frame([[1, 0], [0, 1]])
    proj = np.diag([1.0, 1.5])  # ||P^2 - P|| = 0.75
    fk.dual_from_projection(basis, proj, TOL._replace(atol=0.75))
    with pytest.raises(fk.NotAProjectionError):
        fk.dual_from_projection(basis, proj, TOL._replace(atol=below(0.75)))
    line = frame([[1], [0]])
    proj = np.outer([0.6, 0.8], [0.6, 0.8])  # the range is not span e_1
    gap = subspace_distance(orthonormal_range(proj, TOL.rank_rtol), line.svd.p)
    fk.dual_from_projection(line, proj, TOL._replace(atol=gap))
    with pytest.raises(fk.WrongRangeError):
        fk.dual_from_projection(line, proj, TOL._replace(atol=below(gap)))


def test_eigenvalue_one_band_at_its_edge():
    # eigenvalues 1 and 1/2: at eig_one_atol = 1/2, A = 1 - 1/2 passes
    # and 1/2 counts as one; just below, 1 - eig_one_atol is the float
    # after 1/2
    f = frame([[1, 0], [0, 0.5], [0, 0.5]])
    assert f.eigenvalues.tolist() == [1.0, 0.5]
    at = TOL._replace(eig_one_atol=0.5)
    assert fk.deviation_dimension(f, at) == 0
    report = fk.parseval_dual_exists(f, at)
    assert report.exists and fk.nonexistence_reasons(report, at) == []
    off = TOL._replace(eig_one_atol=1.0 - above(0.5))
    assert fk.deviation_dimension(f, off) == 1
    report = fk.parseval_dual_exists(f, off)
    assert not report.exists and len(fk.nonexistence_reasons(report, off)) == 1
    # eigenvalues 1 and 3/2: at the edge the construction corrects nothing
    f = frame([[1, 0], [0, 1], [0, 0.5], [0, 0.5]])
    assert f.eigenvalues.tolist() == [1.5, 1.0]
    np.testing.assert_array_equal(
        _nearest_parseval_dual(f, TOL._replace(eig_one_atol=0.5)),
        canonical_dual_analysis(f))
    corrected = _nearest_parseval_dual(f, TOL._replace(eig_one_atol=below(0.5)))
    assert not np.array_equal(corrected, canonical_dual_analysis(f))
    # eigenvalues 1 and 0.99999999 = fl(1 - 1e-8), whose gap 1.000000005e-8
    # from 1 exceeds the default band: A fails as the eigenvalue does,
    # though 0.99999999 >= fl(1 - eig_one_atol)
    f = frame([[1, 0], [0, 0.79999999375], [0, 0.6]])
    assert f.eigenvalues.tolist() == [1.0, 1.0 - 1e-8]
    report = fk.parseval_dual_exists(f, TOL)
    assert (report.exists, report.deviation_dim) == (False, 1)
    assert fk.nonexistence_reasons(report, TOL) == ["a_opt 0.99999998999999995 < 1"]


def _band_class(verdict):
    if verdict.is_parseval:
        return "parseval"
    if verdict.exists:
        return "dual, dev " + ("<" if verdict.deviation_dim < verdict.excess else "=")
    return "no dual, dev >" if verdict.deviation_dim > verdict.excess else "no dual, A < 1 - band"


def test_eigenvalue_band_verdicts_match_the_exact_oracle():
    _match_band_oracle("real")


def test_complex_eigenvalue_band_verdicts_match_the_exact_oracle():
    _match_band_oracle("complex")


def _match_band_oracle(field):
    # under the default tolerances, and with a band wider than atol, so
    # that a band of the wrong half-width shows
    for band in (TOL.eig_one_atol, 1e-3):
        tol = TOL._replace(eig_one_atol=band)
        classes, kinds = Counter(), Counter()
        for kind, rows in band_ensemble(19, band, field == "complex"):
            f = fk.Frame(dim=rows.shape[1], field=field, vectors=rows)
            exact = exact_band_verdict(rows, tol)
            assert (fk.deviation_dimension(f, tol), fk.parseval_dual_exists(f, tol).exists,
                    fk.is_parseval(f, tol), fk.excess(f, tol).excess) == exact, (band, kind)
            if kind.startswith("edge at"):  # the library reads fl(1 -+ band) exactly
                edge = 1.0 - band if "-" in kind else 1.0 + band
                assert edge in f.eigenvalues.tolist(), (band, kind)
            classes[_band_class(exact)] += 1
            kinds[kind] += 1
            s = exact_frame_operator(rows)
            above, below = inertia(s, 1)
            classes["A = 1 exactly"] += below == 0 and above < len(s)
        print(field, band, dict(classes), dict(kinds))
        main = [classes[name] for name in ("parseval", "dual, dev <", "dual, dev =",
                                           "no dual, dev >", "no dual, A < 1 - band")]
        assert min(main) >= max(main) / 2 and classes["A = 1 exactly"], classes


def _two_tolerance_cases():
    """(tol, t, field, rows): seeded real and complex `cayley_parseval`
    frames whose longest row is scaled to move one eigenvalue of S to
    1 + t, for |t| inside both tolerances, between them and outside both,
    at tolerance pairs with atol below and above eig_one_atol."""
    rng = np.random.default_rng(46)
    for atol, band in ((1e-8, 1e-4), (1e-4, 1e-8), (1e-6, 1e-3), (1e-3, 1e-6)):
        tol = TOL._replace(atol=atol, eig_one_atol=band)
        low, high = sorted((atol, band))
        for t in (low / 2, -low / 2, math.sqrt(low * high), -math.sqrt(low * high),
                  2 * high, -2 * high):
            for field in ("real", "complex"):
                d = int(rng.integers(2, 5))
                rows = cayley_parseval(rng, d + int(rng.integers(3)), d, field == "complex")
                norms_sq = np.sum(np.abs(rows) ** 2, axis=1)
                k = norms_sq.argmax()
                rows[k] *= np.sqrt(1 + t / norms_sq[k])
                yield tol, t, field, rows


def test_is_parseval_is_a_deviation_dimension_of_zero():
    # one band decides "equals one": an eigenvalue between atol and
    # eig_one_atol makes the frame Parseval exactly when it is inside the
    # band.  A Parseval frame has a Parseval dual: the build returns its
    # canonical dual, whose ||V*V - I|| = max |1/lambda - 1| is about
    # eig_one_atol, so it verifies when eig_one_atol <= atol / 2, and a
    # fail is the correct verdict when eig_one_atol > atol
    verdicts, duals = Counter(), Counter()
    for tol, t, field, rows in _two_tolerance_cases():
        f = fk.Frame(dim=rows.shape[1], field=field, vectors=rows)
        exact = exact_band_verdict(rows, tol)
        parseval = fk.is_parseval(f, tol)
        assert parseval == (fk.deviation_dimension(f, tol) == 0) == exact.is_parseval, (tol, t)
        pair = sorted((tol.atol, tol.eig_one_atol))
        verdicts[tol.atol < tol.eig_one_atol, pair[0] < abs(t) < pair[1], parseval] += 1
        if parseval:
            assert fk.parseval_dual_exists(f, tol).exists
            g = fk.construct_parseval_dual(f, tol).dual
            residual, dual = fk.verify_parseval_dual(f, g, tol)
            assert dual.holds and residual.value <= 2 * tol.eig_one_atol
            narrow = tol.eig_one_atol <= tol.atol / 2
            assert residual.holds or not narrow, (tol, t)
            duals[narrow, residual.holds] += 1
    # for either order of the two tolerances, frames between them are
    # accepted by the band alone, and frames inside both and outside both
    # get the same verdict under either rule
    assert verdicts == {(True, True, True): 8, (False, True, False): 8,
                        (True, False, True): 8, (False, False, True): 8,
                        (True, False, False): 8, (False, False, False): 8}, verdicts
    assert duals[True, True] and duals[False, False], duals


def around(x):
    """The float x and its three neighbours on each side."""
    xs = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(3):
            y = math.nextafter(y, direction)
            xs.append(y)
    return xs


def line_frame(x):
    """A frame of the line whose one eigenvalue is x or a float near it:
    the `square_roots` of x 4^k in [1/2, 2), times 2^-k, and a zero row,
    so that the excess is at least 1."""
    k = 0
    while x * 4.0 ** k < 0.5:
        k += 1
    while x * 4.0 ** k >= 2.0:
        k -= 1
    return frame([[r * 2.0 ** -k] for r in square_roots(x * 4.0 ** k)] + [[0.0]])


def test_gap_verdicts_are_exact_at_every_tolerance(monkeypatch):
    # every gap verdict against Fraction arithmetic, at tolerances up to
    # 0.99 and at x around fl(c -+ tol): beyond tol = c/2 a rounded gap
    # c - x can land on the tolerance although the exact one does not, as
    # fl(0.75 - 0.15) = 0.6 < 3/4 - 0.15
    assert not fk.nu_in_range(0.15, None, TOL._replace(atol=0.6))
    rng = np.random.default_rng(24)
    ties, tails = Counter(), []
    monkeypatch.setattr(framekit.identity, "nu_bounds",
                        lambda f, j, tol: fk.NuBounds(tails[-1], 1.0, None, None))
    basis = frame(np.eye(2))
    for t in (0.6, 0.9, 0.99, 0.5, 0.375, 0.25, 1e-8, *rng.uniform(0.0, 0.99, 16)):
        t = float(t)
        tol = TOL._replace(atol=t, eig_one_atol=t)
        exact = Fraction(t)
        for x in around(0.75 - t):
            assert fk.nu_in_range(x, None, tol) == (Fraction(3, 4) - Fraction(x) <= exact)
            ties["nu_minus"] += 0.75 - x == t != Fraction(3, 4) - Fraction(x)
        for x in around(1.0 + t):
            assert fk.nu_in_range(0.75, x, tol) == (Fraction(x) - 1 <= exact)
        for x in around(1.0 - t) + around(1.0 + t):
            f = line_frame(x)
            x = float(f.eigenvalues[0])
            gap = Fraction(x) - 1
            ties["A"] += 1.0 - x == t != -gap
            report = fk.parseval_dual_exists(f, tol)
            assert report.exists == (-gap <= exact), (t, x)
            assert bool(fk.nonexistence_reasons(report, tol)) == (-gap > exact)
            assert fk.deviation_dimension(f, tol) == (abs(gap) > exact)
            assert fk.is_parseval(f, tol) == (abs(gap) <= exact)
            corrected = _nearest_parseval_dual(f, tol)
            assert (not np.array_equal(corrected, canonical_dual_analysis(f))) == (gap > exact)
        for x in around(1.0 - t) + around(1.0 + t):
            # projected_basis_frame's unit-norm band, on the norm it computes
            alpha = np.array([x, 1e-200])
            norm = float(np.linalg.norm(alpha))
            gap = abs(Fraction(norm) - 1)
            ties["unit"] += abs(norm - 1.0) == t != gap
            if gap <= exact:
                fk.projected_basis_frame(alpha, tol)
            else:
                with pytest.raises(fk.NotUnitError):
                    fk.projected_basis_frame(alpha, tol)
        for x in around(1.0 - t):
            tails.append(x)
            report = fk.verify_tail_bound(basis, t, None, tol)
            assert report.holds == (1 - Fraction(x) < exact), (t, x)
            ties["tail"] += 1.0 - x == t != 1 - Fraction(x)
    assert min(ties[site] for site in ("nu_minus", "A", "unit", "tail")) > 0, ties


def _nu_cases():
    """(rows, J, Parseval tolerance, tolerances of the verdict) for the
    nu_in_range oracle."""
    # the dyadic sharpness instance: M_J = 3/4 I exactly for J = {1, 2}
    rows = np.array([[1, 1], [1, -1], [1, 1], [1, -1]]) / 2
    for members in ((1, 2), (1,), (1, 3), ()):
        yield rows, fk.IndexSet(members, 4), TOL, (1e-14, 1e-8, 0.25, 0.6)
    rng = np.random.default_rng(19)
    for trial in range(24):
        d, complex_field = 2 + trial % 2, trial % 4 >= 2
        n = d + int(rng.integers(4))
        rows = cayley_parseval(rng, n, d, complex_field)
        # exact Parseval frames at a narrowed atol, where nu_minus >= 3/4 holds
        # up to rounding; then one row scaled by 1 +- a/4, within atol a of
        # Parseval, where nu_minus can fall below 3/4 and nu_plus rise above
        # 1, decided at a and at narrower tolerances
        a = (1e-12, 1e-3, 0.05, 0.2)[trial % 4]
        atols = (a,)
        if a > 1e-12:
            rows[rng.integers(n)] *= 1 + (a if trial % 8 < 4 else -a) / 4
            atols = tuple(a * 4.0 ** -k for k in range(4))
        for _ in range(3):
            members = np.flatnonzero(rng.integers(2, size=n)) + 1
            yield rows, fk.IndexSet(members, n), TOL._replace(eig_one_atol=a), atols


def test_nu_in_range_matches_the_exact_oracle():
    # nu_minus >= 3/4 - a exactly when M_J - (3/4 - a) I has no negative
    # pivot, and nu_plus <= 1 + a when (1 + a) I - M_J has none; the library
    # decides on eigh's floats.  A disagreement is allowed only where an
    # eigenvalue of M_J lies within eigh's backward error of the edge
    verdicts, near = Counter(), 0
    for rows, j, parseval_tol, atols in _nu_cases():
        field = "complex" if np.iscomplexobj(rows) else "real"
        f = fk.Frame(dim=rows.shape[1], field=field, vectors=rows)
        bounds = fk.nu_bounds(f, j, parseval_tol)
        m = exact_quantity_matrix(rows, j)
        allowance = Fraction(8 * f.dim * 2.0 ** -52)  # ||M_J|| < 2
        for a in atols:
            edges = (Fraction(3, 4) - Fraction(a), 1 + Fraction(a))
            exact = inertia(m, edges[0])[1] == 0 and inertia(m, edges[1])[0] == 0
            library = fk.nu_in_range(bounds.nu_minus, bounds.nu_plus, TOL._replace(atol=a))
            close = any(inertia(m, e - allowance)[1] != inertia(m, e + allowance)[1]
                        for e in edges)
            near += close
            verdicts[exact, library] += 1
            assert library == exact or close, (rows, j, a)
    print(dict(verdicts), "within eigh's error of an edge:", near)
    assert verdicts[True, True] and verdicts[False, False]


def test_library_verdicts_of_the_cli_at_atol():
    f = admissible_frame(3, 7, 2, seed=4)
    g = fk.construct_parseval_dual(f, TOL).dual
    for k in range(2):
        value = fk.verify_parseval_dual(f, g, TOL)[k].value
        assert 0.0 < value < 1.0
        assert fk.verify_parseval_dual(f, g, TOL._replace(atol=value))[k].holds
        assert not fk.verify_parseval_dual(f, g, TOL._replace(atol=below(value)))[k].holds

    p = fk.parseval_projection_frame(3, 9, seed=2)
    j = fk.IndexSet(members=(1, 4), n=9)
    xs = np.random.default_rng(0).standard_normal((40, 3))
    worst = fk.identity_residual(p, j, xs, TOL).value
    assert 0.0 < worst < 1.0
    assert fk.identity_residual(p, j, xs, TOL._replace(atol=worst)).holds
    assert not fk.identity_residual(p, j, xs, TOL._replace(atol=below(worst))).holds

    tol = TOL._replace(atol=0.25)  # the range [1/2, 5/4]
    assert fk.nu_in_range(0.5, None, tol) and fk.nu_in_range(0.5, 1.25, tol)
    assert not fk.nu_in_range(below(0.5), None, tol)
    assert not fk.nu_in_range(0.8, above(1.25), tol)
    # 3/4 - 0.74999999 exceeds atol although 0.74999999 >= fl(3/4 - atol)
    assert not fk.nu_in_range(0.74999999, None, TOL)
    assert fk.nu_in_range(math.nextafter(0.74999999, 1), None, TOL)

    t = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    s = np.linalg.pinv(t)
    worst = max(fk.verify_lemma_decomposition(t, s, 5, 1, TOL)[:4])
    assert 0.0 < worst < 1.0
    assert fk.verify_lemma_decomposition(t, s, 5, 1, TOL._replace(atol=worst)).holds
    assert not fk.verify_lemma_decomposition(t, s, 5, 1,
                                             TOL._replace(atol=below(worst))).holds


def test_cli_verdicts_at_atol(tmp_path, capsys):
    # each verdict's value passed back as --atol passes; one ulp less fails
    paths = {}
    for name, f in (("adm", admissible_frame(3, 7, 2, seed=4)),
                    ("p", fk.parseval_projection_frame(2, 5, seed=3)),
                    ("f", fk.random_frame(3, 6, 1)),
                    ("g", random_dual_pair(3, 6, 1)[1])):
        paths[name] = str(tmp_path / f"{name}.json")
        fk.write_frame(f, paths[name])
    calls = ((("parseval-dual", paths["adm"]), ("residual_parseval", "residual_dual")),
             (("identity", paths["p"], "--j", "1,4", "--trials", "200"), ("max_residual",)),
             (("lemma", paths["f"], paths["g"]), ("kernel_match_residual",
                                                   "direct_sum_residual",
                                                   "idempotent_residual")))
    for argv, fields in calls:
        fk.run_command(list(argv))
        payload = json.loads(capsys.readouterr().out)["payload"]
        worst = max(payload[field] for field in fields)
        assert 0.0 < worst < 1e-8
        for atol, verdict in ((worst, "pass"), (below(worst), "fail")):
            fk.run_command([*argv, "--atol", repr(atol)])
            assert json.loads(capsys.readouterr().out)["verdict"] == verdict, (argv, atol)
