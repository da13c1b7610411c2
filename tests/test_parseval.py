import importlib
import os
import pkgutil
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import framekit as fk
import framekit.frames
import framekit.parseval
from framekit.linalg import adjoint, operator_norm
from helpers import admissible_frame, matrix_rank, scaled, searched_parseval_dual_residual


def two_e1_e2():
    return fk.Frame(dim=2, field="real", vectors=[[2, 0], [0, 1]])


def test_deviation_dimension(mb3, basis2, e1e2e1, tol):
    assert fk.deviation_dimension(mb3, tol) == 0
    assert fk.deviation_dimension(basis2, tol) == 0
    assert fk.deviation_dimension(e1e2e1, tol) == 1
    assert fk.deviation_dimension(scaled(basis2, 2.0), tol) == 2


def test_existence_verdicts(mb3, e1e2e1, tol):
    report = fk.parseval_dual_exists(mb3, tol)
    assert report.exists and report.deviation_dim == 0 and report.excess_val == 1
    assert report.a_opt == pytest.approx(1.0, abs=1e-12)

    report = fk.parseval_dual_exists(e1e2e1, tol)
    assert report.exists and report.deviation_dim == 1 and report.excess_val == 1

    report = fk.parseval_dual_exists(two_e1_e2(), tol)
    assert not report.exists
    assert fk.nonexistence_reasons(report, tol) == ["deviation_dim 1 > excess 0"]

    # a_opt = 0.25 exactly for a diagonal frame operator, so the rendered
    # reason strings are reproducible verbatim
    half_basis = fk.Frame(dim=2, field="real", vectors=[[0.5, 0], [0, 0.5]])
    report = fk.parseval_dual_exists(half_basis, tol)
    assert not report.exists
    assert fk.nonexistence_reasons(report, tol) == [
        "a_opt 0.25 < 1", "deviation_dim 2 > excess 0"]

    # enough excess to absorb the deviation, but the lower bound is short
    report = fk.parseval_dual_exists(
        scaled(fk.parseval_projection_frame(2, 4, seed=0), 0.5), tol)
    assert not report.exists
    reasons = fk.nonexistence_reasons(report, tol)
    assert len(reasons) == 1 and reasons[0].startswith("a_opt") \
        and reasons[0].endswith("< 1")


def test_existence_requires_frame(basis2, tol):
    bad = fk.Frame(dim=2, field="real", vectors=[[1, 0], [2, 0]])
    with pytest.raises(fk.NotAFrameError):
        fk.parseval_dual_exists(bad, tol)
    for f, g in ((basis2, bad), (bad, basis2)):
        with pytest.raises(fk.NotAFrameError):
            fk.verify_parseval_dual(f, g, tol)


def test_parseval_chains_decide_the_rank_rule_once(monkeypatch, tol):
    # is_frame once per public call, and no second rank decision through
    # a kernel basis; non-frames keep each function's own NotAFrameError
    decisions = []

    def counted(name, original):
        def call(*args):
            decisions.append(name)
            return original(*args)
        return call

    is_frame = counted("is_frame", framekit.frames.is_frame)
    for module in (framekit.frames, framekit.parseval):
        monkeypatch.setattr(module, "is_frame", is_frame)
    monkeypatch.setattr(framekit.frames, "_range_basis",
                        counted("_range_basis", framekit.frames._range_basis))
    for field in ("real", "complex"):
        f = admissible_frame(3, 7, 2, seed=1, field=field)
        for call in (fk.parseval_dual_exists, fk.construct_parseval_dual,
                     fk.best_parseval_dual_residual):
            decisions.clear()
            call(f, tol)
            assert decisions == ["is_frame"], (call.__name__, field, decisions)
    bad = fk.Frame(dim=2, field="real", vectors=[[1, 0], [2, 0]])
    for call, message in ((fk.parseval_dual_exists, "Parseval-dual existence needs a frame"),
                          (fk.construct_parseval_dual, "Parseval-dual existence needs a frame"),
                          (fk.best_parseval_dual_residual, "nearest Parseval dual needs a frame"),
                          (fk.deviation_dimension, "deviation dimension needs a frame")):
        with pytest.raises(fk.NotAFrameError, match=message):
            call(bad, tol)


def test_construct_hand_example(e1e2e1, tol):
    report = fk.construct_parseval_dual(e1e2e1, tol)
    npt.assert_allclose(report.dual.vectors, [[1, 0], [0, 1], [0, 0]], atol=1e-12)
    assert fk.is_parseval(report.dual, tol)
    assert fk.check_duality(e1e2e1, report.dual, tol).is_exact_dual


def test_construct_no_deviation_gives_canonical(mb3, tol):
    report = fk.construct_parseval_dual(mb3, tol)
    npt.assert_allclose(report.dual.vectors, mb3.vectors, atol=1e-12)


def test_construct_raises_when_impossible(tol):
    with pytest.raises(fk.NoParsevalDualError) as err:
        fk.construct_parseval_dual(two_e1_e2(), tol)
    assert "deviation_dim 1 > excess 0" in str(err.value)
    with pytest.raises(fk.NoParsevalDualError) as err:
        fk.construct_parseval_dual(scaled(fk.parseval_projection_frame(2, 4, 0), 0.5), tol)
    assert "a_opt" in str(err.value)


def test_construct_on_admissible_ensemble(tol):
    for seed in range(10):
        field = "complex" if seed % 2 else "real"
        dim, n = 2 + seed % 3, 5 + seed % 3
        dev = seed % (min(dim, n - dim) + 1)
        f = admissible_frame(dim, n, dev, seed, field)
        assert fk.deviation_dimension(f, tol) == dev
        report = fk.construct_parseval_dual(f, tol)
        g = report.dual
        assert g.field == f.field
        u = fk.analysis_matrix(f)
        v = fk.analysis_matrix(g)
        assert operator_norm(adjoint(v) @ v - np.eye(dim)) <= 1e-9
        assert operator_norm(adjoint(v) @ u - np.eye(dim)) <= 1e-9
        assert fk.is_parseval(g, tol)
        assert fk.verify_excess_equality(f, g, tol)


def test_construct_correction_structure(tol):
    # write V = U S^{-1} + C; duality forces U*C = 0 and Parsevalness
    # forces C*C = I - S^{-1} (the applied spectral map g(t)^2 = 1 - 1/t)
    for seed in range(5):
        f = admissible_frame(3, 6, dev=2, seed=seed,
                             field="complex" if seed % 2 else "real")
        s = fk.frame_operator(f)
        u = fk.analysis_matrix(f)
        v = fk.analysis_matrix(fk.construct_parseval_dual(f, tol).dual)
        c = v - u @ np.linalg.inv(s)
        assert operator_norm(adjoint(u) @ c) <= 1e-10
        npt.assert_allclose(adjoint(c) @ c, np.eye(3) - np.linalg.inv(s),
                            atol=1e-10)
        assert matrix_rank(np.eye(3) - np.linalg.inv(s), tol.rank_rtol) == 2


def test_construct_uses_kernel_for_correction(e1e2e1, tol):
    # the correction lives in the synthesis kernel, so U* applied to the
    # dual's analysis rows minus the canonical rows must vanish
    g = fk.construct_parseval_dual(e1e2e1, tol).dual
    canonical = fk.canonical_dual(e1e2e1, tol)
    diff = fk.analysis_matrix(g) - fk.analysis_matrix(canonical)
    assert operator_norm(fk.synthesis_matrix(e1e2e1) @ diff) <= 1e-12


def test_construct_keeps_three_n_by_d_arrays_live(tol):
    # a random (200, 400) frame has a Parseval dual that corrects all 200
    # directions; with its SVD cached and its kernel basis not yet, the
    # build holds the kernel basis, U S^-1 and the correction product, plus
    # a d x d factor (0.5 n d here); the dual frame's own copy comes after
    for seed, field in enumerate(("real", "complex")):
        f = fk.random_frame(200, 400, seed=60 + seed, field=field)
        assert fk.parseval_dual_exists(f, tol).deviation_dim == 200
        tracemalloc.start()
        try:
            dual = fk.construct_parseval_dual(f, tol).dual
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * f.vectors.nbytes, (field, peak / f.vectors.nbytes)
        decisions = fk.verify_parseval_dual(f, dual, tol)
        assert all(d.holds for d in decisions), (field, decisions)


def test_rescale_to_admissible(mb3, e1e2e1, tol):
    f = scaled(mb3, 0.5)
    scaled_frame, c = fk.rescale_to_admissible(f, tol)
    assert c == pytest.approx(2.0, abs=1e-12)
    npt.assert_allclose(scaled_frame.vectors, mb3.vectors, atol=1e-12)
    _, c = fk.rescale_to_admissible(e1e2e1, tol)
    assert c == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(fk.NotAFrameError):
        fk.rescale_to_admissible(
            fk.Frame(dim=2, field="real", vectors=[[1, 0], [1, 0]]), tol)


def test_rescaled_dual_is_tight_for_original(mb3, tol):
    # Parseval dual of the rescaled frame, scaled back, is a tight dual
    # of the original with tight bound c^2
    f = scaled(mb3, 0.5)
    admissible, c = fk.rescale_to_admissible(f, tol)
    g = fk.construct_parseval_dual(admissible, tol).dual
    tight = scaled(g, c)
    assert fk.check_duality(f, tight, tol).is_exact_dual
    npt.assert_allclose(fk.frame_operator(tight), c * c * np.eye(2), atol=1e-10)


def test_search_finds_parseval_dual_when_it_exists(mb3, e1e2e1, tol):
    assert fk.best_parseval_dual_residual(mb3, tol) <= 1e-8
    assert fk.best_parseval_dual_residual(e1e2e1, tol) <= 1e-5


def blocked_frames(mb3):
    """Frames with no Parseval dual, each with its closed-form residual
    max(mu_{k+1}^+, (-mu_d)^+), mu_1 >= ... >= mu_d being the eigenvalues
    of I - S^{-1} and k the excess."""
    return [
        # deviation exceeds excess: S = diag(4, 1), k = 0
        (two_e1_e2(), 0.75),
        # lower bound below 1: S = I/4, k = 1
        (scaled(mb3, 0.5), 3.0),
        # only the top eigenvalue is corrected: S = diag(4, 2), k = 1
        (fk.Frame(dim=2, field="real", vectors=[[2, 0], [0, 1], [0, 1]]), 0.5),
        # one eigenvalue above 1, one below: S = diag(4, 1/2), k = 1
        (fk.Frame(dim=2, field="real",
                  vectors=[[2, 0], [0, np.sqrt(0.5)], [0, 0]]), 1.0),
        # S = diag(9, 4, 1), k = 1
        (fk.Frame(dim=3, field="real",
                  vectors=np.vstack([np.diag([3.0, 2.0, 1.0]), np.zeros(3)])),
         0.75),
    ]


def test_search_residual_positive_when_conditions_fail(mb3, tol):
    for f, expected in blocked_frames(mb3):
        residual = fk.best_parseval_dual_residual(f, tol)
        assert residual == pytest.approx(expected, abs=1e-10)
        assert residual == pytest.approx(
            searched_parseval_dual_residual(f), abs=1e-5)


def test_search_oracle_shares_no_code_with_the_closed_form(mb3, monkeypatch):
    # every name on the closed form's path raises, on the package and on
    # each framekit module that holds it; the search must still find the
    # known residuals, compared with constants, not with framekit's values
    def refuse(*args, **kwargs):
        raise AssertionError("the search oracle called framekit's closed form")

    modules = [importlib.import_module(f"framekit.{m.name}")
               for m in pkgutil.iter_modules(fk.__path__)
               if not m.name.startswith("_")]
    for name in ("_nearest_parseval_dual", "best_parseval_dual_residual",
                 "construct_parseval_dual", "kernel_of_synthesis",
                 "canonical_dual_analysis", "dual_from_free_operator"):
        if name in fk.__all__:
            monkeypatch.setattr(fk, name, refuse)
        for module in modules:
            if name in vars(module):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        fk.best_parseval_dual_residual(mb3, fk.ToleranceConfig())
    for f, expected in blocked_frames(mb3):
        assert searched_parseval_dual_residual(f) == pytest.approx(
            expected, abs=1e-10)


def test_import_loads_no_scipy():
    # numpy is the only numerical library that framekit or its tests use
    code = ("import sys, framekit; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fk.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
