import gc
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

import framekit as fk
import framekit.duals
from framekit.linalg import adjoint, operator_norm, subspace_distance
from helpers import (TOL, deletion_excess, exact_pair_ensemble, exact_pair_verdict,
                     from_real_embedding, gaussian, haar_columns, orthonormal_range,
                     random_dual_pair, scaled, seeded_cases, well_conditioned_invertible)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def non_pseudo_pair():
    # V*U = [[0, 0], [1, 0]] is singular: not even a pseudo-dual pair
    f = fk.Frame(dim=2, field="real", vectors=[[1, 0], [0, 1], [0, 1]])
    g = fk.Frame(dim=2, field="real", vectors=[[0, 1], [1, 0], [-1, 0]])
    return f, g


def orthogonal_range_pairs():
    # V = Q W, Q = f.range_complement, so V*U = 0 up to rounding: that
    # residue passed the rank rule, and ||V*U - I|| could round to 1 - 1e-16
    for field in ("real", "complex"):
        for d, n in ((1, 3), (2, 4), (3, 7)):
            for seed in range(30):
                f = fk.random_frame(d, n, seed, field)
                q = f.range_complement
                w = gaussian(np.random.default_rng(seed), q.shape[1], d, field == "complex")
                yield f, fk.Frame(dim=d, field=field, vectors=np.conj(q @ w))


def test_canonical_dual_examples(e1e2e1, mb3, basis2, tol):
    d = fk.canonical_dual(e1e2e1, tol)
    npt.assert_allclose(d.vectors, [[0.5, 0], [0, 1], [0.5, 0]], atol=1e-15)
    npt.assert_allclose(fk.canonical_dual(mb3, tol).vectors, mb3.vectors, atol=1e-14)
    npt.assert_allclose(fk.canonical_dual(basis2, tol).vectors, basis2.vectors, atol=0)


def test_canonical_dual_requires_frame(tol):
    bad = fk.Frame(dim=2, field="real", vectors=[[1, 0], [2, 0]])
    with pytest.raises(fk.NotAFrameError):
        fk.canonical_dual(bad, tol)


def test_canonical_dual_reconstructs(tol):
    rng = np.random.default_rng(3)
    for seed in range(4):
        f = fk.random_frame(3, 5, seed=seed, field="complex" if seed % 2 else "real")
        g = fk.canonical_dual(f, tol)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        coeff = fk.analysis_matrix(f) @ x
        npt.assert_allclose(fk.synthesis_matrix(g) @ coeff, x, atol=1e-10)
        # canonical dual is the one whose analysis range matches that of f
        assert subspace_distance(
            orthonormal_range(fk.analysis_matrix(f), tol.rank_rtol),
            orthonormal_range(fk.analysis_matrix(g), tol.rank_rtol)) <= 1e-10


def test_canonical_dual_exact_on_ill_conditioned_frame(tol):
    # cond(U) ~ 3e4: normal equations S X = U* missed V*U = I by 2.4e-8
    f = fk.random_frame(4, 4, seed=1688094018, field="real")
    report = fk.check_duality(f, fk.canonical_dual(f, tol), tol)
    assert report.is_exact_dual, report.deviation_norm


def test_check_duality_exact(e1e2e1, tol):
    g = fk.canonical_dual(e1e2e1, tol)
    report = fk.check_duality(e1e2e1, g, tol)
    assert report.is_exact_dual and report.is_approx_dual and report.is_pseudo_dual
    assert report.deviation_norm <= 1e-12
    assert report.min_singular_vu == pytest.approx(1.0, abs=1e-12)
    # the classification is symmetric in the pair
    mirror = fk.check_duality(g, e1e2e1, tol)
    assert mirror.is_exact_dual
    assert mirror.deviation_norm == pytest.approx(report.deviation_norm, abs=1e-14)


def test_check_duality_grading(mb3, tol):
    report = fk.check_duality(mb3, scaled(mb3, 1.5), tol)
    assert not report.is_exact_dual
    assert report.is_approx_dual and report.is_pseudo_dual
    assert report.deviation_norm == pytest.approx(0.5, abs=1e-12)
    assert report.min_singular_vu == pytest.approx(1.5, abs=1e-12)

    report = fk.check_duality(mb3, scaled(mb3, 3.0), tol)
    assert not report.is_approx_dual
    assert report.is_pseudo_dual  # V*U = 3I is invertible
    assert report.deviation_norm == pytest.approx(2.0, abs=1e-12)

    # V*U = diag(1, ..., 1, 1e-9): sigma_min lies above the rounding
    # allowance of V*U (7.4e-12 here), and 1000 times that allowance
    # would bury it
    f = fk.random_frame(20, 40, 1)
    v = np.array(fk.canonical_dual(f, tol).vectors)
    v[:, -1] *= 1e-9
    report = fk.check_duality(f, fk.Frame(dim=20, field="real", vectors=v), tol)
    assert report.is_approx_dual and report.is_pseudo_dual
    assert report.min_singular_vu == pytest.approx(1e-9)


def test_check_duality_degenerate(tol):
    f, g = non_pseudo_pair()
    report = fk.check_duality(f, g, tol)
    assert not (report.is_exact_dual or report.is_approx_dual or report.is_pseudo_dual)
    assert report.min_singular_vu <= 1e-12
    assert report.deviation_norm == pytest.approx(GOLDEN, abs=1e-12)
    for f, g in [non_pseudo_pair(), *orthogonal_range_pairs()]:
        report = fk.check_duality(f, g, tol)
        assert not (report.is_exact_dual or report.is_approx_dual or report.is_pseudo_dual)
        with pytest.raises(fk.NotPseudoDualError):
            fk.verify_excess_equality(f, g, tol)
        with pytest.raises(fk.NotPseudoDualError):
            fk.pseudo_dual_to_exact(f, g, tol)


def numpy_spectrum(f, g):
    """numpy's ||V*U - I|| and singular values of V*U."""
    vu = np.conj(fk.analysis_matrix(g)).T @ fk.analysis_matrix(f)
    return np.linalg.norm(vu - np.eye(f.dim), 2), np.linalg.svd(vu, compute_uv=False)


def record_shapes(patch, name):
    """Patch numpy.linalg's function `name` to record the shape of each
    input; the record."""
    shapes = []

    def counted(a, *rest, _call=getattr(np.linalg, name), **kw):
        shapes.append(np.shape(a))
        return _call(a, *rest, **kw)
    patch.setattr(np.linalg, name, counted)
    return shapes


def assert_within_gram_allowance(report, f, g):
    # the near path's bound (check_duality's docstring): a singular value s
    # of the d x d matrix M is read within 2 d (d + 2) eps ||M||^2 / s, plus
    # half an ulp from the square root; numpy's SVD adds its own d eps ||M||
    deviation, sigma = numpy_spectrum(f, g)
    d, eps = f.dim, 2.0 ** -52

    def allowance(s, s_1):
        return 2 * d * (d + 2) * eps * s_1 ** 2 / s + eps * s + d * eps * s_1
    assert deviation <= 0.5 + allowance(deviation, deviation)
    assert abs(report.deviation_norm - deviation) <= allowance(deviation, deviation), (
        d, report.deviation_norm, deviation)
    assert abs(report.min_singular_vu - sigma[-1]) <= allowance(sigma[-1], sigma[0]), (
        d, report.min_singular_vu, sigma[-1])


def test_check_duality_matches_separate_norm_and_svd(mb3, tol):
    # a far pair, ||V*U - I|| > 1/2, reads both numbers from one batched
    # SVD of [V*U - I, V*U]: they equal numpy's spectral norm of V*U - I and
    # least singular value of V*U; a near pair reads them from the Gram
    # matrices, within the allowance of check_duality's docstring
    near = [random_dual_pair(3, 6, 0, "real"), random_dual_pair(3, 6, 1, "complex")]
    far = [(mb3, scaled(mb3, 3.0)),
           (fk.random_frame(3, 6, 10), fk.random_frame(3, 6, 11)),
           (fk.random_frame(3, 6, 10, "complex"), fk.random_frame(3, 6, 11, "complex")),
           non_pseudo_pair()]
    grades = set()
    for f, g in near + far:
        report = fk.check_duality(f, g, tol)
        grades.add((report.is_exact_dual, report.is_pseudo_dual))
        if (f, g) in near:
            assert_within_gram_allowance(report, f, g)
            continue
        deviation, sigma = numpy_spectrum(f, g)
        assert deviation > 0.5
        assert report.deviation_norm == deviation
        assert report.min_singular_vu == sigma[-1]
    assert grades == {(True, True), (False, True), (False, False)}


def test_far_pair_keeps_the_svd(monkeypatch, tol):
    # V*U = I - (1 - 1e-9) r r^T, r a unit vector: sigma_min is 1e-9 <
    # sqrt(eps) sigma_max, which the Gram's eigenvalue, 1e-18 to within
    # about eps, cannot resolve; ||V*U - I|| = 1 - 1e-9, so the pair is an
    # approximate dual one.  At d = 4 (r = (1/2, ..., 1/2)) and at d = 2
    # (V*U = R diag(1, 1e-9) R^T, R a rotation) ||V*U - I||_F > 1/2, so the
    # SVD decides and no Gram is formed, as for V*U = 1e200 I, whose Grams
    # would overflow
    cases = []
    for r in (np.full(4, 0.5), np.array([-np.sin(0.3), np.cos(0.3)])):
        d = r.size
        f = fk.Frame(dim=d, field="real", vectors=np.vstack([np.eye(d), np.zeros(d)]))
        vu = np.eye(d) - (1 - 1e-9) * np.outer(r, r)
        g = fk.Frame(dim=d, field="real", vectors=np.vstack([vu, np.ones(d)]))
        cases.append((f, g, (False, True, True)))
    big = scaled(cases[1][0], 1e100)
    cases.append((big, big, (False, True, False)))
    svds = record_shapes(monkeypatch, "svd")
    eigvalshs = record_shapes(monkeypatch, "eigvalsh")
    for f, g, grade in cases:
        fk.is_frame(f, tol)
        svds.clear()
        report = fk.check_duality(f, g, tol)
        assert report[:3] == grade
        assert (2, f.dim, f.dim) in svds and eigvalshs == []
        deviation, sigma = numpy_spectrum(f, g)
        assert report.deviation_norm == deviation
        assert report.min_singular_vu == sigma[-1]


def numpy_cross_spectrum(vu):
    """`duals._cross_spectrum` from numpy's SVD of V*U alone."""
    sigma = np.linalg.svd(vu, compute_uv=False)
    return np.linalg.norm(vu - np.eye(len(vu)), 2), sigma[-1], sigma[0]


def test_near_pairs_read_from_the_grams_within_their_allowance(monkeypatch, tol):
    # free-operator duals (||V*U - I|| at rounding level) and their images
    # under T = I + X, ||X||_F = 0.45 (V*U = T, singular values spread
    # inside [0.55, 1.45]); each graded as numpy's SVD figures grade it
    pairs = []
    for d, extra, seed, complex_field in seeded_cases(4040, 24, (2, 40), (0, 6),
                                                      (0, 10_000), (0, 1)):
        field = "complex" if complex_field else "real"
        f, g = random_dual_pair(d, d + extra, seed, field)
        x = gaussian(np.random.default_rng(seed), d, d, complex_field)
        t = np.eye(d) + 0.45 * x / np.linalg.norm(x)
        pairs += [(f, g), (f, fk.transform_frame(g, t, tol))]
    with monkeypatch.context() as patch:
        shapes = record_shapes(patch, "svd")
        reports = [fk.check_duality(f, g, tol) for f, g in pairs]
    assert not [shape for shape in shapes if len(shape) == 3]
    for (f, g), report in zip(pairs, reports):
        assert_within_gram_allowance(report, f, g)
    # the grades of numpy's figures, on fresh copies of the frames
    monkeypatch.setattr(framekit.duals, "_cross_spectrum", numpy_cross_spectrum)
    for (f, g), report in zip(pairs, reports):
        copies = [fk.Frame(dim=h.dim, field=h.field, vectors=h.vectors) for h in (f, g)]
        assert fk.check_duality(*copies, tol)[:3] == report[:3]


def test_every_pair_class_pays_for_one_spectral_call(monkeypatch, tol):
    # one spectral call per pair, chosen on ||V*U - I||_F: a free-operator
    # dual takes one eigvalsh of its Gram stack; V*U = I + X with
    # ||X||_2 = 0.45 but ||X||_F = 0.45 sqrt(d) > 1/2 (X = 0.45 W, W unitary),
    # and with ||X||_2 = ||X||_F = 0.8 spread over all entries (X = 0.8 r r*),
    # take one sigma-only SVD of [V*U - I, V*U] and no Gram, and report
    # numpy's figures to the bit
    svds = record_shapes(monkeypatch, "svd")
    eigvalshs = record_shapes(monkeypatch, "eigvalsh")
    for d in (2, 4, 40):
        for complex_field in (False, True):
            field = "complex" if complex_field else "real"
            rng = np.random.default_rng(d)
            unitary = haar_columns(rng, d, d, complex_field)
            r = haar_columns(rng, d, 1, complex_field)
            basis = fk.Frame(dim=d, field=field, vectors=np.vstack([np.eye(d), np.zeros(d)]))
            cases = [(*random_dual_pair(d, d + 2, d, field), True)]
            for x in (0.45 * unitary, 0.8 * r @ np.conj(r).T):
                # U = [I; 0], so V*U is the transpose of g's first d rows
                g = fk.Frame(dim=d, field=field, vectors=np.vstack([(np.eye(d) + x).T,
                                                                    np.ones(d)]))
                cases.append((basis, g, False))
            for f, g, exact in cases:
                fk.is_frame(f, tol)
                svds.clear()
                eigvalshs.clear()
                report = fk.check_duality(f, g, tol)
                assert report[:3] == (exact, True, True), (d, field)
                stacks = [shape for shape in svds if len(shape) == 3]
                if exact:
                    assert (stacks, eigvalshs) == ([], [(2, d, d)]), (d, field)
                    continue
                assert (stacks, eigvalshs) == ([(2, d, d)], []), (d, field)
                deviation, sigma = numpy_spectrum(f, g)
                assert report.deviation_norm == deviation, (d, field)
                assert report.min_singular_vu == sigma[-1], (d, field)


def test_pseudo_dual_grade_does_not_depend_on_scale(tol):
    # V*U = -c I is invertible for every c > 0; an absolute cutoff on
    # sigma_min graded c = 1e-6 pseudo-dual and c = 1e-8 not
    f = fk.random_frame(3, 6, 1)
    dual = fk.canonical_dual(f, tol)
    for c in (1e-6, 1e-8):
        g = scaled(dual, -c)
        report = fk.check_duality(f, g, tol)
        assert report.is_pseudo_dual and not report.is_approx_dual
        assert fk.verify_excess_equality(f, g, tol) is True
        upgraded = fk.pseudo_dual_to_exact(f, g, tol)
        assert fk.check_duality(upgraded, g, tol).is_exact_dual
    # an unrelated random pair keeps its grade and its verdict when g shrinks
    f, g = fk.random_frame(3, 6, 10), fk.random_frame(3, 6, 11)
    assert fk.check_duality(f, g, tol).is_pseudo_dual
    for c in (1.0, 1e-6, 1e-8):
        assert fk.check_duality(f, scaled(g, c), tol).is_pseudo_dual
        assert fk.verify_excess_equality(f, scaled(g, c), tol) is True
    # a V*U of rounding residue stays ungraded at every scale of g
    for f, g in orthogonal_range_pairs():
        for c in (1e-8, 1.0, 1e8):
            assert not fk.check_duality(f, scaled(g, c), tol).is_pseudo_dual


def test_grades_at_their_rounding_allowance(monkeypatch, tol):
    # the allowance noise of the computed V*U, recomputed as check_duality
    # forms it: ||V*U - I|| = 1 - noise is not approximately dual, nor is
    # sigma_min(V*U) = noise pseudo-dual; one float beyond, each grade holds.
    # By Sterbenz 1 - (1 - noise) is noise whenever 1 - noise is a float
    f = fk.Frame(dim=2, field="real", vectors=[[1, 0], [0, 1], [0, 0]])
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    noise = 4 * f.n * f.dim * 2.0 ** -52 * float(f.svd.sigma[0]) * float(np.linalg.norm(rows))
    assert 1.0 - (1.0 - noise) == noise

    def grade(deviation, sigma_min):
        monkeypatch.setattr(framekit.duals, "_cross_spectrum",
                            lambda vu: (deviation, sigma_min, sigma_min))
        return fk.check_duality(f, fk.Frame(dim=2, field="real", vectors=rows), tol)

    edge = 1.0 - noise
    assert not grade(edge, 1.0).is_approx_dual
    assert grade(math.nextafter(edge, 0.0), 1.0).is_approx_dual
    assert not grade(1.0, noise).is_pseudo_dual
    assert grade(1.0, math.nextafter(noise, 1.0)).is_pseudo_dual


def test_check_duality_errors(mb3, basis2, tol):
    with pytest.raises(fk.DimensionMismatchError):
        fk.check_duality(mb3, basis2, tol)
    bad = fk.Frame(dim=2, field="real", vectors=[[1, 0], [1, 0], [1, 0]])
    with pytest.raises(fk.NotAFrameError):
        fk.check_duality(mb3, bad, tol)
    assert mb3 not in framekit.duals._DUALITY_REPORTS


def test_pair_certificate_falls_back_to_the_dual_svd(monkeypatch, tol):
    # sigma_min(V*U) = 2e-11 is below rank_rtol ||U||_2 ||V||_F = 1.4e-10, so
    # the pair cannot certify that g spans; g's own SVD does (ratio 1)
    f = fk.Frame(dim=2, field="real", vectors=[[1, 0], [0, 1], [0, 0], [0, 0]])
    g = fk.Frame(dim=2, field="real",
                 vectors=[[3e-11, 0], [0, -2e-11], [1, 0], [0, 1]])
    fk.is_frame(f, tol)
    shapes = []

    def counted(a, *rest, _svd=np.linalg.svd, **kw):
        shapes.append(np.shape(a))
        return _svd(a, *rest, **kw)
    monkeypatch.setattr(np.linalg, "svd", counted)
    report = fk.check_duality(f, g, tol)
    assert fk.verify_excess_equality(f, g, tol)
    assert sorted(shapes) == [(2, 2, 2), (4, 2)]
    # the grades and figures of the SVD-first rule that preceded the certificate
    assert report[:3] == (False, True, False)
    assert report.deviation_norm.hex() == "0x1.0000000015fd8p+0"
    assert report.min_singular_vu.hex() == "0x1.5fd7fe1796495p-36"


def test_check_duality_memo_is_per_tolerance_and_weak(mb3):
    loose, tight = fk.ToleranceConfig(atol=1e-8), fk.ToleranceConfig(atol=1e-10)
    g = scaled(mb3, 1.0 + 1e-9)  # V*U = (1 + 1e-9) S, S = I up to rounding
    report = fk.check_duality(mb3, g, loose)
    assert report.is_exact_dual
    assert report.deviation_norm == pytest.approx(1e-9, rel=1e-5)
    assert fk.check_duality(mb3, g, fk.ToleranceConfig(atol=1e-8)) is report
    assert len(framekit.duals._DUALITY_REPORTS[mb3][g]) == 1  # equal configs, one entry
    assert framekit.duals._DUALITY_REPORTS[mb3][g][loose] is report  # the bare report
    # a separate report per tolerance, each kept
    tight_report = fk.check_duality(mb3, g, tight)
    assert tight_report is not report and not tight_report.is_exact_dual
    assert fk.check_duality(mb3, g, tight) is tight_report
    assert fk.check_duality(mb3, g, loose) is report
    # a graded frame pickles; its copy starts afresh and re-grades equally
    copy = pickle.loads(pickle.dumps(mb3))
    npt.assert_array_equal(copy.vectors, mb3.vectors)
    copy_report = fk.check_duality(copy, g, loose)
    assert copy_report is not report and copy_report == report
    # the table keeps neither frame alive
    g_ref, f_ref = weakref.ref(g), weakref.ref(copy)
    del g, copy
    gc.collect()
    assert g_ref() is None
    assert f_ref() is None


def test_pseudo_dual_to_exact(mb3, tol):
    g = scaled(mb3, 1.5)
    h = fk.pseudo_dual_to_exact(mb3, g, tol)
    npt.assert_allclose(h.vectors, mb3.vectors / 1.5, atol=1e-14)
    assert fk.check_duality(h, g, tol).is_exact_dual


def test_pseudo_dual_to_exact_random(tol):
    for seed in range(6):
        field = "complex" if seed % 2 else "real"
        f, g = random_dual_pair(3, 6, seed, field)
        t = well_conditioned_invertible(np.random.default_rng(seed + 50), 3,
                                        field == "complex")
        g2 = fk.transform_frame(g, t, tol)
        assert not fk.check_duality(f, g2, tol).is_exact_dual
        h = fk.pseudo_dual_to_exact(f, g2, tol)
        assert fk.check_duality(h, g2, tol).is_exact_dual


def test_pseudo_dual_to_exact_rejects_singular(tol):
    f, g = non_pseudo_pair()
    with pytest.raises(fk.NotPseudoDualError):
        fk.pseudo_dual_to_exact(f, g, tol)


def test_dual_from_zero_w_is_canonical(e1e2e1, tol):
    g = fk.dual_from_free_operator(e1e2e1, np.zeros((3, 2)), tol)
    npt.assert_allclose(g.vectors, fk.canonical_dual(e1e2e1, tol).vectors, atol=1e-14)


def test_dual_from_free_operator_explicit(e1e2e1, tol):
    c = 0.3
    kernel_vec = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    w = c * np.outer(kernel_vec, [1.0, 0.0])
    g = fk.dual_from_free_operator(e1e2e1, w, tol)
    shift = c / np.sqrt(2.0)
    expected = [[0.5 + shift, 0.0], [0.0, 1.0], [0.5 - shift, 0.0]]
    npt.assert_allclose(g.vectors, expected, atol=1e-14)
    assert fk.check_duality(e1e2e1, g, tol).is_exact_dual


def test_dual_from_free_operator_always_exact(tol):
    rng = np.random.default_rng(7)
    for seed in range(8):
        field = "complex" if seed % 2 else "real"
        f = fk.random_frame(2 + seed % 3, 5 + seed % 2, seed=seed, field=field)
        w = gaussian(rng, f.n, f.dim, field == "complex")
        g = fk.dual_from_free_operator(f, w, tol)
        report = fk.check_duality(f, g, tol)
        assert report.is_exact_dual
        assert fk.excess(g, tol).excess == fk.excess(f, tol).excess


def test_dual_ignores_w_component_in_analysis_range(tol):
    # only the kernel part of W matters: shifting W by U R changes nothing
    f = fk.random_frame(3, 6, seed=12, field="complex")
    rng = np.random.default_rng(13)
    w = gaussian(rng, 6, 3, True)
    r = gaussian(rng, 3, 3, True)
    shifted = w + fk.analysis_matrix(f) @ r
    g1 = fk.dual_from_free_operator(f, w, tol)
    g2 = fk.dual_from_free_operator(f, shifted, tol)
    npt.assert_allclose(g1.vectors, g2.vectors, atol=1e-12)


def test_dual_from_free_operator_errors(mb3, tol):
    with pytest.raises(fk.DimensionMismatchError):
        fk.dual_from_free_operator(mb3, np.zeros((2, 2)), tol)
    bad = fk.Frame(dim=2, field="real", vectors=[[1, 0], [1, 0], [1, 0]])
    with pytest.raises(fk.NotAFrameError):
        fk.dual_from_free_operator(bad, np.zeros((3, 2)), tol)


def test_thin_frame_gets_an_exact_dual_or_an_error(tol):
    # a rotated [[1, 0], [0, 1e-6], [1, 0]]: a frame with cond(U) ~ 1.4e6,
    # where the normal equations would miss V*U = I by ~1e-4
    c, s = np.cos(0.3), np.sin(0.3)
    vectors = np.array([[1.0, 0.0], [0.0, 1e-6], [1.0, 0.0]]) @ [[c, s], [-s, c]]
    f = fk.Frame(dim=2, field="real", vectors=vectors)
    assert fk.is_frame(f, tol)
    assert fk.check_duality(f, fk.canonical_dual(f, tol), tol).is_exact_dual
    with pytest.raises(fk.IllConditionedError):
        fk.dual_from_free_operator(f, np.zeros((3, 2)), tol)


def test_oblique_projection_examples(tol):
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    p = fk.oblique_projection([e1], [e1 + e2], tol)
    npt.assert_allclose(p, [[1, -1], [0, 0]], atol=1e-14)
    p = fk.oblique_projection([e1], [e2], tol)
    npt.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-14)
    p = fk.oblique_projection([np.eye(3)[0], np.eye(3)[1]], [np.ones(3)], tol)
    npt.assert_allclose(p, [[1, 0, -1], [0, 1, -1], [0, 0, 0]], atol=1e-14)


def test_oblique_projection_properties(tol):
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        r_dim = int(rng.integers(1, n))
        r_basis = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                   for _ in range(r_dim)]
        c_basis = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                   for _ in range(n - r_dim)]
        p = fk.oblique_projection(r_basis, c_basis, tol)
        assert operator_norm(p @ p - p) <= 1e-10
        for v in r_basis:
            npt.assert_allclose(p @ v, v, atol=1e-9)
        for v in c_basis:
            npt.assert_allclose(p @ v, np.zeros(n), atol=1e-9)


def test_oblique_projection_errors(tol):
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    with pytest.raises(fk.NotComplementaryError):
        fk.oblique_projection([e1], [e1], tol)  # spans intersect
    with pytest.raises(fk.NotComplementaryError):
        fk.oblique_projection([np.eye(3)[0]], [np.eye(3)[1]], tol)  # too small
    with pytest.raises(fk.DimensionMismatchError):
        fk.oblique_projection([e1], [np.ones(3)], tol)


def test_dual_from_projection_orthogonal_is_canonical(e1e2e1, basis2, tol):
    u = fk.analysis_matrix(e1e2e1)
    orth = u @ np.linalg.solve(adjoint(u) @ u, adjoint(u))
    g = fk.dual_from_projection(e1e2e1, orth, tol)
    npt.assert_allclose(g.vectors, fk.canonical_dual(e1e2e1, tol).vectors, atol=1e-12)
    g = fk.dual_from_projection(basis2, np.eye(2), tol)
    npt.assert_allclose(g.vectors, basis2.vectors, atol=1e-14)


def test_projection_from_dual_pair_example(e1e2e1, mb3, tol):
    g = fk.Frame(dim=2, field="real", vectors=[[1, 0], [0, 1], [0, 0]])
    p = fk.projection_from_dual_pair(e1e2e1, g, tol)
    npt.assert_allclose(p, [[1, 0, 0], [0, 1, 0], [1, 0, 0]], atol=1e-14)
    p = fk.projection_from_dual_pair(mb3, mb3, tol)
    npt.assert_allclose(p, fk.gram_matrix(mb3), atol=1e-14)
    assert operator_norm(p @ p - p) <= 1e-12


def test_projection_from_dual_pair_rejects_non_dual(mb3, tol):
    with pytest.raises(fk.NotDualError):
        fk.projection_from_dual_pair(mb3, scaled(mb3, 1.5), tol)


def small_and_dense_pairs():
    # six (3, 6) pairs, real and complex, then the real (200, 400) pair of
    # dense_dual_pairs, whose UV* is a 400 x 400 projection
    for seed in range(6):
        yield random_dual_pair(3, 6, seed, "complex" if seed % 2 else "real")
    yield next(dense_dual_pairs())


def test_projection_dual_round_trip(tol):
    for f, g in small_and_dense_pairs():
        p = fk.projection_from_dual_pair(f, g, tol)
        assert operator_norm(p @ p - p) <= 1e-9
        g_back = fk.dual_from_projection(f, p, tol)
        npt.assert_allclose(g_back.vectors, g.vectors, atol=1e-8)
        assert fk.check_duality(f, g_back, tol).is_exact_dual
        assert fk.verify_excess_equality(f, g_back, tol)
        p_back = fk.projection_from_dual_pair(f, g_back, tol)
        npt.assert_allclose(p_back, p, atol=1e-8)


def test_dual_from_projection_errors(e1e2e1, tol):
    with pytest.raises(fk.NotAProjectionError):
        fk.dual_from_projection(e1e2e1, 2.0 * np.eye(3), tol)
    rank_one = np.zeros((3, 3))
    rank_one[0, 0] = 1.0
    with pytest.raises(fk.WrongRangeError):
        fk.dual_from_projection(e1e2e1, rank_one, tol)
    with pytest.raises(fk.DimensionMismatchError):
        fk.dual_from_projection(e1e2e1, np.eye(2), tol)


def test_lemma_on_dual_pairs(tol):
    for seed, (f, g) in enumerate(small_and_dense_pairs()):
        report = fk.verify_lemma_decomposition(
            fk.analysis_matrix(f), fk.synthesis_matrix(g), probes=20,
            seed=seed, tol=tol)
        assert report.holds
        assert report.st_is_identity_residual <= 1e-9
        assert report.kernel_match_residual <= 1e-8
        assert report.direct_sum_residual <= 1e-8
        assert report.idempotent_residual <= 1e-8
    # a free operator of size 2e4: the kernel residual is scaled by its
    # rounding bound, and unscaled it would read 2e-8 (holds fails here on
    # the unscaled idempotency residual, so only the kernel one is checked)
    f = fk.random_frame(50, 100, 3)
    g = fk.dual_from_free_operator(
        f, 2e4 * np.random.default_rng(0).standard_normal((100, 50)), tol)
    report = fk.verify_lemma_decomposition(
        fk.analysis_matrix(f), fk.synthesis_matrix(g), probes=5, seed=0, tol=tol)
    assert report.kernel_match_residual <= tol.atol


def test_lemma_plain_matrices(tol):
    # not frame-specific: any injective T with a left inverse S qualifies
    t = np.array([[1.0], [1.0]])
    s = np.array([[0.5, 0.5]])
    report = fk.verify_lemma_decomposition(t, s, probes=10, seed=0, tol=tol)
    assert max(report.st_is_identity_residual, report.kernel_match_residual,
               report.direct_sum_residual, report.idempotent_residual) <= 1e-12


def test_lemma_reads_the_cached_svds(monkeypatch, tol):
    calls, dtypes = [], []

    def counted(a, *rest, _svd=np.linalg.svd, **kw):
        # only the SVDs that compute vectors; operator norms take sigma-only ones
        if kw.get("compute_uv", True):
            calls.append(kw.get("full_matrices", rest[0] if rest else True))
        dtypes.append(np.asarray(a).dtype)
        return _svd(a, *rest, **kw)

    def qr(a, *rest, _qr=np.linalg.qr, **kw):
        dtypes.append(np.asarray(a).dtype)
        return _qr(a, *rest, **kw)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "qr", qr)
    # the factorizations run in the pair's own field; the probes (not
    # spied on) are complex either way
    for field, dtype in (("real", np.float64), ("complex", np.complex128)):
        f, g = random_dual_pair(3, 6, 0, field)
        t, s = fk.analysis_matrix(f), fk.synthesis_matrix(g)
        calls.clear()
        dtypes.clear()
        report = fk.verify_lemma_decomposition(t, s, probes=5, seed=0, tol=tol)
        assert report.kernel_match_residual <= 1e-12
        # one thin SVD of T and one of S*; the mapped kernel basis is a QR
        assert len(calls) <= 2
        assert True not in calls
        assert dtypes and set(dtypes) == {np.dtype(dtype)}, (field, dtypes)


def test_lemma_rejects_non_left_inverse(e1e2e1, tol):
    t = fk.analysis_matrix(e1e2e1)
    s = 1.5 * fk.synthesis_matrix(fk.canonical_dual(e1e2e1, tol))
    with pytest.raises(fk.NotLeftInverseError):
        fk.verify_lemma_decomposition(t, s, probes=5, seed=0, tol=tol)
    with pytest.raises(fk.DimensionMismatchError):
        fk.verify_lemma_decomposition(t, np.eye(3), probes=5, seed=0, tol=tol)
    with pytest.raises(fk.DimensionMismatchError):
        fk.verify_lemma_decomposition(t, s / 1.5, probes=0, seed=0, tol=tol)


def test_transform_frame(mb3, e1e2e1, tol):
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = fk.transform_frame(mb3, rot, tol)
    assert fk.is_parseval(g, tol)
    assert fk.excess(g, tol).excess == 1
    # collapsing a dimension can only increase the excess
    h = fk.transform_frame(e1e2e1, np.array([[1.0, 0.0]]), tol)
    assert h.dim == 1
    npt.assert_allclose(np.ravel(h.vectors), [1.0, 0.0, 1.0], atol=0)
    assert fk.excess(h, tol).excess == 2 > fk.excess(e1e2e1, tol).excess


def test_transform_frame_errors(mb3, tol):
    with pytest.raises(fk.NotSurjectiveError):
        fk.transform_frame(mb3, np.zeros((2, 2)), tol)
    with pytest.raises(fk.NotSurjectiveError):
        fk.transform_frame(mb3, np.array([[1.0, 0.0], [2.0, 0.0]]), tol)
    with pytest.raises(fk.DimensionMismatchError):
        fk.transform_frame(mb3, np.eye(3), tol)


def test_non_finite_raw_matrices_are_refused_as_input(tol):
    # every raw matrix is wrapped in a frame before any other numerics, so
    # Frame's finiteness check refuses a NaN or inf entry: a FramekitError,
    # not numpy's LinAlgError, a RuntimeWarning or a rank diagnosis
    def refused(call, *args):
        with pytest.raises(fk.FramekitError, match="must be finite") as err:
            call(*args)
        assert type(err.value) is fk.FramekitError, err.value

    for dim, extra, cx, seed in seeded_cases(31, 8, (1, 4), (1, 3), (0, 1), (0, 99)):
        field, n = ("real", "complex")[cx], dim + extra
        rng = np.random.default_rng(seed)
        bad = (np.nan, np.inf, -np.inf)[seed % 3]
        f, g = random_dual_pair(dim, n, seed, field)
        cols = well_conditioned_invertible(rng, n, bool(cx)).T.copy()
        cols[rng.integers(dim), rng.integers(n)] = bad
        refused(fk.oblique_projection, list(cols[:dim]), list(cols[dim:]), tol)
        proj = fk.projection_from_dual_pair(f, g, tol)
        proj[rng.integers(n), rng.integers(n)] = bad
        refused(fk.dual_from_projection, f, proj, tol)
        t, s = fk.analysis_matrix(f), fk.synthesis_matrix(g).copy()
        s[rng.integers(dim), rng.integers(n)] = bad
        refused(fk.verify_lemma_decomposition, t, s, 5, seed, tol)
        transform = np.eye(dim)
        transform[rng.integers(dim), rng.integers(dim)] = bad
        refused(fk.transform_frame, f, transform, tol)


def test_excess_equality_on_duals(mb3, tol):
    assert fk.verify_excess_equality(mb3, scaled(mb3, 1.5), tol)
    for seed in range(8):
        field = "complex" if seed % 2 else "real"
        f, g = random_dual_pair(2 + seed % 3, 4 + seed % 3, seed, field)
        equal = fk.verify_excess_equality(f, g, tol)
        assert type(equal) is bool and equal
        assert fk.excess(f, tol).excess == deletion_excess(f)
        assert fk.excess(g, tol).excess == deletion_excess(g)


def test_excess_equality_rejects_non_pseudo(tol):
    f, g = non_pseudo_pair()
    with pytest.raises(fk.NotPseudoDualError):
        fk.verify_excess_equality(f, g, tol)


def test_pair_verdicts_match_the_exact_oracle(tol):
    _match_pair_oracle(exact_pair_ensemble(seed=26), 1, tol)


def test_complex_pair_verdicts_match_the_exact_oracle(tol):
    # the complex pairs decided on their real embeddings; d <= 2 keeps the
    # search for singular Gaussian-integer T short
    _match_pair_oracle(exact_pair_ensemble(seed=26, copies=2, dims=range(1, 3)), 2, tol)


def _match_pair_oracle(ensemble, copies, tol):
    seen = set()
    for kind, u, v in ensemble:
        exact = exact_pair_verdict(u, v, copies)
        n, d = len(u) // copies, len(u[0]) // copies
        f, g = (fk.Frame(dim=d, field=("real", "complex")[copies - 1],
                         vectors=from_real_embedding(m, copies).conj())
                for m in (u, v))
        case = (kind, n, d)
        assert exact.rank_u == d and exact.is_approx is not None, case
        seen.add(kind if exact.rank_v == d else "g of lower rank")
        if exact.rank_v < d:
            with pytest.raises(fk.NotAFrameError):
                fk.check_duality(f, g, tol)
            continue
        report = fk.check_duality(f, g, tol)
        assert report[:3] == (exact.is_exact, exact.is_pseudo, exact.is_approx), case
        if exact.is_pseudo:
            assert fk.verify_excess_equality(f, g, tol) is exact.kernel_identity is True, case
        else:
            with pytest.raises(fk.NotPseudoDualError):
                fk.verify_excess_equality(f, g, tol)
        assert fk.excess(f, tol).excess == n - exact.rank_u, case
        assert fk.excess(g, tol).excess == n - exact.rank_v, case
    assert seen == {"dual", "pseudo", "approx", "singular", "g of lower rank"}


def test_excess_equality_holds_for_duals_of_any_scale(tol):
    # the verdict is the pseudo-dual grade, whose rank rule is relative to
    # sigma_max(V*U), so it holds whatever the size of the free operator
    f = fk.random_frame(50, 100, seed=3, field="complex")
    w = gaussian(np.random.default_rng(0), 100, 50, True)
    for s in (1.0, 1e2, 1e4):
        g = fk.dual_from_free_operator(f, s * w, tol)
        assert fk.check_duality(f, g, tol).is_exact_dual
        assert fk.verify_excess_equality(f, g, tol)


def test_excess_equality_allocates_nothing_n_sized(tol):
    # no (n, n - d) kernel basis: d x n products only
    f = fk.random_frame(3, 2000, seed=1)
    g = fk.dual_from_free_operator(f, np.random.default_rng(2).standard_normal((2000, 3)), tol)
    fk.is_frame(g, tol)
    tracemalloc.start()
    try:
        assert fk.verify_excess_equality(f, g, tol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def dense_dual_pairs():
    # a (200, 400) frame with a fresh free dual, real and complex
    for seed, field in enumerate(("real", "complex")):
        f = fk.random_frame(200, 400, seed=40 + seed, field=field)
        w = gaussian(np.random.default_rng(seed), 400, 200, field == "complex")
        yield f, fk.dual_from_free_operator(f, w, TOL)


def test_excess_equality_reads_the_graded_report(monkeypatch, tol):
    # check_duality keeps its report: the verdict forms no product, solves
    # nothing and allocates no n x d array
    def refuse(*args, **kwargs):
        raise AssertionError("verify_excess_equality called numpy.linalg")
    for f, g in dense_dual_pairs():
        assert fk.check_duality(f, g, tol).is_exact_dual
        with monkeypatch.context() as patch:
            for name in ("solve", "svd", "norm"):
                patch.setattr(np.linalg, name, refuse)
            tracemalloc.start()
            try:
                assert fk.verify_excess_equality(f, g, tol) is True
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 64 << 10, (f.field, peak)


def test_grading_and_verdict_stay_within_one_and_three_quarters_n_by_d(tol):
    # V*U beside its sigma-only stack of two d x d copies, or beside the
    # conjugated U of a complex f; d = n / 2 here
    for f, g in dense_dual_pairs():
        tracemalloc.start()
        try:
            assert fk.check_duality(f, g, tol).is_exact_dual
            assert fk.verify_excess_equality(f, g, tol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * f.vectors.nbytes, (f.field, peak / f.vectors.nbytes)


def test_every_free_operator_dual_reconstructs():
    for case in seeded_cases(466, 30, (2, 4), (0, 3), (0, 10_000), (0, 1)):
        d, extra, seed, complex_field = case
        field = "complex" if complex_field else "real"
        f, g = random_dual_pair(d, d + extra, seed, field)
        rng = np.random.default_rng(seed ^ 0xABCD)
        x = rng.standard_normal(d) + (1j * rng.standard_normal(d) if complex_field else 0)
        coeff = fk.analysis_matrix(f) @ x
        npt.assert_allclose(fk.synthesis_matrix(g) @ coeff, x, atol=1e-8,
                            err_msg=str(case))
        npt.assert_allclose(fk.synthesis_matrix(f) @ (fk.analysis_matrix(g) @ x), x,
                            atol=1e-8, err_msg=str(case))
