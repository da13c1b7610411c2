import gc
import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest

import framekit as fk
import framekit.frames
import framekit.identity
from framekit.duals import canonical_dual_analysis
from framekit.linalg import fix_phase, operator_norm
from framekit.parseval import _nearest_parseval_dual
from helpers import (admissible_frame, gaussian, rank_from_singular_values, rational_rank,
                     record_calls, scaled, seeded_cases, shapes)

SQ23 = np.sqrt(2.0 / 3.0)


def test_frame_validation():
    with pytest.raises(fk.FramekitError):
        fk.Frame(dim=2, field="real", vectors=np.zeros((0, 2)))
    with pytest.raises(fk.DimensionMismatchError):
        fk.Frame(dim=3, field="real", vectors=[[1.0, 0.0]])
    with pytest.raises(fk.FramekitError):
        fk.Frame(dim=1, field="real", vectors=[[np.nan]])
    with pytest.raises(fk.FramekitError):
        fk.Frame(dim=1, field="real", vectors=np.array([[1j]]))
    with pytest.raises(fk.FramekitError):
        fk.Frame(dim=1, field="rational", vectors=[[1.0]])
    # complex storage with zero imaginary parts is fine in real mode
    f = fk.Frame(dim=1, field="real", vectors=np.array([[2.0 + 0.0j]]))
    assert f.n == 1


def test_derived_frame_refuses_nan_dust(tol):
    # NaN dust compares false with atol whatever the rule, so the rule
    # stated is "dust <= atol", which a NaN fails
    with pytest.raises(fk.FramekitError, match="imaginary parts of size nan"):
        fk.derived_frame("real", [[complex(1, np.nan)], [2]], tol)
    at = fk.derived_frame("real", [[complex(1, tol.atol)], [2]], tol)
    assert at.field == "real" and at.vectors.tolist() == [[1.0], [2.0]]
    with pytest.raises(fk.FramekitError, match="imaginary parts"):
        fk.derived_frame("real", [[complex(1, np.nextafter(tol.atol, 1.0))], [2]], tol)


def test_real_frames_are_stored_as_float64(tmp_path):
    rows = [[1, 0], [0, 1], [1, 2]]
    sources = (rows, np.array(rows, dtype=float), np.array(rows, dtype=complex))
    path = tmp_path / "real.json"
    path.write_text('{"dim":2,"field":"real","vectors":[[1,0],[0,1],[1,2]]}')
    frames = [fk.Frame(dim=2, field="real", vectors=v) for v in sources]
    for f in frames + [fk.read_frame(str(path))]:
        assert f.vectors.dtype == np.float64
        npt.assert_array_equal(f.vectors, rows)
        assert [part.dtype for part in f.svd] == [np.float64] * 3
    for v in sources:
        f = fk.Frame(dim=2, field="complex", vectors=v)
        assert f.vectors.dtype == np.complex128
        assert [part.dtype for part in f.svd] == [np.complex128, np.float64, np.complex128]
    for bad in ([[1.0, 1e-300j]], [[np.nan, 0.0]], [[complex(np.nan, 0.0), 0.0]]):
        with pytest.raises(fk.FramekitError):
            fk.Frame(dim=2, field="real", vectors=bad)
    for bad in ([1.0, 0.0], [[[1.0, 0.0]]]):  # 1-d and 3-d vectors
        with pytest.raises(fk.DimensionMismatchError):
            fk.Frame(dim=2, field="real", vectors=bad)


def test_real_frames_run_real_linear_algebra(monkeypatch, tol):
    # every numpy.linalg call made on a real frame's data gets float64
    calls = record_calls(monkeypatch, np.linalg,
                         "svd", "qr", "solve", "inv", "norm", "eigh", "eigvalsh")
    f = fk.random_frame(3, 6, seed=1)
    w = np.random.default_rng(2).standard_normal((6, 3))
    h = fk.dual_from_free_operator(f, w, tol)
    proj = fk.projection_from_dual_pair(f, h, tol)
    oblique = fk.oblique_projection(list(fk.analysis_matrix(f).T),
                                    list(fk.kernel_of_synthesis(h, tol).T), tol)
    npt.assert_allclose(oblique, proj, atol=1e-10)
    admissible, _ = fk.rescale_to_admissible(f, tol)
    p = fk.parseval_projection_frame(2, 5, seed=0)
    j = fk.IndexSet(members=(1, 4), n=5)
    lhs, rhs = fk.identity_sides(p, j, np.array([0.6, 0.8]), tol)
    assert abs(lhs - rhs) <= 1e-12
    fk.nu_bounds(p, j, tol)
    fk.nu_minus_global(p, tol)
    assert fk.verify_excess_equality(f, h, tol)
    frames = [
        fk.canonical_dual(f, tol), h, fk.dual_from_projection(f, proj, tol),
        fk.pseudo_dual_to_exact(f, fk.Frame(dim=3, field="real", vectors=2 * h.vectors), tol),
        fk.transform_frame(f, np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]]), tol),
        fk.construct_parseval_dual(admissible, tol).dual, admissible,
        fk.projected_basis_frame(np.array([0.6, 0.8]), tol),
        fk.generate("random", dim=3, n=6, field="real"),
        fk.generate("parseval-projection", dim=3, n=6, field="real"),
        fk.generate("near-riesz", dim=3, k=2, field="real"),
        fk.generate("projected-basis", n=4, field="real"),
    ]
    for g in frames:
        assert g.field == "real" and g.vectors.dtype == np.float64
        assert g.svd.p.dtype == np.float64
    assert oblique.dtype == proj.dtype == np.float64
    assert fk.kernel_of_synthesis(f, tol).dtype == np.float64
    seen = [np.asarray(call.args[0]).dtype for mock in calls for call in mock.call_args_list]
    assert seen and set(seen) == {np.dtype(np.float64)}


def test_tolerance_validation():
    with pytest.raises(fk.BadParametersError):
        fk.ToleranceConfig(atol=0.0)
    with pytest.raises(fk.BadParametersError):
        fk.ToleranceConfig(rank_rtol=-1e-3)
    with pytest.raises(fk.BadParametersError):
        fk.ToleranceConfig(eig_one_atol=1.0)
    with pytest.raises(fk.BadParametersError):
        fk.ToleranceConfig(1e-10, 2.0)
    cfg = fk.ToleranceConfig()
    assert (cfg.rank_rtol, cfg.atol, cfg.eig_one_atol) == (1e-10, 1e-8, 1e-8)
    assert cfg._replace(atol=1e-6).atol == 1e-6
    with pytest.raises(fk.BadParametersError):
        cfg._replace(atol=0.0)


def test_records_and_frames_refuse_assignment(mb3, tol):
    g = fk.canonical_dual(mb3, tol)
    j = fk.IndexSet(members=(1,), n=3)
    records = [
        fk.frame_bounds(mb3), fk.excess(mb3, tol), fk.check_duality(mb3, g, tol),
        fk.verify_lemma_decomposition(fk.analysis_matrix(mb3),
                                      fk.synthesis_matrix(g), probes=2, seed=0,
                                      tol=tol),
        fk.nu_bounds(mb3, j, tol), fk.parseval_dual_exists(mb3, tol), tol, j]
    assert len({type(record) for record in records}) == len(records)
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    mb3.svd  # a cached property is filled in, yet cannot be assigned
    for name in ("dim", "field", "vectors", "svd", "new_name"):
        with pytest.raises(AttributeError):
            setattr(mb3, name, None)
    with pytest.raises(AttributeError):
        del mb3.vectors
    assert mb3.vectors.shape == (3, 2) and mb3.svd.sigma.shape == (2,)
    # identity equality and hashing: an equal copy is another frame
    twin = fk.Frame(dim=mb3.dim, field=mb3.field, vectors=mb3.vectors)
    assert twin != mb3 and len({mb3, twin, mb3}) == 2


def test_analysis_matrix_standard_basis(basis2):
    npt.assert_array_equal(fk.analysis_matrix(basis2), np.eye(2))


def test_analysis_matrix_mb3(mb3):
    expected = np.array([
        [SQ23, 0.0],
        [SQ23 * -0.5, SQ23 * np.sqrt(3.0) / 2.0],
        [SQ23 * -0.5, SQ23 * -np.sqrt(3.0) / 2.0],
    ])
    npt.assert_allclose(fk.analysis_matrix(mb3), expected, atol=1e-15)


def test_analysis_matrix_conjugates():
    f = fk.Frame(dim=2, field="complex", vectors=np.array([[1j, 0.0]]))
    npt.assert_array_equal(fk.analysis_matrix(f), np.array([[-1j, 0.0]]))


def test_synthesis_is_exact_adjoint(mb3):
    for f in (mb3, fk.random_frame(3, 5, seed=2, field="complex")):
        u = fk.analysis_matrix(f)
        npt.assert_array_equal(fk.synthesis_matrix(f), np.conj(u).T)


def test_frame_operator_examples(mb3, e1e2e1):
    npt.assert_allclose(fk.frame_operator(mb3), np.eye(2), atol=1e-14)
    npt.assert_allclose(fk.frame_operator(e1e2e1), np.diag([2.0, 1.0]), atol=0)
    f = fk.Frame(dim=2, field="real", vectors=[[2, 0], [0, 1]])
    npt.assert_allclose(fk.frame_operator(f), np.diag([4.0, 1.0]), atol=0)


def test_gram_examples(basis2, mb3):
    npt.assert_array_equal(fk.gram_matrix(basis2), np.eye(2))
    expected = np.full((3, 3), -1.0 / 3.0) + np.eye(3)
    npt.assert_allclose(fk.gram_matrix(mb3), expected, atol=1e-15)
    f = fk.Frame(dim=2, field="real", vectors=[[1, 0], [0, 1], [0, 0]])
    g = fk.gram_matrix(f)
    npt.assert_array_equal(g[2], np.zeros(3))
    npt.assert_array_equal(g[:, 2], np.zeros(3))


def test_gram_entry_convention():
    # entry (j, k) must be <f_k, f_j>, visible only with complex data
    f = fk.Frame(dim=1, field="complex", vectors=np.array([[1.0], [1j]]))
    g = fk.gram_matrix(f)
    assert g[0, 1] == pytest.approx(1j)  # <f_2, f_1> = i * conj(1)
    assert g[1, 0] == pytest.approx(-1j)


def test_frame_bounds_examples(mb3, e1e2e1):
    b = fk.frame_bounds(mb3)
    assert b.a_opt == pytest.approx(1.0, abs=1e-12)
    assert b.b_opt == pytest.approx(1.0, abs=1e-12)
    b = fk.frame_bounds(e1e2e1)
    assert (b.a_opt, b.b_opt) == (1.0, 2.0)
    b = fk.frame_bounds(fk.Frame(dim=2, field="real", vectors=[[1, 0]]))
    assert (b.a_opt, b.b_opt) == (0.0, 1.0)


def test_is_frame(mb3, tol):
    assert fk.is_frame(mb3, tol)
    assert not fk.is_frame(fk.Frame(dim=2, field="real", vectors=[[1, 0]]), tol)
    with_zero = fk.Frame(dim=2, field="real", vectors=[[1, 0], [0, 1], [0, 0]])
    assert fk.is_frame(with_zero, tol)


def test_is_frame_agrees_with_the_rank_count(tol):
    # is_frame reads the rank of its memo, a count of the singular values
    # above rank_rtol * sigma_1; it must agree with the helper's own count
    systems = [[[1, 0, 0], [0, 1, 0]],  # n < d
               [[0, 0], [0, 0], [0, 0]],
               [[1, 0], [0, 0], [0, 1]],  # with a zero row
               [[1, 0, 0], [2, 0, 0], [0, 1, 1], [0, 2, 2]],  # rank 2 in R^3
               [[1, 0], [0, 1e-6], [1, 0]],
               [[1, 0], [0, 1e-11], [1, 0]]]
    frames = [fk.Frame(dim=len(rows[0]), field="real", vectors=rows)
              for rows in systems]
    frames += [fk.random_frame(3, 5, seed=s, field=field)
               for s, field in ((0, "real"), (1, "complex"))]
    frames += [scaled(f, c) for f in frames for c in (1e-200, 1e200)]
    verdicts = []
    for f in frames:
        verdicts.append(fk.is_frame(f, tol))
        assert verdicts[-1] is (
            rank_from_singular_values(f.svd.sigma, tol.rank_rtol) == f.dim)
    assert True in verdicts and False in verdicts


def test_operator_norm_is_numpys_spectral_norm():
    # sigma_1 of a sigma-only SVD; numpy's ord=2 norm is the max of the
    # same singular values, so the two agree bit for bit
    rng = np.random.default_rng(5)
    for shape in ((1, 1), (4, 4), (7, 3), (3, 7), (0, 3), (3, 0)):
        for complex_valued in (False, True):
            m = gaussian(rng, *shape, complex_valued)
            assert operator_norm(m) == np.linalg.norm(m, 2)


def test_spanning_verdict_follows_the_rank_cutoff_at_every_scale(tol):
    # singular-value ratio 7e-7 clears rank_rtol; the eigenvalue ratio
    # 5e-13 of the frame operator would not
    base = np.array([[1.0, 0.0], [0.0, 1e-6], [1.0, 0.0]])
    for scale in (1.0, 1e-3, 1e3):
        f = fk.Frame(dim=2, field="real", vectors=scale * base)
        assert fk.is_frame(f, tol)
        report = fk.excess(f, tol)
        assert (report.excess, report.rank) == (1, 2)


def test_one_factorization_per_frame(monkeypatch, tol):
    calls = record_calls(monkeypatch, np.linalg, "svd", "eigvalsh", "eigh", "qr", "solve")
    svd, eigvalsh, eigh, qr, solve = calls
    # S = diag(2, 1) with excess 1: the Parseval dual needs a kernel vector
    f = fk.Frame(dim=2, field="real", vectors=[[1, 0], [0, 1], [1, 0]])
    fk.frame_bounds(f)
    fk.is_frame(f, tol)
    fk.is_parseval(f, tol)
    fk.excess(f, tol)
    fk.canonical_dual(f, tol)
    fk.deviation_dimension(f, tol)
    assert fk.parseval_dual_exists(f, tol).exists
    fk.construct_parseval_dual(f, tol)
    assert svd.call_count == 1
    npt.assert_array_equal(svd.call_args.args[0], fk.analysis_matrix(f))
    assert not eigvalsh.called and not eigh.called
    # the kernel basis: one QR of the range basis, never of U
    assert qr.call_count == 1
    npt.assert_array_equal(qr.call_args.args[0], f.svd.p)

    # a fresh dual of a frame whose SVD is cached: the pair certifies that
    # the dual spans, and it is near-dual, so grading it and checking its
    # excess equality make one eigvalsh, of the Gram stack
    # [(V*U - I)*(V*U - I), (V*U)*(V*U)], and no SVD, of V or of V*U; they
    # take no QR and solve nothing; the single raw QR of P is the Parseval
    # dual's kernel basis
    f = fk.rescale_to_admissible(fk.random_frame(3, 7, seed=3), tol)[0]
    w = np.random.default_rng(4).standard_normal((7, 3))
    g = fk.dual_from_free_operator(f, w, tol)
    for mock in calls:
        mock.reset_mock()
    assert fk.check_duality(f, g, tol).is_exact_dual
    assert fk.verify_excess_equality(f, g, tol)
    assert shapes(eigvalsh) == [(2, 3, 3)]
    vu = fk.synthesis_matrix(g) @ fk.analysis_matrix(f)
    npt.assert_allclose(eigvalsh.call_args.args[0][1], vu.T @ vu, rtol=1e-14)
    assert not svd.called and "svd" not in vars(g)
    assert not qr.called and not solve.called
    assert fk.construct_parseval_dual(f, tol).dual is not None
    assert eigvalsh.call_count == 1 and not eigh.called
    assert [call.kwargs.get("mode") for call in qr.call_args_list] == ["raw"]
    npt.assert_array_equal(qr.call_args.args[0], f.svd.p)
    assert not svd.called and "svd" not in vars(g)


def test_is_parseval(mb3, basis2, e1e2e1, tol):
    assert fk.is_parseval(mb3, tol)
    assert fk.is_parseval(basis2, tol)
    assert not fk.is_parseval(e1e2e1, tol)
    assert basis2.eigenvalue_range == (1.0, 1.0) and e1e2e1.eigenvalue_range == (1.0, 2.0)
    assert mb3.eigenvalue_range == (mb3.eigenvalues.min(), mb3.eigenvalues.max())


def test_rank_is_decided_per_rank_rtol(tol):
    # sigma_2 / sigma_1 = 1e-6 / sqrt(2): one frame asked at a rank_rtol on
    # either side of that ratio, in either order, gets the rank of each
    rows = [[1, 0], [0, 1e-6], [1, 0]]
    for order in ((1e-7, 1e-5), (1e-5, 1e-7)):
        f = fk.Frame(dim=2, field="real", vectors=rows)
        for rtol in order:
            at = tol._replace(rank_rtol=rtol)
            spans = rtol < 1e-6 / math.sqrt(2)
            assert fk.is_frame(f, at) is spans, order
            assert fk.kernel_of_synthesis(f, at).shape == (3, 1 if spans else 2), order


def test_band_is_decided_per_eig_one_atol(tol):
    # one eigenvalue 1 + 2^-20 above 1, or (1 - 2^-21)^2 below it, both
    # exact in floats and about 9.5e-7 from 1: one frame asked at an
    # eig_one_atol on either side of that gap, in either order, gets the
    # band of each
    for rows, above in (([[1, 0], [0, 1], [0, 2.0 ** -10]], True),
                        ([[1, 0], [0, 1.0 - 2.0 ** -21], [0, 0]], False)):
        for order in ((1e-6, 1e-7), (1e-7, 1e-6)):
            f = fk.Frame(dim=2, field="real", vectors=rows)
            assert 1e-7 < np.abs(f.eigenvalues - 1.0).max() < 1e-6
            for band in order:
                at = tol._replace(eig_one_atol=band)
                inside = band == 1e-6
                assert fk.is_parseval(f, at) is inside, (above, order)
                assert fk.deviation_dimension(f, at) == (0 if inside else 1), (above, order)
                # below the band there is no Parseval dual; above it one is corrected
                assert fk.parseval_dual_exists(f, at).exists is (inside or above)
                corrected = not np.array_equal(_nearest_parseval_dual(f, at),
                                               canonical_dual_analysis(f))
                assert corrected is (above and not inside), (above, order)


def test_each_verdict_is_decided_once_per_frame_and_tolerance(monkeypatch):
    # the band's two edges and the rank are decided once across the
    # Parseval-dual calls, and a tolerance that differs only in atol
    # reuses both entries
    [decide] = record_calls(monkeypatch, framekit.frames, "decide")
    tol = fk.ToleranceConfig(eig_one_atol=1e-7)
    for field in ("real", "complex"):
        f = admissible_frame(3, 7, 2, seed=1, field=field)
        decide.reset_mock()
        assert not fk.is_parseval(f, tol)
        assert fk.deviation_dimension(f, tol) == 2
        assert fk.parseval_dual_exists(f, tol).exists
        assert fk.construct_parseval_dual(f, tol).dual is not None
        edges = [call for call in decide.call_args_list if "minus" in call.kwargs]
        assert (len(edges), decide.call_count) == (2, 3), field
        assert {call.args[2] for call in edges} == {tol.eig_one_atol}
        decide.reset_mock()
        wider = tol._replace(atol=1e-6)
        assert fk.is_frame(f, wider) and not fk.is_parseval(f, wider)
        assert fk.deviation_dimension(f, wider) == 2
        assert fk.construct_parseval_dual(f, wider).dual is not None
        assert not decide.called, field


def test_the_verdict_tables_keep_no_frame_alive(tol):
    tables = (framekit.frames._RANKS, framekit.frames._BANDS)
    gc.collect()
    sizes = [len(table) for table in tables]
    f = fk.random_frame(3, 5, seed=2)
    assert fk.is_frame(f, tol) and not fk.is_parseval(f, tol)
    assert all(f in table for table in tables)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert [len(table) for table in tables] == sizes


def test_band_summaries_are_the_eigenvalues_to_the_bit(monkeypatch, tol):
    # frame_bounds, the a_opt of the existence test and the sweep's
    # distance e from Parseval are the min, the max and the max |lambda - 1|
    # of the cached eigenvalues, bit for bit
    [limit] = record_calls(monkeypatch, framekit.identity, "_det_limit")
    for seed, field in enumerate(("real", "complex") * 4):
        d = 2 + seed % 3
        f = fk.random_frame(d, d + 3, seed=seed, field=field)
        lam = f.eigenvalues
        assert fk.frame_bounds(f) == (lam.min(), lam.max()), (seed, field)
        assert fk.frame_bounds(f) is f.eigenvalue_range
        assert fk.parseval_dual_exists(f, tol).a_opt == lam.min(), (seed, field)
        p = fk.parseval_projection_frame(d, d + 4, seed=seed, field=field)
        fk.nu_minus_global(p, tol)
        e = limit.call_args.args[3]
        assert e == np.abs(p.eigenvalues - 1.0).max(), (seed, field)
    seen = [call.args[3] for call in limit.call_args_list]
    assert sum(e > 0.0 for e in seen) >= 4, seen


def test_excess_examples(mb3, basis2, tol):
    assert fk.excess(basis2, tol).excess == 0
    report = fk.excess(mb3, tol)
    assert report.excess == 1
    assert report.rank == 2
    assert report.excess + report.rank == mb3.n
    assert len(report.singular_values) == mb3.n
    assert report.singular_values == sorted(report.singular_values, reverse=True)
    assert report.tolerance_used == tol.rank_rtol


def test_excess_requires_frame(tol):
    f = fk.Frame(dim=2, field="real", vectors=[[1, 0], [2, 0]])
    with pytest.raises(fk.NotAFrameError):
        fk.excess(f, tol)


def test_kernel_of_synthesis(basis2, e1e2e1, mb3, tol):
    assert fk.kernel_of_synthesis(basis2, tol).shape == (2, 0)
    (k,) = fk.kernel_of_synthesis(e1e2e1, tol).T
    npt.assert_allclose(k, np.array([1.0, 0.0, -1.0]) / np.sqrt(2), atol=1e-15)
    (k,) = fk.kernel_of_synthesis(mb3, tol).T
    npt.assert_allclose(k, np.full(3, 1.0 / np.sqrt(3)), atol=1e-15)


def test_kernel_annihilates_and_is_orthonormal(tol):
    frames = [fk.random_frame(3, 6, seed=seed, field="complex" if seed % 2 else "real")
              for seed in range(6)]
    # axis-aligned P: every Householder reflector of the first is the
    # identity (tau = 0), one of the square basis, whose complement has no
    # columns, is too
    frames += [fk.Frame(dim=2, field="real", vectors=rows)
               for rows in ([[1, 0], [0, 1], [0, 0]],
                            [[0, 0], [1, 0], [0, 1], [0, 0]],
                            [[0, 1], [1, 0]])]
    for f in frames:
        basis = fk.kernel_of_synthesis(f, tol)
        assert basis.shape == (f.n, fk.excess(f, tol).excess)
        # a frame's kernel basis is the read-only cached complement itself
        assert basis is f.range_complement and not basis.flags.writeable
        syn = fk.synthesis_matrix(f)
        assert np.linalg.norm(syn @ basis) <= tol.atol
        npt.assert_allclose(np.conj(basis).T @ basis, np.eye(basis.shape[1]),
                            atol=1e-12)
        # column for column the trailing block of a complete QR's Q,
        # phase-fixed alike, though formed without that Q
        q, _ = np.linalg.qr(f.svd.p, mode="complete")
        npt.assert_allclose(basis, fix_phase(q[:, f.dim:]), rtol=0, atol=1e-12)
    # rank < dim: exact rank 1, a row scaled below rank_rtol, n < dim, and
    # a complex frame of rank 2 in C^3
    deficient = [([[1, 0], [2, 0], [0, 0]], 1),
                 ([[1, 0], [0, 1e-12], [1, 0]], 1),
                 ([[1, 0, 0], [0, 1e-12, 0]], 1),
                 ([[1, 0, 0], [0, 1e-12j, 1], [1j, 0, 0], [0, 0, 0]], 2)]
    for rows, rank in deficient:
        field = "complex" if np.iscomplexobj(rows) else "real"
        f = fk.Frame(dim=len(rows[0]), field=field, vectors=rows)
        basis = fk.kernel_of_synthesis(f, tol)
        assert basis.shape == (f.n, f.n - rank)
        assert basis.flags.writeable
        assert not np.shares_memory(basis, f.range_complement)
        assert np.linalg.norm(fk.synthesis_matrix(f) @ basis, 2) <= tol.atol
        npt.assert_allclose(np.conj(basis).T @ basis, np.eye(f.n - rank),
                            atol=1e-12)


def test_fix_phase_reads_the_lead_entry_by_index():
    def reference(v):  # the take_along_axis formula
        lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=0)[None], axis=0)[0]
        mag = np.abs(lead)
        return v * np.divide(np.conj(lead), mag, out=np.ones_like(lead), where=mag > 0)

    rng = np.random.default_rng(29)
    cases = []
    for complex_valued in (False, True):
        unit = 1j if complex_valued else 1.0
        for rows, cols in ((1, 1), (5, 1), (6, 3), (3, 6)):
            v = gaussian(rng, rows, cols, complex_valued)
            zeroed = v.copy()
            zeroed[:, 0] = 0.0
            cases += [v, v[:, 0], zeroed, zeroed[:, 0]]  # a zero column, a zero vector
        # magnitude ties: the first of the tied entries leads
        cases.append(np.array([[1.0, -2.0], [-1.0, 2.0], [1.0, 2.0 * unit]]))
        cases.append(np.array([0.5, -0.5, 0.5 * unit]))
    for v in cases:
        expected = reference(v)
        got = fix_phase(v)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_excess_from_norms(mb3, basis2, e1e2e1, tol):
    assert fk.excess_from_norms(mb3, tol) == pytest.approx(1.0, abs=1e-12)
    assert fk.excess_from_norms(basis2, tol) == 0.0
    with pytest.raises(fk.NotParsevalError):
        fk.excess_from_norms(e1e2e1, tol)


def test_excess_from_norms_matches_excess(tol):
    for seed in range(8):
        n = 4 + seed % 3
        f = fk.parseval_projection_frame(3, n, seed=seed,
                                         field="complex" if seed % 2 else "real")
        report = fk.excess(f, tol)
        assert abs(fk.excess_from_norms(f, tol) - report.excess) <= f.n * tol.atol


def test_gram_is_projection_for_parseval(tol):
    for seed in range(5):
        f = fk.parseval_projection_frame(2 + seed % 3, 6, seed=seed)
        g = fk.gram_matrix(f)
        assert np.linalg.norm(g @ g - g, 2) <= tol.atol


PROJECTION_SIZES = [(1, 1), (1, 7), (3, 6), (6, 6), (40, 100)]


def _full_qr_projection(dim, n, seed, field):
    """The parseval-projection frame from a QR of the whole n x n draw:
    first dim columns of the phase-normalized Q, conjugated."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    if field == "complex":
        g = (g + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return np.conj((q * np.conj(phases)[None, :])[:, :dim])


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim,n", PROJECTION_SIZES)
def test_parseval_projection_matches_the_full_qr(dim, n, field):
    for seed in range(3):
        f = fk.parseval_projection_frame(dim, n, seed=seed, field=field)
        assert f.vectors.shape == (n, dim)
        npt.assert_allclose(f.vectors, _full_qr_projection(dim, n, seed, field),
                            rtol=0, atol=1e-13)
        assert np.max(np.abs(fk.frame_operator(f) - np.eye(dim))) <= 1e-13


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim,n", PROJECTION_SIZES)
def test_parseval_projection_factors_only_the_kept_columns(monkeypatch, dim, n, field):
    [qr] = record_calls(monkeypatch, np.linalg, "qr")
    fk.parseval_projection_frame(dim, n, seed=0, field=field)
    assert shapes(qr) == [(n, dim)]


def test_rank_matches_rational_oracle(tol):
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, min(n, 4) + 1))
        entries = rng.integers(-3, 4, size=(n, d)).astype(float)
        f = fk.Frame(dim=d, field="real", vectors=entries)
        exact = rational_rank(entries.tolist())
        if fk.is_frame(f, tol):
            report = fk.excess(f, tol)
            assert report.rank == exact
            assert report.excess == n - exact
        else:
            assert exact < d


def test_frame_operator_hermitian_psd():
    for case in seeded_cases(441, 60, (1, 5), (1, 4), (0, 10_000)):
        n, d, seed = case
        rng = np.random.default_rng(seed)
        f = fk.Frame(dim=d, field="real",
                     vectors=np.round(rng.uniform(-10, 10, size=(n, d)), 3))
        s = fk.frame_operator(f)
        npt.assert_array_equal(s, np.conj(s).T, err_msg=str(case))
        bounds = fk.frame_bounds(f)
        assert bounds.a_opt >= 0.0, case
        assert bounds.a_opt <= bounds.b_opt + 1e-12, case


def test_excess_is_vector_surplus():
    for case in seeded_cases(454, 40, (2, 4), (0, 3), (0, 10_000)):
        d, extra, seed = case
        f = fk.random_frame(d, d + extra, seed=seed)
        report = fk.excess(f, fk.ToleranceConfig())
        assert report.excess == extra, case
        assert report.rank == d, case
