import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import framekit as fk
from helpers import rational_rank

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


def test_real_frames_run_real_linear_algebra(monkeypatch, tol):
    # every numpy.linalg call made on a real frame's data gets float64
    seen = []
    for name in ("svd", "qr", "solve", "inv", "norm", "eigh", "eigvalsh"):
        def spy(a, *rest, _kernel=getattr(np.linalg, name), **kw):
            seen.append(np.asarray(a).dtype)
            return _kernel(a, *rest, **kw)
        monkeypatch.setattr(np.linalg, name, spy)
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
    assert seen and set(seen) == {np.dtype(np.float64)}


def test_tolerance_validation():
    with pytest.raises(fk.BadParametersError):
        fk.ToleranceConfig(atol=0.0)
    with pytest.raises(fk.BadParametersError):
        fk.ToleranceConfig(rank_rtol=-1e-3)
    with pytest.raises(fk.BadParametersError):
        fk.ToleranceConfig(eig_one_atol=1.0)
    cfg = fk.ToleranceConfig()
    assert (cfg.rank_rtol, cfg.atol, cfg.eig_one_atol) == (1e-10, 1e-8, 1e-8)


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
    calls = {name: [] for name in ("svd", "eigvalsh", "eigh", "qr")}
    for name, args in calls.items():
        def counted(a, *rest, _kernel=getattr(np.linalg, name), _args=args, **kw):
            _args.append(np.array(a))
            return _kernel(a, *rest, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
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
    assert len(calls["svd"]) == 1
    npt.assert_array_equal(calls["svd"][0], fk.analysis_matrix(f))
    assert calls["eigvalsh"] == [] and calls["eigh"] == []
    # the kernel basis: one QR of the range basis, never of U
    assert len(calls["qr"]) == 1
    npt.assert_array_equal(calls["qr"][0], f.svd.p)


def test_is_parseval(mb3, basis2, e1e2e1, tol):
    assert fk.is_parseval(mb3, tol)
    assert fk.is_parseval(basis2, tol)
    assert not fk.is_parseval(e1e2e1, tol)


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
    for seed in range(6):
        f = fk.random_frame(3, 6, seed=seed, field="complex" if seed % 2 else "real")
        basis = fk.kernel_of_synthesis(f, tol)
        assert basis.shape == (f.n, fk.excess(f, tol).excess)
        syn = fk.synthesis_matrix(f)
        assert np.linalg.norm(syn @ basis) <= tol.atol
        npt.assert_allclose(np.conj(basis).T @ basis, np.eye(basis.shape[1]),
                            atol=1e-12)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 10_000))
def test_frame_operator_hermitian_psd(n, d, seed):
    rng = np.random.default_rng(seed)
    f = fk.Frame(dim=d, field="real",
                 vectors=np.round(rng.uniform(-10, 10, size=(n, d)), 3))
    s = fk.frame_operator(f)
    npt.assert_array_equal(s, np.conj(s).T)
    bounds = fk.frame_bounds(f)
    assert bounds.a_opt >= 0.0
    assert bounds.a_opt <= bounds.b_opt + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 10_000))
def test_excess_is_vector_surplus(d, extra, seed):
    f = fk.random_frame(d, d + extra, seed=seed)
    report = fk.excess(f, fk.ToleranceConfig())
    assert report.excess == extra
    assert report.rank == d
