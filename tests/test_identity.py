import itertools
import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

import framekit as fk
from framekit import identity
from framekit.identity import (_bound_table, _det_features, _det_limit,
                               _partial_operators, _product_roundings, _subset_sums)
from framekit.linalg import adjoint
from helpers import (TOL, all_subsets, direct_sum_frames, exact_det,
                     exhaustive_nu_minus_global, reference_minor_tables, seeded_cases,
                     sharpness_frame, sort_rows_by_deficit)


def test_index_set_basics():
    j = fk.IndexSet(members=(3, 1, 3), n=4)
    assert j.members == (1, 3)
    assert j.complement().members == (2, 4)
    npt.assert_array_equal(j.mask(), [True, False, True, False])
    assert fk.IndexSet(members=(), n=2).complement().members == (1, 2)
    with pytest.raises(fk.BadParametersError):
        fk.IndexSet(members=(0,), n=3)
    with pytest.raises(fk.BadParametersError):
        fk.IndexSet(members=(4,), n=3)
    with pytest.raises(fk.BadParametersError):
        fk.IndexSet(members=(), n=0)
    assert j._replace(members=(4, 2, 2)).members == (2, 4)
    with pytest.raises(fk.BadParametersError):
        j._replace(members=(5,))


def test_index_set_requires_integers():
    assert fk.IndexSet(members=(np.int64(2), 1), n=np.int64(3)).members == (1, 2)
    for members, n in (((1.5,), 3), (("2",), 3), ((1.0,), 3), ((1,), 3.0)):
        with pytest.raises(fk.BadParametersError):
            fk.IndexSet(members=members, n=n)


def test_identity_sides_empty_set_is_norm(mb3, tol):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2)
    lhs, rhs = fk.identity_sides(mb3, fk.IndexSet(members=(), n=3), x, tol)
    expected = float(np.linalg.norm(x) ** 2)
    assert lhs == pytest.approx(expected, abs=1e-12)
    assert rhs == pytest.approx(expected, abs=1e-12)


def test_identity_sides_agree_on_all_subsets(tol):
    rng = np.random.default_rng(5)
    for seed, field in ((0, "real"), (1, "complex")):
        f = fk.parseval_projection_frame(2, 5, seed=seed, field=field)
        for members in all_subsets(5):
            j = fk.IndexSet(members=members, n=5)
            x = rng.standard_normal(2) + (1j * rng.standard_normal(2)
                                          if field == "complex" else 0.0)
            lhs, rhs = fk.identity_sides(f, j, x, tol)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)


def test_identity_sides_swap_under_complement(mb3, tol):
    j = fk.IndexSet(members=(1, 3), n=3)
    x = np.array([0.3, -1.2])
    lhs, rhs = fk.identity_sides(mb3, j, x, tol)
    lhs_c, rhs_c = fk.identity_sides(mb3, j.complement(), x, tol)
    assert lhs == pytest.approx(rhs_c, abs=1e-12)
    assert rhs == pytest.approx(lhs_c, abs=1e-12)


def test_identity_sides_errors(mb3, e1e2e1, tol):
    j = fk.IndexSet(members=(1,), n=3)
    with pytest.raises(fk.NotParsevalError):
        fk.identity_sides(e1e2e1, j, np.array([1.0, 0.0]), tol)
    with pytest.raises(fk.DimensionMismatchError):
        fk.identity_sides(mb3, fk.IndexSet(members=(1,), n=4),
                          np.array([1.0, 0.0]), tol)
    with pytest.raises(fk.DimensionMismatchError):
        fk.identity_sides(mb3, j, np.array([1.0, 0.0, 0.0]), tol)
    with pytest.raises(fk.ZeroVectorError):
        fk.identity_sides(mb3, j, np.zeros(2), tol)
    xs = np.random.default_rng(1).standard_normal((4, 2))
    for row in range(4):
        batch = xs.copy()
        batch[row] = 0.0
        with pytest.raises(fk.ZeroVectorError):
            fk.identity_sides(mb3, j, batch, tol)
    for shape in ((4, 3), (1, 4, 2), ()):
        with pytest.raises(fk.DimensionMismatchError):
            fk.identity_sides(mb3, j, np.ones(shape), tol)
    # a NaN or infinite entry, or a squared norm that overflows, is a bad x:
    # neither read as zero nor carried into NaN sides
    for bad in (np.nan, np.inf, -np.inf, 1e200):
        x = np.array([bad, 1.0])
        batch = np.concatenate([xs[:2], x[None, :], xs[2:]])
        for call, arg in ((fk.identity_sides, x), (fk.identity_sides, batch),
                          (fk.identity_residual, x), (fk.identity_residual, batch)):
            with pytest.raises(fk.BadParametersError, match="finite"):
                call(mb3, j, arg, tol)


def test_identity_sides_batched_equals_looped(tol):
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(11)
    for seed, field in ((0, "real"), (1, "complex")):
        f = fk.parseval_projection_frame(3, 6, seed=seed, field=field)
        xs = rng.standard_normal((9, 3))
        if field == "complex":
            xs = xs + 1j * rng.standard_normal((9, 3))
        for members in all_subsets(6):
            j = fk.IndexSet(members=members, n=6)
            lhs, rhs = fk.identity_sides(f, j, xs, tol)
            assert lhs.shape == rhs.shape == (9,)
            for x, batched in zip(xs, zip(lhs, rhs)):
                for v, w in zip(batched, fk.identity_sides(f, j, x, tol)):
                    assert abs(v - w) <= 4 * eps * max(1.0, abs(w))
    # a lone vector is one trial of identity_residual, also where its block
    # of _TRIAL_BLOCK // n = 2 rows is shorter than the vector
    f = fk.Frame(dim=3, field="real", vectors=np.linalg.qr(
        np.random.default_rng(0).standard_normal((12000, 3)))[0])
    j = fk.IndexSet(members=(1, 3), n=12000)
    x = np.array([1.0, 2.0, 3.0])
    stacked = fk.identity_residual(f, j, x[None, :], tol)
    assert stacked.holds
    assert fk.identity_residual(f, j, x, tol) == stacked


def test_identity_sides_empty_batch(mb3, tol):
    lhs, rhs = fk.identity_sides(mb3, fk.IndexSet(members=(1,), n=3),
                                 np.empty((0, 2)), tol)
    assert lhs.shape == rhs.shape == (0,)
    # but the residual over no trial vectors at all decides nothing
    with pytest.raises(fk.DimensionMismatchError):
        fk.identity_residual(fk.parseval_projection_frame(3, 10, 1),
                             fk.IndexSet(members=(1, 3), n=10), np.empty((0, 3)), tol)


def test_quantity_matrix_examples(mb3):
    n = mb3.n
    npt.assert_allclose(fk.quantity_matrix(mb3, fk.IndexSet(members=(), n=n)),
                        np.eye(2), atol=1e-14)
    full = tuple(range(1, n + 1))
    npt.assert_allclose(fk.quantity_matrix(mb3, fk.IndexSet(members=full, n=n)),
                        np.eye(2), atol=1e-14)
    m = fk.quantity_matrix(mb3, fk.IndexSet(members=(1,), n=n))
    npt.assert_allclose(m, np.diag([7.0 / 9.0, 1.0]), atol=1e-14)


def test_quantity_matrix_is_the_identity_quadratic_form(tol):
    f = fk.parseval_projection_frame(3, 6, seed=9, field="complex")
    rng = np.random.default_rng(10)
    for members in ((), (2, 5), (1, 2, 3, 4, 5, 6)):
        j = fk.IndexSet(members=members, n=6)
        m = fk.quantity_matrix(f, j)
        npt.assert_allclose(m, adjoint(m), atol=1e-14)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs, _ = fk.identity_sides(f, j, x, tol)
        quad = float(np.real(np.conj(x) @ m @ x))
        assert lhs == pytest.approx(quad, rel=1e-12)


def test_nu_bounds_examples(mb3, tol):
    bounds = fk.nu_bounds(mb3, fk.IndexSet(members=(1,), n=3), tol)
    assert bounds.nu_minus == pytest.approx(7.0 / 9.0, abs=1e-12)
    assert bounds.nu_plus == pytest.approx(1.0, abs=1e-12)
    npt.assert_allclose(bounds.argmin_vector, [1.0, 0.0], atol=1e-7)
    npt.assert_allclose(bounds.argmax_vector, [0.0, 1.0], atol=1e-7)
    with pytest.raises(fk.NotParsevalError):
        fk.nu_bounds(fk.Frame(dim=2, field="real", vectors=[[1, 0], [0, 1], [1, 0]]),
                     fk.IndexSet(members=(1,), n=3), tol)


def test_nu_bounds_attained_by_reported_vectors(tol):
    f = fk.parseval_projection_frame(3, 7, seed=3, field="complex")
    j = fk.IndexSet(members=(1, 4, 6), n=7)
    bounds = fk.nu_bounds(f, j, tol)
    for vec, value in ((bounds.argmin_vector, bounds.nu_minus),
                       (bounds.argmax_vector, bounds.nu_plus)):
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        lhs, rhs = fk.identity_sides(f, j, vec, tol)
        assert lhs == pytest.approx(value, abs=1e-10)
        assert rhs == pytest.approx(value, abs=1e-10)


def test_nu_range_and_spectral_mapping(tol):
    for seed in range(6):
        field = "complex" if seed % 2 else "real"
        d, n = 2 + seed % 3, 5 + seed % 2
        f = fk.parseval_projection_frame(d, n, seed=seed, field=field)
        for members in ((), (1,), (2, 3), tuple(range(1, n + 1))):
            j = fk.IndexSet(members=members, n=n)
            bounds = fk.nu_bounds(f, j, tol)
            assert 0.75 - 1e-10 <= bounds.nu_minus <= bounds.nu_plus <= 1.0 + 1e-10
            # eigenvalues of S_J + S_{J^c}^2 are t + (1-t)^2 over the
            # spectrum of S_J, because S_{J^c} = I - S_J here
            u = fk.analysis_matrix(f)
            u_in = u[j.mask()]
            t = np.linalg.eigvalsh(np.conj(u_in).T @ u_in)
            mapped = np.sort(t + (1.0 - t) ** 2)
            actual = np.linalg.eigvalsh(fk.quantity_matrix(f, j))
            npt.assert_allclose(actual, mapped, atol=1e-9)


def test_nu_sharpness_at_three_quarters(tol):
    f = sharpness_frame()
    bounds = fk.nu_bounds(f, fk.IndexSet(members=(1, 2), n=4), tol)
    assert bounds.nu_minus == pytest.approx(0.75, abs=1e-12)


def test_nu_minus_rayleigh_sampling_oracle(tol):
    # nu_minus must be the infimum of the quantity over unit vectors:
    # no sample beats it, and dense sampling gets close
    for d, samples, slack in ((2, 20_000, 1e-3), (3, 20_000, 1e-3),
                              (4, 100_000, 2e-3)):
        f = fk.parseval_projection_frame(d, d + 2, seed=d, field="real")
        j = fk.IndexSet(members=(1, 2), n=d + 2)
        m = fk.quantity_matrix(f, j)
        nu = fk.nu_bounds(f, j, tol).nu_minus
        rng = np.random.default_rng(100 + d)
        xs = rng.standard_normal((samples, d))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        vals = np.real(np.einsum("ij,jk,ik->i", xs, m, xs))
        assert vals.min() >= nu - 1e-10
        assert vals.min() - nu <= slack


def test_nu_minus_global_examples(basis2, mb3, tol):
    value, witness = fk.nu_minus_global(basis2, tol)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert witness.members == ()  # every subset ties at 1; first one wins
    value, witness = fk.nu_minus_global(mb3, tol)
    assert value == pytest.approx(7.0 / 9.0, abs=1e-10)
    again_value, again_witness = fk.nu_minus_global(mb3, tol)
    assert again_value == value and again_witness.members == witness.members
    attained = fk.nu_bounds(mb3, witness, tol).nu_minus
    assert attained == pytest.approx(value, abs=1e-12)


def test_nu_minus_global_matches_subset_loop(tol):
    for seed in (0, 1):
        field = "complex" if seed else "real"
        f = fk.parseval_projection_frame(2, 5, seed=seed, field=field)
        value, witness = fk.nu_minus_global(f, tol)
        brute = min(fk.nu_bounds(f, fk.IndexSet(members=m, n=5), tol).nu_minus
                    for m in all_subsets(5))
        assert value == pytest.approx(brute, abs=1e-12)
        assert fk.nu_bounds(f, witness, tol).nu_minus == pytest.approx(value,
                                                                       abs=1e-12)


def near_parseval(f, seed):
    """f plus 7e-10 Gaussian noise: still Parseval within atol, with
    ||S - I|| of a few 1e-9."""
    rng = np.random.default_rng(100 + seed)
    noise = rng.standard_normal(f.vectors.shape)
    if f.field == "complex":
        noise = noise + 1j * rng.standard_normal(f.vectors.shape)
    return fk.Frame(dim=f.dim, field=f.field, vectors=f.vectors + 7e-10 * noise)


def sweep_cases(mb3):
    # (1, 1), (1, 2) and (2, 2) split into half tables over no index
    for dim, n in ((1, 1), (1, 2), (2, 2), (1, 9), (2, 12), (3, 10), (4, 10)):
        for field in ("real", "complex"):
            for seed in range(3):
                f = fk.parseval_projection_frame(dim, n, seed=seed, field=field)
                yield f
                yield near_parseval(f, seed)
    # the bound of d = 4 over many high rows, and the bilinear bound of
    # d = 6 (924 terms)
    for dim, n in ((4, 16), (6, 11)):
        for field in ("real", "complex"):
            f = fk.parseval_projection_frame(dim, n, seed=3, field=field)
            yield f
            yield near_parseval(f, 3)
    f = fk.parseval_projection_frame(5, 12, seed=0, field="complex")
    yield f
    yield near_parseval(f, 0)
    # a matrix product forming S_J rounded these differently in the
    # certify batch and in the oracle's
    for dim, n, seed in ((1, 12, 15), (1, 12, 59), (1, 12, 130), (2, 16, 5)):
        f = fk.parseval_projection_frame(dim, n, seed=seed, field="real")
        noise = np.random.default_rng(seed).standard_normal(f.vectors.shape)
        yield fk.Frame(dim=dim, field="real", vectors=f.vectors + 1e-10 * noise)
    basis = fk.Frame(dim=3, field="real", vectors=np.eye(3))
    yield basis
    yield fk.Frame(dim=3, field="complex", vectors=1j * np.eye(3))
    yield mb3
    # exact ties broken by noise: the screen and M_J may order them
    # differently, so the certify window must cover ||S - I||
    for seed in range(4):
        yield near_parseval(basis, seed)
        yield near_parseval(mb3, seed)
    # exact in floats, so ||S - I|| = 0 and the certify window is its
    # rounding term alone: the H4 / 2 rotation of three unit vectors and
    # 7/8, 3/8, 1/4, 1/8, 1/8 on one axis, whose exact ties screen an ulp
    # apart
    exact = np.array([[-16, -16, -16, -16], [-2, 2, 2, -2], [-16, 16, -16, 16],
                      [16, 16, -16, -16], [-14, 14, 14, -14], [-6, 6, 6, -6],
                      [-4, 4, 4, -4], [-2, 2, 2, -2]]) / 32
    yield fk.Frame(dim=4, field="real", vectors=exact)
    # the LAPACK det bound, d >= 7, within 2^12 subsets of the oracle
    for dim, n in ((7, 11), (8, 12)):
        for field in ("real", "complex"):
            f = fk.parseval_projection_frame(dim, n, seed=0, field=field)
            yield f
            yield near_parseval(f, 0)
    # d = m - 1, up to the d = 6 of m = 7
    for m in (4, 6, 7, 8):
        for rep in range(4):
            field = "real" if rep % 2 == 0 else "complex"
            alpha = fk.random_unit_alpha(m, seed=1_000 * m + rep, field=field)
            yield fk.projected_basis_frame(alpha, TOL)


def test_nu_minus_global_matches_the_exhaustive_sweep(mb3, tol):
    # Bit for bit, value and witness.  Several near-Parseval witnesses
    # contain index n, which the screen never visits itself: they are
    # found only through the complements in the certify set.
    witnesses_with_n = 0
    for f in sweep_cases(mb3):
        value, witness = fk.nu_minus_global(f, tol)
        oracle_value, oracle_witness = exhaustive_nu_minus_global(f)
        assert repr(value) == repr(oracle_value)
        assert witness.members == oracle_witness.members
        witnesses_with_n += f.n in witness.members
    assert witnesses_with_n >= 1


def test_partial_operators_do_not_depend_on_the_batch():
    rng = np.random.default_rng(7)
    for dim, n, field in ((1, 12, "real"), (2, 9, "complex"), (3, 14, "real")):
        f = near_parseval(fk.parseval_projection_frame(dim, n, seed=1, field=field), 1)
        outer = np.einsum("ki,kj->kij", f.vectors, np.conj(f.vectors))
        codes = rng.integers(0, 1 << n, size=2000)
        together = _partial_operators(outer, codes)
        alone = np.concatenate([_partial_operators(outer, codes[i:i + 1])
                                for i in range(len(codes))])
        assert np.array_equal(together, alone)


def test_nu_minus_global_screens_half_the_subsets(monkeypatch, tol):
    matrices = []
    kernel = np.linalg.eigvalsh

    def counted(a, *rest, **kw):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return kernel(a, *rest, **kw)

    f = fk.parseval_projection_frame(3, 14, seed=0)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    fk.nu_minus_global(f, tol)
    monkeypatch.undo()
    assert sum(matrices) <= (1 << 13) + 64
    # each witness gives back its value, in range: here, on the bilinear
    # (d <= 6) and LAPACK (d >= 7) bounds in both fields, and at
    # n = GLOBAL_SWEEP_LIMIT
    for f in (f, *(fk.parseval_projection_frame(dim, n, seed=1, field=field)
                   for dim, n, field in ((5, 16, "complex"), (7, 12, "complex"),
                                         (3, fk.GLOBAL_SWEEP_LIMIT, "real"),
                                         (8, 14, "real")))):
        value, witness = fk.nu_minus_global(f, tol)
        bounds = fk.nu_bounds(f, witness, tol)
        assert bounds.nu_minus == pytest.approx(value, abs=1e-12), (f.dim, f.n)
        assert fk.nu_in_range(value, None, tol)
        assert fk.nu_in_range(bounds.nu_minus, bounds.nu_plus, tol)


def test_nu_minus_global_prunes_the_screen(monkeypatch, tol):
    matrices = []
    kernel = np.linalg.eigvalsh

    def counted(a, *rest, **kw):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return kernel(a, *rest, **kw)

    f = fk.parseval_projection_frame(3, 14, seed=0)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    value, _ = fk.nu_minus_global(f, tol)
    monkeypatch.undo()
    assert sum(matrices) <= 1 << 8
    assert repr(value) == repr(exhaustive_nu_minus_global(f)[0])


def test_half_gap_bound_is_a_lower_bound(monkeypatch):
    # on every subset: the table's |det(S_J - I/2)| never exceeds the
    # limit inverted from the screened value 3/4 + min (t - 1/2)^2 over
    # the eigvalsh eigenvalues t of S_J, which is what the prune needs,
    # and the row minima are those of the whole table; d = 7 takes the
    # LAPACK det; seed 1 fills the table one row per block.  The screen
    # sums S_J in another order, so min |t - 1/2| is lowered by d n eps
    # first: eta covers that, the limit's few-ulp rounding alone does not
    # (S_J = 0 has |det| = (1/2)^d and min |t - 1/2| = 1/2 exactly)
    for d in range(1, 8):
        n = d + 5
        for field in ("real", "complex"):
            for seed in range(2):
                clean = fk.parseval_projection_frame(d, n, seed=seed, field=field)
                for f in (clean, near_parseval(clean, seed)):
                    outer = np.einsum("ki,kj->kij", f.vectors, np.conj(f.vectors))
                    codes = np.arange(1 << n)
                    picks = ((codes[:, None] >> np.arange(n)) & 1).astype(float)
                    s_j = (picks @ outer.reshape(n, d * d)).reshape(-1, d, d)
                    e = float(np.max(np.abs(f.eigenvalues - 1.0)))
                    t = np.linalg.eigvalsh(s_j)
                    gap = np.min(np.abs(t - 0.5), axis=1) - d * n * np.finfo(float).eps
                    gap = np.maximum(gap, 0.0)
                    low_bits = n // 2 + seed  # the split must not matter
                    monkeypatch.setattr(identity, "_BOUND_BLOCK", 1 if seed else 1 << 15)
                    table, lowest = _bound_table(_subset_sums(outer[:low_bits]),
                                                 _subset_sums(outer[low_bits:]))
                    limits = [_det_limit(x, d, n, e) for x in 0.75 + gap ** 2]
                    assert np.all(table.reshape(-1) <= limits)
                    assert np.array_equal(lowest, np.argmin(table, axis=1))


def rational_hermitian_pairs(rng, d, complex_valued, generic):
    """Hermitian L and H = C + I/2: `generic` pairs with entries p/q
    (|p| <= 9, 1 <= q <= 9) rounded to floats, then 10 with exact
    det(L + C) = 0, L and C Gram matrices over 4 of two parts of d - 1
    small integer vectors."""
    def integers(*shape):
        z = rng.integers(-9, 10, size=shape).astype(float)
        if complex_valued:
            z = z + 1j * rng.integers(-9, 10, size=shape)
        return z

    def hermitian(z):
        z = np.tril(z) + np.conj(np.swapaxes(np.tril(z, -1), 1, 2))
        z[:, range(d), range(d)] = z[:, range(d), range(d)].real
        return z

    def gram(v):
        return v @ np.conj(np.swapaxes(v, 1, 2)) / 4

    l, c = (hermitian(integers(generic, d, d)
                      / rng.integers(1, 10, size=(generic, d, d)))
            for _ in range(2))
    vectors = integers(10, d, d - 1)
    cut = rng.integers(0, d, size=10)
    in_l = np.arange(d - 1) < cut[:, None, None]
    l = np.concatenate([l, gram(np.where(in_l, vectors, 0))])
    c = np.concatenate([c, gram(np.where(in_l, 0, vectors))])
    return l, c + 0.5 * np.eye(d)


def permanent(m):
    perms = np.array(list(itertools.permutations(range(len(m)))))
    return np.prod(m[np.arange(len(m)), perms], axis=1).sum()


def test_shifted_det_matches_the_exact_determinant():
    # the bilinear evaluation of det(L + C), C = high - I/2 as the code
    # rounds it, against elimination over the exact values of the same
    # float entries, within the derived bound N eps per(|L| + |C|)
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(11)
    for d in range(1, 7):
        for complex_valued in (False, True):
            # exact elimination at d = 6 costs ten times that at d = 5
            l, h = rational_hermitian_pairs(rng, d, complex_valued, 40 if d < 6 else 10)
            c = h.copy()
            c[:, range(d), range(d)] -= 0.5
            fa, fb = _det_features(l, h, 0.5)
            terms = math.comb(2 * d, d)
            assert len(fa) == (terms if complex_valued else (terms + 2 ** d) // 2)
            values = np.diagonal(fb @ fa)
            singular = 0
            for l_j, c_j, value in zip(l, c, values):
                exact_re, exact_im = exact_det(l_j, c_j)
                assert exact_im == 0
                allowed = _product_roundings(d) * eps * permanent(np.abs(l_j) + np.abs(c_j))
                assert abs(Fraction(float(value)) - exact_re) <= Fraction(allowed)
                singular += exact_re == 0
            assert singular >= 10


def test_nu_minus_global_calls_lapack_det_only_from_d_7(monkeypatch, tol):
    stacks = []
    kernel = np.linalg.det

    def counted(a, *rest, **kw):
        stacks.append(np.shape(a))
        return kernel(a, *rest, **kw)

    monkeypatch.setattr(np.linalg, "det", counted)
    for d, n in ((3, 14), (4, 10), (5, 10), (6, 10)):
        for field in ("real", "complex"):
            fk.nu_minus_global(fk.parseval_projection_frame(d, n, seed=0, field=field),
                               tol)
    assert stacks == []
    f = fk.parseval_projection_frame(7, 10, seed=0, field="complex")
    value, witness = fk.nu_minus_global(f, tol)
    assert stacks and all(shape[1:] == (7, 7) for shape in stacks)
    monkeypatch.undo()
    oracle_value, oracle_witness = exhaustive_nu_minus_global(f)
    assert repr(value) == repr(oracle_value)
    assert witness.members == oracle_witness.members


def test_nu_minus_global_builds_each_table_once(tol):
    # the minor tables of d x d matrices are built by the first sweep of
    # that d and read by later sweeps.  d <= 6 takes the bilinear bound,
    # which alone builds them; d = 7 and d = 10 take the LAPACK det in
    # blocks and build none
    identity._minor_tables.cache_clear()
    for d in list(range(1, 8)) + [10]:
        for field in ("real", "complex"):
            f = fk.parseval_projection_frame(d, d + 5, seed=0, field=field)
            for _ in range(2):
                fk.nu_minus_global(f, tol)
    assert identity._minor_tables.cache_info().misses == 6  # d = 1..6


def test_minor_tables_equal_the_dict_numbered_reference():
    # arithmetic numbering builds the same tables as a dict over every
    # (I, J) pair: the step bounds, and each array's values, dtype and shape
    for d in range(1, 9):
        steps, *tables = identity._minor_tables.__wrapped__(d)
        ref_steps, *ref_tables = reference_minor_tables(d)
        assert [step[:2] for step in steps] == [step[:2] for step in ref_steps]
        arrays = [a for step in steps for a in step[2:]] + tables
        ref_arrays = [a for step in ref_steps for a in step[2:]] + ref_tables
        assert len(arrays) == len(ref_arrays) == 2 * d + 4
        for a, ref in zip(arrays, ref_arrays):
            assert (a.dtype, a.shape) == (ref.dtype, ref.shape)
            npt.assert_array_equal(a, ref)


def test_half_tables_are_hermitian_bit_for_bit():
    # the determinant bound reads both triangles of S_J = low[a] + high[b]
    # and eigvalsh one, so both must hold the same matrix: exact
    # conjugates above and below the diagonal, whose imaginary part is
    # zero, from the outer products through every subset sum
    for d in range(1, 8):
        n = d + 5
        for field in ("real", "complex"):
            for seed in range(3):
                clean = fk.parseval_projection_frame(d, n, seed=seed, field=field)
                for f in (clean, near_parseval(clean, seed)):
                    outer = np.einsum("ki,kj->kij", f.vectors, np.conj(f.vectors))
                    for half in (outer[:n // 2], outer[n // 2:n - 1]):
                        sums = _subset_sums(half)
                        assert np.array_equal(sums, np.conj(np.swapaxes(sums, 1, 2)))
                        diagonal = np.diagonal(sums, axis1=1, axis2=2)
                        assert np.all(np.imag(diagonal) == 0.0)


def harmonic_frame(dim, n):
    """The first dim rows of the n-point DFT, scaled to a Parseval frame:
    a cyclic shift of the vectors is a unitary, so nu ties exactly along
    shifted subsets."""
    k = np.arange(n)[:, None] * np.arange(dim)
    return fk.Frame(dim=dim, field="complex", vectors=np.exp(2j * np.pi * k / n) / np.sqrt(n))


def test_nu_minus_global_is_invariant_under_permutations(mb3, tol):
    # a permutation moves the indices across the two halves of the sweep
    # and across the excluded index n: the value stays, and the witness
    # is a minimizer of the permuted frame and, mapped back, of the frame
    rng = np.random.default_rng(23)
    frames = [mb3, harmonic_frame(3, 8)]
    for d, n in ((1, 8), (2, 10), (3, 12), (4, 11), (5, 12)):
        for field in ("real", "complex"):
            f = fk.parseval_projection_frame(d, n, seed=d, field=field)
            frames += [f, near_parseval(f, d)]
    for f in frames:
        value, _ = fk.nu_minus_global(f, tol)
        perm = rng.permutation(f.n)
        moved = fk.Frame(dim=f.dim, field=f.field, vectors=f.vectors[perm])
        moved_value, witness = fk.nu_minus_global(moved, tol)
        assert abs(moved_value - value) <= 1e-15
        assert abs(fk.nu_bounds(moved, witness, tol).nu_minus - moved_value) <= 1e-12
        back = fk.IndexSet(members=[perm[k - 1] + 1 for k in witness.members], n=f.n)
        assert abs(fk.nu_bounds(f, back, tol).nu_minus - value) <= 1e-12


def test_nu_minus_global_is_invariant_under_unitaries_and_the_field(tol):
    # vectors @ W, W a seeded orthogonal or unitary matrix, maps each S_J
    # to the similar W^T S_J conj(W); a real frame stored as complex takes
    # the K-feature complex bound instead of the (K + 2^d)/2-feature real
    # one: the value stays, and the new witness attains it on the original
    # frame
    rng = np.random.default_rng(29)
    for d in range(1, 7):
        for field in ("real", "complex"):
            clean = fk.parseval_projection_frame(d, d + 6, seed=d, field=field)
            for f in (clean, near_parseval(clean, d)):
                value, _ = fk.nu_minus_global(f, tol)
                z = rng.standard_normal((d, d))
                if field == "complex":
                    z = z + 1j * rng.standard_normal((d, d))
                w = np.linalg.qr(z)[0]
                moved = [fk.Frame(dim=d, field=field, vectors=f.vectors @ w)]
                if field == "real":
                    moved.append(fk.Frame(dim=d, field="complex",
                                          vectors=f.vectors.astype(complex)))
                for g in moved:
                    moved_value, witness = fk.nu_minus_global(g, tol)
                    assert abs(moved_value - value) <= 1e-14
                    assert abs(fk.nu_bounds(f, witness, tol).nu_minus - moved_value) <= 1e-12


def test_nu_minus_global_refuses_large_sweeps(tol):
    f = fk.parseval_projection_frame(2, fk.GLOBAL_SWEEP_LIMIT + 1, seed=0)
    with pytest.raises(fk.TooLargeError):
        fk.nu_minus_global(f, tol)


def test_tail_threshold_examples(mb3, basis2, tol):
    assert fk.tail_threshold(mb3, 0.5, tol) == 2
    assert fk.tail_threshold(mb3, 1.01, tol) == 0
    assert fk.tail_threshold(mb3, 1e-12, tol) == 3
    assert fk.tail_threshold(basis2, 1e-9, tol) == 0
    with pytest.raises(fk.BadParametersError):
        fk.tail_threshold(mb3, 0.0, tol)
    with pytest.raises(fk.NotParsevalError):
        fk.tail_threshold(fk.Frame(dim=2, field="real",
                                   vectors=[[1, 0], [0, 1], [1, 0]]), 0.5, tol)


def test_tail_threshold_monotone_in_eps(tol):
    f = fk.parseval_projection_frame(3, 8, seed=4)
    # total deficit is n - dim = 5, so eps above that gives n0 = 0
    values = [fk.tail_threshold(f, eps, tol)
              for eps in (5.5, 1.0, 0.5, 0.25, 0.1, 1e-3, 1e-12)]
    assert values == sorted(values)
    assert values[0] == 0 and values[-1] <= 8


def test_tail_threshold_is_minimal(tol):
    f = fk.parseval_projection_frame(2, 6, seed=7)
    deficits = 1.0 - np.sum(np.abs(f.vectors) ** 2, axis=1)
    for eps in (0.9, 0.5, 0.3):
        n0 = fk.tail_threshold(f, eps, tol)
        assert float(np.sum(deficits[n0:])) < eps
        if n0 > 0:
            assert float(np.sum(deficits[n0 - 1:])) >= eps


def test_verify_tail_bound(mb3, tol):
    j = fk.IndexSet(members=(1, 2), n=3)
    report = fk.verify_tail_bound(mb3, 0.5, j, tol)
    assert report.holds
    assert (report.n0, report.j, report.bound) == (2, j, 0.5)
    assert report.nu_minus == fk.nu_bounds(mb3, j, tol).nu_minus
    assert report.nu_minus_mirrored == fk.nu_bounds(mb3, j.complement(), tol).nu_minus
    assert fk.verify_tail_bound(mb3, 0.5, None, tol) == report  # J is exactly 1..n0
    assert fk.verify_tail_bound(mb3, 0.5, fk.IndexSet(members=(1, 2, 3), n=3), tol).holds
    with pytest.raises(fk.PrefixNotContainedError):
        fk.verify_tail_bound(mb3, 0.5, fk.IndexSet(members=(1,), n=3), tol)
    # nu_minus = 1 on both sides exceeds 1 - 1e-20, though not fl(1 - 1e-20) = 1
    report = fk.verify_tail_bound(fk.Frame(dim=3, field="real", vectors=np.eye(3)),
                                  1e-20, None, tol)
    assert (report.nu_minus, report.nu_minus_mirrored, report.bound) == (1.0, 1.0, 1.0)
    assert report.holds
    # sqrt(0.9) e_1, sqrt(0.9) e_2 is Parseval only under a wide atol; its
    # M_J has the eigenvalues 0.9 on J and 0.81 off it, below 1 - eps
    wide = tol._replace(atol=0.2)
    report = fk.verify_tail_bound(fk.Frame(dim=2, field="real",
                                           vectors=np.sqrt(0.9) * np.eye(2)),
                                  0.15, None, wide)
    assert report.n0 == 1 and report.j.members == (1,)
    assert report.nu_minus == pytest.approx(0.81) == report.nu_minus_mirrored
    assert not report.holds


def test_tail_bound_on_projected_basis(tol):
    for seed in range(4):
        field = "complex" if seed % 2 else "real"
        alpha = fk.random_unit_alpha(4, seed=seed, field=field)
        f = fk.projected_basis_frame(alpha, tol)
        assert fk.tail_threshold(f, 1.0 / 8.0, tol) == 1
        for members in ((1,), (1, 3), (1, 2, 4), (1, 2, 3, 4)):
            j = fk.IndexSet(members=members, n=4)
            assert fk.verify_tail_bound(f, 1.0 / 8.0, j, tol).holds
            assert fk.nu_bounds(f, j, tol).nu_minus > 7.0 / 8.0


def test_tail_bound_on_direct_sums(tol):
    # frames with excess 2 and interleaved deficits, reordered so the
    # deficits descend; every prefix-containing J must satisfy the bound
    for seed in (0, 1):
        a = fk.projected_basis_frame(fk.random_unit_alpha(4, seed=seed), tol)
        b = fk.projected_basis_frame(fk.random_unit_alpha(5, seed=seed + 10), tol)
        f = sort_rows_by_deficit(direct_sum_frames(a, b))
        assert fk.excess(f, tol).excess == 2
        for eps in (0.5, 0.25):
            n0 = fk.tail_threshold(f, eps, tol)
            base = tuple(range(1, n0 + 1))
            for extra in ((), (n0 + 2,) if n0 + 2 <= f.n else ()):
                j = fk.IndexSet(members=base + extra, n=f.n)
                assert fk.verify_tail_bound(f, eps, j, tol).holds


def test_projected_basis_frame_small(tol):
    f = fk.projected_basis_frame(np.array([1.0, 1.0]) / np.sqrt(2.0), tol)
    assert (f.n, f.dim, f.field) == (2, 1, "real")
    npt.assert_allclose(np.abs(np.ravel(f.vectors)), [np.sqrt(0.5)] * 2,
                        atol=1e-12)
    assert fk.is_parseval(f, tol)
    assert fk.excess(f, tol).excess == 1


def test_projected_basis_frame_properties(tol):
    for seed, m, field in ((0, 4, "real"), (1, 5, "complex"), (2, 6, "real")):
        alpha = fk.random_unit_alpha(m, seed=seed, field=field)
        f = fk.projected_basis_frame(alpha, tol)
        assert (f.n, f.dim, f.field) == (m, m - 1, field)
        assert fk.is_parseval(f, tol)
        assert fk.excess(f, tol).excess == 1
        norms_sq = np.sum(np.abs(f.vectors) ** 2, axis=1)
        npt.assert_allclose(norms_sq, 1.0 - np.abs(alpha) ** 2, atol=1e-12)
        assert fk.excess_from_norms(f, tol) == pytest.approx(1.0, abs=1e-9)
        # the synthesis kernel is the line spanned by the coefficients
        (k,) = fk.kernel_of_synthesis(f, tol).T
        assert abs(np.conj(k) @ alpha) == pytest.approx(1.0, abs=1e-10)


def test_projected_basis_frame_errors(tol):
    with pytest.raises(fk.BadParametersError):
        fk.projected_basis_frame(np.array([1.0]), tol)
    with pytest.raises(fk.ZeroEntryError):
        fk.projected_basis_frame(np.array([1.0, 0.0]), tol)
    with pytest.raises(fk.NotUnitError):
        fk.projected_basis_frame(np.array([1.0, 1.0]), tol)
    with pytest.raises(fk.BadParametersError):
        fk.projected_basis_frame(np.array([np.nan, 1.0]), tol)


def test_identity_holds_for_random_frames():
    for case in seeded_cases(676, 40, (0, 10_000), (2, 4), (0, 31), (0, 1)):
        seed, d, j_code, complex_field = case
        field = "complex" if complex_field else "real"
        f = fk.parseval_projection_frame(d, 5, seed=seed, field=field)
        members = tuple(k + 1 for k in range(5) if (j_code >> k) & 1)
        j = fk.IndexSet(members=members, n=5)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal(d) + (1j * rng.standard_normal(d)
                                      if complex_field else 0.0)
        lhs, rhs = fk.identity_sides(f, j, x, TOL)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), case
        bounds = fk.nu_bounds(f, j, TOL)
        assert 0.75 - 1e-10 <= bounds.nu_minus <= bounds.nu_plus <= 1.0 + 1e-10, case
