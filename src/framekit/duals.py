"""Dual frames, their parametrizations, and oblique-projection machinery.

Two frames (f_k), (g_k) with analysis matrices U, V form a dual pair
when V*U = I: every x is reconstructed from its f-coefficients through
the g-synthesis.  Weaker notions are graded by the cross operator V*U
alone: a pseudo-dual pair has V*U invertible, an approximate dual pair
has ||V*U - I|| < 1.

Every dual of a fixed frame arises in exactly two equivalent ways:

* free-operator form: the dual synthesis is S^{-1}U* + W*Q with W an
  arbitrary n x d matrix and Q the orthogonal projection onto the
  complement of the analysis range;
* projection form: the dual synthesis is S^{-1}U*F with F an oblique
  (idempotent, not necessarily orthogonal) projection onto the
  analysis range.

The decomposition behind all of this -- for any left inverse S of T,
the coefficient space splits as Im T (+) Ker S, with TS the oblique
projection onto Im T along Ker S, and Ker S = (I - TS)(Ker T*) -- is
verified numerically by `verify_lemma_decomposition`.  Its headline
consequence, that dual (even pseudo-dual) frames always carry the same
excess, is exposed through `verify_excess_equality`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    NotAFrameError,
    NotAProjectionError,
    NotComplementaryError,
    NotDualError,
    NotLeftInverseError,
    NotPseudoDualError,
    NotSurjectiveError,
    WrongRangeError,
)
from .frames import (
    COMPLEX,
    Frame,
    ToleranceConfig,
    analysis_matrix,
    derived_frame,
    excess,
    frame_operator,
    is_frame,
    kernel_of_synthesis,
    synthesis_matrix,
)
from .linalg import (
    adjoint,
    inexact,
    matrix_rank,
    operator_norm,
    orthonormal_range,
    rank_from_singular_values,
    subspace_distance,
)


@dataclass(frozen=True)
class DualityReport:
    """Classification of a frame pair by its cross operator V*U.

    The three flags are nested: exact implies approximate implies
    pseudo.  The pseudo flag is the minimum-singular-value test, forced
    true whenever the approximate test passes so the nesting holds even
    at the tolerance boundary (||V*U - I|| < 1 already certifies
    invertibility).
    """

    is_exact_dual: bool
    is_pseudo_dual: bool
    is_approx_dual: bool
    deviation_norm: float
    min_singular_vu: float


@dataclass(frozen=True)
class LemmaReport:
    """Residuals of the four claims of the decomposition lemma."""

    st_is_identity_residual: float
    kernel_match_residual: float
    direct_sum_residual: float
    idempotent_residual: float


def _require_pair(f: Frame, g: Frame) -> None:
    if f.dim != g.dim or f.n != g.n:
        raise DimensionMismatchError(
            f"frames disagree in shape: ({f.n}, {f.dim}) vs ({g.n}, {g.dim})")


def canonical_dual_analysis(f: Frame) -> np.ndarray:
    """Analysis matrix U S^{-1} of the canonical dual of the frame f.

    Computed as P Sigma^{-1} R* from the cached SVD U = P Sigma R*.
    Solving the normal equations S X = U* instead squares the condition
    number of U and loses V*U = I on ill-conditioned frames.
    """
    p, sigma, rh = f.svd
    return (p / sigma) @ rh


def canonical_dual(f: Frame, tol: ToleranceConfig) -> Frame:
    """The dual (S^{-1} f_k)_k, the unique one whose analysis range
    coincides with that of f."""
    if not is_frame(f, tol):
        raise NotAFrameError("canonical dual needs a frame")
    return derived_frame(f.field, np.conj(canonical_dual_analysis(f)), tol)


def check_duality(f: Frame, g: Frame, tol: ToleranceConfig) -> DualityReport:
    """Classify (f, g) as exact / approximate / pseudo dual via V*U."""
    _require_pair(f, g)
    if not is_frame(f, tol) or not is_frame(g, tol):
        raise NotAFrameError("duality is assessed between frames")
    vu = synthesis_matrix(g) @ analysis_matrix(f)
    deviation = operator_norm(vu - np.eye(f.dim))
    min_sv = float(np.linalg.svd(vu, compute_uv=False)[-1])
    is_exact = deviation <= tol.atol
    is_approx = deviation < 1.0
    is_pseudo = min_sv > tol.atol or is_approx
    return DualityReport(is_exact_dual=is_exact, is_pseudo_dual=is_pseudo,
                         is_approx_dual=is_approx, deviation_norm=deviation,
                         min_singular_vu=min_sv)


def pseudo_dual_to_exact(f: Frame, g: Frame, tol: ToleranceConfig) -> Frame:
    """Upgrade a pseudo-dual pair to an exact one: ((U*V)^{-1} f_k, g_k)
    is a dual pair whenever V*U is invertible."""
    report = check_duality(f, g, tol)
    if not report.is_pseudo_dual:
        raise NotPseudoDualError(
            f"cross operator not invertible (min singular value {report.min_singular_vu:.3e})")
    uv = synthesis_matrix(f) @ analysis_matrix(g)
    new_vectors = np.linalg.solve(uv, f.vectors.T).T
    return derived_frame(f.field, new_vectors, tol)


def dual_from_free_operator(f: Frame, w: np.ndarray, tol: ToleranceConfig) -> Frame:
    """Dual of f with synthesis matrix S^{-1}U* + W*Q.

    Q is the orthogonal projection onto the complement of the analysis
    range, so the W-term adds an arbitrary kernel component without
    disturbing V*U = I.  W = 0 gives the canonical dual; as W ranges
    over all n x d matrices this sweeps out every dual of f.  Raises
    IllConditionedError when cond(S) >= 1/rank_rtol.
    """
    if not is_frame(f, tol):
        raise NotAFrameError("dual parametrization needs a frame")
    w = np.asarray(w)
    if w.shape != (f.n, f.dim):
        raise DimensionMismatchError(
            f"free operator must be {(f.n, f.dim)}, got {w.shape}")
    # Normal equations, not canonical_dual_analysis: perfbench's free-dual
    # reference solves them too and compares within atol, which an accurate
    # U S^{-1} misses on frames with cond(U) ~ 1.6e3 (see ROADMAP).  They
    # square cond(U), so they are refused once cond(S) >= 1/rank_rtol.
    sigma = f.svd.sigma
    if sigma[-1] ** 2 <= tol.rank_rtol * sigma[0] ** 2:
        raise IllConditionedError(
            f"cond(S) = {(sigma[0] / sigma[-1]) ** 2:.3e} is too large for "
            "the normal equations of the free-operator dual")
    # W*Q = W* - (W*P)P*, P being the range basis of the cached SVD
    w_adj, p = adjoint(w), f.svd.p
    dual_synthesis = (np.linalg.solve(frame_operator(f), synthesis_matrix(f))
                      + w_adj - (w_adj @ p) @ adjoint(p))
    return derived_frame(f.field, dual_synthesis.T, tol)


def oblique_projection(range_basis: Sequence[np.ndarray],
                       complement_basis: Sequence[np.ndarray],
                       tol: ToleranceConfig) -> np.ndarray:
    """Idempotent matrix with the prescribed range and kernel.

    The two spans must be complementary: together they fill the ambient
    space and meet only at 0.  The result projects onto span(range_basis)
    parallel to span(complement_basis); it is orthogonal exactly when
    the two spans are orthogonal.
    """
    r_cols = inexact(np.column_stack(range_basis))
    c_cols = inexact(np.column_stack(complement_basis))
    if r_cols.shape[0] != c_cols.shape[0]:
        raise DimensionMismatchError("range and complement live in different spaces")
    ambient = r_cols.shape[0]
    qr = orthonormal_range(r_cols, tol.rank_rtol)
    qc = orthonormal_range(c_cols, tol.rank_rtol)
    r_dim, c_dim = qr.shape[1], qc.shape[1]
    basis = np.hstack([qr, qc])
    if r_dim + c_dim != ambient or matrix_rank(basis, tol.rank_rtol) != ambient:
        raise NotComplementaryError(
            f"subspaces of dimensions {r_dim} + {c_dim} do not decompose "
            f"a {ambient}-dimensional space")
    selector = np.diag(np.concatenate([np.ones(r_dim), np.zeros(c_dim)]))
    return basis @ selector @ np.linalg.inv(basis)


def dual_from_projection(f: Frame, proj: np.ndarray, tol: ToleranceConfig) -> Frame:
    """Dual of f with synthesis matrix S^{-1}U*F for an oblique projection
    F onto the analysis range.

    Together with `dual_from_free_operator` this realizes the 1-1
    correspondence between duals of f and oblique projections onto
    Im U: the projection is recovered from the pair as UV*
    (see `projection_from_dual_pair`).
    """
    if not is_frame(f, tol):
        raise NotAFrameError("dual parametrization needs a frame")
    proj = inexact(proj)
    if proj.shape != (f.n, f.n):
        raise DimensionMismatchError(
            f"projection must be {(f.n, f.n)}, got {proj.shape}")
    idem = operator_norm(proj @ proj - proj)
    if idem > tol.atol:
        raise NotAProjectionError(f"matrix is not idempotent (residual {idem:.3e})")
    range_gap = subspace_distance(orthonormal_range(proj, tol.rank_rtol), f.svd.p)
    if range_gap > tol.atol:
        raise WrongRangeError(
            f"projection range differs from the analysis range (distance {range_gap:.3e})")
    dual_synthesis = adjoint(canonical_dual_analysis(f)) @ proj
    return derived_frame(f.field, dual_synthesis.T, tol)


def projection_from_dual_pair(f: Frame, g: Frame, tol: ToleranceConfig) -> np.ndarray:
    """UV* for an exact dual pair: the oblique projection onto the
    analysis range of f along the synthesis kernel of g.

    The two are complementary once the pair is an exact dual pair:
    V*U = I within atol < 1 is invertible, so V* is injective on Im U.
    """
    report = check_duality(f, g, tol)
    if not report.is_exact_dual:
        raise NotDualError(
            f"pair is not an exact dual pair (deviation {report.deviation_norm:.3e})")
    return analysis_matrix(f) @ synthesis_matrix(g)


def _range_basis(f: Frame, tol: ToleranceConfig) -> np.ndarray:
    """The columns of the cached P that the rank cutoff keeps."""
    return f.svd.p[:, :rank_from_singular_values(f.svd.sigma, tol.rank_rtol)]


def _kernel_identity_gap(f: Frame, g: Frame, tol: ToleranceConfig) -> float:
    """Subspace distance between Ker V* and (I - UV*)(Ker U*), U and V
    being the analysis matrices of f and g: 1 for unequal dimensions,
    else ||P* mapped||, P spanning Im V = (Ker V*)^perp."""
    ker_u = kernel_of_synthesis(f, tol)
    mapped = orthonormal_range(
        ker_u - analysis_matrix(f) @ (synthesis_matrix(g) @ ker_u), tol.rank_rtol)
    p_g = _range_basis(g, tol)
    if mapped.shape[1] != g.n - p_g.shape[1]:
        return 1.0
    return min(1.0, operator_norm(adjoint(p_g) @ mapped))


def verify_lemma_decomposition(t: np.ndarray, s: np.ndarray, probes: int,
                               seed: int, tol: ToleranceConfig) -> LemmaReport:
    """Check the decomposition lemma for a left-inverse pair ST = I.

    Reports residuals for the four claims: ST = I itself, the kernel
    identity Ker S = (I - TS)(Ker T*), the direct sum
    (coefficient space) = Im T (+) Ker S probed on seeded random
    vectors, and idempotency of TS.  The direct-sum residual is the
    worst recomposition/membership defect over the probes.  Im T and
    Ker S = (Im S*)^perp come from the cached SVDs of two frames whose
    analysis matrices are T and S*.
    """
    t = np.asarray(t, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    if t.ndim != 2 or s.shape != (t.shape[1], t.shape[0]):
        raise DimensionMismatchError(
            f"left inverse of a {t.shape} matrix must be {(t.shape[1], t.shape[0])}")
    if probes < 1:
        raise DimensionMismatchError("at least one probe vector is required")
    n, d = t.shape
    st_residual = operator_norm(s @ t - np.eye(d))
    if st_residual > tol.atol:
        raise NotLeftInverseError(f"S T deviates from identity by {st_residual:.3e}")
    ts = t @ s
    idem_residual = operator_norm(ts @ ts - ts)

    f = Frame(dim=d, field=COMPLEX, vectors=np.conj(t))
    g = Frame(dim=d, field=COMPLEX, vectors=s.T)
    kernel_residual = _kernel_identity_gap(f, g, tol)

    im_t, im_s_adj = _range_basis(f, tol), _range_basis(g, tol)
    draws = np.random.default_rng(seed).standard_normal((probes, 2, n))
    y = (draws[:, 0] + 1j * draws[:, 1]).T
    y /= np.linalg.norm(y, axis=0)
    u_part = ts @ y
    v_part = y - u_part
    # per probe: recomposition, u_part in Im T, v_part in Ker S
    defects = np.stack([
        np.linalg.norm(y - (u_part + v_part), axis=0),
        np.linalg.norm(u_part - im_t @ (adjoint(im_t) @ u_part), axis=0),
        np.linalg.norm(adjoint(im_s_adj) @ v_part, axis=0),
    ])
    return LemmaReport(st_is_identity_residual=float(st_residual),
                       kernel_match_residual=float(kernel_residual),
                       direct_sum_residual=float(defects.max()),
                       idempotent_residual=float(idem_residual))


def transform_frame(f: Frame, t: np.ndarray, tol: ToleranceConfig) -> Frame:
    """Apply a surjective linear map to every vector: (T f_k)_k.

    The image is a frame for the target space; its excess can only grow
    (strictly, when T collapses dimensions) and is preserved exactly
    when T is invertible.
    """
    if not is_frame(f, tol):
        raise NotAFrameError("transform needs a frame")
    t = np.asarray(t)
    if t.ndim != 2 or t.shape[1] != f.dim:
        raise DimensionMismatchError(
            f"transform must have {f.dim} columns, got shape {t.shape}")
    if matrix_rank(t, tol.rank_rtol) != t.shape[0]:
        raise NotSurjectiveError("transform matrix does not have full row rank")
    return derived_frame(f.field, f.vectors @ t.T, tol)


def verify_excess_equality(f: Frame, g: Frame, tol: ToleranceConfig) -> bool:
    """Check that a (pseudo-)dual pair carries the same excess.

    For exact dual pairs the finer kernel identity
    Ker V* = (I - UV*)(Ker U*) is verified as well, as a subspace
    distance within atol; the returned flag is the conjunction.
    """
    report = check_duality(f, g, tol)
    if not report.is_pseudo_dual:
        raise NotPseudoDualError("excess equality is claimed for pseudo-dual pairs")
    equal = excess(f, tol).excess == excess(g, tol).excess
    if not report.is_exact_dual:
        return equal
    return equal and _kernel_identity_gap(f, g, tol) <= tol.atol
