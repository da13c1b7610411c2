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
verified numerically by `verify_lemma_decomposition`, whose kernel
identity uses d x n and d x d products only, never a basis of the
(n - d)-dimensional kernel.  Its headline consequence, that dual (even
pseudo-dual) frames always carry the same excess, is in finite
dimension the statement rank V = rank U = d, which an invertible V*U
certifies: V* is then onto.  `check_duality` decides that certificate
on the singular values of V*U, reading g only through V*U and ||V||_F,
and computes g's SVD only when the certificate is too weak to decide
`is_frame(g)`; `verify_excess_equality` returns its pseudo-dual grade.
Each pair pays for one spectral call, chosen on ||V*U - I||_F alone: at
most 1/2, those singular values and ||V*U - I|| come from one batched
`eigvalsh` of the Gram matrices of V*U and V*U - I; above it, from one
sigma-only SVD of both, and no Gram is formed.
Pair-level state lives here, not on `Frame`: `check_duality` memoizes
its report per tolerance in a table keyed weakly by both frames, so
V*U is formed once per pair and tolerance.
"""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple, Sequence, Tuple

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
    REAL,
    Frame,
    ToleranceConfig,
    _EPS,
    _analysis_frame,
    _range_basis,
    analysis_matrix,
    decide,
    derived_frame,
    frame_operator,
    is_frame,
    synthesis_matrix,
)
from .linalg import adjoint, inexact, operator_norm, subspace_distance


class DualityReport(NamedTuple):
    """Classification of a frame pair by its cross operator V*U.

    `deviation_norm` is ||V*U - I||_2 and `min_singular_vu` the least
    singular value of V*U: for a pair with ||V*U - I||_F <= 1/2 read off
    Gram matrices within the bound that `check_duality` states, for any
    other pair the values of a sigma-only SVD.

    The three flags are nested: exact implies approximate implies
    pseudo.  The pseudo flag is the rank rule of `ToleranceConfig` on
    the singular values of V*U, sigma_min > rank_rtol * sigma_max, so
    like invertibility it does not change when f or g is scaled.  Both
    weaker flags also ask V*U to clear its own rounding allowance,
    4 n d eps ||U||_2 ||V||_F: sigma_min must exceed it for a pseudo
    dual, 1 - ||V*U - I|| for an approximate one.  A V*U that is zero
    up to rounding, as when g's analysis range is orthogonal to f's,
    then grades as neither, though its rounding residue may pass the
    rank rule and sit just below 1 in deviation.  The pseudo flag is
    forced true whenever the approximate test passes so the nesting
    holds even at the tolerance boundary (||V*U - I|| < 1 already
    certifies invertibility).
    """

    is_exact_dual: bool
    is_pseudo_dual: bool
    is_approx_dual: bool
    deviation_norm: float
    min_singular_vu: float


class LemmaReport(NamedTuple):
    """Residuals of the four claims of the decomposition lemma, and
    whether the largest of them is at most atol."""

    st_is_identity_residual: float
    kernel_match_residual: float
    direct_sum_residual: float
    idempotent_residual: float
    holds: bool


# check_duality's memo, f -> (g -> {ToleranceConfig: DualityReport}); both
# frames are weak keys, so it keeps neither alive.  Frames and tolerances are
# immutable.
_DUALITY_REPORTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


# check_duality reads the spectrum of V*U off two Gram matrices when
# ||V*U - I||_F is at most this, and off a sigma-only SVD otherwise
_NEAR_DUAL = 0.5


def _gram(m: np.ndarray, out: np.ndarray) -> None:
    """Write m*m into out.  numpy runs a real m.T @ m as a symmetric
    rank-k update; a complex m fills only the lower triangle, which is all
    that `eigvalsh` reads, by blocks of 16 rows, so that no d x d conjugate
    of m is held beside it."""
    if not np.iscomplexobj(m):
        np.matmul(m.T, m, out=out)
        return
    for i in range(0, m.shape[1], 16):
        np.matmul(adjoint(m[:, i:i + 16]), m[:, :i + 16], out=out[i:i + 16, :i + 16])


def _cross_spectrum(vu: np.ndarray) -> Tuple[float, float, float]:
    """(||V*U - I||, sigma_min(V*U), sigma_max(V*U)) of the cross operator
    vu, which it overwrites.  The two paths, the gate between them and the
    bound of the near one are in `check_duality`."""
    d = vu.shape[0]
    diagonal = vu.reshape(-1)[:: d + 1]
    kept = diagonal.copy()
    diagonal -= 1.0  # vu is now E = V*U - I
    # ||E||_F^2; np.vdot, unlike matmul, raises no overflow warning, and a
    # huge E reads inf or nan and fails the test
    if np.vdot(vu, vu).real <= _NEAR_DUAL ** 2:
        grams = np.zeros((2, d, d), vu.dtype)
        _gram(vu, grams[0])
        diagonal[:] = kept
        _gram(vu, grams[1])
        lam = np.linalg.eigvalsh(grams)
        return (math.sqrt(max(lam[0, -1], 0.0)), math.sqrt(max(lam[1, 0], 0.0)),
                math.sqrt(lam[1, -1]))
    # E and V*U in one batched call: LAPACK sees each matrix exactly as in
    # two calls
    stack = np.array((vu, vu))
    stack[1].reshape(-1)[:: d + 1] = kept
    sigmas = np.linalg.svd(stack, compute_uv=False)
    return float(sigmas[0, 0]), float(sigmas[1, -1]), float(sigmas[1, 0])


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
    return derived_frame(f.field, canonical_dual_analysis(f).conj(), tol)


def check_duality(f: Frame, g: Frame, tol: ToleranceConfig) -> DualityReport:
    """Classify (f, g) as exact / approximate / pseudo dual via V*U.

    The report is computed once per (f, g, tol) and kept in this module's
    memo, so the callers that grade a pair and then check its excess
    equality, projection or upgrade share one V*U product and its
    spectrum.  Shape errors are raised before the lookup.  `is_frame(g)`
    is decided after V*U is formed, from the rank certificate derived in
    `verify_excess_equality` or, when that fails, from g's own SVD; a pair
    that is not two frames raises and leaves no memo entry.

    Spectrum.  The grades read ||E||, E = V*U - I, and the extreme
    singular values of V*U.  E is V*U with 1 subtracted from its diagonal
    in place, and the path is chosen once, on the computed
    s = fl(||E||_F^2), before any spectral call:

    * near path, s <= 1/4: one batched `eigvalsh` takes the eigenvalues
      of the two Gram matrices E*E and (V*U)*(V*U).  The root of the
      largest of the first is the deviation, and the singular values of
      V*U are the roots of the second's, clamped at 0;
    * far path, otherwise: the sigma-only SVDs of the stack [E, V*U],
      each matrix as LAPACK sees it alone, so the figures are numpy's
      ||E||_2 and singular values of V*U to the bit, and no Gram is
      formed.  A pseudo-dual or unrelated pair can have sigma_min(V*U)
      below sqrt(eps) sigma_max, which a Gram, whose eigenvalues move by
      eps sigma_max^2, cannot resolve; its ||E|| is near 1 or above.

    The gate.  Let u = eps / 2 and gamma_k = k u / (1 - k u).  s sums at
    most N = 2 d^2 nonnegative rounded products, so
    s >= (1 - gamma_N) ||E||_F^2 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Sec. 3.1), and s <= 1/4 certifies

        ||E||_2 <= ||E||_F <= r = 1 / (2 sqrt(1 - gamma_N)),

    with r - 1/2 < gamma_N / 2, about d^2 eps / 2 (3e-11 at d = 500).  A
    huge E reads inf or nan and fails the gate.  Below it every entry of
    a Gram, an inner product of two columns of M = E or V*U, is at most
    ||M||_2^2 <= (1 + r)^2 in magnitude and cannot overflow.

    Why 1/2.  Within ||E|| <= r every diagonal entry of V*U lies in
    [1 - r, 1 + r], and r = 1/2 is the largest radius that keeps it within
    the factor 2 of 1 that makes the subtraction forming E exact
    (Sterbenz); an entry in [1 - r, 1/2), which only the excess r - 1/2
    admits, loses at most eps / 4.  It also keeps every singular value of
    V*U in [1 - r, 1 + r] (Weyl), so the second Gram's eigenvalues lie
    in [(1 - r)^2, (1 + r)^2], away from 0: an error eta in an eigenvalue
    moves its root by at most about 2 eta.  The excess r - 1/2 changes
    the constants below by a relative O(d^2 eps), which they leave out.

    Bound of the near path.  Let M be E or V*U and s_1 >= ... >= s_d its
    singular values.  The computed Gram is M*M + F with
    |F| <= gamma_{d+2} |M|*|M| (a real or complex inner product of length
    d; Higham, Secs. 3.1 and 3.6), so
    ||F||_2 <= gamma_{d+2} ||M||_F^2 <= gamma_{d+2} d s_1^2.  `eigvalsh`
    returns the eigenvalues of the computed Gram G up to a backward error
    of p(d) eps ||G||_2, taking LAPACK's modestly growing p(d) as d.  So
    each eigenvalue lambda lies within

        eta = 2 d (d + 2) eps s_1^2

    of the s^2 that it stands for, and its root within eta / s of s, plus
    half an ulp from the square root.  For M = E, s = s_1 = ||E||: the
    deviation is within 2 d (d + 2) eps ||E|| of ||E||.  For M = V*U,
    s_1 <= 3/2 and s >= 1/2, as the gate certifies before any Gram is
    formed: min_singular_vu is within 9 d (d + 2) eps of sigma_min(V*U).
    Below ||E|| of about 1e-154 the entries of E*E underflow, and the
    deviation may read smaller, down to 0; every `atol` lies far above.
    """
    if f.dim != g.dim or f.n != g.n:
        raise DimensionMismatchError(
            f"frames disagree in shape: ({f.n}, {f.dim}) vs ({g.n}, {g.dim})")
    graded = _DUALITY_REPORTS.get(f, {}).get(g, {})
    if tol in graded:
        return graded[tol]
    deviation, sigma_min, sigma_max = _cross_spectrum(
        synthesis_matrix(g) @ analysis_matrix(f))
    # Python floats: a product past the float64 range is inf, not a warning
    u_norm, v_norm = float(f.svd.sigma[0]), float(np.linalg.norm(g.vectors))
    bound = (tol.rank_rtol + 4 * f.n * f.dim * _EPS) * u_norm
    certified = decide(sigma_min, ">", bound * v_norm).holds
    if not (is_frame(f, tol) and (certified or is_frame(g, tol))):
        raise NotAFrameError("duality is assessed between frames")
    # the rounding allowance of the computed V*U (see verify_excess_equality)
    noise = 4 * f.n * f.dim * _EPS * u_norm * v_norm
    is_exact = decide(deviation, "<=", tol.atol).holds
    is_approx = is_exact or 1.0 - deviation > noise
    # the rank rule, as in is_frame: V*U has rank d when sigma_min clears it
    is_pseudo = is_approx or (sigma_min > noise and
                              decide(sigma_min, ">", tol.rank_rtol * sigma_max).holds)
    report = DualityReport(is_exact_dual=is_exact, is_pseudo_dual=is_pseudo,
                           is_approx_dual=is_approx, deviation_norm=deviation,
                           min_singular_vu=sigma_min)
    partners = _DUALITY_REPORTS.get(f)
    if partners is None:  # not setdefault, which would build a table per call
        partners = _DUALITY_REPORTS[f] = weakref.WeakKeyDictionary()
    partners.setdefault(g, {})[tol] = report
    return report


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
    if decide(sigma[-1] ** 2, "<=", tol.rank_rtol * sigma[0] ** 2).holds:
        raise IllConditionedError(
            f"cond(S) = {(sigma[0] / sigma[-1]) ** 2:.3e} is too large for "
            "the normal equations of the free-operator dual")
    # W*Q = W* - (W*P)P*, P being the range basis of the cached SVD
    w_adj, p = adjoint(w), f.svd.p
    dual_synthesis = np.linalg.solve(frame_operator(f), synthesis_matrix(f)) + w_adj
    dual_synthesis -= (w_adj @ p) @ adjoint(p)
    return derived_frame(f.field, dual_synthesis.T, tol)


def oblique_projection(range_basis: Sequence[np.ndarray],
                       complement_basis: Sequence[np.ndarray],
                       tol: ToleranceConfig) -> np.ndarray:
    """Idempotent matrix with the prescribed range and kernel.

    The two spans must be complementary: together they fill the ambient
    space and meet only at 0.  The result projects onto span(range_basis)
    parallel to span(complement_basis); it is orthogonal exactly when
    the two spans are orthogonal.  Both spans and their sum are ranked by
    the rank rule, on the cached SVDs of the frames over their bases.
    """
    r_cols = inexact(np.column_stack(range_basis))
    c_cols = inexact(np.column_stack(complement_basis))
    if r_cols.shape[0] != c_cols.shape[0]:
        raise DimensionMismatchError("range and complement live in different spaces")
    ambient = r_cols.shape[0]
    qr = _range_basis(_analysis_frame(r_cols), tol)
    qc = _range_basis(_analysis_frame(c_cols), tol)
    r_dim, c_dim = qr.shape[1], qc.shape[1]
    basis = np.hstack([qr, qc])
    if r_dim + c_dim != ambient or not is_frame(_analysis_frame(basis), tol):
        raise NotComplementaryError(
            f"subspaces of dimensions {r_dim} + {c_dim} do not decompose "
            f"a {ambient}-dimensional space")
    return qr @ np.linalg.inv(basis)[:r_dim]


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
    columns = _analysis_frame(proj)  # its range basis spans Im F
    idem = operator_norm(proj @ proj - proj)
    if decide(idem, ">", tol.atol).holds:
        raise NotAProjectionError(f"matrix is not idempotent (residual {idem:.3e})")
    range_gap = subspace_distance(_range_basis(columns, tol), f.svd.p)
    if decide(range_gap, ">", tol.atol).holds:
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


def verify_lemma_decomposition(t: np.ndarray, s: np.ndarray, probes: int,
                               seed: int, tol: ToleranceConfig) -> LemmaReport:
    """Check the decomposition lemma for a left-inverse pair ST = I.

    Reports residuals for the four claims: ST = I itself, the kernel
    identity Ker S = (I - TS)(Ker T*), the direct sum
    (coefficient space) = Im T (+) Ker S probed on seeded random
    vectors, and idempotency of TS.  The direct-sum residual is the
    worst recomposition/membership defect over the probes.  Im T and
    Ker S = (Im S*)^perp come from the cached SVDs of two frames whose
    analysis matrices are T and S*, complex if either input is, else real;
    the probes are complex either way.

    The kernel residual, when the ranks of T and S agree, is the scaled
    distance between Ker S and E(Ker T*), E = I - T M^{-1} S, M = ST:

        ||X||_F / max(1, ||T||_2 ||S||_2 / (1 - ||ST - I||)),

    clamped to 1, with

        X = B E = B - C S,   C = (B T) M^{-1},

    B = P*, P the range basis of S* (an orthonormal basis of
    Im S* = (Ker S)^perp).  M and B T are formed from the two frames'
    matrices, so a real T with a complex S is read as complex.  C comes
    from one d x d solve, so every product is d x n or smaller, and X is
    formed in the one d x n array that C S needs.

    E is idempotent with range Ker S and kernel Im T, so X = 0 exactly.
    For x in Ker T*, T M^{-1} S x lies in Im T, orthogonal to x, so
    ||Ex|| >= ||x||: every unit vector y of E(Ker T*) is Ex with
    ||x|| <= 1.  For any B = K P* with K invertible, the sine of the
    largest principal angle between E(Ker T*) and Ker S is then
    max ||P* y|| <= ||P* E||_2 <= ||X||_F / sigma_min(K); here K = I.
    A factor I - P_T P_T* on the right would change nothing, as E kills
    Im T.

    Formed in floating point, X carries the rounding of (B T) M^{-1} S,
    about eps ||T|| ||S|| / sigma_min(M) for B = P*, so its norm grows
    with the scale of T or S although the identity does not; dividing by
    that bound, when it exceeds 1, keeps the residual at rounding level
    at any scale (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Sec. 3.5).  sigma_min(M) >= 1 - ||ST - I|| by Weyl's
    inequality.
    """
    t, s = inexact(t), inexact(s)
    if t.ndim != 2 or s.shape != (t.shape[1], t.shape[0]):
        raise DimensionMismatchError(
            f"left inverse of a {t.shape} matrix must be {(t.shape[1], t.shape[0])}")
    if probes < 1:
        raise DimensionMismatchError("at least one probe vector is required")
    n, d = t.shape
    field = COMPLEX if np.iscomplexobj(t) or np.iscomplexobj(s) else REAL
    f, g = _analysis_frame(t, field), _analysis_frame(adjoint(s), field)
    st_residual = operator_norm(s @ t - np.eye(d))
    if decide(st_residual, ">", tol.atol).holds:
        raise NotLeftInverseError(f"S T deviates from identity by {st_residual:.3e}")
    ts = t @ s
    idem_residual = operator_norm(ts @ ts - ts)

    im_t, im_s_adj = _range_basis(f, tol), _range_basis(g, tol)
    # the ranks compared are the codimensions of Ker T* and Ker S
    kernel_residual = 1.0
    if im_t.shape[1] == im_s_adj.shape[1]:
        basis, t_matrix, s_matrix = adjoint(im_s_adj), analysis_matrix(f), synthesis_matrix(g)
        # C M = B T, transposed to the M^T C^T = (B T)^T that solve takes
        x = np.linalg.solve((s_matrix @ t_matrix).T, (basis @ t_matrix).T).T @ s_matrix
        np.subtract(basis, x, out=x)
        scale = max(1.0, float(f.svd.sigma[0]) * float(g.svd.sigma[0]) / (1.0 - st_residual))
        kernel_residual = min(1.0, float(np.linalg.norm(x)) / scale)

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
    residuals = (float(st_residual), float(kernel_residual), float(defects.max()),
                 float(idem_residual))
    return LemmaReport(*residuals, decide(max(residuals), "<=", tol.atol).holds)


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
    # the d vectors t^T spanning the target space: rank t = t.shape[0]
    if not is_frame(_analysis_frame(t.T), tol):
        raise NotSurjectiveError("transform matrix does not have full row rank")
    return derived_frame(f.field, f.vectors @ t.T, tol)


def verify_excess_equality(f: Frame, g: Frame, tol: ToleranceConfig) -> bool:
    """Check that a (pseudo-)dual pair carries the same excess: True for
    every pseudo-dual pair, exact ones included; `NotPseudoDualError`
    for any other pair of frames.

    In finite dimension the equality is the statement rank V = rank U = d,
    and an invertible M = V*U proves it: V* is then onto.  So the verdict
    is the pseudo-dual grade of `check_duality`, which is the rank rule of
    `ToleranceConfig` on the singular values of M, and reads g only
    through M and ||V||_F.  The kernel identity Ker V* = E(Ker U*),
    E = I - U M^{-1} V*, then holds by algebra, since
    V*E = V* - M M^{-1} V* = 0; `verify_lemma_decomposition` measures its
    residual where C = (B U) M^{-1} is not I by algebra.

    Rank.  sigma_d(M) <= sigma_d(V) ||U||_2 and sigma_1(V) <= ||V||_F, so

        sigma_min(M) > rank_rtol ||U||_2 ||V||_F

    puts sigma_d(V) / sigma_1(V) above rank_rtol: g is a frame under the
    rank rule of `ToleranceConfig`, with no factorization of g.
    `check_duality` tests this with rank_rtol + 4 n d eps in place of
    rank_rtol.  The margin covers the rounding of the computed M
    (|dM| <= n eps |V*| |U|, so ||dM||_2 <= n sqrt(d) eps ||U||_2 ||V||_F),
    of its singular values and of ||U||_2 (each O(d eps) relative), and of
    the singular values that g's own SVD would give (O(n d eps) sigma_1(V)
    by the backward stability of the SVD), so a certified g is one that
    `is_frame` accepts too.  When the certificate fails, g's SVD decides.
    On the near path of `check_duality`, ||M - I||_F <= 1/2, sigma_min(M)
    comes from a Gram within 9 d (d + 2) eps instead.  A g that fails the
    rank rule has sigma_min(M) <= sigma_d(V) ||U||_2 <= rank_rtol ||U||_2
    ||V||_F, so a near pair (sigma_min(M) >= 1/2) with such a g has
    ||U||_2 ||V||_F >= 1 / (2 rank_rtol), and the margin is then at least
    2 n d eps / rank_rtol: more than 7e8 times that error at the default
    rank_rtol = 1e-10, and above it for every rank_rtol <= 2/27.

    Cost.  The grade is read from `check_duality`'s memo, so after
    `check_duality` this forms no product, solves nothing and allocates
    nothing of size n.  The result is a Python bool.
    """
    if not check_duality(f, g, tol).is_pseudo_dual:
        raise NotPseudoDualError("excess equality is claimed for pseudo-dual pairs")
    return True
