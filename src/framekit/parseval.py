"""Existence and construction of Parseval duals.

A frame admits a dual that is itself Parseval exactly when

  (a) its optimal lower bound satisfies A >= 1, and
  (b) the deviation dimension dim Im(S - I) -- how far the frame
      operator S is from the identity -- does not exceed the excess.

The construction mirrors the sufficiency proof.  Split the space along
the eigenvectors of S into the part where S acts as the identity and
the deviating part; on the latter apply g(t) = sqrt(1 - 1/t) to the
eigenvalues, and route the correction into the synthesis kernel through
a partial isometry R.  The dual analysis matrix is then

    V = U S^{-1} + R (0 (+) G) P,

with P the orthogonal projection onto the deviating eigenspace.  The
cross terms vanish because Im R lies in Ker U*, leaving V*U = I (a
dual) and V*V = S^{-1} + (I - S^{-1}) restricted appropriately = I
(Parseval).

Necessity comes from the same parametrization.  Every dual has the
analysis matrix V = U S^{-1} + QW, with Q the projection onto the
synthesis kernel; the cross terms vanish as before, so

    V*V - I = -(I - S^{-1}) + (QW)*(QW),

and as W varies, (QW)*(QW) takes exactly the PSD matrices of rank at
most k, the excess.  Let mu_1 >= ... >= mu_d be the eigenvalues of
I - S^{-1}.  By Weyl's inequalities, subtracting a PSD matrix of rank
<= k from I - S^{-1} leaves its largest eigenvalue at least mu_{k+1}
and its smallest at most mu_d, so every dual has

    ||V*V - I|| >= max(mu_{k+1}^+, (-mu_d)^+).

The construction attains this bound when it corrects only the first
min(k, #{eigenvalues of S above 1}) deviating eigenvectors, in
descending eigenvalue order.  The bound is 0 exactly when A >= 1 and
dim Im(S - I) <= k, so a frame failing either condition has no Parseval
dual, and `best_parseval_dual_residual` reports by how much every dual
misses.  In floats both read the band |lambda - 1| <= eig_one_atol: (a)
holds when no eigenvalue lies below it, and (b) counts those outside it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import NoParsevalDualError, NotAFrameError
from .frames import (
    Decision,
    Frame,
    ToleranceConfig,
    _band,
    analysis_matrix,
    decide,
    derived_frame,
    frame_bounds,
    is_frame,
)
from .duals import canonical_dual_analysis, check_duality
from .linalg import adjoint, fix_phase, operator_norm


class ParsevalDualReport(NamedTuple):
    """Existence verdict for a Parseval dual, with the two quantities the
    criterion compares and, when constructed, the dual itself."""

    exists: bool
    a_opt: float
    deviation_dim: int
    excess_val: int
    dual: Optional[Frame] = None


def deviation_dimension(f: Frame, tol: ToleranceConfig) -> int:
    """dim Im(S - I): the number of frame-operator eigenvalues that are
    not 1 (outside the eig_one_atol band)."""
    if not is_frame(f, tol):
        raise NotAFrameError("deviation dimension needs a frame")
    return _band(f, tol).outside


def parseval_dual_exists(f: Frame, tol: ToleranceConfig) -> ParsevalDualReport:
    """Evaluate the two existence conditions without constructing anything."""
    if not is_frame(f, tol):
        raise NotAFrameError("Parseval-dual existence needs a frame")
    # a frame: A is the least eigenvalue (`frame_bounds`), the excess n - dim
    band, exc = _band(f, tol), f.n - f.dim
    exists = band.below == 0 and band.outside <= exc
    return ParsevalDualReport(exists=exists, a_opt=f.eigenvalue_range.a_opt,
                              deviation_dim=band.outside, excess_val=exc)


def nonexistence_reasons(report: ParsevalDualReport,
                         tol: ToleranceConfig) -> List[str]:
    """Human-readable reasons why the existence test failed (empty when
    it passed)."""
    reasons = []
    if decide(1.0, ">", tol.eig_one_atol, minus=report.a_opt).holds:
        reasons.append(f"a_opt {format(report.a_opt, '.17g')} < 1")
    if report.deviation_dim > report.excess_val:
        reasons.append(
            f"deviation_dim {report.deviation_dim} > excess {report.excess_val}")
    return reasons


def _nearest_parseval_dual(f: Frame, tol: ToleranceConfig) -> np.ndarray:
    """Analysis matrix V of the dual of the frame f with the smallest
    ||V*V - I|| (operator norm); the caller has decided that f is a frame.

    The eigenvectors of S with eigenvalue above the eig_one_atol band
    around 1, taken in descending eigenvalue order, phase-fixed for
    determinism and cut to the first `excess` of them, are paired by the
    partial isometry R with the leading synthesis-kernel vectors and
    corrected by g(t) = sqrt(1 - 1/t).  Eigenvalues inside the band are
    left alone, so g never sees an argument below 1.

    The work runs in this order: the kernel columns (the frame's cached
    `range_complement`, whose QR runs before any n x d array of this
    function exists), the k x d right factor of the correction (k <= d
    directions corrected), the canonical part U S^{-1}, and last the
    correction product, into which U S^{-1} is added in place.  Besides
    that factor, at most three arrays of n x d or n x (n - d) entries
    are live at once: the kernel basis, U S^{-1} (or its scaled factor
    P Sigma^{-1}) and the product.  IEEE addition commutes, so the sum
    has the bits of U S^{-1} + correction.
    """
    lam = f.eigenvalues
    above = _band(f, tol).above[: f.n - f.dim]
    if not above.size:
        return canonical_dual_analysis(f)
    k_cols = f.range_complement[:, : above.size]
    g_vals = np.sqrt(1.0 - 1.0 / lam[above])
    right = g_vals[:, None] * adjoint(fix_phase(adjoint(f.svd.rh[above])))
    canonical = canonical_dual_analysis(f)
    v = k_cols @ right
    v += canonical
    return v


def construct_parseval_dual(f: Frame, tol: ToleranceConfig) -> ParsevalDualReport:
    """Build a Parseval dual following the sufficiency proof.

    Raises NoParsevalDualError, naming the failed conditions, when the
    existence test fails; otherwise the nearest Parseval dual is one.

    The returned report carries the dual; its defining properties
    (V*V = I and V*U = I within atol) are deliberately left to the
    caller to verify (`verify_parseval_dual`), so that near-boundary
    tolerance choices surface as a failed check rather than a
    construction error.
    """
    report = parseval_dual_exists(f, tol)
    if not report.exists:
        raise NoParsevalDualError(
            "no Parseval dual: " + "; ".join(nonexistence_reasons(report, tol)))
    dual = derived_frame(f.field, _nearest_parseval_dual(f, tol).conj(), tol)
    return ParsevalDualReport(exists=True, a_opt=report.a_opt,
                              deviation_dim=report.deviation_dim,
                              excess_val=report.excess_val, dual=dual)


def rescale_to_admissible(f: Frame, tol: ToleranceConfig) -> tuple:
    """Scale the frame so its optimal lower bound becomes 1 (condition (a)
    of the existence test); returns (scaled frame, scale factor).

    Constructing a Parseval dual of the rescaled frame and undoing the
    scale yields a tight dual of the original with tight bound equal to
    the returned factor squared.
    """
    if not is_frame(f, tol):
        raise NotAFrameError("rescaling needs a frame")
    a_opt = frame_bounds(f).a_opt
    c = 1.0 / np.sqrt(a_opt)
    return derived_frame(f.field, c * f.vectors, tol), float(c)


def best_parseval_dual_residual(f: Frame, tol: ToleranceConfig) -> float:
    """Smallest ||V*V - I|| (operator norm) over all duals of f.

    This is max(mu_{k+1}^+, (-mu_d)^+) in the notation of the module
    docstring, measured on the nearest Parseval dual: 0 up to rounding
    when a Parseval dual exists, and a certificate of how far every dual
    is from Parseval when one does not.
    """
    if not is_frame(f, tol):
        raise NotAFrameError("nearest Parseval dual needs a frame")
    return _gram_deviation(_nearest_parseval_dual(f, tol))


def verify_parseval_dual(f: Frame, g: Frame,
                         tol: ToleranceConfig) -> Tuple[Decision, Decision]:
    """The decisions ||V*V - I|| <= atol (g is Parseval) and ||V*U - I|| <= atol
    (g is a dual of f), U and V the analysis matrices of f and g.

    The second reads the deviation of `check_duality`, so the pair shares
    its one V*U product, and a pair that is not two frames raises
    NotAFrameError as every pair check does."""
    return (decide(_gram_deviation(analysis_matrix(g)), "<=", tol.atol),
            decide(check_duality(f, g, tol).deviation_norm, "<=", tol.atol))


def _gram_deviation(v: np.ndarray) -> float:
    """||V*V - I|| (operator norm) for an analysis matrix V."""
    return operator_norm(adjoint(v) @ v - np.eye(v.shape[1]))
