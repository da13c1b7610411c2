"""Finite frames and their basic operators.

A frame here is an ordered finite system of vectors (f_1, ..., f_n)
in a d-dimensional real or complex space.  The analysis operator maps
x to its coefficient sequence (<x, f_k>)_k and is represented by the
n x d matrix whose rows are the conjugated vectors; the synthesis
operator is its conjugate transpose, and the frame operator is
S = (synthesis)(analysis).  The extreme eigenvalues of S are the
optimal frame bounds; the system spans the space exactly when the
lower bound is positive.

Every spectral fact comes from one thin SVD U = P Sigma R* of the
analysis matrix, cached on the frame (`Frame.svd`): S has eigenvectors
R and eigenvalues Sigma^2 (`Frame.eigenvalues`, whose least and largest,
the optimal frame bounds, are `Frame.eigenvalue_range`), and P spans the
analysis range.  The Householder reflectors of one QR of P give an
orthonormal basis of the rest of the coefficient space, also cached
(`Frame.range_complement`) and formed without the n x n Q; every
synthesis-kernel basis is read from it.
Nothing cached on a frame depends on a tolerance: its rank and its
eigenvalue band are decided once per frame and tolerance value, in two
tables keyed weakly by the frame, and pair-level results are kept by
the pair checks in `duals.py`.

The number of vectors beyond a minimal spanning set -- the dimension
of the synthesis kernel, n - rank -- is called the excess and is the
quantity most of the higher-level results in this package revolve
around.
"""

from __future__ import annotations

import math
import operator
import weakref
from functools import cached_property
from typing import Any, List, NamedTuple

import numpy as np

from .errors import (
    BadParametersError,
    DimensionMismatchError,
    FramekitError,
    NotAFrameError,
    NotParsevalError,
)
from .linalg import adjoint, fix_phase, qr_complement

REAL = "real"
COMPLEX = "complex"
# Generator kinds of `generators.generate`, kept here so that the CLI
# parser can offer them without loading the generators.
KINDS = ("random", "parseval-projection", "near-riesz", "projected-basis")
FIELD_DTYPES = {REAL: np.float64, COMPLEX: np.complex128}
_EPS = 2.0 ** -52  # float64 machine epsilon, the unit of every rounding allowance


class _ToleranceFields(NamedTuple):  # the fields and defaults of ToleranceConfig
    rank_rtol: float = 1e-10
    atol: float = 1e-8
    eig_one_atol: float = 1e-8


class ToleranceConfig(_ToleranceFields):
    """Numerical knobs shared by every predicate in the package, each
    strictly between 0 and 1.

    Every decision about a frame reads the singular values
    sigma_1 >= ... of its analysis matrix U (the cached `Frame.svd`):

    * rank r = #{i : sigma_i > rank_rtol * sigma_1}; the vectors span
      (`is_frame`) exactly when r = dim, and the excess is n - r; being
      relative to sigma_1, neither verdict changes when f is scaled;
    * the eigenvalues lambda_i of S, zero-padded to dim, are read off
      the same SVD (`Frame.eigenvalues`); an eigenvalue "equals one"
      when |lambda_i - 1| <= eig_one_atol, the one band for every such
      decision: the frame is Parseval (`is_parseval`) when all of them
      equal one, so exactly when its deviation dimension is 0.

    Each frame's rank is decided once per rank_rtol value and its band
    once per eig_one_atol value, whatever the other fields; atol is for
    residuals only: an operator norm, a vector or an imaginary part
    passes when it is at most atol.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ToleranceConfig":
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not 0.0 < value < 1.0:
                raise BadParametersError(
                    f"{name} must lie strictly between 0 and 1, got {value!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "ToleranceConfig":  # `_replace` validates too
        return cls(*iterable)


class Decision(NamedTuple):
    """A measured value, the threshold it was compared with, and whether
    the comparison holds (an array of values gives an array of verdicts)."""

    value: Any
    threshold: Any
    holds: Any


_RULES = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}
_tuple_new = tuple.__new__  # as a named tuple's own __new__ builds it, but from C


def decide(value, rule: str, threshold, minus=None) -> Decision:
    """The decision `value rule threshold`, rule one of <=, <, >=, >, the one
    that states the property, so that the verdict at equality is its own.
    Every comparison with a `ToleranceConfig` field is made here, by one of
    two rules: rank (sigma_i against rank_rtol * sigma_1) or gap (a
    residual, or the gap x - c or c - x of x from a band's centre c,
    against the tolerance itself, never x against a rounded c -+ tol).

    A gap is passed as its two terms, `value - minus`: `decide(c, rule,
    tol, minus=x)` or `decide(x, rule, tol, minus=c)`, scalars or arrays
    of one shape, or one of each, the scalar standing for every entry (it
    broadcasts).  The Decision carries fl(value - minus), and its verdict
    is that of the exact difference at every tolerance: rounding is
    monotone, so the rounded gap lies on the wrong side of the threshold
    only by landing on it, and there the sign of `math.fsum`'s correctly
    rounded value - minus - threshold decides.  (For x within a factor 2
    of c the subtraction is exact anyway, by Sterbenz's lemma.)"""
    compare = _RULES[rule]
    if minus is None:
        return _tuple_new(Decision, (value, threshold, compare(value, threshold)))
    gap = value - minus
    holds = compare(gap, threshold)
    if isinstance(gap, np.ndarray):
        tied = gap == threshold
        if np.count_nonzero(tied):  # half the cost of np.flatnonzero on small arrays
            value, minus = np.broadcast_arrays(value, minus)
            for i in np.flatnonzero(tied):
                holds.flat[i] = compare(
                    math.fsum((value.flat[i], -minus.flat[i], -threshold)), 0.0)
    elif gap == threshold:
        holds = compare(math.fsum((value, -minus, -threshold)), 0.0)
    return _tuple_new(Decision, (gap, threshold, holds))


class FrameBounds(NamedTuple):
    """Optimal constants A, B in A||x||^2 <= sum |<x,f_k>|^2 <= B||x||^2."""

    a_opt: float
    b_opt: float


class ThinSVD(NamedTuple):
    """U = p @ diag(sigma) @ rh, with the min(n, d) singular values of the
    (n, d) analysis matrix U in descending order; tolerance-free."""

    p: np.ndarray
    sigma: np.ndarray
    rh: np.ndarray  # R*: its conjugated rows are eigenvectors of S


class Frame:
    """An ordered system of n vectors in a d-dimensional space.

    Vectors are the rows of an (n, d) float64 array for a real frame and
    complex128 for a complex one: one code path, and numpy's dtype
    dispatch runs real frames in real LAPACK/BLAS.  Zero rows are legal:
    some constructions below legitimately emit the zero vector.  Its
    cached properties are tolerance-free facts of the vectors alone.
    A frame is immutable, and equal only to itself (the pair checks in
    `duals.py` key their memo on it).
    """

    dim: int
    field: str
    vectors: np.ndarray

    def __init__(self, dim: int, field: str, vectors: np.ndarray) -> None:
        if field not in FIELD_DTYPES:
            raise FramekitError(f"unknown scalar field {field!r}")
        arr = np.asarray(vectors)
        if field == REAL and np.iscomplexobj(arr):
            if np.any(arr.imag != 0.0):
                raise FramekitError("real-field frame carries nonzero imaginary parts")
            arr = arr.real
        arr = np.array(arr, dtype=FIELD_DTYPES[field])
        if arr.ndim != 2:
            raise DimensionMismatchError("vectors must form a 2-d array of rows")
        n, d = arr.shape
        if n < 1:
            raise FramekitError("a frame needs at least one vector")
        if dim < 1 or d != dim:
            raise DimensionMismatchError(f"expected rows of length {dim}, got {d}")
        if not np.isfinite(arr).all():
            raise FramekitError("frame entries must be finite")
        arr.setflags(write=False)
        # past __setattr__, which refuses; the cached properties do the same
        vars(self).update(dim=dim, field=field, vectors=arr)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to Frame.{name}: frames are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete Frame.{name}: frames are immutable")

    @property
    def n(self) -> int:
        """Number of vectors."""
        return self.vectors.shape[0]

    @cached_property
    def svd(self) -> ThinSVD:
        """Thin SVD of the analysis matrix, computed once per frame; safe
        to cache because the frame and its vectors are immutable."""
        parts = np.linalg.svd(analysis_matrix(self), full_matrices=False)
        for part in parts:
            part.setflags(write=False)
        return ThinSVD(*parts)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of S = U*U, zero-padded to dim: the Rayleigh quotients
        ||U r_i||^2 at the right singular vectors of the cached SVD, in its
        order.  Unlike fl(sigma_i)^2 they are exact whenever U R is: the
        SVD of [[1, 0], [0, 1], [1, 0]] has fl(sqrt 2)^2 > 2."""
        ur = analysis_matrix(self) @ adjoint(self.svd.rh)
        lam = np.zeros(self.dim)
        if np.iscomplexobj(ur):
            ur = ur.real ** 2 + ur.imag ** 2
        else:
            ur *= ur
        lam[: ur.shape[1]] = np.sum(ur, axis=0)
        lam.setflags(write=False)
        return lam

    @cached_property
    def eigenvalue_range(self) -> FrameBounds:
        """(least, largest) of `eigenvalues`, Python floats: the optimal bounds."""
        lam = self.eigenvalues
        return FrameBounds(float(lam.min()), float(lam.max()))

    @cached_property
    def range_complement(self) -> np.ndarray:
        """Orthonormal basis of the complement of span P (P from the cached
        SVD): the trailing columns of the Q of a complete QR of P, formed
        without Q (`linalg.qr_complement`), phase-fixed and read-only;
        tolerance-free, like the SVD it completes."""
        basis = fix_phase(qr_complement(self.svd.p))
        basis.setflags(write=False)
        return basis


def derived_frame(field: str, vectors: np.ndarray, tol: ToleranceConfig) -> Frame:
    """Package vectors produced by an operation as a frame over `field`.

    On a real frame the operations run in real arithmetic, but complex
    operands (a complex free operator or transform, say) give complex
    results.  For a real field those carry imaginary parts that should
    be rounding dust: the dust is checked against atol and stripped.
    Non-finite entries are reported as an overflow of the computed frame,
    not as the bad input that `Frame` calls them.
    """
    arr = np.asarray(vectors)
    if field == REAL and np.iscomplexobj(arr):
        dust = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
        if not decide(dust, "<=", tol.atol).holds:  # NaN dust is refused too
            raise FramekitError(
                f"operation on real-field data produced imaginary parts of size {dust:.3e}")
        arr = arr.real
    try:
        return Frame(dim=arr.shape[1], field=field, vectors=arr)
    except FramekitError:
        if np.isfinite(arr).all():  # scanned only once Frame has refused the array
            raise
        raise FramekitError(
            "the computed frame overflowed: its entries are not all finite") from None


class ExcessReport(NamedTuple):
    """Excess of a frame together with the rank evidence behind it."""

    excess: int
    rank: int
    singular_values: List[float]
    tolerance_used: float


def analysis_matrix(f: Frame) -> np.ndarray:
    """Matrix of x -> (<x, f_k>)_k: one conjugated vector per row (n x d).
    For a real frame it is `f.vectors` itself, read-only, not a copy."""
    return f.vectors.conj()


def synthesis_matrix(f: Frame) -> np.ndarray:
    """Matrix of (c_k) -> sum c_k f_k: the conjugate transpose of the
    analysis matrix (d x n); its columns are the frame vectors.  It is a
    read-only view of `f.vectors`, not a copy."""
    return f.vectors.T


def frame_operator(f: Frame) -> np.ndarray:
    """S = (synthesis)(analysis) = sum_k f_k f_k^*; Hermitian PSD, d x d."""
    return synthesis_matrix(f) @ analysis_matrix(f)


def gram_matrix(f: Frame) -> np.ndarray:
    """n x n matrix with (j, k) entry <f_k, f_j>; for a Parseval frame this
    is the orthogonal projection onto the range of the analysis operator."""
    u = analysis_matrix(f)
    return u @ adjoint(u)


def frame_bounds(f: Frame) -> FrameBounds:
    """Extreme eigenvalues of the frame operator, the cached `eigenvalue_range`;
    a_opt = 0 signals that the system does not span."""
    return f.eigenvalue_range


def is_frame(f: Frame, tol: ToleranceConfig) -> bool:
    """True when the vectors span the whole space: the rank cutoff keeps
    all dim singular values (`_rank`)."""
    return _rank(f, tol) == f.dim


def is_parseval(f: Frame, tol: ToleranceConfig) -> bool:
    """True when every eigenvalue of the frame operator "equals one", that
    is, lies in the eig_one_atol band around 1 (`_band`): exactly when the
    deviation dimension (`parseval.deviation_dimension`) is 0."""
    return _band(f, tol).outside == 0


# The tolerance verdicts of each frame, decided on first use and keyed by
# the one field each reads: f -> {rank_rtol: rank}, f -> {eig_one_atol: band}.
# Frames are weak keys, so neither table keeps one alive.
_RANKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_BANDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _Band(NamedTuple):  # the eigenvalues of S against the eig_one_atol band around 1
    below: int  # how many lie below it, 1 - lambda > eig_one_atol on its two terms
    above: np.ndarray  # the indices of those above it, lambda - 1 > eig_one_atol
    outside: int  # below + above.size: the deviation dimension


def _rank(f: Frame, tol: ToleranceConfig) -> int:
    """r = #{i : sigma_i > rank_rtol * sigma_1}, once per frame and rank_rtol."""
    ranks = _RANKS.get(f) or _RANKS.setdefault(f, {})
    key = tol.rank_rtol
    if key not in ranks:
        sigma = f.svd.sigma
        ranks[key] = int(np.count_nonzero(decide(sigma, ">", tol.rank_rtol * sigma[0]).holds))
    return ranks[key]


def _band(f: Frame, tol: ToleranceConfig) -> _Band:
    """The band of f's eigenvalues, once per frame and eig_one_atol."""
    bands = _BANDS.get(f) or _BANDS.setdefault(f, {})
    key = tol.eig_one_atol
    if key not in bands:
        lam, half_width = f.eigenvalues, tol.eig_one_atol
        below = int(np.count_nonzero(decide(1.0, ">", half_width, minus=lam).holds))
        above = np.flatnonzero(decide(lam, ">", half_width, minus=1.0).holds)
        bands[key] = _Band(below, above, below + above.size)
    return bands[key]


def excess(f: Frame, tol: ToleranceConfig) -> ExcessReport:
    """Number of vectors beyond a minimal spanning set.

    Computed as n - rank(analysis matrix), the dimension of the
    synthesis kernel; the singular values backing the rank decision are
    returned (zero-padded to length n) so the verdict is auditable.
    """
    if not is_frame(f, tol):
        raise NotAFrameError("excess is defined for frames only")
    s = f.svd.sigma
    padded = np.zeros(f.n)
    padded[: s.size] = s
    return ExcessReport(excess=f.n - f.dim, rank=f.dim,
                        singular_values=padded.tolist(),
                        tolerance_used=tol.rank_rtol)


def _range_basis(f: Frame, tol: ToleranceConfig) -> np.ndarray:
    """The columns of the cached P that the rank cutoff keeps."""
    return f.svd.p[:, :_rank(f, tol)]


def _analysis_frame(m: np.ndarray, field: str | None = None) -> Frame:
    """The frame whose analysis matrix is the 2-d array m, so that a rank
    or range basis of m is read from that frame's cached SVD under the
    rank rule (`is_frame`, `_range_basis`).  Its field is complex when m
    is, unless given.  Building it refuses a non-finite m
    (`FramekitError`), so callers build it before any other numerics."""
    if field is None:
        field = COMPLEX if np.iscomplexobj(m) else REAL
    return Frame(dim=m.shape[1], field=field, vectors=m.conj())


def kernel_of_synthesis(f: Frame, tol: ToleranceConfig) -> np.ndarray:
    """Orthonormal basis of the synthesis kernel, i.e. the coefficient
    sequences c with sum c_k f_k = 0 (the orthogonal complement of the
    analysis range), as the columns of an (n, n - rank) array.

    The columns of the cached P below the rank cutoff come first, then
    `Frame.range_complement`, which is computed once per frame whatever
    the tolerance.  When every column of P clears the cutoff (for a
    frame, rank = dim) the result is that read-only cached array itself,
    not a copy: copy it before writing to it.  Columns are phase-fixed so
    repeated runs return identical vectors.
    """
    p, r = f.svd.p, _rank(f, tol)
    if r == p.shape[1]:
        return f.range_complement
    return np.hstack([fix_phase(p[:, r:]), f.range_complement])


def excess_from_norms(f: Frame, tol: ToleranceConfig) -> float:
    """sum_k (1 - ||f_k||^2); for a Parseval frame this equals the excess,
    reading the redundancy straight off the vector norms."""
    if not is_parseval(f, tol):
        raise NotParsevalError("norm-based excess needs a Parseval frame")
    norms_sq = np.sum(np.abs(f.vectors) ** 2, axis=1)
    return float(np.sum(1.0 - norms_sq))
