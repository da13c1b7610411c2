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
R and eigenvalues Sigma^2, and P spans the analysis range.

The number of vectors beyond a minimal spanning set -- the dimension
of the synthesis kernel, n - rank -- is called the excess and is the
quantity most of the higher-level results in this package revolve
around.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple

import numpy as np

from .errors import (
    BadParametersError,
    DimensionMismatchError,
    FramekitError,
    NotAFrameError,
    NotParsevalError,
)
from .linalg import adjoint, fix_phase, rank_from_singular_values

REAL = "real"
COMPLEX = "complex"
FIELD_DTYPES = {REAL: np.float64, COMPLEX: np.complex128}


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical knobs shared by every predicate in the package.

    Every decision about a frame reads the singular values
    sigma_1 >= ... of its analysis matrix U (the cached `Frame.svd`):

    * rank r = #{i : sigma_i > rank_rtol * sigma_1}; the vectors span
      (`is_frame`) exactly when r = dim, and the excess is n - r; being
      relative to sigma_1, neither verdict changes when f is scaled;
    * the eigenvalues lambda_i of S, zero-padded to dim, are read off
      the same SVD (`Frame.eigenvalues`); an eigenvalue "equals one"
      when |lambda_i - 1| <= eig_one_atol, and the frame is Parseval
      when all lie within atol of 1.

    Parameters
    ----------
    rank_rtol : float
        Relative singular-value cutoff for rank decisions: singular
        values above ``rank_rtol * sigma_max`` count toward the rank.
    atol : float
        Absolute tolerance for operator-norm and vector comparisons.
    eig_one_atol : float
        Half-width of the band around 1 inside which a frame-operator
        eigenvalue is classified as "equal to one".
    """

    rank_rtol: float = 1e-10
    atol: float = 1e-8
    eig_one_atol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rtol", "atol", "eig_one_atol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise BadParametersError(
                    f"{name} must lie strictly between 0 and 1, got {value!r}")


class ThinSVD(NamedTuple):
    """U = p @ diag(sigma) @ rh, with the min(n, d) singular values of the
    (n, d) analysis matrix U in descending order; tolerance-free."""

    p: np.ndarray
    sigma: np.ndarray
    rh: np.ndarray  # R*: its conjugated rows are eigenvectors of S


@dataclass(frozen=True, eq=False)
class Frame:
    """An ordered system of n vectors in a d-dimensional space.

    Vectors are the rows of an (n, d) float64 array for a real frame and
    complex128 for a complex one: one code path, and numpy's dtype
    dispatch runs real frames in real LAPACK/BLAS.  Zero rows are legal:
    some constructions below legitimately emit the zero vector.
    """

    dim: int
    field: str
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if self.field not in FIELD_DTYPES:
            raise FramekitError(f"unknown scalar field {self.field!r}")
        arr = np.asarray(self.vectors)
        if self.field == REAL and np.iscomplexobj(arr):
            if np.any(arr.imag != 0.0):
                raise FramekitError("real-field frame carries nonzero imaginary parts")
            arr = arr.real
        arr = np.array(arr, dtype=FIELD_DTYPES[self.field])
        if arr.ndim != 2:
            raise DimensionMismatchError("vectors must form a 2-d array of rows")
        n, d = arr.shape
        if n < 1:
            raise FramekitError("a frame needs at least one vector")
        if self.dim < 1 or d != self.dim:
            raise DimensionMismatchError(
                f"expected rows of length {self.dim}, got {d}")
        if not np.all(np.isfinite(arr)):
            raise FramekitError("frame entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

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
        lam[: ur.shape[1]] = np.sum(ur.real ** 2 + ur.imag ** 2, axis=0)
        lam.setflags(write=False)
        return lam


def derived_frame(field: str, vectors: np.ndarray, tol: ToleranceConfig) -> Frame:
    """Package vectors produced by an operation as a frame over `field`.

    On a real frame the operations run in real arithmetic, but complex
    operands (a complex free operator or transform, say) give complex
    results.  For a real field those carry imaginary parts that should
    be rounding dust: the dust is checked against atol and stripped.
    """
    arr = np.asarray(vectors)
    if field == REAL and np.iscomplexobj(arr):
        dust = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
        if dust > tol.atol:
            raise FramekitError(
                f"operation on real-field data produced imaginary parts of size {dust:.3e}")
        arr = arr.real
    return Frame(dim=arr.shape[1], field=field, vectors=arr)


@dataclass(frozen=True)
class FrameBounds:
    """Optimal constants A, B in A||x||^2 <= sum |<x,f_k>|^2 <= B||x||^2."""

    a_opt: float
    b_opt: float


@dataclass(frozen=True)
class ExcessReport:
    """Excess of a frame together with the rank evidence behind it."""

    excess: int
    rank: int
    singular_values: List[float]
    tolerance_used: float


def analysis_matrix(f: Frame) -> np.ndarray:
    """Matrix of x -> (<x, f_k>)_k: one conjugated vector per row (n x d)."""
    return np.conj(f.vectors)


def synthesis_matrix(f: Frame) -> np.ndarray:
    """Matrix of (c_k) -> sum c_k f_k: the conjugate transpose of the
    analysis matrix (d x n); its columns are the frame vectors."""
    return adjoint(analysis_matrix(f))


def frame_operator(f: Frame) -> np.ndarray:
    """S = (synthesis)(analysis) = sum_k f_k f_k^*; Hermitian PSD, d x d."""
    u = analysis_matrix(f)
    return adjoint(u) @ u


def gram_matrix(f: Frame) -> np.ndarray:
    """n x n matrix with (j, k) entry <f_k, f_j>; for a Parseval frame this
    is the orthogonal projection onto the range of the analysis operator."""
    u = analysis_matrix(f)
    return u @ adjoint(u)


def frame_bounds(f: Frame) -> FrameBounds:
    """Extreme eigenvalues of the frame operator; a_opt = 0 signals that
    the system does not span."""
    lam = f.eigenvalues
    return FrameBounds(a_opt=float(lam.min()), b_opt=float(lam.max()))


def is_frame(f: Frame, tol: ToleranceConfig) -> bool:
    """True when the vectors span the whole space: the rank cutoff keeps
    all dim singular values."""
    return rank_from_singular_values(f.svd.sigma, tol.rank_rtol) == f.dim


def is_parseval(f: Frame, tol: ToleranceConfig) -> bool:
    """True when the frame operator is the identity within atol."""
    return float(np.max(np.abs(f.eigenvalues - 1.0))) <= tol.atol


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
                        singular_values=[float(v) for v in padded],
                        tolerance_used=tol.rank_rtol)


def kernel_of_synthesis(f: Frame, tol: ToleranceConfig) -> np.ndarray:
    """Orthonormal basis of the synthesis kernel, i.e. the coefficient
    sequences c with sum c_k f_k = 0 (the orthogonal complement of the
    analysis range), as the columns of an (n, n - rank) array: one QR
    completes the range basis of the cached SVD to a unitary.  Columns
    are phase-fixed so repeated runs return identical vectors."""
    r = rank_from_singular_values(f.svd.sigma, tol.rank_rtol)
    q, _ = np.linalg.qr(f.svd.p[:, :r], mode="complete")
    return fix_phase(q[:, r:])


def excess_from_norms(f: Frame, tol: ToleranceConfig) -> float:
    """sum_k (1 - ||f_k||^2); for a Parseval frame this equals the excess,
    reading the redundancy straight off the vector norms."""
    if not is_parseval(f, tol):
        raise NotParsevalError("norm-based excess needs a Parseval frame")
    norms_sq = np.sum(np.abs(f.vectors) ** 2, axis=1)
    return float(np.sum(1.0 - norms_sq))
