"""The fundamental identity for Parseval frames and its spectral bounds.

For a Parseval frame (f_k) and any index subset J, the quantity

    q_J(x) = sum_{k in J} |<x, f_k>|^2  +  || sum_{k not in J} <x, f_k> f_k ||^2

equals its mirrored form with J and its complement exchanged, for every
x.  Normalized over unit vectors, q_J is the quadratic form of the
Hermitian matrix M_J = S_J + S_{J^c}^2 (S_J being the partial frame
operator over J), so its infimum and supremum nu_minus(J), nu_plus(J)
are extreme eigenvalues.  For Parseval frames S_{J^c} = I - S_J, hence
the spectrum of M_J is {t + (1-t)^2 : t eigenvalue of S_J} and always
lies in [3/4, 1].

When the frame has small norm deficits past some threshold n_0 (the
tail sum of 1 - ||f_k||^2 is below eps), every J containing {1..n_0}
pushes nu_minus(J) above 1 - eps; `tail_threshold` and
`verify_tail_bound` quantify and check this.  `projected_basis_frame`
builds the classic unit-excess example -- an orthonormal basis
projected onto the hyperplane orthogonal to a unit coefficient vector
-- on which all of these quantities are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .errors import (
    BadParametersError,
    DimensionMismatchError,
    NotParsevalError,
    NotUnitError,
    PrefixNotContainedError,
    TooLargeError,
    ZeroEntryError,
    ZeroVectorError,
)
from .frames import (
    Frame,
    REAL,
    COMPLEX,
    ToleranceConfig,
    analysis_matrix,
    derived_frame,
    is_parseval,
    synthesis_matrix,
)
from .linalg import fix_phase, orthonormal_nullspace

GLOBAL_SWEEP_LIMIT = 20
_SWEEP_CHUNK = 1 << 14


@dataclass(frozen=True)
class IndexSet:
    """A subset of the 1-based vector indices {1, ..., n}."""

    members: Tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BadParametersError("index universe must be nonempty")
        members = tuple(sorted(set(int(k) for k in self.members)))
        if members and not (1 <= members[0] and members[-1] <= self.n):
            raise BadParametersError(
                f"indices must lie in 1..{self.n}, got {members}")
        object.__setattr__(self, "members", members)

    @classmethod
    def from_iterable(cls, members: Iterable[int], n: int) -> "IndexSet":
        return cls(members=tuple(members), n=n)

    def complement(self) -> "IndexSet":
        missing = tuple(k for k in range(1, self.n + 1) if k not in set(self.members))
        return IndexSet(members=missing, n=self.n)

    def mask(self) -> np.ndarray:
        """Boolean membership mask over 0-based positions."""
        m = np.zeros(self.n, dtype=bool)
        for k in self.members:
            m[k - 1] = True
        return m


@dataclass(frozen=True)
class NuBounds:
    """Extremal values of the normalized subset quantity, with the unit
    eigenvectors attaining them."""

    nu_minus: float
    nu_plus: float
    argmin_vector: np.ndarray
    argmax_vector: np.ndarray


def _check_universe(f: Frame, j: IndexSet) -> None:
    if j.n != f.n:
        raise DimensionMismatchError(
            f"index set over 1..{j.n} does not match a frame of {f.n} vectors")


def identity_sides(f: Frame, j: IndexSet, x: np.ndarray,
                   tol: ToleranceConfig) -> Tuple[float, float]:
    """Evaluate both sides of the identity at x: (J-form, mirrored form).

    For a Parseval frame the two agree up to rounding for every x; the
    pair is returned so the residual can be inspected directly.
    """
    if not is_parseval(f, tol):
        raise NotParsevalError("the identity is stated for Parseval frames")
    _check_universe(f, j)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != f.dim:
        raise DimensionMismatchError(f"x must have length {f.dim}")
    if not np.linalg.norm(x) > 0.0:
        raise ZeroVectorError("x must be nonzero")
    coeff = analysis_matrix(f) @ x
    syn = synthesis_matrix(f)
    mask = j.mask()
    inside = float(np.sum(np.abs(coeff[mask]) ** 2))
    outside = float(np.sum(np.abs(coeff[~mask]) ** 2))
    tail_out = float(np.linalg.norm(syn @ np.where(~mask, coeff, 0.0)) ** 2)
    tail_in = float(np.linalg.norm(syn @ np.where(mask, coeff, 0.0)) ** 2)
    return inside + tail_out, outside + tail_in


def quantity_matrix(f: Frame, j: IndexSet) -> np.ndarray:
    """Hermitian matrix M_J = S_J + S_{J^c}^2 whose quadratic form is the
    subset quantity q_J; its extreme eigenvalues are the nu bounds."""
    _check_universe(f, j)
    u = analysis_matrix(f)
    mask = j.mask()
    u_in = u[mask]
    u_out = u[~mask]
    s_in = np.conj(u_in).T @ u_in
    s_out = np.conj(u_out).T @ u_out
    return s_in + s_out @ s_out


def nu_bounds(f: Frame, j: IndexSet, tol: ToleranceConfig) -> NuBounds:
    """Extremal normalized subset quantities nu_minus(J) <= nu_plus(J),
    computed as the extreme eigenvalues of the quantity matrix, with
    attaining unit vectors."""
    if not is_parseval(f, tol):
        raise NotParsevalError("nu bounds are stated for Parseval frames")
    lam, vecs = np.linalg.eigh(quantity_matrix(f, j))
    return NuBounds(nu_minus=float(lam[0]), nu_plus=float(lam[-1]),
                    argmin_vector=fix_phase(vecs[:, 0]),
                    argmax_vector=fix_phase(vecs[:, -1]))


def nu_minus_global(f: Frame, tol: ToleranceConfig) -> Tuple[float, IndexSet]:
    """Minimize nu_minus(J) over all 2^n subsets J (exhaustively).

    Subsets are swept in binary-counter order and ties keep the first
    minimizer, so the reported witness is deterministic.  Refuses
    instances beyond GLOBAL_SWEEP_LIMIT vectors.
    """
    if not is_parseval(f, tol):
        raise NotParsevalError("nu bounds are stated for Parseval frames")
    n, d = f.n, f.dim
    if n > GLOBAL_SWEEP_LIMIT:
        raise TooLargeError(
            f"exhaustive sweep limited to {GLOBAL_SWEEP_LIMIT} vectors, got {n}")
    outer = np.einsum("ki,kj->kij", f.vectors, np.conj(f.vectors))
    s_total = outer.sum(axis=0)
    flat = outer.reshape(n, d * d)
    bit_positions = np.arange(n, dtype=np.int64)
    best_val = np.inf
    best_code = 0
    for start in range(0, 1 << n, _SWEEP_CHUNK):
        codes = np.arange(start, min(start + _SWEEP_CHUNK, 1 << n), dtype=np.int64)
        picks = ((codes[:, None] >> bit_positions) & 1).astype(np.float64)
        s_in = (picks @ flat).reshape(-1, d, d)
        s_out = s_total - s_in
        m = s_in + s_out @ s_out
        mins = np.linalg.eigvalsh(m)[:, 0]
        k = int(np.argmin(mins))
        if mins[k] < best_val:
            best_val = float(mins[k])
            best_code = int(codes[k])
    members = tuple(k + 1 for k in range(n) if (best_code >> k) & 1)
    return best_val, IndexSet(members=members, n=n)


def tail_threshold(f: Frame, eps: float, tol: ToleranceConfig) -> int:
    """Smallest n0 with sum_{k > n0} (1 - ||f_k||^2) < eps.

    Always lands in {0, ..., n}: the empty tail sums to 0.  A frame of
    unit-norm vectors returns 0 for every eps.
    """
    if not 0.0 < eps < np.inf:
        raise BadParametersError(f"eps must be positive and finite, got {eps!r}")
    if not is_parseval(f, tol):
        raise NotParsevalError("tail threshold is stated for Parseval frames")
    deficits = 1.0 - np.sum(np.abs(f.vectors) ** 2, axis=1)
    tails = np.concatenate([np.cumsum(deficits[::-1])[::-1], [0.0]])
    for n0, tail in enumerate(tails):
        if tail < eps:
            return n0
    return f.n


def verify_tail_bound(f: Frame, eps: float, j: IndexSet,
                      tol: ToleranceConfig) -> bool:
    """Check the tail lower bound for one admissible J.

    J must contain the leading {1..n0} indices; the claim is that both
    nu_minus(J) and the mirrored nu_minus (on the complement) exceed
    1 - eps.  The returned flag should always be true when the
    precondition holds.
    """
    _check_universe(f, j)
    n0 = tail_threshold(f, eps, tol)
    if not set(range(1, n0 + 1)) <= set(j.members):
        raise PrefixNotContainedError(
            f"index set must contain 1..{n0} for eps={eps!r}")
    bound = 1.0 - eps
    direct = nu_bounds(f, j, tol).nu_minus
    mirrored = nu_bounds(f, j.complement(), tol).nu_minus
    return direct > bound and mirrored > bound


def projected_basis_frame(alpha: np.ndarray, tol: ToleranceConfig) -> Frame:
    """Orthonormal basis projected off a unit coefficient vector.

    For a unit vector a with all entries nonzero, project each basis
    vector e_k onto the hyperplane {x : <x, a> = 0} and express the
    result in an orthonormal coordinate system of that hyperplane.  The
    outcome is a Parseval frame of m vectors in dimension m - 1 with
    ||f_k||^2 = 1 - |alpha_k|^2 and excess exactly 1; its norm deficits
    sum to 1, making it the canonical worked example for the tail
    bounds above.
    """
    alpha = np.asarray(alpha, dtype=np.complex128).reshape(-1)
    m = alpha.shape[0]
    if m < 2:
        raise BadParametersError("need at least two coefficients")
    if not np.all(np.isfinite(alpha.real)) or not np.all(np.isfinite(alpha.imag)):
        raise BadParametersError("coefficients must be finite")
    if np.any(alpha == 0.0):
        raise ZeroEntryError("every coefficient must be nonzero")
    norm = float(np.linalg.norm(alpha))
    if abs(norm - 1.0) > tol.atol:
        raise NotUnitError(f"coefficient vector must have unit norm, got {norm!r}")
    field = REAL if np.all(alpha.imag == 0.0) else COMPLEX
    hyperplane = orthonormal_nullspace(np.conj(alpha)[None, :], tol.rank_rtol)
    return derived_frame(field, np.conj(hyperplane), tol)
