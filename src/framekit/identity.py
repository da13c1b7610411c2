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

`nu_minus_global` minimizes nu_minus(J) over all 2^n subsets in two
steps.  A screen reads nu_minus(J) = 3/4 + min (t - 1/2)^2 off the
eigenvalues t of S_J, on the 2^(n-1) subsets without index n (since
nu_minus(J) = nu_minus(J^c)).  A certify step evaluates M_J itself on
the subsets that screen near the minimum, and on their complements,
with a window that covers rounding and the frame's distance from
Parseval, e = max |lambda_i(S) - 1|.  The result is the exhaustive
minimum and its first minimizer in binary-counter order, exactly as if
every M_J had been evaluated.

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
from .linalg import fix_phase, inexact, orthonormal_nullspace

GLOBAL_SWEEP_LIMIT = 20
# The global sweep screens S_J as low[a] + high[b]: `low` holds the
# partial frame operators over the first _LOW_BITS indices.
_LOW_BITS = 14
# Rounding allowance of the certify window, in units of d * n * eps.
_ROUNDING = 16


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
    x = inexact(x).reshape(-1)
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
    """Minimize nu_minus(J) over all 2^n subsets J, exhaustively.

    The value and the witness are those of an evaluation of every
    eigvalsh(M_J): the minimum, and the first minimizer in binary-counter
    order (bit k - 1 of the counter is index k).  Two steps reach them:

    * Screen.  For a Parseval frame S_{J^c} = I - S_J, so
      nu_minus(J) = 3/4 + min over t in spec(S_J) of (t - 1/2)^2 and
      nu_minus(J) = nu_minus(J^c).  Only the 2^(n-1) subsets without
      index n are screened, from the eigenvalues of S_J alone (real
      arithmetic for a real frame, as in every step).  S_J is low[a] + high[b], two
      subset-sum tables over the first _LOW_BITS indices and over the
      rest below n.
    * Certify.  With e = max |lambda_i(S) - 1|, S = I + E and
      ||I - S_J|| <= 1 + e, so M_J differs from S_J + (I - S_J)^2 by at
      most delta = 2e(1 + e) + e^2.  Rounding in either evaluation is
      allowed _ROUNDING * d * n * eps: an entry of S_J or M_J sums up
      to n terms of size at most about 1, and a d x d error matrix has
      norm at most d times its largest entry.  Every exact minimizer
      therefore screens within 2(delta + rounding) of the best screened
      value.  Those subsets and their complements are evaluated with
      the exact M_J arithmetic of `_exact_nu_minus`, which decides the
      value and the tie.

    Refuses instances beyond GLOBAL_SWEEP_LIMIT vectors.
    """
    if not is_parseval(f, tol):
        raise NotParsevalError("nu bounds are stated for Parseval frames")
    n, d = f.n, f.dim
    if n > GLOBAL_SWEEP_LIMIT:
        raise TooLargeError(
            f"exhaustive sweep limited to {GLOBAL_SWEEP_LIMIT} vectors, got {n}")
    outer = np.einsum("ki,kj->kij", f.vectors, np.conj(f.vectors))
    low_bits = min(_LOW_BITS, n - 1)
    low = _subset_sums(outer[:low_bits])
    high = _subset_sums(outer[low_bits:n - 1])
    screen = np.empty((len(high), len(low)))
    for b, s_high in enumerate(high):
        t = np.linalg.eigvalsh(low + s_high)
        screen[b] = np.min(np.abs(t - 0.5), axis=1)
    screen = 0.75 + screen.reshape(-1) ** 2
    e = float(np.max(np.abs(f.eigenvalues - 1.0)))
    delta = 2.0 * e * (1.0 + e) + e * e
    rounding = _ROUNDING * d * n * np.finfo(np.float64).eps
    near = np.flatnonzero(screen <= screen.min() + 2.0 * (delta + rounding))
    codes = np.union1d(near, near ^ ((1 << n) - 1))
    values = _exact_nu_minus(outer, codes)
    k = int(np.argmin(values))
    members = tuple(i + 1 for i in range(n) if (int(codes[k]) >> i) & 1)
    return float(values[k]), IndexSet(members=members, n=n)


def _subset_sums(outer: np.ndarray) -> np.ndarray:
    """Partial frame operators over every subset of the given outer
    products, indexed by their binary-counter code."""
    sums = np.zeros((1,) + outer.shape[1:], dtype=outer.dtype)
    for term in outer:
        sums = np.concatenate([sums, sums + term])
    return sums


def _exact_nu_minus(outer: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of M_J = S_J + S_{J^c}^2 for each subset code,
    from the n outer products f_k f_k^* and a batched eigvalsh of M_J, in
    batches no larger than the screen's (exact ties can certify all
    2^n subsets)."""
    n, d = outer.shape[:2]
    s_total = outer.sum(axis=0)
    flat = outer.reshape(n, d * d)
    bit_positions = np.arange(n, dtype=np.int64)
    mins = []
    for start in range(0, len(codes), 1 << _LOW_BITS):
        chunk = codes[start:start + (1 << _LOW_BITS)]
        picks = ((chunk[:, None] >> bit_positions) & 1).astype(np.float64)
        s_in = (picks @ flat).reshape(-1, d, d)
        s_out = s_total - s_in
        mins.append(np.linalg.eigvalsh(s_in + s_out @ s_out)[:, 0])
    return np.concatenate(mins)


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
    alpha = inexact(alpha).reshape(-1)
    m = alpha.shape[0]
    if m < 2:
        raise BadParametersError("need at least two coefficients")
    if not np.all(np.isfinite(alpha)):
        raise BadParametersError("coefficients must be finite")
    if np.any(alpha == 0.0):
        raise ZeroEntryError("every coefficient must be nonzero")
    norm = float(np.linalg.norm(alpha))
    if abs(norm - 1.0) > tol.atol:
        raise NotUnitError(f"coefficient vector must have unit norm, got {norm!r}")
    field = REAL if np.all(alpha.imag == 0.0) else COMPLEX
    hyperplane = orthonormal_nullspace(np.conj(alpha)[None, :], tol.rank_rtol)
    return derived_frame(field, np.conj(hyperplane), tol)
