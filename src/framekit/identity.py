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

`nu_minus_global` minimizes nu_minus(J) over all 2^n subsets.  A screen
reads nu_minus(J) = 3/4 + min (t - 1/2)^2 off the eigenvalues t of S_J,
on the 2^(n-1) subsets without index n (since nu_minus(J) =
nu_minus(J^c)).  Before it, a determinant bound,
min |t - 1/2| >= |det(S_J - I/2)| / (1/2 + e)^(d-1) with
e = max |lambda_i(S) - 1| the frame's distance from Parseval, rules out
the subsets that cannot screen near the minimum, so the screen solves a
few dozen eigenvalue problems, not 2^(n-1).  A certify step evaluates
M_J itself on the subsets that screen near the minimum, and on their
complements, with a window that covers rounding and e.  The result is
the exhaustive minimum and its first minimizer in binary-counter order,
exactly as if every M_J had been evaluated.

When the frame has small norm deficits past some threshold n_0 (the
tail sum of 1 - ||f_k||^2 is below eps), every J containing {1..n_0}
pushes nu_minus(J) above 1 - eps; `tail_threshold` and
`verify_tail_bound` quantify and check this.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from .errors import (
    BadParametersError,
    DimensionMismatchError,
    NotParsevalError,
    PrefixNotContainedError,
    TooLargeError,
    ZeroVectorError,
)
from .frames import (
    Frame,
    ToleranceConfig,
    analysis_matrix,
    is_parseval,
)
from .linalg import fix_phase, inexact

GLOBAL_SWEEP_LIMIT = 20
# The global sweep screens S_J as low[a] + high[b]: `low` holds the
# partial frame operators over the first _LOW_BITS indices.
_LOW_BITS = 14
# Rounding allowance of the certify window, in units of d * n * eps.
_ROUNDING = 16
# Rounding allowance of the determinant bound, in units of d^2 * n * eps.
_DET_ROUNDING = 64
# Subsets per block of the determinant bound.
_DET_BLOCK = 1 << 13


@dataclass(frozen=True)
class IndexSet:
    """A subset of the 1-based vector indices {1, ..., n}."""

    members: Tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        try:
            n = operator.index(self.n)
            members = tuple(sorted(set(operator.index(k) for k in self.members)))
        except TypeError as exc:
            raise BadParametersError(
                f"indices must be integers, got {self.members!r} over {self.n!r}"
            ) from exc
        if n < 1:
            raise BadParametersError("index universe must be nonempty")
        if members and not (1 <= members[0] and members[-1] <= n):
            raise BadParametersError(
                f"indices must lie in 1..{n}, got {members}")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_iterable(cls, members: Iterable[int], n: int) -> "IndexSet":
        return cls(members=tuple(members), n=n)

    def complement(self) -> "IndexSet":
        members = set(self.members)
        missing = tuple(k for k in range(1, self.n + 1) if k not in members)
        return IndexSet(members=missing, n=self.n)

    def mask(self) -> np.ndarray:
        """Boolean membership mask over 0-based positions."""
        m = np.zeros(self.n + 1, dtype=bool)  # indexed by the 1-based members
        m[list(self.members)] = True
        return m[1:]


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


def identity_sides(f: Frame, j: IndexSet, x: np.ndarray, tol: ToleranceConfig
                   ) -> Tuple[float, float] | Tuple[np.ndarray, np.ndarray]:
    """Evaluate both sides of the identity at x: (J-form, mirrored form).

    x is one nonzero vector of length dim, giving two floats, or a
    (k, dim) stack of them, one per row, giving two length-k arrays.
    For a Parseval frame the two sides agree up to rounding for every x;
    the pair is returned so the residual can be inspected directly.
    """
    if not is_parseval(f, tol):
        raise NotParsevalError("the identity is stated for Parseval frames")
    _check_universe(f, j)
    x = inexact(x)
    if x.ndim not in (1, 2) or x.shape[-1] != f.dim:
        raise DimensionMismatchError(f"x must have shape ({f.dim},) or (k, {f.dim})")
    norms = _norms_sq(x)
    if not (norms > 0.0 if x.ndim == 1 else (norms > 0.0).all()):
        raise ZeroVectorError("x must be nonzero")
    coeff = np.dot(x, analysis_matrix(f).T)
    c_in = np.where(j.mask(), coeff, 0.0)
    c_out = np.subtract(coeff, c_in, out=coeff)
    lhs = _norms_sq(c_in) + _norms_sq(np.dot(c_out, f.vectors))
    rhs = _norms_sq(c_out) + _norms_sq(np.dot(c_in, f.vectors))
    return (float(lhs), float(rhs)) if x.ndim == 1 else (lhs, rhs)


def _norms_sq(v: np.ndarray):
    """Squared Euclidean norm of one vector, or of each row of a stack."""
    if v.ndim == 1:
        return np.vdot(v, v).real
    w = np.ascontiguousarray(v).view(v.real.dtype)  # no conjugate copy
    return np.einsum("ij,ij->i", w, w)


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
    order (bit k - 1 of the counter is index k).  Three steps reach them:

    * Screen.  For a Parseval frame S_{J^c} = I - S_J, so
      nu_minus(J) = 3/4 + min over t in spec(S_J) of (t - 1/2)^2 and
      nu_minus(J) = nu_minus(J^c).  Only the 2^(n-1) subsets without
      index n are screened, from the eigenvalues of S_J alone (real
      arithmetic for a real frame, as in every step).  S_J is
      low[a] + high[b], two subset-sum tables over the first _LOW_BITS
      indices and over the rest below n, kept as entry planes: one row
      per entry of the lower triangle, the one eigvalsh reads.
    * Prune.  The screen's eigvalsh runs only where a cheaper bound
      cannot rule a subset out.  Let e = max |lambda_i(S) - 1|.  S_J
      and S - S_J = S_{J^c} are positive semidefinite and
      S <= (1 + e)I, so every eigenvalue t of S_J has
      |t - 1/2| <= 1/2 + e.  As |det(S_J - I/2)| is the product of the
      |t - 1/2|,

          min |t - 1/2| >= |det(S_J - I/2)| / (1/2 + e)^(d - 1).

      `_half_gap_bound` evaluates this and lowers it by
      eta = _DET_ROUNDING * d^2 * n * eps.  With H = S_J - I/2,
      m = min |t - 1/2| and R = max |t - 1/2|, the computed det is
      det(H + F), F the rounding of the 1/2 shift and of the det
      itself, plus an evaluation error, and by Weyl's inequality for
      singular values |det(H + F)| <= (m + ||F||) (R + ||F||)^(d - 1).
      For d >= 6 numpy's batched det, LU with partial pivoting, has no
      evaluation error and ||F|| of order d^2 eps for entries of size
      at most 1.  For d <= 5 `_shifted_det` expands in minors.  It reads
      H off the lower triangle, the upper one as its conjugate and the
      diagonal as real, so H is exactly Hermitian and F is the shift's
      rounding alone, of order eps.  Each term of det(H + F), a product
      of d entries, passes d - 1 multiplications and at most
      d (d - 1) / 2 additions, each rounded by at most eps/2 relative,
      a complex product by at most sqrt(2) eps (Higham, Lemma 3.5).  So
      the computed value strays from det(H + F) by at most about
      c d eps per(|H|), with c = (d - 1)(d + 2) / (4d) <= 1.4 for real
      and c = (d - 1)(sqrt(2) + d/4) / d <= 2.2 for complex entries
      (d <= 5).  As per(|H|) <= prod_i ||row_i||_1 <= (sqrt(d) R)^d,
      after the division by (1/2 + e)^(d - 1) that is about
      c d^(d/2 + 1) eps R: 280c eps R at d = 5, against
      eta >= 8,000 eps.  The ratio eta / (c d^(d/2 + 1) eps) is
      64 n / (c d^(d/2 - 1)); with n >= d and the complex c it is 13 at
      d = 5, 4.4 at d = 6, 1.3 at d = 7 and below 1 from d = 8, while
      the products double with each d, so the expansion stops at d = 5.
      Per matrix, in stacks of _DET_BLOCK on one BLAS thread, it costs
      about 1-130 ns real and 2-220 ns complex for d = 1-5, against
      70-630 and 140-1060 ns for the LAPACK det.  The
      computed S_J and e stray from exact ones by order d n eps, so R
      may pass 1/2 + e by that much, which costs up to d - 1 times as
      much in the bound.  eigvalsh's own error is of order d eps.
      Every term is at most of order d^2 n eps (n >= d), so
      3/4 + max(bound, 0)^2 is at most the screened value.  The subset
      with the smallest bound in each high row is screened; the least
      of those values, U, is at least the screen minimum.  Then only
      the subsets whose
      3/4 + max(bound, 0)^2 is at most U + 2(delta + rounding), the
      certify window below, are screened.  They hold every subset that
      screens within the window of the minimum, so the near set, and
      with it the result, is that of a screen of all 2^(n-1) subsets.
      The dets run in blocks of _DET_BLOCK matrices and the eigvalsh in
      chunks of 2^_LOW_BITS, so neither makes a large temporary.
    * Certify.  With S = I + E, ||I - S_J|| <= 1 + e, so M_J differs
      from S_J + (I - S_J)^2 by at most delta = 2e(1 + e) + e^2.
      Rounding in either evaluation is allowed _ROUNDING * d * n * eps:
      an entry of S_J or M_J sums up to n terms of size at most about
      1, and a d x d error matrix has norm at most d times its largest
      entry.  Every exact minimizer
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
    rows, cols = np.tril_indices(d)
    entries = outer[:, rows, cols]
    low_bits = min(_LOW_BITS, n - 1)
    low = _subset_sums(entries[:low_bits])
    high = _subset_sums(entries[low_bits:n - 1])
    e = f.parseval_gap
    delta = 2.0 * e * (1.0 + e) + e * e
    rounding = _ROUNDING * d * n * np.finfo(np.float64).eps
    window = 2.0 * (delta + rounding)
    bound = np.empty((high.shape[1], low.shape[1]))
    for b in range(high.shape[1]):
        for start in range(0, low.shape[1], _DET_BLOCK):
            gap = _half_gap_bound(low[:, start:start + _DET_BLOCK] + high[:, b, None],
                                  e, n)
            bound[b, start:start + _DET_BLOCK] = 0.75 + np.maximum(gap, 0.0) ** 2
    lowest = np.argmin(bound, axis=1)
    upper = _screen(low[:, lowest] + high).min()
    codes = np.flatnonzero(bound.reshape(-1) <= upper + window)
    screen = np.empty(len(codes))
    for start in range(0, len(codes), 1 << _LOW_BITS):
        chunk = codes[start:start + (1 << _LOW_BITS)]
        screen[start:start + len(chunk)] = _screen(
            low[:, chunk & ((1 << low_bits) - 1)] + high[:, chunk >> low_bits])
    near = codes[screen <= screen.min() + window]
    # near is ascending and lacks index n, so the complements, reversed,
    # follow it in ascending order (np.union1d would also load numpy.ma)
    codes = np.concatenate([near, (near ^ ((1 << n) - 1))[::-1]])
    values = _exact_nu_minus(outer, codes)
    k = int(np.argmin(values))
    members = tuple(i + 1 for i in range(n) if (int(codes[k]) >> i) & 1)
    return float(values[k]), IndexSet(members=members, n=n)


def _screen(s_j: np.ndarray) -> np.ndarray:
    """Screened value 3/4 + min (t - 1/2)^2 over the eigenvalues t of
    each S_J in an entry-plane stack (see `_subset_sums`)."""
    t = np.linalg.eigvalsh(_matrices(s_j))
    return 0.75 + np.min(np.abs(t - 0.5), axis=1) ** 2


def _half_gap_bound(s_j: np.ndarray, e: float, n: int) -> np.ndarray:
    """Lower bound on min |t - 1/2| over the eigvalsh eigenvalues t of
    each S_J in an entry-plane stack, for a frame of n vectors with
    e = max |lambda_i(S) - 1|: |det(S_J - I/2)| / (1/2 + e)^(d - 1),
    lowered by _DET_ROUNDING * d^2 * n * eps (see `nu_minus_global`).
    It may be negative."""
    d = _dim(s_j)
    det = np.abs(_shifted_det(s_j))
    eta = _DET_ROUNDING * d * d * n * np.finfo(np.float64).eps
    return det / (0.5 + e) ** (d - 1) - eta


def _shifted_det(s_j: np.ndarray) -> np.ndarray:
    """det(S_J - I/2) for each S_J in an entry-plane stack.

    For d <= 5 the expansion in minors of H = S_J - I/2 (see
    `nu_minus_global`): the minors of the bottom row are its entries,
    and each k x k minor of the bottom k rows expands along its top row
    in the (k - 1) x (k - 1) ones (d 2^(d-1) - d products, 75 at d = 5).
    For d >= 6 the LAPACK det."""
    d = _dim(s_j)
    if d > 5:
        shifted = _matrices(s_j)
        shifted[:, range(d), range(d)] -= 0.5
        return np.linalg.det(shifted)

    def h(i: int, k: int) -> np.ndarray:
        if i < k:
            return np.conj(s_j[k * (k + 1) // 2 + i])
        if i == k:
            return s_j[i * (i + 1) // 2 + i].real - 0.5
        return s_j[i * (i + 1) // 2 + k]

    minors = {(k,): h(d - 1, k) for k in range(d)}
    for i in range(d - 2, -1, -1):
        row = [h(i, k) for k in range(d)]
        expanded = {}
        for cols in itertools.combinations(range(d), d - i):
            acc = row[cols[0]] * minors[cols[1:]]
            for p in range(1, len(cols)):
                term = row[cols[p]] * minors[cols[:p] + cols[p + 1:]]
                sign = np.subtract if p % 2 else np.add
                acc = sign(acc, term, out=term)
            expanded[cols] = acc
        minors = expanded
    return minors[tuple(range(d))].real


def _dim(s_j: np.ndarray) -> int:
    """d of an entry-plane stack, which has d (d + 1) / 2 rows."""
    return int(np.sqrt(2 * len(s_j)))


def _matrices(s_j: np.ndarray) -> np.ndarray:
    """The Hermitian matrices of an entry-plane stack: its entries in the
    lower triangle, their conjugates in the upper one."""
    d = _dim(s_j)
    rows, cols = np.tril_indices(d)
    out = np.empty((d, d, s_j.shape[1]), dtype=s_j.dtype)
    out[cols, rows] = np.conj(s_j)
    out[rows, cols] = s_j
    return out.transpose(2, 0, 1)


def _subset_sums(entries: np.ndarray) -> np.ndarray:
    """Partial frame operators over every subset of the given outer
    products (rows of `entries`), as an entry-plane stack: row
    i (i + 1) / 2 + k holds entry (i, k), i >= k, column c the subset
    with binary-counter code c.  Code c + 2^t is code c plus term t, so
    the table doubles in place and sums each entry in index order."""
    sums = np.empty((entries.shape[1], 1 << len(entries)), dtype=entries.dtype)
    sums[:, 0] = 0.0
    for t, term in enumerate(entries):
        np.add(sums[:, :1 << t], term[:, None], out=sums[:, 1 << t:2 << t])
    return sums


def _partial_operators(outer: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """S_J for each subset code, from the n outer products f_k f_k^*.

    einsum, not a matrix product: BLAS may round a row differently in a
    different batch, and the certify step needs bits that do not depend
    on which codes share its batch."""
    n, d = outer.shape[:2]
    picks = ((codes[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(np.float64)
    return np.einsum("bk,kx->bx", picks, outer.reshape(n, d * d)).reshape(-1, d, d)


def _exact_nu_minus(outer: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of M_J = S_J + S_{J^c}^2 for each subset code,
    from the n outer products f_k f_k^* and a batched eigvalsh of M_J, in
    batches no larger than the screen's (exact ties can certify all
    2^n subsets)."""
    s_total = outer.sum(axis=0)
    mins = []
    for start in range(0, len(codes), 1 << _LOW_BITS):
        s_in = _partial_operators(outer, codes[start:start + (1 << _LOW_BITS)])
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
