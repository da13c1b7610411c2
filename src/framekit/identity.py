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

import functools
import itertools
import math
import operator
from typing import Iterable, NamedTuple, Optional, Tuple

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
    Decision,
    Frame,
    ToleranceConfig,
    _EPS,
    analysis_matrix,
    decide,
    is_parseval,
)
from .linalg import fix_phase, inexact

GLOBAL_SWEEP_LIMIT = 20
# Matrices per eigvalsh call of the screen and of the certify step.
_CHUNK = 1 << 14
# Rounding allowance of the certify window, in units of d * n * eps.
_ROUNDING = 16
# Rounding allowance of the determinant bound, in units of d^2 * n * eps.
_DET_ROUNDING = 64
# The determinant bound is bilinear in minors up to this d, LAPACK det
# beyond it.
_BILINEAR_MAX_DIM = 6
# Values per block of the bound table: one per subset from the matrix
# product, d^2 per subset for the matrices of the LAPACK det.
_BOUND_BLOCK = 1 << 15
# High rows whose least bound is screened for the upper bound U.
_UPPER_ROWS = 8
# Bound on k * n, the coefficients of one block of k rows in `identity_residual`.
_TRIAL_BLOCK = 1 << 15


class _IndexFields(NamedTuple):  # the fields of IndexSet, which normalises them
    members: Tuple[int, ...]
    n: int


class IndexSet(_IndexFields):
    """A subset of the 1-based vector indices {1, ..., n}, its members
    sorted and distinct."""

    __slots__ = ()

    def __new__(cls, members: Iterable[int], n: int) -> "IndexSet":
        try:
            n = operator.index(n)
            members = tuple(sorted(set(operator.index(k) for k in members)))
        except TypeError as exc:
            raise BadParametersError(
                f"indices must be integers, got {members!r} over {n!r}") from exc
        if n < 1:
            raise BadParametersError("index universe must be nonempty")
        if members and not (1 <= members[0] and members[-1] <= n):
            raise BadParametersError(
                f"indices must lie in 1..{n}, got {members}")
        return super().__new__(cls, members, n)

    @classmethod
    def _make(cls, iterable) -> "IndexSet":  # `_replace` normalises too
        return cls(*iterable)

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


class NuBounds(NamedTuple):
    """Extremal values of the normalized subset quantity, with the unit
    eigenvectors attaining them."""

    nu_minus: float
    nu_plus: float
    argmin_vector: np.ndarray
    argmax_vector: np.ndarray


class TailReport(NamedTuple):
    """The tail lower bound checked for one J: the threshold n0, J, the
    least subset quantity on J and on its complement, the bound fl(1 - eps),
    and whether both exceed 1 - eps (each 1 - nu_minus < eps, exactly)."""

    n0: int
    j: IndexSet
    nu_minus: float
    nu_minus_mirrored: float
    bound: float
    holds: bool


def _check_universe(f: Frame, j: IndexSet) -> None:
    if j.n != f.n:
        raise DimensionMismatchError(
            f"index set over 1..{j.n} does not match a frame of {f.n} vectors")


def identity_sides(f: Frame, j: IndexSet, x: np.ndarray, tol: ToleranceConfig
                   ) -> Tuple[float, float] | Tuple[np.ndarray, np.ndarray]:
    """Evaluate both sides of the identity at x: (J-form, mirrored form).

    x is one finite nonzero vector of length dim, giving two floats, or a
    (k, dim) stack of them, one per row, giving two length-k arrays; a
    squared norm that overflows counts as not finite.
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
    if not (0.0 < norms < np.inf if x.ndim == 1
            else ((0.0 < norms) & (norms < np.inf)).all()):
        if np.isfinite(norms).all():
            raise ZeroVectorError("x must be nonzero")
        raise BadParametersError("x must be finite, with a finite squared norm")
    coeff = np.dot(x, analysis_matrix(f).T)
    c_in = np.where(j.mask(), coeff, 0.0)
    c_out = np.subtract(coeff, c_in, out=coeff)
    lhs = _norms_sq(c_in) + _norms_sq(np.dot(c_out, f.vectors))
    rhs = _norms_sq(c_out) + _norms_sq(np.dot(c_in, f.vectors))
    return (float(lhs), float(rhs)) if x.ndim == 1 else (lhs, rhs)


def identity_residual(f: Frame, j: IndexSet, xs: np.ndarray,
                      tol: ToleranceConfig) -> Decision:
    """The decision max |lhs - rhs| <= atol over the rows of xs, the two
    sides coming from `identity_sides` in blocks of at most _TRIAL_BLOCK
    coefficients, so that those of all rows are never held at once."""
    xs = np.atleast_2d(xs)  # one vector is one trial, whatever the block size
    if len(xs) == 0:
        raise DimensionMismatchError("at least one trial vector is required")
    block = max(1, _TRIAL_BLOCK // f.n)
    worst = 0.0
    for start in range(0, len(xs), block):
        lhs, rhs = identity_sides(f, j, xs[start:start + block], tol)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return decide(worst, "<=", tol.atol)


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


def nu_in_range(nu_minus: float, nu_plus: Optional[float], tol: ToleranceConfig) -> bool:
    """3/4 - nu_minus <= atol and, unless nu_plus is None (for a value of
    `nu_minus_global`, a least nu_minus), nu_plus - 1 <= atol."""
    return decide(0.75, "<=", tol.atol, minus=nu_minus).holds and (
        nu_plus is None or decide(nu_plus, "<=", tol.atol, minus=1.0).holds)


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
      low[a] + high[b], two (B, d, d) stacks of partial frame operators
      over the subsets of the first n // 2 indices and of the rest
      below n.
    * Prune.  The screen's eigvalsh runs only where a cheaper bound
      cannot rule a subset out.  Let e = max |lambda_i(S) - 1|.  S_J
      and S - S_J = S_{J^c} are positive semidefinite and
      S <= (1 + e)I, so every eigenvalue t of S_J has
      |t - 1/2| <= 1/2 + e.  As |det(S_J - I/2)| is the product of the
      |t - 1/2|,

          min |t - 1/2| >= |det(S_J - I/2)| / (1/2 + e)^(d - 1).

      `_bound_table` evaluates |det(S_J - I/2)| for every subset, row b
      and column a.  For d <= 6 the determinants are one blocked real
      matrix product: with L = low[a] and C = high[b] - I/2,
      det(L + C) is bilinear in the minors of L and of C
      (`_det_features`), K = C(2d, d) terms (2, 6, 20, 70, 252 and 924
      for d = 1..6), so about K flops per subset inside BLAS, while the
      minors are formed once per half table, 2^(n/2) matrices each.
      For d >= 7 the LAPACK det (K = 3432 made the product slower).

      eta.  Let H be the computed low[a] + high[b] that eigvalsh
      screens, and m and R the least and greatest |t - 1/2| over its
      eigenvalues t.  The determinant evaluated is that of
      H - I/2 + F, F the rounding of the sum and of the shift (for
      LAPACK, also of its LU), of order d eps (d^2 eps) for entries of
      size at most 1, and by Weyl's inequality for singular values
      |det(H - I/2 + F)| <= (m + ||F||) (R + ||F||)^(d - 1).  The
      computed S_J and e stray from exact ones by order d n eps, so R
      may pass 1/2 + e by that much, which costs up to d - 1 times as
      much in the bound, and eigvalsh's own error is of order d eps;
      _DET_ROUNDING * d^2 * n * eps (n >= d) covers these terms.  The
      LAPACK det has no evaluation error beyond F.  The bilinear sum
      has: each of the d! terms of det(L + C) reaches it through at
      most N = K + 3(d - 1) + d (d - 1) / 2 roundings
      (`_product_roundings`): the minors' products and sums, and the
      K-term inner product, a complex product counting 3 (it is off
      by at most sqrt(2) gamma_2 relative, Higham, Lemma 3.5).  So it
      strays from det(L + C) by at most
      gamma_N sum |det L[I, J]| |det C[I', J']| <= N eps per(|L| + |C|)
      (gamma_N = N u / (1 - N u) <= N eps, u = eps/2), as each product
      of complementary minors regroups terms of the permanent
      expansion, per(A + B) = sum per(A[I, J]) per(B[I', J']).
      With ||L|| <= 1 + e and ||C|| <= 1/2 + e, every row of
      |L| + |C| sums to at most sqrt(d) (3/2 + 2e), so after the
      division by (1/2 + e)^(d - 1) the error is at most
      N d^(d/2) 3^(d - 1) (3/2 + 2e) eps, which the evaluation term
      N d^(d/2) 3^d (1 + e) eps of eta covers: 3.7e6 eps at d = 5,
      1.5e8 eps (3e-8) at d = 6.  So |det| <= s (eta + m), eta from
      `_det_limit`, s = (1/2 + e)^(d - 1) in floats (relative error
      (d + 1) u, far inside eta), m the screen's least |t - 1/2|.

      Screen the least-|det| subset of each of the _UPPER_ROWS rows
      whose least |det| is smallest (any rows would do): their least
      value U is at least the screen minimum.  Then only the subsets
      with |det| <= `_det_limit`(x), x = U + 2(delta + rounding) (the
      certify window below), are screened, in chunks of _CHUNK, read
      from the rows whose least |det| is at most that.  With
      u = eps/2, fl(3/4 + fl(m^2)) <= x rounds from at most x+, the
      float above x, so m^2 <= fl(x+ - 3/4) / (1 - u)^2 and
      m <= r / (1 - u)^2, r = fl(sqrt(fl(x+ - 3/4))).  Three more
      roundings (the sum, the product, the factor 1 + 4 eps) and
      (1 - u)^5 (1 + 8u) > 1 make the limit at least s (eta + m) >= |det|.
      So each subset that screens at or below x, as all near the minimum
      do, survives: the result is that of screening all 2^(n-1) subsets.
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
    low_bits = n // 2
    low = _subset_sums(outer[:low_bits])
    high = _subset_sums(outer[low_bits:n - 1])
    lo, hi = f.eigenvalue_range
    e = max(1.0 - lo, hi - 1.0)  # max fl|lambda - 1|, as rounding is monotone
    delta = 2.0 * e * (1.0 + e) + e * e
    rounding = _ROUNDING * d * n * _EPS
    window = 2.0 * (delta + rounding)
    table, lowest = _bound_table(low, high)
    least = table[np.arange(len(table)), lowest]
    best = np.argsort(least)[:_UPPER_ROWS]
    upper = _screen(low[lowest[best]] + high[best]).min()
    limit = _det_limit(upper + window, d, n, e)
    rows = np.flatnonzero(least <= limit)
    hits = np.flatnonzero(table[rows] <= limit)  # 2-d np.nonzero took 4x as long
    codes = (rows[hits >> low_bits] << low_bits) | (hits & ((1 << low_bits) - 1))
    screen = np.empty(len(codes))
    for start in range(0, len(codes), _CHUNK):
        chunk = codes[start:start + _CHUNK]
        screen[start:start + len(chunk)] = _screen(
            low[chunk & ((1 << low_bits) - 1)] + high[chunk >> low_bits])
    near = codes[screen <= screen.min() + window]
    # near is ascending and lacks index n, so the complements, reversed,
    # follow it in ascending order (np.union1d would also load numpy.ma)
    codes = np.concatenate([near, (near ^ ((1 << n) - 1))[::-1]])
    values = _exact_nu_minus(outer, codes)
    k = values.argmin()
    code = int(codes[k])
    members = tuple(i + 1 for i in range(n) if code >> i & 1)
    return float(values[k]), IndexSet(members=members, n=n)


def _screen(s_j: np.ndarray) -> np.ndarray:
    """Screened value 3/4 + min (t - 1/2)^2 over the eigenvalues t of
    each S_J in a (B, d, d) stack."""
    t = np.linalg.eigvalsh(s_j)
    return 0.75 + np.abs(t - 0.5).min(axis=1) ** 2


def _bound_table(low: np.ndarray, high: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """|det(S_J - I/2)| for S_J = low[a] + high[b], (B, d, d) stacks, at
    row b and column a, and each row's argmin, taken while its block is
    in cache (see `nu_minus_global`)."""
    d = low.shape[-1]
    table = np.empty((len(high), len(low)))
    lowest = np.empty(len(table), dtype=np.intp)
    bilinear = d <= _BILINEAR_MAX_DIM
    rows = max(1, _BOUND_BLOCK // (len(low) * (1 if bilinear else d * d)))
    if bilinear:
        fa, fb = _det_features(low, high, 0.5)
    for start in range(0, len(table), rows):
        block = table[start:start + rows]
        if bilinear:
            np.matmul(fb[start:start + rows], fa, out=block)
        else:
            # the shift goes on the sum: (L + H) - I/2 keeps the bits of
            # the screened S_J, L + (H - I/2) does not
            s_j = (low + high[start:start + rows, None]).reshape(-1, d, d)
            s_j.reshape(-1, d * d)[:, ::d + 1] -= 0.5
            block[...] = np.linalg.det(s_j).real.reshape(block.shape)
        np.abs(block, out=block)
        block.argmin(axis=1, out=lowest[start:start + rows])
    return table, lowest


def _det_limit(x: float, d: int, n: int, e: float) -> float:
    """(1/2 + e)^(d - 1) (eta + sqrt(x - 3/4)), rounded upward: a bound on
    |det| in `_bound_table` for every subset that screens at or below
    x >= 3/4, with eta as derived in `nu_minus_global`."""
    eta = _DET_ROUNDING * d * d * n
    if d <= _BILINEAR_MAX_DIM:
        eta += _product_roundings(d) * d ** (d / 2) * 3 ** d * (1.0 + e)
    reach = math.sqrt(math.nextafter(x, math.inf) - 0.75)
    return (0.5 + e) ** (d - 1) * (eta * _EPS + reach) * (1.0 + 4.0 * _EPS)


def _product_roundings(d: int) -> int:
    """Roundings N on the path of one permutation term of det(L + C)
    through `_det_features` and their product: K = C(2d, d) in the matrix
    product, and for the two minors it pairs at most d - 1 products
    (3 units each, complex) and d (d - 1) / 2 sums in all."""
    return math.comb(2 * d, d) + 3 * (d - 1) + d * (d - 1) // 2


def _det_features(low: np.ndarray, high: np.ndarray, shift: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Real matrices fa (F, A) and fb (B, F) with
    (fb @ fa)[b, a] = det(L_a + C_b), L_a = low[a], C_b = high[b] - shift I
    for (B, d, d) stacks low and high of Hermitian matrices.

    det(L + C) = sum over |I| = |J| of
    (-1)^(sum I + sum J) det L[I, J] det C[I', J'], I' and J' the
    complements (Marcus, "Determinants of sums", College Math. J. 21,
    1990), K = C(2d, d) terms.  For Hermitian L and C the terms of (I, J)
    and (J, I) are conjugate, so each pair I < J gives one real feature,
    2 Re(det L[I, J] det C[I', J']), split as Re * Re - Im * Im for a
    complex frame, and each I = J one: (K + 2^d) / 2 features real, K
    complex."""
    d = low.shape[-1]
    steps, l_rows, c_rows, weights, pairs = _minor_tables(d)
    minors_l = _minors(low, steps)
    minors_c = _minors(high - shift * np.eye(d), steps)
    fa = [minors_l[l_rows].real]
    fb = [minors_c[c_rows].real * weights[:, None]]
    if low.dtype.kind == "c":
        fa.append(minors_l[l_rows[pairs]].imag)
        fb.append(minors_c[c_rows[pairs]].imag * -weights[pairs, None])
    return np.concatenate(fa), np.concatenate(fb).T


def _minors(stack: np.ndarray, steps) -> np.ndarray:
    """Every minor det M[I, J], |I| = |J| = 0..d, of each matrix of a
    (B, d, d) stack, one column per matrix, in the order of
    `_minor_tables`.  Level k expands each k x k minor along row min I in
    (k - 1) x (k - 1) ones, from index tables: k products of whole
    gathered rows per level."""
    d = stack.shape[-1]
    entries = stack.reshape(-1, d * d).T
    signed = np.concatenate([entries, -entries])
    minors = np.empty((steps[-1][1], entries.shape[1]), dtype=entries.dtype)
    minors[0] = 1.0
    for start, stop, entry, minor in steps:
        level = minors[start:stop]
        np.multiply(signed[entry[:, 0]], minors[minor[:, 0]], out=level)
        for p in range(1, entry.shape[1]):
            level += signed[entry[:, p]] * minors[minor[:, p]]
    return minors


# C(2d, d) minors: only the bilinear bound, d <= _BILINEAR_MAX_DIM, reads these.
@functools.lru_cache(maxsize=None)
def _minor_tables(d: int) -> tuple:
    """Index tables of `_minors` and `_det_features` for d x d matrices.

    The minors are numbered by size k, then I, then J, each in
    lexicographic order, so (I, J) is minor offsets[k] + rank(I) * C(d, k)
    + rank(J).  steps[k - 1] = (start, stop, entry, minor) fills size k:
    the minor of (I, J) is the sum over p of signed entry entry[., p]
    (row i_0 * d + J[p] of the entries, shifted by d^2 when negated) times
    minor minor[., p] of (I - i_0, J - J[p]); a row is a J-part, formed
    once per J, plus a share of I.  l_rows and c_rows pair (I, J) with
    (I', J') for each feature, weights holds (-1)^(sum I + sum J)
    (doubled for I < J), pairs marks I < J."""
    levels = [list(itertools.combinations(range(d), k)) for k in range(d + 1)]
    ranks = [{s: r for r, s in enumerate(level)} for level in levels]
    offsets = [0, *itertools.accumulate(len(level) ** 2 for level in levels)]
    steps = []
    for k in range(1, d + 1):
        below, width = ranks[k - 1], len(levels[k - 1])
        j_entry, j_minor = [], []
        for j in levels[k]:
            j_entry += [c + (p % 2) * d * d for p, c in enumerate(j)]
            j_minor += [offsets[k - 1] + below[j[:p] + j[p + 1:]] for p in range(k)]
        entry, minor = [], []
        for i in levels[k]:
            row, share = i[0] * d, below[i[1:]] * width
            entry += [e + row for e in j_entry]
            minor += [m + share for m in j_minor]
        steps.append((offsets[k], offsets[k + 1], np.array(entry).reshape(-1, k),
                      np.array(minor).reshape(-1, k)))
    l_rows, c_rows, weights = [], [], []
    for k, level in enumerate(levels):
        size, rest = len(level), ranks[d - k]
        comp = [rest[tuple(c for c in range(d) if c not in s)] for s in level]
        sign = [(-1) ** sum(s) for s in level]
        for a in range(size):
            for b in range(a, size):
                l_rows.append(offsets[k] + a * size + b)
                c_rows.append(offsets[d - k] + comp[a] * size + comp[b])
                weights.append(sign[a] * sign[b] * (2 if a < b else 1))
    weights = np.array(weights, dtype=np.float64)
    return (tuple(steps), np.array(l_rows), np.array(c_rows), weights,
            np.abs(weights) == 2)


def _subset_sums(outer: np.ndarray) -> np.ndarray:
    """Partial frame operators over every subset of the given outer
    products f_k f_k^*, as a (2^t, d, d) stack for t products, matrix c
    the subset with binary-counter code c.  Code c + 2^t is code c plus
    term t, so the stack doubles in place and sums each entry in index
    order.  Exact conjugates summed in one order stay exact conjugates:
    Hermitian outer products, bit for bit, give Hermitian sums, which
    the determinant bound needs, as it reads both triangles."""
    sums = np.empty((1 << len(outer),) + outer.shape[1:], dtype=outer.dtype)
    sums[0] = 0.0
    for t, term in enumerate(outer):
        np.add(sums[:1 << t], term, out=sums[1 << t:2 << t])
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
    for start in range(0, len(codes), _CHUNK):
        s_in = _partial_operators(outer, codes[start:start + _CHUNK])
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
    return int(np.argmax(tails < eps))


def verify_tail_bound(f: Frame, eps: float, j: Optional[IndexSet],
                      tol: ToleranceConfig) -> TailReport:
    """Check the tail lower bound on a J that contains {1..n0}, or on
    exactly {1..n0} when j is None: nu_minus(J) and the mirrored nu_minus
    (on the complement) both exceed 1 - eps, decided on the gaps 1 - nu
    against eps, so `holds` should always be true."""
    if j is not None:
        _check_universe(f, j)
    n0 = tail_threshold(f, eps, tol)
    prefix = range(1, n0 + 1)
    if j is None:
        j = IndexSet.from_iterable(prefix, f.n)
    elif not set(prefix) <= set(j.members):
        raise PrefixNotContainedError(
            f"index set must contain 1..{n0} for eps={eps!r}")
    direct = nu_bounds(f, j, tol).nu_minus
    mirrored = nu_bounds(f, j.complement(), tol).nu_minus
    return TailReport(n0, j, direct, mirrored, 1.0 - eps,
                      decide(1.0, "<", eps, minus=min(direct, mirrored)).holds)
