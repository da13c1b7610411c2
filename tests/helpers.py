"""Shared test utilities: independent oracles and seeded ensemble builders.

The oracles deliberately avoid the library's own numerics: rank over
exact rationals, excess by exhaustive deletion, the grades and the
kernel identity of a frame pair and the four claims of the decomposition
lemma over exact rationals (a complex pair through its real embedding),
the kernel identity of a pair as a principal angle between subspaces
from numpy's SVD, the nearest Parseval dual by a Levenberg-Marquardt
search over all duals (numpy only) instead of the closed form, ranks and
range bases from numpy's own SVD instead of a frame's cached one, the
global subset minimum by evaluating M_J on every subset, determinants by
elimination over exact (Gaussian) rationals, the minor tables of the
determinant bound numbered through a dict over every (I, J) pair, the
eigenvalue-band verdicts by Sylvester inertia over exact rationals (a
complex frame through its real embedding).
"""

import itertools
import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np

import framekit as fk

TOL = fk.ToleranceConfig()

# Levenberg-Marquardt constants of searched_parseval_dual_residual: the
# iteration cap per start and the damping's floor and give-up ceiling
_LM_ITERATIONS = 200
_LM_MIN_DAMPING = 1e-12
_LM_MAX_DAMPING = 1e16


def scaled(frame, c):
    return fk.Frame(dim=frame.dim, field=frame.field, vectors=c * frame.vectors)


def rational_rank(rows):
    """Rank by Gaussian elimination over exact rationals (real entries)."""
    return len(_reduced_rows([[Fraction(x) for x in row] for row in rows])[1])


def exact_det(*matrices):
    """det of the sum of square float matrices, real or complex, taken
    over the exact values of their entries: Gaussian elimination over
    Gaussian rationals, each held as a (real, imaginary) pair of
    Fractions."""
    m = [[(sum(Fraction(float(np.real(x))) for x in xs),
           sum(Fraction(float(np.imag(x))) for x in xs)) for xs in zip(*rows)]
         for rows in zip(*map(np.asarray, matrices))]

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def div(a, b):
        norm = b[0] * b[0] + b[1] * b[1]
        return ((a[0] * b[0] + a[1] * b[1]) / norm,
                (a[1] * b[0] - a[0] * b[1]) / norm)

    det = (Fraction(1), Fraction(0))
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != (0, 0)), None)
        if pivot is None:
            return Fraction(0), Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = (-det[0], -det[1])
        det = mul(det, m[col][col])
        for r in range(col + 1, len(m)):
            factor = div(m[r][col], m[col][col])
            m[r] = [(a[0] - p[0], a[1] - p[1])
                    for a, p in zip(m[r], (mul(factor, b) for b in m[col]))]
    return det


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _add(a, b, c=1):
    """a + c b, entrywise."""
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _reduced_rows(m):
    """Reduced row echelon form of a rational matrix and its pivot columns."""
    m = [list(row) for row in m]
    pivots, row = [], 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def _inverse(m):
    """Inverse of a square rational matrix, None when it is singular."""
    n = len(m)
    reduced, pivots = _reduced_rows([row + e for row, e in zip(m, _identity(n))])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def _nullspace(m):
    """Columns spanning {x : m x = 0}."""
    cols = len(m[0])
    reduced, pivots = _reduced_rows(m)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        x = [Fraction(0)] * cols
        x[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            x[p] = -row[free]
        basis.append(x)
    return _transpose(basis) if basis else [[] for _ in range(cols)]


def _approx_certificate(t, copies=1):
    """True when ||T - I||_F^2 < copies, which bounds the operator norm
    below 1; False when a row or column of T - I has squared norm above 1,
    which bounds it above 1; None when neither settles it.  For the
    `real_embedding` of a complex T, copies = 2: the embedding doubles the
    squared Frobenius norm and keeps the squared norm of every row and
    column."""
    dev = _add(t, _identity(len(t)), -1)
    if sum(x * x for row in dev for x in row) < copies:
        return True
    if any(sum(x * x for x in line) > 1 for line in dev + _transpose(dev)):
        return False
    return None


class ExactPairVerdict(NamedTuple):
    """The verdicts on a frame pair (U, V), decided over exact rationals.

    is_approx is `_approx_certificate` of M = V*U; kernel_identity is
    whether Ker V* = E(Ker U*), E = I - U M^{-1} V*, and None when M is
    singular."""

    rank_u: int
    rank_v: int
    is_exact: bool
    is_pseudo: bool
    is_approx: Optional[bool]
    kernel_identity: Optional[bool]


def exact_pair_verdict(u, v, copies=1):
    """`ExactPairVerdict` of the n x d rational analysis matrices u and v,
    or, for copies = 2, of the complex pair whose `real_embedding`s they
    are: the embedding keeps products, adjoints and inverses, and doubles
    every rank, which the verdict halves."""
    n, d = len(u), len(u[0])
    m = _matmul(_transpose(v), u)
    m_inv = _inverse(m)
    identity = None
    if m_inv is not None:
        e = _add(_identity(n), _matmul(_matmul(u, m_inv), _transpose(v)), -1)
        image = _matmul(e, _nullspace(_transpose(u)))  # E(Ker U*), as columns
        # E(Ker U*) lies in Ker V* and has its dimension n - rank V
        identity = (all(x == 0 for row in _matmul(_transpose(v), image) for x in row)
                    and rational_rank(image) == n - rational_rank(v))
    return ExactPairVerdict(rank_u=rational_rank(u) // copies,
                            rank_v=rational_rank(v) // copies,
                            is_exact=m == _identity(d), is_pseudo=m_inv is not None,
                            is_approx=_approx_certificate(m, copies),
                            kernel_identity=identity)


def _integers(rng, rows, cols, bound, copies):
    """A rows x cols matrix with integer entries in [-bound, bound], as
    Fractions; for copies = 2 the `real_embedding` of one with Gaussian
    integer entries, real and imaginary parts in that range."""
    draw = rng.integers(-bound, bound + 1, (copies, rows, cols))
    m = draw[0] if copies == 1 else real_embedding(draw[0] + 1j * draw[1])
    return [[Fraction(int(x)) for x in row] for row in m]


def from_real_embedding(m, copies):
    """The float matrix whose `real_embedding` is the rational matrix m:
    m itself for copies = 1, else the complex matrix with real part the
    top-left quarter of m and imaginary part the bottom-left one."""
    m = np.array(m, dtype=float)
    if copies == 1:
        return m
    rows, cols = m.shape[0] // 2, m.shape[1] // 2
    return m[:rows, :cols] + 1j * m[rows:, :cols]


def exact_pair_ensemble(seed, copies=1, dims=range(1, 5)):
    """(kind, U, V) rational analysis matrices: for d in dims and
    n = d..d+4, an integer U of full rank with entries in [-3, 3] and a
    dual of it, V = U S^{-1} + Q W for an integer W, Q = I - U S^{-1} U*
    being the projection onto Ker U*.  For copies = 2 the pair is complex:
    U, W and the T's below have Gaussian integer entries, and every matrix
    is held as its `real_embedding`, in which all the arithmetic is done.
    Four kinds of pair over each U:

    * "dual": V itself;
    * "pseudo": V T* for an integer invertible T whose
      `_approx_certificate` is False, so that V*U = T is not
      approximately the identity;
    * "approx": V + E, E an integer matrix halved until
      0 < ||E*U||_F^2 < 1, so that ||V*U - I|| < 1 but V*U != I;
    * "singular", for d >= 2: V T* + Q W' for a singular integer T,
      certified like the pseudo kind, and an integer W' (g spans only
      when Q W' makes up the rank that T loses).
    """
    rng = np.random.default_rng(seed)

    def integers(rows, cols):
        return _integers(rng, rows, cols, 3, copies)

    def far_from_identity(invertible):
        t = integers(d, d)
        while (_inverse(t) is not None) != invertible or _approx_certificate(t) is not False:
            t = integers(d, d)
        return t

    for d in dims:
        for n in range(d, d + 5):
            u = integers(n, d)
            while rational_rank(u) < copies * d:
                u = integers(n, d)
            v0 = _matmul(u, _inverse(_matmul(_transpose(u), u)))
            q = _add(_identity(copies * n), _matmul(v0, _transpose(u)), -1)
            v = _add(v0, _matmul(q, integers(n, d)))
            yield "dual", u, v
            yield "pseudo", u, _matmul(v, _transpose(far_from_identity(True)))
            e = integers(n, d)
            while not any(x != 0 for row in _matmul(_transpose(e), u) for x in row):
                e = integers(n, d)
            while sum(x * x for row in _matmul(_transpose(e), u) for x in row) >= copies:
                e = [[x / 2 for x in row] for row in e]
            yield "approx", u, _add(v, e)
            if d == 1:  # the one singular T is 0, whose distance from 1 is 1
                continue
            yield "singular", u, _add(_matmul(v, _transpose(far_from_identity(False))),
                                      _matmul(q, integers(n, d)))


class ExactLemmaVerdict(NamedTuple):
    """The four claims of the decomposition lemma for a pair (T, S),
    decided over exact rationals, in the order of `LemmaReport`."""

    st_is_identity: bool
    kernel_match: bool
    direct_sum: bool
    idempotent: bool


def exact_lemma_verdict(t, s):
    """`ExactLemmaVerdict` of an n x d rational T and a d x n rational S:
    ST = I; Ker S = (I - TS)(Ker T*), the image lying in Ker S with its
    dimension n - rank S; the coefficient space is Im T (+) Ker S, that
    is, rank T + dim Ker S = n and the columns of T and a basis of
    Ker S span it; and (TS)^2 = TS."""
    n, d = len(t), len(t[0])
    ts = _matmul(t, s)
    image = _matmul(_add(_identity(n), ts, -1), _nullspace(_transpose(t)))
    ker_s = _nullspace(s)
    rank_t, kernel_dim = rational_rank(t), n - rational_rank(s)
    return ExactLemmaVerdict(
        st_is_identity=_matmul(s, t) == _identity(d),
        kernel_match=(all(x == 0 for row in _matmul(s, image) for x in row)
                      and rational_rank(image) == kernel_dim),
        direct_sum=(rank_t + kernel_dim == n
                    and rational_rank([a + b for a, b in zip(t, ker_s)]) == n),
        idempotent=_matmul(ts, ts) == ts)


def exact_lemma_ensemble(seed, copies=1):
    """(T, S) pairs: for d = 1..3 and n = d..d+3, an integer T of full
    column rank with entries in [-3, 3] and the rational left inverse
    S = (T*T)^{-1} T* + Z (I - T (T*T)^{-1} T*) for an integer Z with
    entries in [-2, 2], which is T's Moore-Penrose inverse only when
    Z (I - T T^+) = 0.  For copies = 2, T and Z have Gaussian integer
    entries and both matrices are held as their `real_embedding`s, on
    which `exact_lemma_verdict` decides the complex pair's claims."""
    rng = np.random.default_rng(seed)
    for d in range(1, 4):
        for n in range(d, d + 4):
            t = _integers(rng, n, d, 3, copies)
            while rational_rank(t) < copies * d:
                t = _integers(rng, n, d, 3, copies)
            pinv = _matmul(_inverse(_matmul(_transpose(t), t)), _transpose(t))
            off_range = _add(_identity(copies * n), _matmul(t, pinv), -1)
            yield t, _add(pinv, _matmul(_integers(rng, d, n, 2, copies), off_range))


def inertia(s, c):
    """Numbers of eigenvalues of the symmetric rational matrix s above and
    below c, read from the pivot signs of a symmetric elimination of
    s - cI: congruence keeps them (Sylvester's law of inertia; Golub and
    Van Loan, Matrix Computations, 4th ed., 8.1).  No eigenvalue is
    computed."""
    m = [[x - c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(s)]
    above = below = 0
    while m:
        k = next((i for i in range(len(m)) if m[i][i] != 0), None)
        if k is None:  # a zero diagonal
            k, j = next(((i, j) for i, row in enumerate(m) for j, x in enumerate(row)
                         if x != 0), (None, None))
            if k is None:
                break  # the rest is zero
            # row and column k += row and column j make m[k][k] = 2 m[k][j]
            m[k] = [a + b for a, b in zip(m[k], m[j])]
            for row in m:
                row[k] += row[j]
        p = m[k][k]
        above += p > 0
        below += p < 0
        m = [[x - row[k] * m[k][j] / p for j, x in enumerate(row) if j != k]
             for i, row in enumerate(m) if i != k]
    return above, below


class ExactBandVerdict(NamedTuple):
    """The eigenvalue-band verdicts on a frame, decided over the exact
    values of its float entries, in the library's terms."""

    deviation_dim: int  # eigenvalues of S outside [1 - eig_one_atol, 1 + eig_one_atol]
    exists: bool  # no eigenvalue of S below 1 - eig_one_atol, deviation_dim <= excess
    is_parseval: bool  # every eigenvalue of S in [1 - atol, 1 + atol]
    excess: int  # n - rank U


def real_embedding(rows):
    """The float rows of a complex frame as the real 2n x 2d rows
    [[Re, -Im], [Im, Re]]; real rows as they are.  The embedding keeps
    products and adjoints, so the frame operator of the embedded rows is
    the embedding [[Re S', -Im S'], [Im S', Re S']] of S' = conj(S): it
    holds every eigenvalue of S twice, and its rank is twice the rank."""
    rows = np.asarray(rows)
    if not np.iscomplexobj(rows):
        return rows
    return np.block([[rows.real, -rows.imag], [rows.imag, rows.real]])


def exact_frame_operator(rows):
    """S = U*U of the frame with these float rows over the exact values of
    their entries; for a complex frame, its `real_embedding`."""
    u = [[Fraction(float(x)) for x in row] for row in real_embedding(rows)]
    return _matmul(_transpose(u), u)


def exact_quantity_matrix(rows, j):
    """M_J = S_J + S_{J^c}^2 of the frame with these float rows over the
    exact values of their entries, J an `IndexSet`; for a complex frame,
    its `real_embedding`, which holds every eigenvalue of M_J twice."""
    rows = np.asarray(rows)
    inside = j.mask()[:, None]
    s_in, s_out = exact_frame_operator(rows * inside), exact_frame_operator(rows * ~inside)
    return _add(s_in, _matmul(s_out, s_out))


def exact_band_verdict(rows, tol):
    """`ExactBandVerdict` of the real or complex frame with these float
    rows: S and the shifts 1 +- eig_one_atol and 1 +- atol are exact
    rationals, so the counts of `inertia` are exact.  A complex frame is
    decided on its `real_embedding`, whose counts are halved."""
    copies = 2 if np.iscomplexobj(rows) else 1
    s = exact_frame_operator(rows)
    band, atol = Fraction(tol.eig_one_atol), Fraction(tol.atol)
    # (above c, below c) for each shift c
    count = {c: [x // copies for x in inertia(s, c)]
             for c in {1 + band, 1 - band, 1 + atol, 1 - atol}}
    dev = count[1 + band][0] + count[1 - band][1]
    excess = len(rows) - rational_rank(real_embedding(rows)) // copies
    return ExactBandVerdict(
        deviation_dim=dev, exists=count[1 - band][1] == 0 and dev <= excess,
        is_parseval=count[1 + atol][0] == 0 and count[1 - atol][1] == 0, excess=excess)


# A skew conference matrix (K*K = 3I): its Cayley transform is -(I + K)/2,
# every entry +-1/2, so its columns are Parseval frames in floats exactly.
_CONFERENCE = ((0, 1, 1, 1), (-1, 0, -1, 1), (-1, 1, 0, -1), (-1, -1, 1, 0))


def cayley_parseval(rng, n, d, complex_valued=False):
    """n x d float rows: the first d columns of the rational unitary
    (I - K)(I + K)^{-1}, each entry rounded to the nearest float.  K is
    skew-symmetric with entries in [-2, 2], plus i times a symmetric one
    with entries in [-2, 2] when complex_valued; at n = 4, every other
    draw is the conference matrix instead, for a complex frame conjugated
    by a diagonal of 1s and is, so that K*K = 3I still and the columns
    are exact in floats.  A complex K is inverted as its
    `real_embedding`, itself skew-symmetric."""
    if n == 4 and rng.integers(2):
        k = np.array(_CONFERENCE)
        if complex_valued:
            phases = np.where(rng.integers(2, size=n), 1j, 1)
            k = phases[:, None] * k * phases.conj()
    else:
        k = np.triu(rng.integers(-2, 3, (n, n)), 1)
        k = k - k.T
        if complex_valued:
            b = np.triu(rng.integers(-2, 3, (n, n)))
            k = k + 1j * (b + np.triu(b, 1).T)
    k = real_embedding(k)
    size = len(k)
    k = [[Fraction(int(x)) for x in row] for row in k]
    # (I + K)^{-1} E, E the first d columns of I; I + K is invertible
    reduced = _reduced_rows([row + e[:d] for row, e in
                             zip(_add(_identity(size), k), _identity(size))])[0]
    q = _matmul(_add(_identity(size), k, -1), [row[size:] for row in reduced])
    q = np.array([[float(x) for x in row] for row in q])
    return q[:n] + 1j * q[n:] if complex_valued else q


def square_roots(c):
    """Floats x_1 <= ... whose squares sum to the float c in [1/2, 2)
    exactly, the squares and every partial sum in this order being exact
    in floats too: c 2^54 is an integer C, the last x is the even integer
    nearest below sqrt(C) (even, so that its square fits in 53 bits), and the rest
    take the greedy integer square roots of what remains, each below 2^16,
    all times 2^-27."""
    rest = int(Fraction(c) * 2 ** 54)
    assert rest == Fraction(c) * 2 ** 54 and 2 ** 53 <= rest < 2 ** 55, c
    roots = [2 * (math.isqrt(rest) // 2)]
    rest -= roots[0] ** 2
    while rest:
        roots.append(math.isqrt(rest))
        rest -= roots[-1] ** 2
    return [p * 2.0 ** -27 for p in reversed(roots)]


def band_ensemble(seed, band, complex_valued=False):
    """(kind, rows) real or complex frames, d = 2..4, for the
    eigenvalue-band oracle.  Each kind aims at one verdict class; the
    oracle, not the kind, decides it:

    * "parseval": a `cayley_parseval` frame, n = d..d+3;
    * "below" and "equal": that frame with m of its rows scaled by 5/4,
      3/2 or 2 (A stays >= 1, the deviation dimension is generically m),
      or m vectors of halves appended to a frame of n - m rows, where m is
      below or equal to the excess n - d;
    * "above": m = n - d + 1 <= d rows scaled up;
    * "low": one row scaled by 1/2 or 3/4, so A < 1;
    * "edge inside" and "edge outside": the longest row u_k scaled by
      sqrt(1 + t / ||u_k||^2), which moves one eigenvalue to 1 + t, for
      t = +-band (1 -+ 1e-3), just inside and just outside the band;
    * "edge at fl(1 - band)" and "edge at fl(1 + band)": a Parseval
      frame on the first d - 1 coordinates, and `square_roots` of
      c = fl(1 -+ band) along the last, so that S has the eigenvalue c
      exactly; that column is orthogonal to the others, so the library
      reads c without rounding, and the verdict is the band rule's own.
    """
    rng = np.random.default_rng(seed)
    ups = (1.25, 1.5, 2.0)

    def halves(rows, cols):
        h = rng.integers(-3, 4, (rows, cols)) / 2
        return h + 1j * rng.integers(-3, 4, (rows, cols)) / 2 if complex_valued else h

    for trial in range(45):
        d = 2 + trial // 5 % 3
        kind = ("parseval", "below", "equal", "above", "low")[trial % 5]
        m = int(rng.integers(1, d + 1))  # scaled or appended vectors
        n = {"parseval": d + int(rng.integers(4)), "below": d + m + 1, "equal": d + m,
             "above": d + m - 1, "low": d + int(rng.integers(4))}[kind]
        if kind in ("below", "equal") and trial % 2:
            rows = np.vstack([cayley_parseval(rng, n - m, d, complex_valued),
                              halves(m, d)])
        else:
            rows = cayley_parseval(rng, n, d, complex_valued)
            if kind == "low":
                rows[rng.integers(n)] *= (0.5, 0.75)[trial % 2]
            elif kind != "parseval":
                rows[rng.choice(n, m, replace=False)] *= rng.choice(ups, m)[:, None]
        yield kind, rows
    for d in (2, 3, 4):
        for t in (band * (1 + 1e-3), band * (1 - 1e-3), -band * (1 - 1e-3),
                  -band * (1 + 1e-3)):
            rows = cayley_parseval(rng, d + int(rng.integers(3)), d, complex_valued)
            norms_sq = np.sum(np.abs(rows) ** 2, axis=1)
            k = norms_sq.argmax()
            rows[k] *= np.sqrt(1 + t / norms_sq[k])
            yield "edge " + ("inside" if abs(t) < band else "outside"), rows
        for sign in "-+":
            top = cayley_parseval(rng, d - 1 + int(rng.integers(3)), d - 1, complex_valued)
            edge = np.outer(square_roots(1 - band if sign == "-" else 1 + band),
                            np.eye(d)[-1])
            rows = np.vstack([np.hstack([top, np.zeros((len(top), 1))]), edge])
            yield f"edge at fl(1 {sign} band)", rows


def rank_from_singular_values(s, rtol):
    """Number of singular values above rtol * s_max, for s in descending
    order."""
    s = np.asarray(s, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def matrix_rank(m, rtol):
    """Rank of m under the relative cutoff rtol, from numpy's SVD."""
    return rank_from_singular_values(np.linalg.svd(m, compute_uv=False), rtol)


def orthonormal_range(m, rtol):
    """Orthonormal basis (columns) of the column space of m under the
    relative cutoff rtol, from numpy's thin SVD."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :rank_from_singular_values(s, rtol)]


def kernel_identity_angle(u, v, rtol=1e-10):
    """Sine of the largest principal angle between Ker V* and
    (I - U M^{-1} V*)(Ker U*), M = V*U, for n x d analysis matrices u and v
    with M invertible; 1 when the two kernels differ in dimension.  Both
    kernel bases, under the relative cutoff rtol, and the basis of the
    mapped kernel come from numpy's SVD."""
    def kernel_of_adjoint(a):
        p, s, _ = np.linalg.svd(a)
        return p[:, rank_from_singular_values(s, rtol):]

    u, v = np.asarray(u), np.asarray(v)
    ker_u, ker_v = kernel_of_adjoint(u), kernel_of_adjoint(v)
    if ker_u.shape[1] != ker_v.shape[1]:
        return 1.0
    if ker_v.shape[1] == 0:
        return 0.0
    v_adj = v.conj().T
    # ||Ex|| >= ||x|| on Ker U*, so the image has full column rank
    image = ker_u - u @ np.linalg.solve(v_adj @ u, v_adj @ ker_u)
    mapped = np.linalg.svd(image, full_matrices=False)[0]
    return float(np.linalg.norm(mapped - ker_v @ (ker_v.conj().T @ mapped), 2))


def all_subsets(n):
    """Every subset of the 1-based indices 1..n, as sorted tuples, by size."""
    for r in range(n + 1):
        yield from combinations(range(1, n + 1), r)


def deletion_excess(frame, rtol=1e-10):
    """Greatest k such that deleting some k vectors leaves a spanning set,
    found by exhaustive search (small n only)."""
    vectors = np.array(frame.vectors)
    n, d = vectors.shape
    for k in range(n - d, 0, -1):
        for drop in combinations(range(n), k):
            keep = [i for i in range(n) if i not in drop]
            s = np.linalg.svd(vectors[keep], compute_uv=False)
            if np.count_nonzero(s > rtol * s[0]) == d:
                return k
    return 0


def searched_parseval_dual_residual(frame):
    """Smallest ||V*V - I|| (operator norm) found by searching all duals
    of a real frame.

    Every dual has analysis matrix V = V0 + QW, with V0 = U S^{-1} the
    canonical dual and Q = I - UU^+ the projection onto the synthesis
    kernel, both from numpy's pseudo-inverse of the analysis matrix U.
    Levenberg-Marquardt minimizes the Frobenius norm of V*V - I over W
    from W = 0 and three seeded random starts; the residual's Jacobian,
    dW*QV + V*Q dW, is exact.  Small instances only.
    """
    u = np.asarray(frame.vectors, dtype=float)
    n, d = u.shape
    u_pinv = np.linalg.pinv(u)
    v0, q = u_pinv.T, np.eye(n) - u @ u_pinv
    eye_d, eye_w = np.eye(d), np.eye(n * d)

    def gram_residual(w):
        v = v0 + q @ w
        return v, v.T @ v - eye_d

    rng = np.random.default_rng(0)
    starts = [np.zeros((n, d))] + [rng.standard_normal(n * d).reshape(n, d)
                                   for _ in range(3)]
    best = np.inf
    for w in starts:
        v, r = gram_residual(w)
        cost, damping = np.sum(r * r), 1e-3
        for _ in range(_LM_ITERATIONS):
            # d(V*V)[a, b] / dW[i, c] = [a == c] (QV)[i, b] + [b == c] (QV)[i, a]
            qv = q @ v
            jac = (np.einsum("ac,ib->abic", eye_d, qv)
                   + np.einsum("bc,ia->abic", eye_d, qv)).reshape(d * d, n * d)
            step = np.linalg.solve(jac.T @ jac + damping * eye_w,
                                   -(jac.T @ r.ravel())).reshape(n, d)
            v_new, r_new = gram_residual(w + step)
            cost_new = np.sum(r_new * r_new)
            if cost_new < cost:
                w, v, r, cost = w + step, v_new, r_new, cost_new
                damping = max(damping / 10, _LM_MIN_DAMPING)
            else:
                damping *= 10
                if damping > _LM_MAX_DAMPING:  # no step lowers the cost
                    break
        best = min(best, np.linalg.norm(r, 2))
    return float(best)


def exhaustive_nu_minus_global(frame, chunk=1 << 14):
    """Minimum of eigvalsh(S_J + S_{J^c}^2) over all 2^n subsets, with the
    first minimizer in binary-counter order (bit k - 1 is index k).

    Builds and diagonalizes M_J for every subset, in chunks, with no
    Parseval shortcut; (value, IndexSet) as `nu_minus_global` returns.
    """
    n, d = frame.n, frame.dim
    outer = np.einsum("ki,kj->kij", frame.vectors, np.conj(frame.vectors))
    s_total = outer.sum(axis=0)
    flat = outer.reshape(n, d * d)
    bit_positions = np.arange(n, dtype=np.int64)
    best_val = np.inf
    best_code = 0
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        picks = ((codes[:, None] >> bit_positions) & 1).astype(np.float64)
        # einsum, whose rounding of a row does not depend on the batch
        s_in = np.einsum("bk,kx->bx", picks, flat).reshape(-1, d, d)
        s_out = s_total - s_in
        m = s_in + s_out @ s_out
        mins = np.linalg.eigvalsh(m)[:, 0]
        k = int(np.argmin(mins))
        if mins[k] < best_val:
            best_val = float(mins[k])
            best_code = int(codes[k])
    members = tuple(k + 1 for k in range(n) if (best_code >> k) & 1)
    return best_val, fk.IndexSet(members=members, n=n)


def reference_minor_tables(d):
    """The tables of `identity._minor_tables(d)`, each minor (I, J) numbered
    by a dict over all pairs in the order they are first met, the
    complement pair looked up by its subsets, not by ranks."""
    index = {((), ()): 0}
    steps = []
    for k in range(1, d + 1):
        start = len(index)
        subsets = list(itertools.combinations(range(d), k))
        entry, minor = [], []
        for i in subsets:
            for j in subsets:
                index[i, j] = len(index)
                entry.append([i[0] * d + c + (p % 2) * d * d for p, c in enumerate(j)])
                minor.append([index[i[1:], j[:p] + j[p + 1:]] for p in range(k)])
        steps.append((start, len(index), np.array(entry), np.array(minor)))
    def rest(s):
        return tuple(k for k in range(d) if k not in s)

    l_rows, c_rows, weights = [], [], []
    for (i, j), row in index.items():
        if i <= j:
            l_rows.append(row)
            c_rows.append(index[rest(i), rest(j)])
            weights.append((-1) ** (sum(i) + sum(j)) * (2 if i < j else 1))
    weights = np.array(weights, dtype=np.float64)
    return (tuple(steps), np.array(l_rows), np.array(c_rows), weights,
            np.abs(weights) == 2)


def seeded_cases(seed, count, *ranges):
    """count tuples over the inclusive integer ranges (lo, hi): first every
    range at its low end, then every range at its high end, then draws
    from a generator seeded with seed.  Deterministic, so every run of a
    test that loops over them checks the same examples."""
    rng = np.random.default_rng(seed)
    cases = [tuple(lo for lo, _ in ranges), tuple(hi for _, hi in ranges)]
    cases += [tuple(int(rng.integers(lo, hi + 1)) for lo, hi in ranges)
              for _ in range(count - 2)]
    return cases


def gaussian(rng, rows, cols, complex_valued):
    g = rng.standard_normal((rows, cols))
    if complex_valued:
        return (g + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return g


def haar_columns(rng, n, k, complex_valued):
    """k orthonormal columns in n-space, phase-normalized."""
    q, r = np.linalg.qr(gaussian(rng, n, n, complex_valued))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return (q * np.conj(phases)[None, :])[:, :k]


def well_conditioned_invertible(rng, d, complex_valued, lo=0.6, hi=1.8):
    """Invertible d x d map with singular values in [lo, hi]."""
    q1 = haar_columns(rng, d, d, complex_valued)
    q2 = haar_columns(rng, d, d, complex_valued)
    sv = rng.uniform(lo, hi, size=d)
    return q1 @ (sv[:, None] * np.conj(q2).T)


def random_dual_pair(dim, n, seed, field="real", tol=TOL):
    """A random frame together with the dual carved out by a random free
    operator; exact dual pair by construction."""
    f = fk.random_frame(dim, n, seed, field)
    rng = np.random.default_rng(seed + 1)
    w = gaussian(rng, n, dim, field == "complex")
    return f, fk.dual_from_free_operator(f, w, tol)


def admissible_frame(dim, n, dev, seed, field="real"):
    """Frame with lower bound exactly 1 and deviation dimension dev
    (dev <= n - dim), i.e. satisfying both Parseval-dual existence
    conditions by construction."""
    assert 0 <= dev <= min(dim, n - dim)
    rng = np.random.default_rng(seed)
    p = haar_columns(rng, n, dim, field == "complex")
    v = haar_columns(rng, dim, dim, field == "complex")
    lam = np.ones(dim)
    lam[:dev] = rng.uniform(1.2, 3.0, size=dev)
    u = p @ (np.sqrt(lam)[:, None] * np.conj(v).T)
    return fk.Frame(dim=dim, field=field, vectors=np.conj(u))


def sharpness_frame():
    """Four-vector Parseval frame in the plane whose J = {1, 2} partial
    operator has both eigenvalues 1/2, attaining the 3/4 lower bound."""
    r = 1.0 / np.sqrt(2.0)
    return fk.Frame(dim=2, field="real",
                    vectors=[[r, 0], [0, r], [r, 0], [0, r]])


def direct_sum_frames(f, g):
    """Block direct sum: a frame in dim_f + dim_g space whose excess is
    the sum of the two excesses (Parseval when both are)."""
    rows = []
    for v in f.vectors:
        rows.append(np.concatenate([v, np.zeros(g.dim)]))
    for v in g.vectors:
        rows.append(np.concatenate([np.zeros(f.dim), v]))
    field = "complex" if "complex" in (f.field, g.field) else "real"
    return fk.Frame(dim=f.dim + g.dim, field=field, vectors=np.array(rows))


def sort_rows_by_deficit(frame):
    """Reorder vectors so the norm deficits 1 - ||f_k||^2 descend."""
    deficits = 1.0 - np.sum(np.abs(frame.vectors) ** 2, axis=1)
    order = np.argsort(-deficits, kind="stable")
    return fk.Frame(dim=frame.dim, field=frame.field,
                    vectors=np.array(frame.vectors)[order])
