"""Seeded frame generators for experiments, fixtures, and the CLI.

All randomness flows through a numpy Generator seeded explicitly, so
every produced frame is a pure function of its parameters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import BadParametersError, NotUnitError, ZeroEntryError
from .frames import COMPLEX, KINDS, REAL, Frame, ToleranceConfig, decide, derived_frame
from .linalg import adjoint, fix_phase, gaussian_matrix, inexact


def _check_field(field: str) -> None:
    if field not in (REAL, COMPLEX):
        raise BadParametersError(f"field must be 'real' or 'complex', got {field!r}")


def _check_counts(dim: Optional[int], n: Optional[int]) -> None:
    if dim is None or n is None:
        raise BadParametersError("dim and n are required")
    if dim < 1 or n < dim:
        raise BadParametersError(
            f"need n >= dim >= 1 for a spanning system, got dim={dim}, n={n}")


def random_frame(dim: int, n: int, seed: int, field: str = REAL) -> Frame:
    """n independent Gaussian vectors in dimension dim (a frame almost
    surely, with excess n - dim)."""
    _check_field(field)
    _check_counts(dim, n)
    rng = np.random.default_rng(seed)
    return Frame(dim=dim, field=field,
                 vectors=gaussian_matrix(rng, n, dim, field == COMPLEX))


def parseval_projection_frame(dim: int, n: int, seed: int, field: str = REAL) -> Frame:
    """Exactly-Parseval frame of n vectors in dimension dim.

    Takes the first dim orthonormal columns of a random n x n unitary
    (Q of a Gaussian matrix, phases normalized for determinism): the
    rows of that n x dim isometry are the coordinates of an orthonormal
    basis of n-space projected onto a dim-dimensional subspace.  Excess
    n - dim.

    The draw stays n x n, so each seed keeps its random stream, but only
    its leading dim columns are factored: Householder QR works column by
    column, so column j of Q and r_jj depend only on columns 1..j of the
    matrix, and these dim columns of Q are those of the full
    factorization up to rounding.  That costs O(n dim^2) time and one
    n x dim Q instead of O(n^3) and three n x n arrays.
    """
    _check_field(field)
    _check_counts(dim, n)
    rng = np.random.default_rng(seed)
    g = gaussian_matrix(rng, n, n, field == COMPLEX)
    q, r = np.linalg.qr(g[:, :dim])
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    q = q * np.conj(phases)[None, :]
    return Frame(dim=dim, field=field, vectors=np.conj(q))


def near_riesz_frame(dim: int, k: int, seed: int, field: str = REAL) -> Frame:
    """A well-conditioned basis plus k adjoined linear combinations of it:
    dim + k vectors with excess exactly k (a Riesz system for k = 0)."""
    _check_field(field)
    if dim < 1 or k < 0:
        raise BadParametersError(f"need dim >= 1 and k >= 0, got dim={dim}, k={k}")
    rng = np.random.default_rng(seed)
    while True:
        basis = gaussian_matrix(rng, dim, dim, field == COMPLEX)
        if dim == 1 or np.linalg.cond(basis) < 1e4:
            break
    if k == 0:
        return Frame(dim=dim, field=field, vectors=basis)
    combos = gaussian_matrix(rng, k, dim, field == COMPLEX) @ basis
    return Frame(dim=dim, field=field, vectors=np.vstack([basis, combos]))


# the |alpha_1|^2 bound of the projected-basis example (acceptance 09):
# above it the norm deficits after the first sum to less than 1/8
_FIRST_SQ_MIN = 7.0 / 8.0


def random_unit_alpha(m: int, seed: int, field: str = REAL) -> np.ndarray:
    """Unit coefficient vector with |alpha_1|^2 strictly above 7/8 and all
    entries bounded away from zero; feeds projected_basis_frame."""
    _check_field(field)
    if m < 2:
        raise BadParametersError("need at least two coefficients")
    rng = np.random.default_rng(seed)
    first_sq = rng.uniform(_FIRST_SQ_MIN + 0.6 * (1.0 - _FIRST_SQ_MIN),
                           _FIRST_SQ_MIN + 0.9 * (1.0 - _FIRST_SQ_MIN))
    rest = rng.uniform(0.2, 1.0, size=m - 1)
    rest *= np.sqrt(1.0 - first_sq) / np.linalg.norm(rest)
    alpha = np.concatenate([[np.sqrt(first_sq)], rest])
    if field == COMPLEX:
        return alpha * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))
    return alpha * rng.choice([-1.0, 1.0], size=m)


def projected_basis_frame(alpha: np.ndarray, tol: ToleranceConfig) -> Frame:
    """Orthonormal basis projected off a unit coefficient vector.

    For a unit vector a with all entries nonzero, project each basis
    vector e_k onto the hyperplane {x : <x, a> = 0} and express the
    result in an orthonormal coordinate system of that hyperplane.  The
    outcome is a Parseval frame of m vectors in dimension m - 1 with
    ||f_k||^2 = 1 - |alpha_k|^2 and excess exactly 1; its norm deficits
    sum to 1, making it the canonical worked example for the tail
    bounds of `identity`.
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
    if decide(max(norm, 1.0), ">", tol.atol, minus=min(norm, 1.0)).holds:
        raise NotUnitError(f"coefficient vector must have unit norm, got {norm!r}")
    field = REAL if np.all(alpha.imag == 0.0) else COMPLEX
    # the 1 x m row <., alpha> has rank 1 (alpha is a unit vector), so the
    # trailing m - 1 right singular vectors of its full SVD span its kernel
    _, _, vh = np.linalg.svd(np.conj(alpha)[None, :])
    hyperplane = fix_phase(adjoint(vh[1:]))
    return derived_frame(field, np.conj(hyperplane), tol)


def generate(kind: str, *, dim: Optional[int] = None, n: Optional[int] = None,
             seed: int = 0, field: str = REAL, k: Optional[int] = None,
             alpha: Optional[np.ndarray] = None,
             tol: Optional[ToleranceConfig] = None) -> Frame:
    """Dispatch over the generator kinds used by the CLI `gen` command."""
    tol = tol or ToleranceConfig()
    if kind == "random":
        return random_frame(dim, n, seed, field)
    if kind == "parseval-projection":
        return parseval_projection_frame(dim, n, seed, field)
    if kind == "near-riesz":
        if k is None:
            if dim is None or n is None:
                raise BadParametersError("near-riesz needs k, or dim and n")
            k = n - dim
        elif n is not None and dim is not None and n != dim + k:
            raise BadParametersError(
                f"inconsistent near-riesz sizes: n={n} but dim+k={dim + k}")
        if dim is None:
            raise BadParametersError("near-riesz needs dim")
        return near_riesz_frame(dim, k, seed, field)
    if kind == "projected-basis":
        if alpha is None:
            if n is None:
                raise BadParametersError(
                    "projected-basis needs n (coefficient count) or explicit alpha")
            alpha = random_unit_alpha(n, seed, field)
        elif n is not None and len(np.atleast_1d(alpha)) != n:
            raise BadParametersError("explicit alpha disagrees with n")
        frame = projected_basis_frame(np.atleast_1d(alpha), tol)
        return Frame(dim=frame.dim, field=field, vectors=frame.vectors)
    raise BadParametersError(f"unknown generator kind {kind!r}; choose from {KINDS}")
