"""Seeded frame generators for experiments, fixtures, and the CLI.

All randomness flows through a numpy Generator seeded explicitly, so
every produced frame is a pure function of its parameters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import BadParametersError
from .frames import COMPLEX, REAL, Frame, ToleranceConfig
from .identity import projected_basis_frame
from .linalg import gaussian_matrix

KINDS = ("random", "parseval-projection", "near-riesz", "projected-basis")


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

    Takes dim orthonormal columns of a random n x n unitary (QR of a
    Gaussian matrix, phases normalized for determinism): the rows of
    that n x dim isometry are the coordinates of an orthonormal basis of
    n-space projected onto a dim-dimensional subspace.  Excess n - dim.
    """
    _check_field(field)
    _check_counts(dim, n)
    rng = np.random.default_rng(seed)
    g = gaussian_matrix(rng, n, n, field == COMPLEX)
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    q = q * np.conj(phases)[None, :]
    return Frame(dim=dim, field=field, vectors=np.conj(q[:, :dim]))


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


def random_unit_alpha(m: int, seed: int, field: str = REAL,
                      first_sq_min: float = 7.0 / 8.0) -> np.ndarray:
    """Unit coefficient vector with |alpha_1|^2 strictly above first_sq_min
    and all entries bounded away from zero; feeds projected_basis_frame."""
    _check_field(field)
    if m < 2:
        raise BadParametersError("need at least two coefficients")
    if not 0.0 < first_sq_min < 1.0:
        raise BadParametersError("first_sq_min must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    first_sq = rng.uniform(first_sq_min + 0.6 * (1.0 - first_sq_min),
                           first_sq_min + 0.9 * (1.0 - first_sq_min))
    rest = rng.uniform(0.2, 1.0, size=m - 1)
    rest *= np.sqrt(1.0 - first_sq) / np.linalg.norm(rest)
    alpha = np.concatenate([[np.sqrt(first_sq)], rest])
    if field == COMPLEX:
        return alpha * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=m))
    return alpha * rng.choice([-1.0, 1.0], size=m)


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
