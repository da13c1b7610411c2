"""Shared dense linear-algebra helpers (SVD ranks, subspaces, projections).

Everything here is a thin, deterministic wrapper over numpy's LAPACK
bindings. Sign/phase canonicalization makes decompositions reproducible
across calls so that constructed frames are stable test targets.
"""

from __future__ import annotations

import numpy as np


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(m).T


def inexact(m) -> np.ndarray:
    """m as float64 when real (or integer), complex128 when complex."""
    m = np.asarray(m)
    return m.astype(np.result_type(m, np.float64), copy=False)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value (spectral norm)."""
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def rank_from_singular_values(s: np.ndarray, rtol: float) -> int:
    """Count singular values above the relative cutoff rtol * s_max."""
    s = np.asarray(s, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def matrix_rank(m: np.ndarray, rtol: float) -> int:
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return rank_from_singular_values(s, rtol)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Scale a vector, or each column of a matrix, by a unit-modulus
    factor so its largest-magnitude entry becomes real and positive.
    Deterministic representative of the phase equivalence class; zero
    vectors are left as they are."""
    v = np.asarray(v)
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=0)[None], axis=0)[0]
    mag = np.abs(lead)
    return v * np.divide(np.conj(lead), mag, out=np.ones_like(lead), where=mag > 0)


def orthonormal_range(m: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the column space of m; a matrix
    without columns gives an (m.shape[0], 0) array."""
    m = np.atleast_2d(np.asarray(m))
    if m.shape[1] == 0:
        return m.copy()
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    r = rank_from_singular_values(s, rtol)
    return u[:, :r]


def orthonormal_nullspace(m: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal basis (columns) of {x : m x = 0}, phase-canonicalized."""
    m = np.atleast_2d(np.asarray(m))
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    r = rank_from_singular_values(s, rtol)
    return fix_phase(adjoint(vh)[:, r:])


def subspace_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Sine of the largest principal angle between the column spans of two
    orthonormal bases. Subspaces of unequal dimension are at distance 1;
    two zero-dimensional subspaces are at distance 0."""
    q1 = np.atleast_2d(np.asarray(q1))
    q2 = np.atleast_2d(np.asarray(q2))
    d1, d2 = q1.shape[1], q2.shape[1]
    if d1 != d2:
        return 1.0
    if d1 == 0:
        return 0.0
    # ||(I - Q1 Q1*) Q2|| rather than sqrt(1 - cos^2): the latter amplifies
    # rounding in the cosines to ~1e-8 for subspaces that are actually equal
    residual = q2 - q1 @ (adjoint(q1) @ q2)
    return min(1.0, operator_norm(residual))


def gaussian_matrix(rng: np.random.Generator, rows: int, cols: int,
                    complex_valued: bool) -> np.ndarray:
    """Standard Gaussian matrix; complex entries have unit total variance."""
    g = rng.standard_normal((rows, cols))
    if complex_valued:
        return (g + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return g
