"""Shared dense linear-algebra kernels (norms, phases, complements, angles).

Everything here is a thin, deterministic wrapper over numpy's LAPACK
bindings, and tolerance-free: no function takes a tolerance or decides
a rank.  Every rank and range basis is read from a frame's cached SVD
under the rank rule of `frames.ToleranceConfig`.  Sign/phase
canonicalization makes decompositions reproducible across calls so
that constructed frames are stable test targets.
"""

from __future__ import annotations

import numpy as np


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose; for a real array a view of it, not a copy."""
    return m.conj().T


def inexact(m) -> np.ndarray:
    """m as float64 when real (or integer), complex128 when complex."""
    m = np.asarray(m)
    return m.astype(np.result_type(m, np.float64), copy=False)


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value (spectral norm)."""
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Scale a vector, or each column of a matrix, by a unit-modulus
    factor so its largest-magnitude entry becomes real and positive.
    Deterministic representative of the phase equivalence class; zero
    vectors are left as they are."""
    v = np.asarray(v)
    rows = np.argmax(np.abs(v), axis=0)
    lead = v[rows, np.arange(v.shape[1])] if v.ndim == 2 else v[rows]
    mag = np.abs(lead)
    return v * np.divide(np.conj(lead), mag, out=np.ones_like(lead), where=mag > 0)


def qr_complement(p: np.ndarray) -> np.ndarray:
    """The trailing n - k columns Q E, E = [0; I], of the Q of a complete
    QR of an (n, k) matrix p with n >= k, formed without the n x n Q.

    Q = H_1 ... H_k for the Householder reflectors H_j = I - tau_j v_j v_j*
    of one QR of p.  With the v_j as the columns of V, Q = I - V T V* for
    the upper triangular T with T^{-1} = diag(1/tau) + striu(V*V)
    (Joffrain, Low, Quintana-Orti and van de Geijn, "Accumulating
    Householder transformations, revisited", ACM TOMS 32(2), 2006), so
    Q E = E - V T (V* E).  Reflectors with tau = 0 are the identity and
    are left out of V.  Neither the reflectors nor T outlive the call.
    """
    n, k = p.shape
    h, tau = np.linalg.qr(p, mode="raw")
    v = h.T  # v_j below the diagonal of column j, R on and above it
    v[:k] = np.tril(v[:k], -1)
    np.fill_diagonal(v, 1.0)
    keep = tau != 0.0
    if not keep.all():
        v, tau = v[:, keep], tau[keep]
    t_inv = np.triu(adjoint(v) @ v, 1)
    t_inv[np.diag_indices(tau.size)] = 1.0 / tau
    tail = v @ np.linalg.solve(t_inv, -adjoint(v[k:]))
    rows = np.arange(n - k)
    tail[k + rows, rows] += 1.0
    return tail


def subspace_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Sine of the largest principal angle between the column spans of two
    orthonormal bases. Subspaces of unequal dimension are at distance 1."""
    q1 = np.atleast_2d(np.asarray(q1))
    q2 = np.atleast_2d(np.asarray(q2))
    d1, d2 = q1.shape[1], q2.shape[1]
    if d1 != d2:
        return 1.0
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
