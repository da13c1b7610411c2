"""Independent reference checks for every output the benchmark collects.

Nothing here calls framekit: each check recomputes what it needs from
the raw vectors with numpy, so a wrong result cannot confirm itself.
The kernels are bound at import time, before tracing patches
numpy.linalg, so checking never shows up in the per-layer counts.

Conventions follow framekit: a frame is an (n, d) array F of row vectors,
its analysis matrix is U = conj(F), the frame operator is S = U* U, and
a second system G is a dual of F when V* U = I with V = conj(G).
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import eigvalsh, norm, solve, svd

ATOL = 1e-8
RANK_RTOL = 1e-10
EIG_ONE_ATOL = 1e-8
NU_LOW, NU_HIGH = 0.75 - ATOL, 1.0 + ATOL


def opnorm(m) -> float:
    return float(norm(m, 2))


def frame_operator(f: np.ndarray) -> np.ndarray:
    return f.T @ np.conj(f)


def rank(m: np.ndarray) -> int:
    s = svd(m, compute_uv=False)
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def dual_residual(f: np.ndarray, g: np.ndarray) -> float:
    """||V* U - I|| for analysis matrices U = conj(f), V = conj(g)."""
    return opnorm(g.T @ np.conj(f) - np.eye(f.shape[1]))


def parseval_residual(g: np.ndarray) -> float:
    return opnorm(frame_operator(g) - np.eye(g.shape[1]))


def close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= ATOL * max(1.0, scale)


class Reference:
    """Spectral facts of one input frame, computed once and reused."""

    def __init__(self, f: np.ndarray) -> None:
        self.f = f
        self.n, self.d = f.shape
        self.s = frame_operator(f)
        self.eigs = eigvalsh(self.s)
        self.rank = rank(f)
        self.excess = self.n - self.rank
        dev = int(np.count_nonzero(np.abs(self.eigs - 1.0) > EIG_ONE_ATOL))
        self.parseval_dual_exists = bool(self.eigs[0] >= 1.0 - EIG_ONE_ATOL
                                         and dev <= self.excess)
        self.deviation_dim = dev

    def bounds_ok(self, a_opt: float, b_opt: float) -> bool:
        top = self.eigs[-1]
        return (close(a_opt, max(self.eigs[0], 0.0), top)
                and close(b_opt, max(top, 0.0), top))

    def canonical_ok(self, g: np.ndarray) -> bool:
        """g is a dual whose analysis matrix is U S^-1."""
        scale = max(1.0, opnorm(self.f))
        return (dual_residual(self.f, g) <= ATOL
                and opnorm(np.conj(g) @ self.s - np.conj(self.f)) <= ATOL * scale)

    def free_dual_ok(self, g: np.ndarray, w: np.ndarray) -> bool:
        """g has analysis matrix U S^-1 + Q W, Q = I - U S^-1 U* being the
        orthogonal projection onto the complement of the analysis range."""
        u = np.conj(self.f)
        u_sinv = solve(self.s.T, u.T).T
        expected = u_sinv + w - u_sinv @ (np.conj(u).T @ w)
        scale = max(1.0, opnorm(w))
        return (dual_residual(self.f, g) <= ATOL
                and opnorm(np.conj(g) - expected) <= ATOL * scale)

    def nu_range(self, members) -> tuple:
        """(nu_minus, nu_plus) of J from the spectral mapping of a Parseval
        frame: spec(M_J) = {1 - t + t^2 : t in spec(S_J)}."""
        rows = self.f[[k - 1 for k in members]]
        t = eigvalsh(frame_operator(rows)) if len(members) else np.zeros(self.d)
        h = 1.0 - t + t * t
        return float(h.min()), float(h.max())

    def nu_ok(self, members, nu_minus: float, nu_plus: float) -> bool:
        lo, hi = self.nu_range(members)
        return (NU_LOW <= nu_minus <= nu_plus <= NU_HIGH
                and close(nu_minus, lo) and close(nu_plus, hi))

    def identity_ok(self, members, x: np.ndarray, lhs: float, rhs: float) -> bool:
        """Both sides of the identity at a unit x equal the subset quantity
        x*(S_J + S_{J^c}^2)x of a Parseval frame, which lies in [3/4, 1]."""
        s_j = frame_operator(self.f[[k - 1 for k in members]])
        s_out = self.s - s_j
        q = float(np.real(np.conj(x) @ (s_j + s_out @ s_out) @ x))
        return close(lhs, q) and close(rhs, q) and NU_LOW <= q <= NU_HIGH

    def best_parseval_ok(self, found: float) -> bool:
        """A searched smallest ||V*V - I|| over all duals matches the closed
        form: with mu_1 >= ... >= mu_d the eigenvalues of I - S^-1 and k
        the excess, it is max(mu_{k+1}^+, (-mu_d)^+). The search is a
        numerical optimizer, hence the looser relative tolerance."""
        mu = np.sort(1.0 - 1.0 / self.eigs)[::-1]
        keep = mu[self.excess] if self.excess < self.d else 0.0
        best = float(max(keep, 0.0, -mu[-1]))
        return abs(found - best) <= 1e-4 * max(1.0, best)

    def tail_threshold(self, eps: float) -> int:
        deficits = 1.0 - np.sum(np.abs(self.f) ** 2, axis=1)
        for n0 in range(self.n + 1):
            if float(np.sum(deficits[n0:])) < eps:
                return n0
        return self.n


def parse_rows(rows, field: str) -> np.ndarray:
    """Vectors of a frame file or report payload as a complex array."""
    if field == "complex":
        return np.array([[re + 1j * im for re, im in row] for row in rows],
                        dtype=np.complex128)
    return np.array(rows, dtype=np.complex128)
