"""Reference implementations that only the tests use: independent
eigenvalue oracles, the rank-3 representation evaluated word by word, and
plain fixture graphs for the spectral-gap solver."""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from heisenkit.algebra import AlgebraElement
from heisenkit.groups import Heis3Elt
from heisenkit.linalg import hermitian_operator
from heisenkit.rotation import RationalAngle, pi_theta


def jacobi_eigenvalues(op: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues via cyclic Jacobi on the 2d x 2d real-symmetric embedding.

    H = A + iB embeds as [[A, -B], [B, A]]; its spectrum is that of H with
    every eigenvalue doubled.  Deterministic row-cyclic sweep order;
    convergence when the off-diagonal Frobenius mass drops below
    tol * ||M||_F.  Independent of LAPACK -- used as a cross-check oracle.
    """
    h = hermitian_operator(op)
    a, b = h.real.copy(), h.imag.copy()
    m = np.block([[a, -b], [b, a]])
    n = m.shape[0]
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return np.zeros(h.shape[0])
    for _ in range(max_sweeps):
        off = np.sqrt(max(np.linalg.norm(m) ** 2 - np.sum(np.diag(m) ** 2), 0.0))
        if off < tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # classical 2x2 symmetric Schur rotation
                tau = (m[q, q] - m[p, p]) / (2.0 * apq)
                if tau == 0.0:
                    t = 1.0
                elif abs(tau) > 1e8:
                    t = 1.0 / (2.0 * tau)  # overflow-safe asymptote
                else:
                    t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = m[p, :].copy(), m[q, :].copy()
                m[p, :] = c * rp - s * rq
                m[q, :] = s * rp + c * rq
                cp, cq = m[:, p].copy(), m[:, q].copy()
                m[:, p] = c * cp - s * cq
                m[:, q] = s * cp + c * cq
    w = np.sort(np.diag(m))
    return w[::2]  # each eigenvalue of H appears twice in the embedding


def char_poly_coeffs(op: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients by Faddeev-LeVerrier.

    Returns [1, c_{n-1}, ..., c_0] for det(tI - A).  Entry arithmetic only;
    no eigensolver involved, so tests can use it as an independent oracle
    for small dimensions.
    """
    a = np.asarray(op, dtype=complex)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ mk) / k
    return coeffs


def _site_matrix(angle: RationalAngle, a: int, b: int) -> np.ndarray:
    return pi_theta(angle, (a, b, a * b))  # x^a y^b with no central phase


def pi_theta3(angle: RationalAngle, g: Heis3Elt) -> np.ndarray:
    """Image of a rank-3 element on the triple tensor power; the three
    central generators all map to the same scalar."""
    a, b, c = g
    dot = sum(u * v for u, v in zip(a, b))
    m = _site_matrix(angle, a[0], b[0])
    for i in (1, 2):
        m = np.kron(m, _site_matrix(angle, a[i], b[i]))
    phase = np.exp(2j * pi * angle.p * ((c - dot) % angle.q) / angle.q)
    return phase * m


def evaluate3(angle: RationalAngle, xi: AlgebraElement) -> np.ndarray:
    q = angle.q
    out = np.zeros((q ** 3, q ** 3), dtype=complex)
    for g, coeff in xi.terms.items():
        out += float(coeff) * pi_theta3(angle, g)
    return out


@dataclass
class FixtureGraph:
    """Plain neighbor-list graph for self-tests (complete graphs, unions)."""

    order: int
    degree: int
    neighbors: np.ndarray


def complete_graph(m: int) -> FixtureGraph:
    nbrs = np.array([[j for j in range(m) if j != i] for i in range(m)],
                    dtype=np.int64)
    return FixtureGraph(order=m, degree=m - 1, neighbors=nbrs)


def disjoint_union(a: FixtureGraph, b: FixtureGraph) -> FixtureGraph:
    if a.degree != b.degree:
        raise ValueError("union of regular graphs needs equal degrees")
    nbrs = np.concatenate([a.neighbors, b.neighbors + a.order])
    return FixtureGraph(order=a.order + b.order, degree=a.degree, neighbors=nbrs)
