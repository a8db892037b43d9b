"""Dense Hermitian linear algebra: validation, minimum eigenvalues, norms
and spectral projections.

Production eigensolves go through LAPACK (``numpy.linalg.eigh``).  A cyclic
Jacobi solver on the real-symmetric embedding and a Faddeev-LeVerrier
characteristic polynomial are kept as independent oracles for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
CUT_AMBIGUITY_TOL = 1e-8


def hermitian_operator(entries) -> np.ndarray:
    """Validate and exactly symmetrize a Hermitian matrix.

    Rejects non-finite input and asymmetry beyond 1e-12 relative to the
    matrix scale; the returned array satisfies A == A.conj().T exactly.
    """
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    skew = np.max(np.abs(a - a.conj().T))
    if skew > HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {skew:.3e}")
    return (a + a.conj().T) / 2


def min_eigenvalue(op: np.ndarray) -> float:
    w = np.linalg.eigvalsh(hermitian_operator(op))
    return float(w[0])


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; works for non-Hermitian products too."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    w = np.linalg.eigvalsh(m.conj().T @ m)
    return float(np.sqrt(max(w[-1], 0.0)))


@dataclass(frozen=True)
class SpectralProjection:
    """Projection onto eig-space of ``source`` on one side of ``threshold``."""

    source: np.ndarray
    threshold: float
    mode: str  # "le" (at most) or "gt" (greater than)
    matrix: np.ndarray
    rank: int


def spectral_projection(op: np.ndarray, delta: float, mode: str = "le") -> SpectralProjection:
    """P_{A<=delta} or P_{A>delta}; refuses cuts within 1e-8 of an eigenvalue.

    The two modes are exactly complementary: P_gt is constructed as
    I - P_le, so P_le + P_gt = I holds entrywise exactly.
    """
    if mode not in ("le", "gt"):
        raise ValueError(f"mode must be 'le' or 'gt', got {mode!r}")
    h = hermitian_operator(op)
    w, v = np.linalg.eigh(h)
    if np.min(np.abs(w - delta)) < CUT_AMBIGUITY_TOL:
        raise ValueError(f"ambiguous spectral cut: eigenvalue within "
                         f"{CUT_AMBIGUITY_TOL} of delta={delta}")
    keep = w <= delta
    vsel = v[:, keep]
    p_le = vsel @ vsel.conj().T
    if mode == "le":
        matrix, rank = p_le, int(np.sum(keep))
    else:
        matrix, rank = np.eye(h.shape[0], dtype=complex) - p_le, int(np.sum(~keep))
    return SpectralProjection(source=h, threshold=float(delta), mode=mode,
                              matrix=matrix, rank=rank)


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
