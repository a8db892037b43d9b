"""Dense Hermitian linear algebra: validation, minimum eigenvalues, norms
and spectral projections.

Production eigensolves go through LAPACK (``numpy.linalg.eigh``).  Real
input stays real and is solved as float64 symmetric; complex input is
solved as complex128 Hermitian.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
CUT_AMBIGUITY_TOL = 1e-8


def _float_array(entries) -> np.ndarray:
    """``entries`` as float64, or as complex128 when they are complex."""
    a = np.asarray(entries)
    return a.astype(complex if np.iscomplexobj(a) else float, copy=False)


def hermitian_operator(entries) -> np.ndarray:
    """Validate and exactly symmetrize a Hermitian matrix.

    Rejects non-finite input and asymmetry beyond 1e-12 relative to the
    matrix scale; the returned array satisfies A == A.conj().T exactly and
    is float64 for real input, complex128 otherwise.
    """
    a = _float_array(entries)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
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
    m = _float_array(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    w = np.linalg.eigvalsh(m.conj().T @ m)
    return float(np.sqrt(max(w[-1], 0.0)))


def spectral_projection(op: np.ndarray, delta: float) -> np.ndarray:
    """The projection P_{A<=delta} onto the eigenspaces of ``op`` at most
    ``delta``; refuses cuts within 1e-8 of an eigenvalue."""
    h = hermitian_operator(op)
    w, v = np.linalg.eigh(h)
    if np.min(np.abs(w - delta)) < CUT_AMBIGUITY_TOL:
        raise ValueError(f"ambiguous spectral cut: eigenvalue within "
                         f"{CUT_AMBIGUITY_TOL} of delta={delta}")
    vsel = v[:, w <= delta]
    return vsel @ vsel.conj().T
