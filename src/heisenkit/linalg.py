"""Dense Hermitian linear algebra: validation, minimum eigenvalues, norms
and spectral projections.

Production eigensolves go through LAPACK (``numpy.linalg.eigh``).  Real
input stays real and is solved as float64 symmetric; complex input is
solved as complex128 Hermitian.  Every function takes one matrix or a
stack of shape (..., n, n); each matrix of a stack is validated on its own
scale and solved by its own dense LAPACK call, and a stack gives one
result per matrix.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
CUT_AMBIGUITY_TOL = 1e-8


def _float_array(entries) -> np.ndarray:
    """``entries`` as a finite float64 array, or complex128 when they are
    complex, of shape (..., n, m)."""
    a = np.asarray(entries)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    at = np.swapaxes(a, -1, -2)
    return at.conj() if np.iscomplexobj(at) else at


def _per_matrix(x, a: np.ndarray):
    """A float for a single matrix ``a``, the array of values otherwise."""
    return float(x) if np.ndim(a) == 2 else x


def hermitian_operator(entries) -> np.ndarray:
    """Validate and exactly symmetrize a Hermitian matrix or stack.

    Rejects non-finite input and, in any matrix A of the stack, asymmetry
    beyond 1e-12 max(1, max |A|); the returned array satisfies
    A == A.conj().T exactly and is float64 for real input, complex128
    otherwise.
    """
    a = _float_array(entries)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    at = _adjoint(a)
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    skew = np.abs(a - at).max(axis=(-2, -1))
    bad = skew > HERMITICITY_TOL * scale
    if bad.any():
        raise ValueError(f"matrix is not Hermitian: max asymmetry "
                         f"{skew[bad].max():.3e}")
    return (a + at) / 2


def min_eigenvalue(op: np.ndarray):
    """Smallest eigenvalue of each Hermitian matrix."""
    return _per_matrix(np.linalg.eigvalsh(hermitian_operator(op))[..., 0], op)


def hermitian_norm(op: np.ndarray):
    """Operator norm of each Hermitian matrix, max(-lambda_min, lambda_max)
    of its spectrum (no A*A is formed, so the condition is not squared)."""
    w = np.linalg.eigvalsh(hermitian_operator(op))
    return _per_matrix(np.maximum(-w[..., 0], w[..., -1]), op)


def spectral_norm(m: np.ndarray):
    """Largest singular value of each matrix; works for non-Hermitian
    products too."""
    m = _float_array(m)
    w = np.linalg.eigvalsh(_adjoint(m) @ m)
    return _per_matrix(np.sqrt(np.maximum(w[..., -1], 0.0)), m)


def spectral_projection(op: np.ndarray, delta) -> np.ndarray:
    """The projection P_{A<=delta} onto the eigenspaces of each matrix A of
    ``op`` at most ``delta``; refuses cuts within 1e-8 of an eigenvalue.

    ``delta`` may be a sequence of cuts, all taken from one
    eigendecomposition; the result then has shape (len(delta), ..., n, n).
    """
    w, v = np.linalg.eigh(hermitian_operator(op))
    deltas = np.asarray(delta, dtype=float)
    cuts = deltas.reshape(-1, *(1,) * w.ndim)
    if np.any(np.abs(w - cuts) < CUT_AMBIGUITY_TOL):
        raise ValueError(f"ambiguous spectral cut: eigenvalue within "
                         f"{CUT_AMBIGUITY_TOL} of delta={delta}")
    vsel = v * (w <= cuts)[..., None, :]
    out = vsel @ _adjoint(vsel)
    return out if deltas.ndim else out[0]
