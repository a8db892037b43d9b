"""Dense real symmetric linear algebra: validation, minimum eigenvalues,
norms, spectral projections and Cholesky lower-bound certificates.

Every operator that heisenkit solves is real symmetric, so every function
takes real input only, solved as float64 through LAPACK
(``numpy.linalg.eigh``); complex input is refused.  Every function but
``exceeds`` takes one matrix or a stack of shape (..., n, n); each matrix
of a stack must equal its transpose exactly, is solved as given by its own
dense LAPACK call, and gives one result.  ``exceeds`` takes one matrix and
answers with one Cholesky factorisation (LAPACK potrf) whether the least
eigenvalue that ``min_eigenvalue`` would compute is at least a level,
without computing it.
"""

from __future__ import annotations

import os

import numpy as np

CUT_AMBIGUITY_TOL = 1e-8
UNIT_ROUNDOFF = 2.0 ** -53  # u of IEEE double, half the machine epsilon


def physical_memory() -> int:
    """Bytes of physical memory.  Not the available part: a workload that
    is refused for its size is refused by its arguments and the machine
    alone."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _float_array(entries) -> np.ndarray:
    """``entries`` as a finite float64 array of shape (..., n, m)."""
    a = np.asarray(entries)
    if np.iscomplexobj(a):
        raise ValueError(f"expected real entries, got {a.dtype}")
    a = a.astype(float, copy=False)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _per_matrix(x, a: np.ndarray):
    """A float for a single matrix ``a``, the array of values otherwise."""
    return float(x) if np.ndim(a) == 2 else x


def hermitian_operator(entries) -> np.ndarray:
    """A symmetric matrix or stack as float64, without a copy when it
    already is one.  Complex or non-finite input, and any matrix A of the
    stack with A != A.T in even one entry, is refused: symmetry is exact or
    refused, never repaired."""
    a = _float_array(entries)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    at = np.swapaxes(a, -1, -2)
    if not np.array_equal(a, at):
        raise ValueError(f"matrix is not Hermitian: max asymmetry "
                         f"{np.abs(a - at).max():.3e}")
    return a


def min_eigenvalue(op: np.ndarray):
    """Smallest eigenvalue of each symmetric matrix."""
    return _per_matrix(np.linalg.eigvalsh(hermitian_operator(op))[..., 0], op)


def exceeds(op: np.ndarray, level: float) -> bool:
    """Whether one Cholesky factorisation certifies that the least
    eigenvalue ``min_eigenvalue(op)`` would compute for the single
    symmetric matrix ``op`` is at least ``level``.

    The matrix is validated by ``hermitian_operator`` and copied, the
    copy's diagonal is shifted in place by sigma = level + delta, and True
    means that LAPACK's Cholesky of the shifted copy ran to completion.
    False certifies nothing: the matrix may still clear ``level``.

    The allowance delta.  Write u = 2^-53, A for the validated n x n
    matrix, T = sum |a_ii| and F = ||A||_F >= ||A||_2; barring underflow:

    1. Forming the shift.  sigma = fl(level + delta) is within
       u (|level| + delta) of level + delta, and each diagonal entry is
       rounded once, so B = A - sigma I + E with E diagonal and
       ||E||_2 <= u (T + |sigma|).
    2. The Cholesky factorisation.  If it runs to completion on B, then
       R^T R = B + dB with |dB| <= g |R^T| |R|, g = gamma_{n+1} =
       (n+1)u / (1 - (n+1)u) (Higham, *Accuracy and Stability of
       Numerical Algorithms*, 2nd ed., Thm 10.3).  The column norms of R
       satisfy ||r_i||^2 <= b_ii / (1 - g), so |dB_ij| <=
       g/(1-g) sqrt(b_ii b_jj) and ||dB||_2 <= g/(1-g) tr B; as R^T R is
       positive semidefinite, lambda_min(B) >= -g/(1-g) tr B (the test of
       Rump, BIT 46 (2006), Lemma 2.1), with
       tr B <= (1 + u)(T + n |sigma|).
    3. The dense eigensolver.  LAPACK's computed eigenvalues of a
       symmetric matrix are within p(n) eps ||A||_2 of the exact ones, with
       p(n) a modestly growing function of n (LAPACK Users' Guide, 3rd
       ed., section 4.7.1); here p(n) = n and eps = 2u, so the computed
       lambda_min lies at most 2 n u F below the exact one.

    By Weyl's inequality the computed least eigenvalue of A is then at
    least sigma - h (T + n |sigma|) - 2 n u F with h = u + (1 + u) g/(1-g),
    which is at least ``level`` when

        delta >= (k |level| + h T + 2 n u F) / (1 - k),  k = u + h n (1 + u).

    The allowance is twice that bound, which covers the rounding of its
    own evaluation.  So when ``exceeds`` is True, ``min_eigenvalue(op) >=
    level`` holds, and a minimum over matrices that skips the certified
    ones is the same float as the minimum over all of them.
    """
    a = hermitian_operator(op).copy()  # the caller may still solve ``op``
    if a.ndim != 2:
        raise ValueError(f"expected one matrix, got shape {a.shape}")
    if not np.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    n = a.shape[0]
    diagonal = np.einsum("ii->i", a)  # a view: the shift happens in place
    u = UNIT_ROUNDOFF
    g = (n + 1) * u / (1.0 - (n + 1) * u)
    h = u + (1.0 + u) * g / (1.0 - g)
    k = u + h * n * (1.0 + u)
    bound = (k * abs(level) + h * float(np.abs(diagonal).sum())
             + 2.0 * n * u * float(np.linalg.norm(a)))
    diagonal -= level + 2.0 * bound / (1.0 - k)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def hermitian_norm(op: np.ndarray):
    """Operator norm of each symmetric matrix, max(-lambda_min, lambda_max)
    of its spectrum (no A*A is formed, so the condition is not squared)."""
    w = np.linalg.eigvalsh(hermitian_operator(op))
    return _per_matrix(np.maximum(-w[..., 0], w[..., -1]), op)


def spectral_norm(m: np.ndarray):
    """Largest singular value of each real matrix; works for non-symmetric
    products too."""
    m = _float_array(m)
    w = np.linalg.eigvalsh(np.swapaxes(m, -1, -2) @ m)
    return _per_matrix(np.sqrt(np.maximum(w[..., -1], 0.0)), m)


def spectral_projection(op: np.ndarray, deltas) -> np.ndarray:
    """The projections P_{A<=delta} onto the eigenspaces of each matrix A of
    ``op`` at most delta, for each cut delta of the sequence ``deltas``,
    all taken from one eigendecomposition: shape (len(deltas), ..., n, n).
    A cut within 1e-8 of an eigenvalue is refused."""
    w, v = np.linalg.eigh(hermitian_operator(op))
    cuts = np.asarray(deltas, dtype=float).reshape(-1, *(1,) * w.ndim)
    for delta, cut in zip(deltas, cuts):
        if np.any(np.abs(w - cut) < CUT_AMBIGUITY_TOL):
            raise ValueError(f"ambiguous spectral cut: eigenvalue within "
                             f"{CUT_AMBIGUITY_TOL} of delta={delta}")
    vsel = v * (w <= cuts)[..., None, :]
    return vsel @ np.swapaxes(vsel, -1, -2)
