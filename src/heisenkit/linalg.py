"""Dense Hermitian linear algebra: validation, minimum eigenvalues, norms,
spectral projections and Cholesky lower-bound certificates.

Production eigensolves go through LAPACK (``numpy.linalg.eigh``).  Real
input stays real and is solved as float64 symmetric; complex input is
solved as complex128 Hermitian.  Every function but ``exceeds`` takes one
matrix or a stack of shape (..., n, n); each matrix of a stack is
validated on its own scale and solved by its own dense LAPACK call, and a
stack gives one result per matrix.  ``exceeds`` takes one matrix and
answers with one Cholesky factorisation (LAPACK potrf) whether the least
eigenvalue that ``min_eigenvalue`` would compute is at least a level,
without computing it.
"""

from __future__ import annotations

import os

import numpy as np

HERMITICITY_TOL = 1e-12
CUT_AMBIGUITY_TOL = 1e-8
UNIT_ROUNDOFF = 2.0 ** -53  # u of IEEE double, half the machine epsilon


def physical_memory() -> int:
    """Bytes of physical memory.  Not the available part: a workload that
    is refused for its size is refused by its arguments and the machine
    alone."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


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
    skew = np.abs(a - at).max(axis=(-2, -1))
    # the scale max(1, max |A|) is at least 1, so no matrix can fail while
    # every asymmetry is within the bare tolerance
    if np.any(skew > HERMITICITY_TOL):
        scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
        bad = skew > HERMITICITY_TOL * scale
        if bad.any():
            raise ValueError(f"matrix is not Hermitian: max asymmetry "
                             f"{skew[bad].max():.3e}")
    return (a + at) / 2


def min_eigenvalue(op: np.ndarray):
    """Smallest eigenvalue of each Hermitian matrix."""
    return _per_matrix(np.linalg.eigvalsh(hermitian_operator(op))[..., 0], op)


def exceeds(op: np.ndarray, level: float) -> bool:
    """Whether one Cholesky factorisation certifies that the least
    eigenvalue ``min_eigenvalue(op)`` would compute for the single
    Hermitian matrix ``op`` is at least ``level``.

    The matrix is validated and copied by ``hermitian_operator``, the
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
    own evaluation; for complex entries every operation's relative error
    is taken as 4u instead of u in g (a complex product errs by at most
    2 sqrt(2) u; Higham, Lemma 3.5).  So when ``exceeds`` is True,
    ``min_eigenvalue(op) >= level`` holds, and a minimum over matrices
    that skips the certified ones is the same float as the minimum over
    all of them.
    """
    a = hermitian_operator(op)
    if a.ndim != 2:
        raise ValueError(f"expected one matrix, got shape {a.shape}")
    if not np.isfinite(level):
        raise ValueError(f"level must be finite, got {level}")
    n = a.shape[0]
    diagonal = np.einsum("ii->i", a)  # a view: the shift happens in place
    u = UNIT_ROUNDOFF
    unit = 4.0 * u if np.iscomplexobj(a) else u
    g = (n + 1) * unit / (1.0 - (n + 1) * unit)
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
