"""Eigensolver contracts, Kronecker words and spectral projections."""

import numpy as np
import pytest

from heisenkit.linalg import (char_poly_coeffs, hermitian_operator,
                              jacobi_eigenvalues, min_eigenvalue,
                              spectral_norm, spectral_projection)
from heisenkit.rotation import RationalAngle, tensor_operator, x_op, y_op

SQRT2 = np.sqrt(2.0)


def random_hermitian(rng, dim):
    a = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
    return (a + a.conj().T) / 2


def test_eig_diagonal():
    a = np.diag([0.0, 4.0])
    assert min_eigenvalue(a) == 0.0
    assert np.allclose(jacobi_eigenvalues(a), [0.0, 4.0], atol=1e-14)


def test_eig_closed_form_2x2():
    # char poly of [[2,2],[2,-2]] is t^2 - 8: eigenvalues -2 sqrt 2, 2 sqrt 2
    a = np.array([[2.0, 2.0], [2.0, -2.0]])
    assert min_eigenvalue(a) == pytest.approx(-2 * SQRT2, abs=1e-12)
    assert np.allclose(np.roots(char_poly_coeffs(a)).real,
                       [2 * SQRT2, -2 * SQRT2], atol=1e-12)


def test_eig_y_half():
    a = np.array([[2.0, -2.0], [-2.0, 2.0]])
    assert min_eigenvalue(a) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(jacobi_eigenvalues(a), [0.0, 4.0], atol=1e-12)


def test_eig_matches_char_poly_roots():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        for _ in range(10):
            a = random_hermitian(rng, dim)
            w = np.linalg.eigvalsh(hermitian_operator(a))
            roots = np.sort(np.roots(char_poly_coeffs(a)).real)
            assert np.allclose(w, roots, atol=1e-8)
            assert min_eigenvalue(a) == w[0]


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        min_eigenvalue(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        min_eigenvalue(np.zeros((2, 3)))


def test_operator_norm_examples():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert spectral_norm(np.array([[2.0, 2.0], [2.0, -2.0]])) == pytest.approx(2 * SQRT2, abs=1e-12)
    for q in (1, 5, 9):
        assert spectral_norm(np.eye(q)) == pytest.approx(1.0, abs=1e-14)


def test_min_eigenvalue_examples():
    # X + Y at angle 1/2: [[2,-2],[-2,6]], min eig 4 - 2 sqrt 2
    m = np.array([[2.0, -2.0], [-2.0, 6.0]])
    assert min_eigenvalue(m) == pytest.approx(4 - 2 * SQRT2, abs=1e-12)
    assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
    assert min_eigenvalue(np.diag([0.0, 4.0])) == pytest.approx(0.0, abs=1e-14)


def test_psd_agrees_with_principal_minors():
    # PSD iff every principal minor determinant is >= 0 (dim <= 4)
    rng = np.random.default_rng(23)
    from itertools import combinations
    for _ in range(40):
        dim = rng.integers(2, 5)
        a = random_hermitian(rng, dim).real
        a = (a + a.T) / 2
        me = min_eigenvalue(a)
        if abs(me) < 1e-6:
            continue  # skip numerically borderline draws
        minors_ok = all(
            np.linalg.det(a[np.ix_(idx, idx)]) >= -1e-10
            for r in range(1, dim + 1)
            for idx in combinations(range(dim), r)
        )
        assert minors_ok == (me >= 0)


def test_kron_block_structure():
    a = RationalAngle(1, 3)
    y = y_op(a)
    k = tensor_operator(a, "IIY")
    assert k.shape == (27, 27)
    for i in range(9):
        assert np.array_equal(k[3 * i:3 * i + 3, 3 * i:3 * i + 3], y)
    assert np.count_nonzero(k) == 9 * np.count_nonzero(y)
    assert np.array_equal(tensor_operator(RationalAngle(1, 2), "XI"),
                          np.diag([0.0, 0.0, 4.0, 4.0]))


def test_kron_norm_multiplicative():
    for a in (RationalAngle(1, 3), RationalAngle(2, 5), RationalAngle(3, 7)):
        x, y = x_op(a), y_op(a)
        letters = {"X": x, "Y": y, "S": x @ y + y @ x}
        for word in ("XY", "YS", "SX"):
            assert spectral_norm(tensor_operator(a, word)) == pytest.approx(
                spectral_norm(letters[word[0]]) * spectral_norm(letters[word[1]]),
                rel=1e-10)


def test_kron_associative_exact():
    # at angle 1/2 every letter has small integer entries, so triple
    # products are exact in floats
    a = RationalAngle(1, 2)
    x, y = x_op(a), y_op(a)
    s = x @ y + y @ x
    xys = tensor_operator(a, "XYS")
    assert np.array_equal(xys, np.kron(tensor_operator(a, "XY"), s))
    assert np.array_equal(xys, np.kron(x, tensor_operator(a, "YS")))


def test_spectral_projection_diagonal():
    x = x_op(RationalAngle(1, 2))  # diag(0, 4)
    proj = spectral_projection(x, 1.0, "le")
    assert np.allclose(proj.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert proj.rank == 1


def test_spectral_projection_above_norm_is_identity():
    a = np.array([[1.0, 0.5], [0.5, -1.0]])
    proj = spectral_projection(a, spectral_norm(a) + 1.0, "le")
    assert np.allclose(proj.matrix, np.eye(2), atol=1e-12)


def test_spectral_projection_complement_exact():
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 6)
    le = spectral_projection(a, 0.05, "le")
    gt = spectral_projection(a, 0.05, "gt")
    assert np.array_equal(le.matrix + gt.matrix, np.eye(6, dtype=complex))
    assert le.rank + gt.rank == 6
    for p in (le, gt):
        assert np.max(np.abs(p.matrix - p.matrix.conj().T)) <= 1e-9
        assert np.max(np.abs(p.matrix @ p.matrix - p.matrix)) <= 1e-9


def test_spectral_projection_ambiguous_cut():
    with pytest.raises(ValueError, match="ambiguous"):
        spectral_projection(np.diag([0.0, 4.0]), 4.0 + 1e-10, "le")


def test_projection_product_bound_third():
    # ||P_{Y<=d} P_{X<=d}|| <= sqrt(2/(4-d)) at angle 1/3, d = 0.5
    a = RationalAngle(1, 3)
    px = spectral_projection(x_op(a), 0.5, "le")
    py = spectral_projection(y_op(a), 0.5, "le")
    norm = spectral_norm(py.matrix @ px.matrix)
    assert norm <= np.sqrt(2.0 / 3.5) + 1e-9


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(17)
    for dim in (1, 2, 3, 6, 12):
        a = random_hermitian(rng, dim)
        w_j = jacobi_eigenvalues(a)
        w_l = np.linalg.eigvalsh(hermitian_operator(a))
        assert np.allclose(w_j, w_l, atol=1e-8)
    assert np.allclose(jacobi_eigenvalues(np.array([[2.0, 2.0], [2.0, -2.0]])),
                       [-2 * SQRT2, 2 * SQRT2], atol=1e-10)


def test_hermitian_operator_symmetrizes():
    a = np.array([[1.0, 1 + 1e-13], [1.0, 2.0]])
    h = hermitian_operator(a)
    assert np.array_equal(h, h.conj().T)
