"""Representation laws, operator builders and unitary-equivalence symmetries."""

import random
from fractions import Fraction
from math import cos, pi, sqrt

import numpy as np
import pytest

from heisenkit.algebra import (AlgebraElement, heis_laplacian,
                               hermitian_square, one_minus,
                               sos_identity_sides)
from heisenkit.groups import Heisenberg
from heisenkit.linalg import spectral_norm
from heisenkit.rotation import (RationalAngle, almost_mathieu, bz_bound,
                                evaluate, farey_angles, letters, parity_bases,
                                parity_stack, pi_theta, pi_x, pi_y,
                                site_letters, tensor_operator, x_op, y_op,
                                z_scalar)
from oracles import Heisenberg3, evaluate3, parity_letters, pi_theta3

H = Heisenberg


def test_angle_validation():
    with pytest.raises(ValueError):
        RationalAngle(2, 4)
    with pytest.raises(ValueError):
        RationalAngle(3, 2)
    with pytest.raises(ValueError):
        RationalAngle(1, 0)


def test_farey_grid():
    grid = farey_angles(5)
    assert [(a.p, a.q) for a in grid] == [(0, 1), (1, 5), (1, 4), (1, 3),
                                          (2, 5), (1, 2)]
    full = farey_angles(4, max_value=None)
    assert [(a.p, a.q) for a in full] == [(0, 1), (1, 4), (1, 3), (1, 2),
                                          (2, 3), (3, 4)]


def test_pi_half_generators():
    a = RationalAngle(1, 2)
    assert np.allclose(pi_x(a), np.diag([1, -1]), atol=1e-14)
    assert np.allclose(pi_y(a), np.array([[0, 1], [1, 0]]), atol=1e-14)
    assert np.allclose(pi_theta(a, H.z), -np.eye(2), atol=1e-14)


def test_pi_zero_is_trivial():
    a = RationalAngle(0, 1)
    for g in (H.x, H.y, H.z, (3, -2, 5)):
        assert np.allclose(pi_theta(a, g), np.array([[1.0]]), atol=1e-14)


def test_pi_multiplicative():
    rng = random.Random(5)
    for angle in (RationalAngle(1, 3), RationalAngle(2, 7), RationalAngle(3, 8)):
        for _ in range(8):
            g = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            h = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            lhs = pi_theta(angle, g) @ pi_theta(angle, h)
            rhs = pi_theta(angle, H.mul(g, h))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
        g = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        assert np.max(np.abs(pi_theta(angle, g) @ pi_theta(angle, H.inv(g))
                             - np.eye(angle.q))) <= 1e-12


def test_pi_commutator_is_central_phase():
    a = RationalAngle(1, 3)
    m = (pi_theta(a, H.x) @ pi_theta(a, H.y)
         @ pi_theta(a, H.inv(H.x)) @ pi_theta(a, H.inv(H.y)))
    assert np.max(np.abs(m - np.exp(2j * pi / 3) * np.eye(3))) <= 1e-12


def test_evaluate_laplacian_and_center():
    for angle in (RationalAngle(1, 3), RationalAngle(2, 5)):
        assert np.max(np.abs(evaluate(angle, heis_laplacian())
                             - (x_op(angle) + y_op(angle)))) <= 1e-12
        zz = hermitian_square(H, H.z)
        assert np.max(np.abs(evaluate(angle, zz)
                             - z_scalar(angle) * np.eye(angle.q))) <= 1e-12


def test_evaluate_sos_identity_sides():
    lhs, rhs = sos_identity_sides()
    for angle in (RationalAngle(1, 3), RationalAngle(2, 7)):
        diff = evaluate(angle, lhs) - evaluate(angle, rhs)
        assert np.max(np.abs(diff)) <= 1e-12


def test_evaluate_is_star_preserving():
    rng = random.Random(21)
    angle = RationalAngle(2, 5)
    for _ in range(6):
        terms = {(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)):
                 Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(3)}
        xi = AlgebraElement(H, terms)
        lhs = evaluate(angle, xi.star())
        rhs = evaluate(angle, xi).conj().T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_almost_mathieu_structure():
    assert np.allclose(almost_mathieu(RationalAngle(0, 1), 3.5),
                       np.array([[5.5]]), atol=1e-14)
    a = RationalAngle(1, 2)
    h = almost_mathieu(a, 2.0)
    assert np.allclose(h.real, np.array([[2.0, 2.0], [2.0, -2.0]]), atol=1e-12)
    assert spectral_norm(h) == pytest.approx(2 * sqrt(2), abs=1e-12)
    a = RationalAngle(1, 5)
    h = almost_mathieu(a, 3.0)
    for m in range(5):
        assert h[m, m] == pytest.approx(3.0 * a.c_m(m), abs=1e-12)
        assert h[(m + 1) % 5, m] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        almost_mathieu(a, 0.0)


def test_bz_bound_small_grid():
    for angle in farey_angles(20):
        for lam in (1.0, 2.0, 4.0):
            assert spectral_norm(almost_mathieu(angle, lam)) \
                <= bz_bound(angle, lam) + 1e-9


def test_tensor_operator_basic():
    a = RationalAngle(1, 2)
    assert np.allclose(tensor_operator(a, "XI"),
                       np.diag([0.0, 0.0, 4.0, 4.0]), atol=1e-14)
    xy_yx = tensor_operator(a, "XY") + tensor_operator(a, "YX")
    assert np.max(np.abs(xy_yx - xy_yx.conj().T)) <= 1e-14
    # trace multiplicativity: tr(X (x) Y + Y (x) X) = 2 tr X tr Y
    assert np.trace(xy_yx).real == pytest.approx(2 * 4 * 4, abs=1e-12)
    # S = XY + YX with X = diag(0, 4), Y = [[2, -2], [-2, 2]]
    assert np.array_equal(tensor_operator(a, "SI"),
                          np.kron([[0.0, -8.0], [-8.0, 16.0]], np.eye(2)))
    with pytest.raises(ValueError):
        tensor_operator(a, "X")
    for word in ("XQ", "ZI"):
        with pytest.raises(ValueError):
            tensor_operator(a, word)


def test_parity_bases_split_every_letter():
    """The parity bases are orthonormal after scaling, X, Y and S commute
    with j -> -j exactly in floats, so their cross-parity part is exactly
    zero, and the restricted letters are the letters in those bases."""
    for q in range(1, 10):
        bases = parity_bases(q)
        dims = [q // 2 + 1] + ([(q - 1) // 2] if q > 2 else [])
        assert [b.shape for b in bases] == [(q, d) for d in dims]
        onb = [b / np.linalg.norm(b, axis=0) for b in bases]
        full = np.hstack(onb)
        assert np.max(np.abs(full.T @ full - np.eye(q))) <= 1e-15
        neg = -np.arange(q) % q
        for angle in (a for a in farey_angles(9, max_value=None) if a.q == q):
            table, blocks = letters(angle), parity_letters(angle)
            assert len(blocks) == len(bases)
            for k in "XYS":
                assert np.array_equal(table[k][np.ix_(neg, neg)], table[k])
                if len(bases) == 2:
                    assert not np.any(bases[1].T @ table[k] @ bases[0])
            for basis, block in zip(onb, blocks):
                assert np.array_equal(block["I"], np.eye(basis.shape[1]))
                for k in "XYS":
                    assert block[k].dtype == np.float64
                    assert np.max(np.abs(basis.T @ table[k] @ basis
                                         - block[k])) <= 1e-14


def test_parity_stack_is_the_parity_letters():
    """Per part, the stacked X diagonals and the shared Y block are
    exactly the blocks that the dense oracle ``parity_letters`` conjugates
    out of x_op and y_op at each p/q with q <= 13 (q = 1, 2 have no odd
    part), and ``site_letters`` of a row and the block are the oracle's
    letters X, Y, S and I on that part."""
    grid = farey_angles(13, max_value=None)
    for q in range(1, 14):
        angles = [a for a in grid if a.q == q]
        parts = parity_stack(angles)
        assert len(parts) == (1 if q <= 2 else 2)
        for i, angle in enumerate(angles):
            blocks = parity_letters(angle)
            assert len(parts) == len(blocks)
            for (x, y), block in zip(parts, blocks):
                assert x.shape == (len(angles), y.shape[0])
                assert np.array_equal(np.diag(x[i]), block["X"])
                assert np.array_equal(y, block["Y"])
                built = site_letters(x[i], y)
                assert built.keys() == block.keys()
                for k in built:
                    assert built[k].dtype == np.float64
                    assert np.max(np.abs(built[k] - block[k])) <= 1e-15, (angle, k)
    with pytest.raises(ValueError):
        parity_stack([RationalAngle(1, 3), RationalAngle(1, 4)])


def test_mirror_angles_share_their_trigonometry():
    """p/q and (q-p)/q have bitwise equal X rows in every parity part and
    bitwise equal sin(pi theta) and b_m, so a sweep may solve one of them
    for both."""
    grid = farey_angles(60, max_value=None)
    for q in range(1, 61):
        angles = [a for a in grid if a.q == q]
        mirrors = [RationalAngle(-a.p % q, q) for a in angles]
        for (x, _), (x_mirror, _) in zip(parity_stack(angles),
                                         parity_stack(mirrors)):
            assert np.array_equal(x, x_mirror)
        for a, b in zip(angles, mirrors):
            assert a.s == b.s
            assert [a.b_m(m) for m in range(q)] == [b.b_m(m) for m in range(q)]


def _dual_deviation(c, x, y):
    """How far ``c`` is from a real involution that swaps diag(x) and y."""
    r, dx = c.real, np.diag(x)
    return max(np.max(np.abs(c.imag)), np.max(np.abs(r @ r - np.eye(len(x)))),
               np.max(np.abs(r @ dx @ r - y)), np.max(np.abs(r @ y @ r - dx)))


def test_parity_builders_are_fourier_duals():
    """With F_jk = e^{2 pi i (p j k mod q)/q} / sqrt(q), F X F* = Y and
    F Y F* = X at p/q, and F^2 is j -> -j.  So on each parity part, with V
    its orthonormal basis, C = V^T F V (even part) or -i V^T F V (odd part)
    is real, C^2 = I, and C swaps the part's ``parity_stack`` X diagonal
    and Y block, at every p/q with q <= 60.  An X row taken from a
    numerator other than +-p breaks the swap."""
    grid = farey_angles(60, max_value=None)
    worst, wrong = 0.0, []
    for q in range(1, 61):
        angles = [a for a in grid if a.q == q]
        parts = parity_stack(angles)
        onb = [v / np.linalg.norm(v, axis=0) for v in parity_bases(q)]
        jk = np.outer(np.arange(q), np.arange(q))
        for i, a in enumerate(angles):
            f = np.exp(2j * pi * (a.p * jk % q) / q) / sqrt(q)
            other = [k for k, b in enumerate(angles) if b.p not in (a.p, q - a.p)]
            for phase, v, (x, y) in zip((1, -1j), onb, parts):
                c = phase * (v.T @ f @ v)
                worst = max(worst, _dual_deviation(c, x[i], y))
                if other:
                    wrong.append(_dual_deviation(c, x[other[0]], y))
    assert worst <= 1e-13
    assert len(wrong) > 1000 and min(wrong) > 1.0


def test_tensor_matches_rank3_evaluation():
    """Kronecker factors must agree with genuine rank-3 group-algebra words."""
    G3 = Heisenberg3
    for angle in (RationalAngle(1, 2), RationalAngle(1, 3)):
        x1 = hermitian_square(G3, G3.x(0))
        y2 = hermitian_square(G3, G3.y(1))
        via_words = evaluate3(angle, x1 * y2)
        via_kron = tensor_operator(angle, "XYI")
        assert np.max(np.abs(via_words - via_kron)) <= 1e-12
        y1x3 = evaluate3(angle, hermitian_square(G3, G3.y(0))
                         * hermitian_square(G3, G3.x(2)))
        assert np.max(np.abs(y1x3 - tensor_operator(angle, "YIX"))) <= 1e-12
        zz = hermitian_square(G3, G3.z)
        assert np.max(np.abs(evaluate3(angle, zz)
                             - z_scalar(angle) * np.eye(angle.q ** 3))) <= 1e-12


def test_pi_theta3_multiplicative():
    rng = random.Random(9)
    G3 = Heisenberg3
    angle = RationalAngle(1, 3)
    for _ in range(6):
        g = (tuple(rng.randint(-2, 2) for _ in range(3)),
             tuple(rng.randint(-2, 2) for _ in range(3)), rng.randint(-2, 2))
        h = (tuple(rng.randint(-2, 2) for _ in range(3)),
             tuple(rng.randint(-2, 2) for _ in range(3)), rng.randint(-2, 2))
        lhs = pi_theta3(angle, g) @ pi_theta3(angle, h)
        rhs = pi_theta3(angle, G3.mul(g, h))
        assert np.max(np.abs(lhs - rhs)) <= 1e-11


def test_spectra_symmetry_pairs():
    """The spectrum of X + mu Y equals that of Y + mu X, and angles theta and 1-theta
    give the same spectra."""
    for angle in farey_angles(30):
        x, y = x_op(angle), y_op(angle)
        for mu in (1.0, 2.0):
            wa = np.linalg.eigvalsh(x + mu * y)
            wb = np.linalg.eigvalsh(y + mu * x)
            assert np.max(np.abs(wa - wb)) <= 1e-9
        if 0 < angle.p:
            mirror = RationalAngle(angle.q - angle.p, angle.q)
            wa = np.linalg.eigvalsh(x + y)
            wb = np.linalg.eigvalsh(x_op(mirror) + y_op(mirror))
            assert np.max(np.abs(wa - wb)) <= 1e-9


def test_prodnorm_bound_small_grid():
    for angle in farey_angles(20):
        eye = np.eye(angle.q, dtype=complex)
        m = (eye - pi_x(angle)) @ (eye - pi_y(angle))
        assert spectral_norm(m) <= 4 * cos(pi * angle.theta / 2) + 1e-9
    half = RationalAngle(1, 2)
    eye = np.eye(2, dtype=complex)
    m = (eye - pi_x(half)) @ (eye - pi_y(half))
    assert spectral_norm(m) == pytest.approx(2 * sqrt(2), abs=1e-9)


def test_trace_identity():
    for angle in farey_angles(25):
        if angle.p == 0:
            continue
        assert np.trace(x_op(angle)).real == pytest.approx(2 * angle.q, abs=1e-9)


def test_x_y_operator_ranges():
    for angle in farey_angles(15):
        for op in (x_op(angle), y_op(angle)):
            w = np.linalg.eigvalsh(op)
            assert w[0] >= -1e-12 and w[-1] <= 4 + 1e-12


def test_rotation_rep_bundle():
    a = RationalAngle(1, 4)
    x, y = x_op(a), y_op(a)
    assert x.shape == y.shape == (4, 4)
    assert x.dtype == y.dtype == almost_mathieu(a, 1.0).dtype == np.float64
    assert tensor_operator(a, "SYI").dtype == np.float64
    assert np.allclose(x, np.diag([0.0, 2.0, 4.0, 2.0]), atol=1e-12)
    assert np.max(np.abs(y - y.conj().T)) == 0.0
    assert z_scalar(a) == pytest.approx(2.0, abs=1e-12)  # 4 sin^2(pi/4)
