"""Representation laws, operator builders and unitary-equivalence symmetries."""

import random
from fractions import Fraction
from math import cos, pi, sqrt

import numpy as np
import pytest

from heisenkit.algebra import (AlgebraElement, heis_laplacian,
                               hermitian_square, one_minus,
                               sos_identity_sides)
from heisenkit.groups import Heisenberg, Heisenberg3
from heisenkit.linalg import spectral_norm
from heisenkit.rotation import (RationalAngle, almost_mathieu, bz_bound,
                                evaluate, evaluate3, farey_angles, pi_theta,
                                pi_theta3, pi_x, pi_y, tensor_operator, x_op,
                                y_op, z_scalar)

H = Heisenberg


def test_angle_validation():
    with pytest.raises(ValueError):
        RationalAngle(2, 4)
    with pytest.raises(ValueError):
        RationalAngle(3, 2)
    with pytest.raises(ValueError):
        RationalAngle(1, 0)
    a = RationalAngle.from_fraction(Fraction(2, 6))
    assert (a.p, a.q) == (1, 3)


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
    for angle in farey_angles(25, include_zero=False):
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
    assert np.allclose(x, np.diag([0.0, 2.0, 4.0, 2.0]), atol=1e-12)
    assert np.max(np.abs(y - y.conj().T)) == 0.0
    assert z_scalar(a) == pytest.approx(2.0, abs=1e-12)  # 4 sin^2(pi/4)
