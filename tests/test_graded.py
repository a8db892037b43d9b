"""Graded augmentation-quotient arithmetic and the degree-four functional."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from heisenkit.algebra import AlgebraElement, heis_laplacian, heis_xyz, one_minus
from heisenkit.graded import (GradedElement, basis_monomials,
                              box_element, degree, dimension_table,
                              evaluate_phi, graded_dimension, graded_mul,
                              graded_star, gram_matrix_check, phi_report,
                              phi_selfadjoint_check,
                              rederive_square_swap_lines, to_graded)
from heisenkit.groups import Heisenberg

H = Heisenberg


def mono(n, m, c=1):
    return GradedElement.monomial(n, m, c)


def lowest_degree(a):
    return min(degree(m) for m in a.terms)


def component(a, n):
    """The terms of ``a`` of degree n."""
    return {m: c for m, c in a.terms.items() if degree(m) == n}


def test_rewrite_rule_is_exact_in_group_algebra():
    # ybar xbar = xbar ybar + zbar - zbar xbar - zbar ybar + zbar ybar xbar
    xb, yb, zb = one_minus(H, H.x), one_minus(H, H.y), one_minus(H, H.z)
    lhs = yb * xb
    rhs = xb * yb + zb - zb * xb - zb * yb + zb * yb * xb
    assert lhs == rhs


def test_normal_form_yx():
    # the product of two monomials normal-orders the word y x
    at3 = graded_mul(mono(3, (0, 1, 0)), mono(3, (1, 0, 0))).terms
    assert at3 == {(1, 1, 0): 1, (0, 0, 1): 1, (1, 0, 1): -1, (0, 1, 1): -1}
    at4 = graded_mul(mono(4, (0, 1, 0)), mono(4, (1, 0, 0))).terms
    # the recursive branch resolves to zbar xbar ybar + zbar^2 at this depth
    assert at4 == {(1, 1, 0): 1, (0, 0, 1): 1, (1, 0, 1): -1, (0, 1, 1): -1,
                   (1, 1, 1): 1, (0, 0, 2): 1}


def test_to_graded_basics():
    assert to_graded(one_minus(H, H.x), 4).terms == {(1, 0, 0): 1}
    # 1 - xy = xbar + ybar - xbar ybar
    one = AlgebraElement(H, {H.identity: 1})
    xy = AlgebraElement(H, {H.mul(H.x, H.y): 1})
    assert to_graded(one - xy, 2).terms == {(1, 0, 0): 1, (0, 1, 0): 1,
                                            (1, 1, 0): -1}


def test_to_graded_hermitian_square_of_x():
    # X = 2 - x - x^{-1} = -(xbar^2) x^{-1}; expanding the inverse as the
    # truncated geometric series gives -(xbar^2 + xbar^3 + xbar^4) at N=4
    X, _, _ = heis_xyz()
    expected = {}
    inv_series = {(k, 0, 0): Fraction(1) for k in range(5)}  # x^{-1} mod I^5
    for (k, _, _), c in inv_series.items():
        if k + 2 <= 4:
            expected[(k + 2, 0, 0)] = -c
    got = to_graded(X, 4)
    assert got.terms == expected
    assert got.terms == {(2, 0, 0): -1, (3, 0, 0): -1, (4, 0, 0): -1}


def test_graded_mul_central_z():
    n = 6
    zb = mono(n, (0, 0, 1))
    for m in [(1, 0, 0), (0, 1, 0), (2, 1, 0), (1, 1, 1)]:
        assert graded_mul(zb, mono(n, m)) == graded_mul(mono(n, m), zb)


def test_graded_mul_yyxx_display():
    got = graded_mul(mono(4, (0, 2, 0)), mono(4, (2, 0, 0)))
    assert got.terms == {(2, 2, 0): 1, (1, 1, 1): 4, (0, 0, 2): 2}


def test_graded_mul_associative_low_degree():
    n = 6
    monos = [m for d in range(1, 4) for m in basis_monomials(d)]
    for a, b, c in product(monos, repeat=3):
        if sum(x[0] + x[1] + 2 * x[2] for x in (a, b, c)) > 6:
            continue
        lhs = graded_mul(graded_mul(mono(n, a), mono(n, b)), mono(n, c))
        rhs = graded_mul(mono(n, a), graded_mul(mono(n, b), mono(n, c)))
        assert lhs == rhs, (a, b, c)


def test_to_graded_is_multiplicative():
    rng = random.Random(12)
    for _ in range(8):
        terms1 = {(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 1)):
                  Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                  for _ in range(2)}
        terms2 = {(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 1)):
                  Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                  for _ in range(2)}
        xi, eta = AlgebraElement(H, terms1), AlgebraElement(H, terms2)
        lhs = to_graded(xi * eta, 5)
        rhs = graded_mul(to_graded(xi, 5), to_graded(eta, 5))
        assert lhs == rhs


def test_filtration_degrees_add():
    a = mono(8, (1, 0, 0)) + mono(8, (0, 1, 1))   # lowest degree 1
    b = mono(8, (0, 2, 0)) + mono(8, (0, 0, 2))   # lowest degree 2
    prod = graded_mul(a, b)
    assert lowest_degree(prod) >= 3


def test_graded_star_examples():
    # xbar* = 1 - x^{-1} = -(xbar + xbar^2 + xbar^3) at N=3
    st = graded_star(mono(3, (1, 0, 0)))
    assert st.terms == {(1, 0, 0): -1, (2, 0, 0): -1, (3, 0, 0): -1}
    # (zbar^2)* has degree-4 part zbar^2
    st = graded_star(mono(5, (0, 0, 2)))
    assert component(st, 4) == {(0, 0, 2): 1}


def test_graded_star_involution():
    rng = random.Random(13)
    for _ in range(6):
        terms = {m: Fraction(rng.randint(-3, 3))
                 for m in rng.sample(basis_monomials(2) + basis_monomials(3), 3)}
        a = GradedElement(5, terms)
        assert graded_star(graded_star(a)) == a


def random_algebra_element(rng):
    return AlgebraElement(H, {(rng.randint(-2, 2), rng.randint(-2, 2),
                                rng.randint(-2, 2)):
                               Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(3)})


def test_graded_star_is_the_image_of_the_group_algebra_star():
    rng = random.Random(17)
    for n in (5, 8, 10):
        for _ in range(3):
            xi = random_algebra_element(rng)
            assert graded_star(to_graded(xi, n)) == to_graded(xi.star(), n)


def test_graded_star_reverses_products():
    rng = random.Random(19)
    monos = [m for d in range(1, 5) for m in basis_monomials(d)]
    for _ in range(6):
        a, b = (GradedElement(7, {m: Fraction(rng.randint(-3, 3))
                                  for m in rng.sample(monos, 3)})
                for _ in range(2))
        assert (graded_star(graded_mul(a, b))
                == graded_mul(graded_star(b), graded_star(a)))


def test_graded_star_of_every_monomial_matches_the_round_trip():
    # each monomial's preimage xbar^i ybar^j zbar^k in R[H], starred there
    # and re-graded
    n = 8
    xb, yb, zb = one_minus(H, H.x), one_minus(H, H.y), one_minus(H, H.z)
    for d in range(n + 1):
        for i, j, k in basis_monomials(d):
            word = AlgebraElement(H, {H.identity: 1})
            for letter, e in ((xb, i), (yb, j), (zb, k)):
                for _ in range(e):
                    word = word * letter
            assert (graded_star(mono(n, (i, j, k)))
                    == to_graded(word.star(), n)), (i, j, k)


def test_graded_dimension_formula():
    assert graded_dimension(0) == 1
    assert graded_dimension(2) == 4   # xbar^2, xbar ybar, ybar^2, zbar
    assert graded_dimension(4) == 9
    for n, formula, brute in dimension_table(10):
        assert formula == brute
        assert len(basis_monomials(n)) == formula


def test_box_element():
    box = box_element()
    assert lowest_degree(box) == 4
    assert graded_star(box) == box
    assert evaluate_phi(box) == 4


def test_box_has_sixteen_contributing_pairs():
    gens = [H.x, H.inv(H.x), H.y, H.inv(H.y)]
    count = 0
    for s in gens:
        for t in gens:
            us, ut = one_minus(H, s), one_minus(H, t)
            img = to_graded(us.star() * ut.star() * ut * us, 4)
            if component(img, 4):
                count += 1
    assert count == 16


def test_phi_headline_values():
    rec = phi_report()
    assert rec["phi_delta_sq"] == 0
    assert rec["phi_box"] == 4
    assert rec["phi_zstar_z"] == 2
    assert rec["pass"]
    assert evaluate_phi(mono(5, (4, 0, 0))) == 1


def test_phi_nonpositivity_witness_uniform_in_R():
    delta = heis_laplacian()
    zb = one_minus(H, H.z)
    d2 = to_graded(delta * delta, 5)
    box = box_element()
    zz = to_graded(zb.star() * zb, 5)
    for R in (Fraction(1), Fraction(100), Fraction(10 ** 9), Fraction(1, 7)):
        value = (R * evaluate_phi(d2) + Fraction(1, 4) * evaluate_phi(box)
                 - evaluate_phi(zz))
        assert value == -1


def test_phi_selfadjoint():
    assert phi_selfadjoint_check()


def test_phi_requires_degree_four():
    with pytest.raises(ValueError):
        evaluate_phi(mono(3, (1, 0, 0)))


def test_gram_matrix():
    rec = gram_matrix_check()
    assert rec["matches_expected"]
    assert rec["psd"]
    eigs = sorted(rec["eigenvalues"])
    assert np.allclose(eigs, [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_square_swap_intermediate_lines():
    rec = rederive_square_swap_lines()
    assert rec["pass"]


def test_delta_squared_degree_four_component():
    d2 = to_graded(heis_laplacian() * heis_laplacian(), 5)
    assert component(d2, 4) == {(4, 0, 0): 1, (0, 4, 0): 1, (2, 2, 0): 2,
                                (1, 1, 1): 4, (0, 0, 2): 2}


def test_truncation_guard():
    with pytest.raises(ValueError):
        GradedElement(11)
    with pytest.raises(ValueError):
        GradedElement(-1)
