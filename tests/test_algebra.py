"""Group laws, exact algebra arithmetic, involution and generators."""

import random
from fractions import Fraction

import numpy as np
import pytest

from heisenkit.algebra import (AlgebraElement, accumulate, heis_xyz,
                               hermitian_square, one_minus, sos_identity_sides,
                               steinberg_check)
from heisenkit.graded import GradedElement
from heisenkit.groups import Heisenberg, SpecialLinear
from heisenkit.symmetrize import EdgeSymbol, FormalQuadratic
from oracles import (Heisenberg3, InvertibleSL, heis_laplacian,
                     plant_wrong_product)

H = Heisenberg


def rand_elt(rng, group, size=3, span=2):
    """Random small algebra element over the Heisenberg group."""
    terms = {}
    for _ in range(size):
        g = (rng.randint(-span, span), rng.randint(-span, span),
             rng.randint(-span, span))
        terms[g] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return AlgebraElement(group, terms)


def test_heisenberg_product_law():
    assert H.mul(H.x, H.y) == (1, 1, 1)
    assert H.mul(H.y, H.x) == (1, 1, 0)
    g = (2, -3, 5)
    assert H.mul(g, H.inv(g)) == H.identity
    assert H.mul(H.inv(g), g) == H.identity
    # z = [x, y]
    comm = H.mul(H.mul(H.x, H.y), H.mul(H.inv(H.x), H.inv(H.y)))
    assert comm == H.z


def test_heisenberg3_commutators():
    G = Heisenberg3
    for i in range(3):
        for j in range(3):
            xi, yj = G.x(i), G.y(j)
            comm = G.mul(G.mul(xi, yj), G.mul(G.inv(xi), G.inv(yj)))
            assert comm == (G.z if i == j else G.identity)
    g = ((1, -2, 0), (0, 3, 1), -4)
    assert G.mul(g, G.inv(g)) == G.identity


def test_mul_difference_of_squares():
    one_minus_x = one_minus(H, H.x)
    one_plus_x = AlgebraElement(H, {H.identity: 1, H.x: 1})
    prod = one_minus_x * one_plus_x
    assert prod.terms == {H.identity: 1, (2, 0, 0): -1}


def test_mul_identity_neutral():
    rng = random.Random(1)
    xi = rand_elt(rng, H)
    one = AlgebraElement(H, {H.identity: 1})
    assert xi * one == xi
    assert one * xi == xi


def test_mul_xy_vs_yx():
    x_elt = AlgebraElement(H, {H.x: 1})
    y_elt = AlgebraElement(H, {H.y: 1})
    assert (x_elt * y_elt).terms == {(1, 1, 1): 1}
    assert (y_elt * x_elt).terms == {(1, 1, 0): 1}


def test_mul_associative_random():
    rng = random.Random(2)
    for _ in range(10):
        a, b, c = (rand_elt(rng, H) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_star_basic():
    assert one_minus(H, H.x).star().terms == {H.identity: 1, H.inv(H.x): -1}
    rng = random.Random(3)
    for _ in range(10):
        a, b = rand_elt(rng, H), rand_elt(rng, H)
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


def test_star_laplacian_selfadjoint():
    delta = heis_laplacian()
    assert delta.star() == delta
    assert delta.terms == {H.identity: 4, H.x: -1, H.inv(H.x): -1,
                           H.y: -1, H.inv(H.y): -1}


def test_laplacian_equals_square_form():
    # (1/2) sum over S = {x, x^-1, y, y^-1} of (1-s)*(1-s)
    squares = AlgebraElement(H)
    for s in (H.x, H.inv(H.x), H.y, H.inv(H.y)):
        squares = squares + hermitian_square(H, s)
    assert heis_laplacian() == Fraction(1, 2) * squares


def test_e_term_involution_mod_2():
    G = InvertibleSL(3, 2)
    g = G.elementary(1, 2, 1)
    e = hermitian_square(G, g)
    assert e.terms == {G.identity: 2, g: -2}  # generator is an involution mod 2
    assert e.star() == e
    assert e == one_minus(G, g).star() * one_minus(G, g)


def test_e_term_zero_label():
    G = InvertibleSL(3, 5)
    assert hermitian_square(G, G.elementary(1, 2, 0)).is_zero()


def test_special_linear_det_and_inverse():
    # SpecialLinear has no inverse; the oracle's is checked here
    G = InvertibleSL(3, 7)
    rng = random.Random(4)
    g = G.identity
    for _ in range(20):
        i, j = rng.sample([1, 2, 3], 2)
        g = G.mul(g, G.elementary(i, j, rng.randrange(7)))
        assert round(np.linalg.det(np.array(g))) % 7 == 1
        assert G.mul(g, G.inv(g)) == G.identity


def test_steinberg_exhaustive_small():
    report = steinberg_check(3, 5)
    assert report["pass"]
    assert report["failures"] == []
    assert report["additivity"] == 25 * 6  # q^2 pairs, 6 ordered (i,j)


def test_steinberg_single_commutator():
    G = SpecialLinear(3, 7)
    assert G.commutator_is(G.elementary(1, 2, 1), G.elementary(2, 3, 1),
                           G.elementary(1, 3, 1))


def _random_product(rng, G, length=12):
    g = G.identity
    for _ in range(length):
        i, j = rng.sample(range(1, G.n + 1), 2)
        g = G.mul(g, G.elementary(i, j, rng.randrange(G.q)))
    return g


@pytest.mark.parametrize("n, q", [(3, 7), (5, 5)])
def test_commutator_is_matches_the_inverse_oracle(n, q):
    G = InvertibleSL(n, q)
    rng = random.Random(5 * n + q)
    for _ in range(20):
        g, h = _random_product(rng, G), _random_product(rng, G)
        c = G.commutator(g, h)
        assert G.commutator_is(g, h, c)
        others = [G.mul(c, G.elementary(i, j, r))
                  for i, j in ((1, 2), (n, 1)) for r in (1, q - 1)]
        others += [G.identity] + [_random_product(rng, G) for _ in range(3)]
        for other in others:
            assert G.commutator_is(g, h, other) == (other == c)


@pytest.mark.parametrize("a, b, failures", [
    ((1, 2, 1), (1, 2, 2), [("additivity", 1, 2, 1, 2)]),
    ((1, 2, 1), (2, 3, 1), [("commutator", 1, 2, 3, 1, 1)]),
    # the checks [a, b] = 1 and [b, a] = 1 both form the product a b; the
    # second has (r, s) = (1, 2) and comes first
    ((1, 2, 2), (1, 3, 1), [("disjoint", 1, 3, 1, 2, 1, 2),
                            ("disjoint", 1, 2, 1, 3, 2, 1)])],
    ids=["additivity", "commutator", "disjoint"])
def test_steinberg_reports_a_planted_wrong_relation(monkeypatch, a, b,
                                                    failures):
    G = SpecialLinear(3, 5)
    plant_wrong_product(monkeypatch, G.elementary(*a), G.elementary(*b))
    report = steinberg_check(3, 5)
    assert report["failures"] == failures and not report["pass"]
    monkeypatch.undo()
    good = steinberg_check(3, 5)
    assert good["pass"]
    for key in ("additivity", "commutator", "disjoint"):
        assert report[key] + sum(f[0] == key for f in failures) == good[key]


def test_steinberg_zero_pairs():
    G = SpecialLinear(3, 5)
    assert G.mul(G.elementary(1, 2, 0), G.elementary(1, 2, 0)) == G.identity


def test_xyz_selfadjoint_support():
    X, Y, Z = heis_xyz()
    for elt, gen in ((X, H.x), (Y, H.y), (Z, H.z)):
        assert elt.star() == elt
        assert elt.terms == {H.identity: 2, gen: -1, H.inv(gen): -1}


def test_sos_identity_exact():
    lhs, rhs = sos_identity_sides()
    assert lhs == rhs
    assert not (lhs - rhs).terms


def test_hermitian_square_positive_diagonal():
    sq = hermitian_square(H, (1, 2, 3))
    assert sq.terms[H.identity] == 2
    assert sq.star() == sq


def test_scalar_arithmetic():
    xi = AlgebraElement(H, {H.x: Fraction(1, 2)})
    assert (2 * xi).terms == {H.x: 1}
    assert (xi * 2).terms == {H.x: 1}
    assert (0 * xi).is_zero()
    assert (-xi).terms == {H.x: Fraction(-1, 2)}


def test_accumulate_drops_cancelled_keys():
    out = accumulate({"a": 1, "b": 2}, [("b", -2), ("c", 0), ("d", 3), ("a", 1)])
    assert out == {"a": 2, "d": 3}
    assert list(out) == ["a", "d"]


def test_term_dicts_share_one_base():
    xi = AlgebraElement(H, {H.x: 1})
    other_group = AlgebraElement(Heisenberg3, {H.x: 1})
    assert xi != other_group
    for a, b in ((xi, other_group),
                 (GradedElement(4, {(1, 0, 0): 1}), GradedElement(5, {(1, 0, 0): 1}))):
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b
    fq = FormalQuadratic({(EdgeSymbol.make(1, 2, 1),): 1})
    assert (fq * 3).terms == {w: 3 for w in fq.terms}
    with pytest.raises(TypeError):
        Fraction(1, 2) * fq  # integer coefficients only
    assert (xi - xi).is_zero() and (-fq + fq).is_zero()
