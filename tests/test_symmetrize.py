"""Orbit-sum identities, pair censuses, the local-to-global summation and
the stability threshold calculator."""

import time
from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from heisenkit.algebra import accumulate
from heisenkit.groups import SpecialLinear
from heisenkit.symmetrize import (EdgeSymbol, FormalQuadratic,
                                  StabilityCertificate, build_parts,
                                  delta_edge, edge_pair_census,
                                  instantiate_el5, n_threshold, orbit_sum,
                                  spade_blocks, spade_to_heart,
                                  stability_threshold)
from oracles import plant_wrong_product


def letter(sym: EdgeSymbol) -> FormalQuadratic:
    """The one-letter word ``sym`` with coefficient one."""
    return FormalQuadratic({(sym,): 1})


def test_edge_symbol_normalizes_label():
    s = EdgeSymbol.make(1, 3, 2, 1)
    assert s.label == (1, 2)
    with pytest.raises(ValueError):
        EdgeSymbol.make(1, 1, 1)
    with pytest.raises(ValueError):
        EdgeSymbol.make(1, 2)


def test_delta_edge_letter_count():
    # symmetrized generators collapse in pairs: 2d distinct letters, each
    # with coefficient one
    for d in (1, 2, 3):
        de = delta_edge(1, 2, d)
        assert de.term_count() == 2 * d
        assert all(c == 1 for c in de.terms.values())
        assert all(len(w) == 1 for w in de.terms)


def test_build_parts_m2_trivial():
    parts = build_parts(2, 1)
    assert parts["Op"].is_zero()
    assert parts["Adj"].is_zero()
    assert parts["Delta_sq"] == parts["Sq"]


def test_split_is_exact():
    for m in (2, 3, 4, 5):
        for d in (1, 2):
            parts = build_parts(m, d)
            total = parts["Sq"] + parts["Adj"] + parts["Op"]
            assert parts["Delta_sq"] == total, (m, d)


def test_adjacent_four_term_expansion():
    # oracle: Adj as the sum over ordered triples (i, j, k) of distinct
    # indices and variables r, s of the four adjacent patterns
    for m in (3, 4, 5):
        for d in (1, 2):
            words = []
            for i, j, k in permutations(range(1, m + 1), 3):
                for r in range(1, d + 1):
                    for s in range(1, d + 1):
                        eij = EdgeSymbol.make(i, j, r)
                        ejk = EdgeSymbol.make(j, k, s)
                        words += [(eij, ejk), (ejk, eij),
                                  (eij, EdgeSymbol.make(i, k, s)),
                                  (ejk, EdgeSymbol.make(i, k, r))]
            expanded = FormalQuadratic(accumulate({}, ((w, 1) for w in words)))
            assert build_parts(m, d)["Adj"] == expanded, (m, d)


def test_census_m4():
    rec = edge_pair_census(4)
    assert rec["edges"] == 6
    assert rec["adjacent_ordered"] == 24
    assert rec["disjoint_ordered"] == 6
    assert rec["edges_match"]
    assert rec["disjoint_matches_ordered"]
    # the closed form for adjacent pairs counts triangles, matching
    # neither ordered nor unordered pair conventions
    assert rec["closed_form_adjacent"] == 4
    assert not rec["adjacent_matches_ordered"]
    assert not rec["adjacent_matches_unordered"]


def test_census_m5():
    rec = edge_pair_census(5)
    assert rec["edges"] == 10
    assert rec["adjacent_ordered"] == 5 * 4 * 3
    assert rec["disjoint_ordered"] == 5 * 4 * 3 * 2 // 4
    assert rec["disjoint_matches_ordered"]


def test_orbit_sum_delta2():
    # exact divisibility for every 4 <= m <= n <= 6
    for m in (4, 5, 6):
        for n in range(m, 7):
            for d in (1, 2):
                pm, pn = build_parts(m, d), build_parts(n, d)
                scalar = orbit_sum(pm["Delta2"], n).divides_exactly(pn["Delta2"])
                assert scalar == m * (m - 1) * factorial(n - 2), (m, n, d)


def test_orbit_sum_adj_op():
    for (m, n) in [(4, 5), (5, 6)]:
        for d in (1, 2):
            pm, pn = build_parts(m, d), build_parts(n, d)
            s_adj = orbit_sum(pm["Adj"], n).divides_exactly(pn["Adj"])
            assert s_adj == m * (m - 1) * (m - 2) * factorial(n - 3)
            s_op = orbit_sum(pm["Op"], n).divides_exactly(pn["Op"])
            assert s_op == m * (m - 1) * (m - 2) * (m - 3) * factorial(n - 4)


def _orbit_sum_by_enumeration(xi, n):
    """Reference: sum_{sigma in Sym(n)} sigma(xi), relabeling every word by
    every one of the n! permutations (vectorized over the (sigma, word)
    pairs) and summing equal images exactly in int64."""
    if not xi.terms:
        return FormalQuadratic()
    pad = EdgeSymbol(0, 0, ())  # second letter of a one-letter word
    words = [w + (pad,) * (2 - len(w)) for w in xi.terms]
    labels = sorted({s.label for w in words for s in w})
    base = max(n + 1, len(labels))
    # a word (i1, j1, l1, i2, j2, l2) is the base-`base` number of its digits
    index = np.array([[s.i, s.j] for w in words for s in w]).reshape(-1, 4)
    key = np.array([labels.index(a.label) * base ** 3 + labels.index(b.label)
                    for a, b in words])
    # column 0 maps the pad index 0 to itself under every sigma
    sigmas = np.array([(0,) + p for p in permutations(range(1, n + 1))])
    key = key + sigmas[:, index] @ np.array([base ** 5, base ** 4, base ** 2, base])
    keys, inverse = np.unique(key, return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, inverse.ravel(), np.broadcast_to(
        np.array(list(xi.terms.values())), key.shape).ravel())
    out = {}
    for k, c in zip(keys.tolist(), sums.tolist()):
        i1, j1, l1, i2, j2, l2 = (k // base ** p % base for p in range(5, -1, -1))
        out[(EdgeSymbol(i1, j1, labels[l1]),)
            + ((EdgeSymbol(i2, j2, labels[l2]),) if i2 else ())] = c
    return FormalQuadratic(out)


def test_orbit_sum_matches_enumeration():
    for d in (1, 2):
        for m in range(2, 7):
            parts = build_parts(m, d)
            for n in range(m, 7):
                for name, part in parts.items():
                    assert orbit_sum(part, n) == _orbit_sum_by_enumeration(
                        part, n), (name, m, n, d)
        for block in spade_blocks(d):
            for n in (4, 5, 6):
                assert orbit_sum(block, n) == _orbit_sum_by_enumeration(block, n)


def test_orbit_sum_is_invariant():
    # T is Sym(n)-invariant exactly when its orbit sum is n! T
    parts = build_parts(4, 1)
    total = orbit_sum(parts["Adj"], 5)
    assert orbit_sum(total, 5) == factorial(5) * total
    assert orbit_sum(parts["Adj"], 5) != factorial(5) * parts["Adj"]
    assert orbit_sum(parts["Adj"], 4) == factorial(4) * parts["Adj"]


def test_orbit_sum_empty_and_caps():
    assert orbit_sum(FormalQuadratic(), 5).is_zero()
    assert orbit_sum(FormalQuadratic(), 9).is_zero()  # no cap on n
    sym = letter(EdgeSymbol.make(1, 6, 1))
    with pytest.raises(ValueError):
        orbit_sum(sym, 5)


def test_spade_to_heart_multiplicities():
    for d in (1, 2):
        rec = spade_to_heart(5, d)
        assert rec["adj_match"] and rec["rhs_match"]
        assert rec["adj_multiplicity"] == factorial(2)
        assert rec["rhs_multiplicity"] == factorial(3)
        assert rec["op_multiplicity"] == factorial(5) * d * d
        assert rec["R_prime_factor"] == Fraction(factorial(5) * d * d, 2)
        assert rec["eps_prime_factor"] == 3  # (m-2)! / (m-3)!


def test_spade_to_heart_m4():
    rec = spade_to_heart(4, 1)
    assert rec["adj_match"] and rec["rhs_match"]
    assert rec["adj_multiplicity"] == 1
    assert rec["rhs_multiplicity"] == 2


def test_spade_to_heart_degenerate():
    # with d = 0 every multiplicity is 0: no record, so nothing can pass
    for m, d in ((5, 0), (5, -1), (3, 1)):
        with pytest.raises(ValueError):
            spade_to_heart(m, d)


def test_single_letter_orbit_multiplicity():
    # sum over Sym(5) of E_{1,3}(t_1 t_1) hits every ordered pair (m-2)! times
    sym = letter(EdgeSymbol.make(1, 3, 1, 1))
    summed = orbit_sum(sym, 5)
    every_pair = FormalQuadratic()
    for i in range(1, 6):
        for j in range(1, 6):
            if i != j:
                every_pair = every_pair + letter(EdgeSymbol.make(i, j, 1, 1))
    assert summed.divides_exactly(every_pair) == factorial(3)


def test_stability_threshold_examples():
    cert = StabilityCertificate(5, Fraction(6), Fraction(1))
    for n in range(5, 30):
        rec = stability_threshold(cert, n)
        assert rec["applies"] == (n >= 15)
        assert rec["epsilon_n"] == Fraction(n - 2, 3)
        assert rec["eps_prime"] == Fraction(n - 2, 3 * n)
    assert n_threshold(cert) == 15


def test_stability_threshold_boundaries():
    small_r = StabilityCertificate(5, Fraction(1), Fraction(2))
    for n in range(5, 12):
        assert stability_threshold(small_r, n)["applies"]
    at_m = StabilityCertificate(6, Fraction(1), Fraction(1))
    assert stability_threshold(at_m, 6)["applies"]
    over = StabilityCertificate(6, Fraction(2), Fraction(1))
    assert not stability_threshold(over, 6)["applies"]
    with pytest.raises(ValueError):
        stability_threshold(StabilityCertificate(5, Fraction(6), Fraction(1)), 4)


def test_stability_threshold_monotone_in_n():
    cert = StabilityCertificate(5, Fraction(6), Fraction(1))
    n0 = n_threshold(cert)
    for n in range(n0, n0 + 10):
        assert stability_threshold(cert, n)["applies"]


def test_instantiate_el5():
    for q, tr, ts in [(5, 2, 3), (7, 1, 4), (7, 3, 3), (3, 1, 2), (2, 1, 1)]:
        rec = instantiate_el5(q, tr, ts)
        assert rec["pass"], (q, tr, ts, rec["checks"])


def test_instantiate_el5_zero_variable():
    rec = instantiate_el5(5, 0, 3)
    G = SpecialLinear(5, 5)
    assert rec["pass"]
    # with t_r = 0 the corner image is the identity matrix
    assert G.elementary(1, 5, 0) == G.identity


def test_el5_in_the_zero_ring():
    # Z/1 is the zero ring: SL_n(Z/1) is trivial and every relation holds
    for n in (2, 3, 5):
        G = SpecialLinear(n, 1)
        assert G.mul(G.identity, G.identity) == G.identity
        assert G.elementary(1, 2, 3) == G.identity
    rec = instantiate_el5(1, 2, 3)
    assert len(rec["checks"]) == 22 and all(rec["checks"].values())
    assert rec["pass"]


def test_el5_commutator_oracle():
    G = SpecialLinear(5, 5)
    assert G.commutator_is(G.elementary(1, 2, 2), G.elementary(2, 5, 3),
                           G.elementary(1, 5, 6 % 5))
    G7 = SpecialLinear(5, 7)
    for tr in range(7):
        for ts in range(7):
            # x1 and y2 commute for any values
            assert G7.commutator_is(G7.elementary(1, 2, tr),
                                    G7.elementary(3, 5, ts), G7.identity)


def test_el5_reports_a_planted_wrong_relation(monkeypatch):
    # x1 y1 = e_{1,2}(2) e_{2,5}(3) comes out with its (1, 1) entry wrong
    G = SpecialLinear(5, 5)
    good = instantiate_el5(5, 2, 3)
    plant_wrong_product(monkeypatch, G.elementary(1, 2, 2),
                        G.elementary(2, 5, 3))
    rec = instantiate_el5(5, 2, 3)
    assert not rec["pass"]
    assert [k for k, ok in rec["checks"].items() if not ok] == ["[x1,y1]=z"]
    assert list(rec["checks"]) == list(good["checks"])


def _brute_threshold(cert):
    n = cert.m
    while not stability_threshold(cert, n)["applies"]:
        n += 1
    return n


def test_n_threshold_is_the_least_applying_n():
    rs = [Fraction(1, 3), Fraction(1), Fraction(6), Fraction(100, 3),
          Fraction(1, 7), Fraction(5, 2), Fraction(7, 4), Fraction(12),
          0.3, 2.5]
    for m in range(4, 12):
        for R in rs:
            cert = StabilityCertificate(m, R, Fraction(1))
            assert n_threshold(cert) == _brute_threshold(cert), (m, R)


def test_n_threshold_at_a_huge_R_is_immediate():
    cert = StabilityCertificate(5, Fraction(10 ** 12), Fraction(1))
    t0 = time.perf_counter()
    n = n_threshold(cert)
    assert time.perf_counter() - t0 < 0.1
    assert n == 3 + 2 * 10 ** 12
    assert stability_threshold(cert, n)["applies"]
    assert not stability_threshold(cert, n - 1)["applies"]


def test_orbit_sum_vanishing_parts():
    # degenerate ranks: Adj and Op vanish below four indices, and the
    # orbit sum of zero is zero with scalar 0 against any nonzero target
    pm, pn = build_parts(3, 1), build_parts(5, 1)
    assert pm["Op"].is_zero()
    assert orbit_sum(pm["Op"], 5).divides_exactly(pn["Op"]) == 0
    pm2 = build_parts(2, 1)
    assert orbit_sum(pm2["Adj"], 5).divides_exactly(pn["Adj"]) == 0


def test_formal_quadratic_arithmetic():
    a = letter(EdgeSymbol.make(1, 2, 1))
    b = letter(EdgeSymbol.make(2, 3, 1))
    prod = a * b
    assert all(len(w) == 2 for w in prod.terms)
    with pytest.raises(ValueError):
        prod * a  # three-letter words are out of scope
    assert (a - a).is_zero()
    assert (2 * a).terms == {w: 2 for w in a.terms}
    assert a.divides_exactly(b) is None
    assert (3 * a).divides_exactly(a) == 3
