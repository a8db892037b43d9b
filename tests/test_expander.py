"""BFS enumeration of elementary subgroups and spectral-gap extraction."""

import numpy as np
import pytest

import heisenkit.expander as expander
from heisenkit.expander import (complete_graph, coprime_residues,
                                disjoint_union, elementary_generators,
                                enumerate_group, family_report, sl_order,
                                spectral_gap)


def test_sl_order_formula():
    assert sl_order(2, 2) == 6
    assert sl_order(3, 2) == 168
    assert sl_order(3, 3) == 5616
    assert sl_order(3, 4) == 2 ** 8 * 168   # prime-power lift of SL_3(F_2)
    assert sl_order(3, 5) == 372000
    assert sl_order(3, 6) == sl_order(3, 2) * sl_order(3, 3)  # CRT
    assert sl_order(2, 1) == 1


def test_generator_collapse_mod2():
    assert len(elementary_generators(3, 2, 1)) == 6   # +p = -p mod 2
    assert len(elementary_generators(3, 5, 1)) == 12
    assert len(elementary_generators(2, 7, 2)) == 4


def test_enumerate_small_groups():
    g = enumerate_group(2, 2, 1)
    assert g.order == 6 and g.degree == 2
    g = enumerate_group(3, 2, 1)
    assert g.order == 168
    g = enumerate_group(3, 3, 1)
    assert g.order == 5616
    assert enumerate_group(3, 1, 1).order == 1


def test_enumerate_order_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_group(3, 5, 1, order_cap=1000)


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_group(4, 2, 1)


def test_adjacency_symmetric_and_regular():
    g = enumerate_group(3, 2, 1)
    adj = np.zeros((g.order, g.order))
    rows = np.repeat(np.arange(g.order), g.neighbors.shape[1])
    np.add.at(adj, (rows, g.neighbors.ravel()), 1.0)
    assert np.array_equal(adj, adj.T)
    assert np.all(adj.sum(axis=1) == g.degree)
    w = np.linalg.eigvalsh(adj)
    assert w[-1] == pytest.approx(g.degree, abs=1e-9)
    assert w[-2] < g.degree - 1e-6  # connected: top eigenvalue is simple


def test_complete_graph_gap():
    for m in (4, 9, 25):
        res = spectral_gap(complete_graph(m))
        assert res.connected
        assert res.gap == pytest.approx(m, abs=1e-9)  # K_m: degree+1


def test_disconnected_fixture_rejected():
    union = disjoint_union(complete_graph(6), complete_graph(6))
    res = spectral_gap(union)
    assert not res.connected
    assert res.gap == 0.0


def test_gap_positive_sl3_f2():
    g = enumerate_group(3, 2, 1)
    res = spectral_gap(g)
    assert res.method == "dense"
    assert res.connected and res.gap > 0
    assert res.normalized_gap > 0.01


def test_power_iteration_matches_dense(monkeypatch):
    g = enumerate_group(3, 2, 1)
    dense = spectral_gap(g)
    monkeypatch.setattr(expander, "DENSE_EIG_LIMIT", 10)
    power = spectral_gap(g)
    assert power.method == "power"
    assert power.lambda2 == pytest.approx(dense.lambda2, abs=1e-7)


def test_power_iteration_refuses_unconverged_gap(monkeypatch):
    g = enumerate_group(3, 2, 1)
    monkeypatch.setattr(expander, "DENSE_EIG_LIMIT", 10)
    with pytest.raises(ValueError, match="did not converge in 5 iterations"):
        spectral_gap(g, maxiter=5)


def test_gap_invariant_under_relabeling():
    a = enumerate_group(3, 3, 1)
    b = enumerate_group(3, 3, 1, shuffle_seed=99)
    assert a.order == b.order
    assert not np.array_equal(a.codes, b.codes)  # genuinely different order
    ga, gb = spectral_gap(a), spectral_gap(b)
    assert abs(ga.lambda2 - gb.lambda2) <= 1e-9


def test_coprime_residues():
    assert coprime_residues(4) == [1, 3]
    assert coprime_residues(5) == [1, 2, 3, 4]
    assert coprime_residues(1) == [1]


def test_noncoprime_p_generates_proper_subgroup():
    g = enumerate_group(3, 4, 2)  # gcd(2, 4) != 1
    assert g.order < sl_order(3, 4)


def test_family_report_rejects_bad_rule():
    with pytest.raises(ValueError):
        family_report(3, [2], p_rule="everything")


def test_family_report_small():
    rows = family_report(3, [1, 2, 3], p_rule="coprime")
    by_q = {}
    for r in rows:
        by_q.setdefault(r["q"], []).append(r)
    assert by_q[1][0]["order"] == 1
    for q in (2, 3):
        for r in by_q[q]:
            assert r["order_matches"]
            assert r["connected"]
            assert r["normalized_gap"] > 0.01
    # p and q - p share the symmetrized generator set, hence the gap
    gaps3 = {r["p"]: r["gap"] for r in by_q[3]}
    assert gaps3[1] == gaps3[2]
