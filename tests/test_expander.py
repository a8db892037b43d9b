"""BFS enumeration of elementary subgroups and spectral-gap extraction."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from heisenkit.cli import main
from heisenkit.expander import (FixtureGraph, complete_graph,
                                coprime_residues, disjoint_union,
                                elementary_generators, enumerate_group,
                                family_report, sl_order, spectral_gap)


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
    assert len(elementary_generators(3, 4, 4)) == 1   # e_{i,j}(0) = 1
    # neighbour columns follow this order: (i, j) row-major, then +p, -p
    assert elementary_generators(2, 5, 1) == [(0, 1, 1), (0, 1, 4),
                                              (1, 0, 1), (1, 0, 4)]


def test_enumerate_small_groups():
    g = enumerate_group(2, 2, 1)
    assert g.order == 6 and g.degree == 2
    g = enumerate_group(3, 2, 1)
    assert g.order == 168
    g = enumerate_group(3, 3, 1)
    assert g.order == 5616
    assert enumerate_group(3, 1, 1).order == 1


def _matmul_closure(n, q, p):
    """Reference BFS: whole matrices, one batched matmul per generator,
    np.unique per level, then every neighbour recomputed by matmul."""
    gens = []
    for i, j, v in elementary_generators(n, q, p):
        gens.append(np.eye(n, dtype=np.int64))
        gens[-1][i, j] = v
    powers = q ** np.arange(n * n, dtype=np.int64)

    def encode(mats):
        return mats.reshape(mats.shape[0], -1) @ powers

    visited = np.zeros(q ** (n * n), dtype=bool)
    frontier = np.eye(n, dtype=np.int64)[None]
    visited[encode(frontier)] = True
    chunks = [encode(frontier)]
    while frontier.shape[0]:
        prods = np.concatenate([(frontier @ g) % q for g in gens])
        codes, first = np.unique(encode(prods), return_index=True)
        fresh = ~visited[codes]
        visited[codes[fresh]] = True
        frontier = prods[first[fresh]]
        if fresh.any():
            chunks.append(codes[fresh])
    codes = np.concatenate(chunks)
    index_of = np.full(q ** (n * n), -1, dtype=np.int64)
    index_of[codes] = np.arange(codes.size)
    mats = (codes[:, None] // powers % q).reshape(-1, n, n)
    nbrs = np.stack([index_of[encode((mats @ g) % q)] for g in gens], axis=1)
    assert (nbrs >= 0).all()
    return codes, nbrs


@pytest.mark.parametrize("n, q, p", [
    (3, 2, 1), (3, 3, 1), (3, 4, 1),   # SL_3(Z/2..4); q = 2 collapses +-p
    (2, 2, 1), (2, 16, 1),
    (2, 4, 2), (3, 4, 2),              # non-coprime p: proper subgroups
    (2, 3, 0),                         # p = 0: the identity generator only
])
def test_bfs_matches_matmul_closure(n, q, p):
    g = enumerate_group(n, q, p)
    codes, nbrs = _matmul_closure(n, q, p)
    assert g.codes.dtype == codes.dtype and g.neighbors.dtype == nbrs.dtype
    assert g.codes.tobytes() == codes.tobytes()
    assert g.neighbors.shape == nbrs.shape
    assert g.neighbors.tobytes() == nbrs.tobytes()
    assert g.order == codes.size and g.degree == len(elementary_generators(n, q, p))


def test_enumerate_order_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_group(3, 5, 1, order_cap=1000)


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_group(4, 2, 1)


def _dense_adjacency(graph):
    adj = np.zeros((graph.order, graph.order))
    rows = np.repeat(np.arange(graph.order), graph.neighbors.shape[1])
    np.add.at(adj, (rows, graph.neighbors.ravel()), 1.0)
    return adj


def test_adjacency_symmetric_and_regular():
    g = enumerate_group(3, 2, 1)
    adj = _dense_adjacency(g)
    assert np.array_equal(adj, adj.T)
    assert np.all(adj.sum(axis=1) == g.degree)
    w = np.linalg.eigvalsh(adj)
    assert w[-1] == pytest.approx(g.degree, abs=1e-9)
    assert w[-2] < g.degree - 1e-6  # connected: top eigenvalue is simple


def test_complete_graph_gap():
    for m in (2, 3, 4, 9, 25):   # K_2, K_3: too small for a k = 3 solve
        res = spectral_gap(complete_graph(m))
        assert res.connected
        assert res.gap == pytest.approx(m, abs=1e-9)  # K_m: degree+1


def test_disconnected_fixture_rejected():
    sl3_f2 = enumerate_group(3, 2, 1)
    for a, b in [(complete_graph(2), complete_graph(2)),
                 (complete_graph(6), complete_graph(6)), (sl3_f2, sl3_f2)]:
        res = spectral_gap(disjoint_union(a, b))
        assert res.connected is False
        assert res.gap == 0.0


def test_gap_positive_sl3_f2():
    g = enumerate_group(3, 2, 1)
    res = spectral_gap(g)
    assert res.method == "lanczos"
    assert res.iterations > 0 and res.residual < 1e-12
    assert res.connected and res.gap > 0
    assert res.normalized_gap > 0.01


def test_lanczos_matches_dense_oracle():
    graphs = [enumerate_group(3, 2, 1)]
    graphs += [enumerate_group(2, q, 1) for q in (2, 3, 5)]
    graphs += [complete_graph(m) for m in (4, 9, 25)]
    for g in graphs:
        res = spectral_gap(g)
        dense = np.linalg.eigvalsh(_dense_adjacency(g))
        assert res.lambda2 == pytest.approx(dense[-2], abs=1e-9)
        assert res.connected and res.gap == g.degree - res.lambda2


def test_multiplicity_two_lambda2_sl2_z3():
    g = enumerate_group(2, 3, 1)
    w = np.linalg.eigvalsh(_dense_adjacency(g))
    assert w[-2] == pytest.approx(w[-3], abs=1e-9)  # lambda_2 is double
    assert spectral_gap(g).lambda2 == pytest.approx(1 + np.sqrt(3), abs=1e-9)


def test_gap_is_bitwise_repeatable():
    g = enumerate_group(3, 3, 1)
    assert spectral_gap(g).lambda2 == spectral_gap(g).lambda2


def test_unconverged_lanczos_is_an_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0),
                                  np.empty((0, 0)))

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_convergence)
    with pytest.raises(ValueError, match="did not converge after 0 operator"):
        spectral_gap(enumerate_group(3, 2, 1))
    assert main(["expander", "run", "--n", "3", "--q", "2"]) == 1


def test_gap_invariant_under_relabeling():
    a = enumerate_group(3, 3, 1)
    rng = np.random.default_rng(99)
    label = rng.permutation(a.order)  # vertex v becomes label[v]
    nbrs = np.empty_like(a.neighbors)
    nbrs[label] = label[a.neighbors[:, rng.permutation(a.degree)]]
    b = FixtureGraph(order=a.order, degree=a.degree, neighbors=nbrs)
    assert not np.array_equal(a.neighbors, b.neighbors)
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
    for r in rows:   # each lambda_2 says how it was reached
        assert r["method"] == ("trivial" if r["q"] == 1 else "lanczos")
        assert r["residual"] < 1e-12
        assert (r["matvecs"] > 0) == (r["q"] > 1)
