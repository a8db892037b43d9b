"""BFS enumeration of elementary subgroups and spectral-gap extraction."""

import dataclasses

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from heisenkit import expander
from heisenkit.cli import main
from heisenkit.expander import (coprime_residues, elementary_generators,
                                enumerate_group, family_report, sl_order,
                                spectral_gap)
from oracles import (FixtureGraph, complete_graph, disjoint_union,
                     full_cayley_graph, full_lambda2, stabiliser_orbits)


def test_sl_order_formula():
    assert sl_order(2, 2) == 6
    assert sl_order(3, 2) == 168
    assert sl_order(3, 3) == 5616
    assert sl_order(3, 4) == 2 ** 8 * 168   # prime-power lift of SL_3(F_2)
    assert sl_order(3, 5) == 372000
    assert sl_order(3, 6) == sl_order(3, 2) * sl_order(3, 3)  # CRT
    assert sl_order(2, 1) == 1
    for q in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            sl_order(3, q)


def test_stabiliser_has_all_signed_permutations_and_inverse_transpose():
    # 2^n n! maps: signed permutations up to sign, with and without
    # inverse-transpose
    assert len(expander.stabiliser_maps(2)) == 8
    assert len(expander.stabiliser_maps(3)) == 48


def test_stabiliser_is_closed_once_per_n():
    for n in (2, 3):
        maps = expander.stabiliser_maps(n)
        assert expander.stabiliser_maps(n) is maps
        assert not maps.flags.writeable


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
    g = full_cayley_graph(n, q, p)
    codes, nbrs = _matmul_closure(n, q, p)
    assert g.codes.dtype == codes.dtype and g.neighbors.dtype == nbrs.dtype
    assert g.codes.tobytes() == codes.tobytes()
    assert g.neighbors.shape == nbrs.shape
    assert g.neighbors.tobytes() == nbrs.tobytes()
    assert g.order == codes.size and g.degree == len(elementary_generators(n, q, p))


def test_levels_split_across_chunks(monkeypatch):
    # no level of these groups reaches the default CHUNK; at CHUNK = 7
    # every level past the first few is split, and the tables must not
    # change
    groups = [(3, 3, 1), (3, 4, 1), (2, 16, 1)]
    whole = [enumerate_group(*g) for g in groups]
    monkeypatch.setattr(expander, "CHUNK", 7)
    for g, ref in zip(groups, whole):
        split = enumerate_group(*g)
        assert split.order == ref.order
        for field in ("codes", "sizes", "neighbors"):
            a, b = getattr(split, field), getattr(ref, field)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), (g, field)


def test_image_blocks_do_not_change_tables(monkeypatch):
    # a bound of 896 multiply-adds leaves 1 column per image product at
    # n = 3 (48 maps x 36 stack rows) and 7 at n = 2 (8 x 16); the codes
    # are exact, so the tables must not change
    groups = [(3, 3, 1), (3, 4, 1), (2, 16, 1)]
    whole = [enumerate_group(*g) for g in groups]
    widths, matmul = set(), np.matmul

    def spy(a, b, **kwargs):
        widths.add(b.shape[1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(expander, "IMAGE_BLOCK", 896)
    monkeypatch.setattr(np, "matmul", spy)
    for g, ref in zip(groups, whole):
        blocked = enumerate_group(*g)
        assert blocked.order == ref.order
        for field in ("codes", "sizes", "neighbors"):
            a, b = getattr(blocked, field), getattr(ref, field)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), (g, field)
    assert widths and max(widths) <= 7


def _cofactor_matrix(g: list) -> list:
    """The transpose of the adjugate of g: entry (r, c) is (-1)^(r+c)
    times the minor of g without row r and column c, in Python ints."""
    n = len(g)

    def det(m):
        return m[0][0] if len(m) == 1 else m[0][0] * m[1][1] - m[0][1] * m[1][0]

    return [[(-1) ** (r + c) * det([[g[i][j] for j in range(n) if j != c]
                                    for i in range(n) if i != r])
             for c in range(n)] for r in range(n)]


@pytest.mark.parametrize("n", [2, 3])
def test_stack_is_digits_cofactors_and_negatives(n):
    nn = n * n
    rng = np.random.default_rng(n)
    for q in (2, 3, 7, 60):
        d = rng.integers(0, q, size=(nn, 40))
        stack = expander._stack(d, n, q)
        assert stack.dtype == np.int64 and stack.shape == (4 * nn, 40)
        assert np.array_equal(stack[:nn], d)
        assert np.array_equal(stack[nn:2 * nn], -d % q)
        assert np.array_equal(stack[3 * nn:], -stack[2 * nn:3 * nn] % q)
        for m in range(d.shape[1]):
            cof = _cofactor_matrix(d[:, m].reshape(n, n).tolist())
            assert stack[2 * nn:3 * nn, m].tolist() == [
                x % q for row in cof for x in row], (q, m)


def test_enumerate_order_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_group(3, 5, 1, order_cap=1000)


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        enumerate_group(4, 2, 1)


def test_enumerate_refuses_codes_past_float64():
    # 60^9 > 2^53: the float64 images would no longer be exact codes
    with pytest.raises(ValueError, match="2\\^53"):
        enumerate_group(3, 60, 1)
    assert enumerate_group(2, 60, 1).order == sl_order(2, 60)


def _dense_adjacency(graph):
    adj = np.zeros((graph.order, graph.order))
    rows = np.repeat(np.arange(graph.order), graph.neighbors.shape[1])
    np.add.at(adj, (rows, graph.neighbors.ravel()), 1.0)
    return adj


def test_adjacency_symmetric_and_regular():
    g = full_cayley_graph(3, 2, 1)
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
    sl3_f2 = full_cayley_graph(3, 2, 1)
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
    pairs = [(enumerate_group(n, q, 1), full_cayley_graph(n, q, 1))
             for n, q in [(3, 2), (2, 2), (2, 3), (2, 5)]]
    pairs += [(complete_graph(m), complete_graph(m)) for m in (4, 9, 25)]
    for g, whole in pairs:
        res = spectral_gap(g)
        dense = np.linalg.eigvalsh(_dense_adjacency(whole))
        assert res.lambda2 == pytest.approx(dense[-2], abs=1e-9)
        assert res.connected and res.gap == g.degree - res.lambda2


def test_multiplicity_two_lambda2_sl2_z3():
    w = np.linalg.eigvalsh(_dense_adjacency(full_cayley_graph(2, 3, 1)))
    assert w[-2] == pytest.approx(w[-3], abs=1e-9)  # lambda_2 is double
    lam2 = spectral_gap(enumerate_group(2, 3, 1)).lambda2
    assert lam2 == pytest.approx(1 + np.sqrt(3), abs=1e-9)


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


ORACLE_GRAPHS = [(3, 2, 1), (3, 3, 1), (3, 4, 1), (3, 4, 2),
                 (2, 2, 1), (2, 4, 2), (2, 9, 2), (2, 16, 1)]


def _vertex_classes(g, whole):
    """Class of each vertex of the whole graph ``whole``, through its
    brute-force W-orbit, whose least code must be a canonical code of
    ``g``."""
    orbits = stabiliser_orbits(whole, g.n, g.q)
    least = np.full(orbits.max() + 1, np.iinfo(np.int64).max)
    np.minimum.at(least, orbits, whole.codes)
    by_code = np.argsort(g.codes)
    assert np.array_equal(np.sort(least), g.codes[by_code])
    return by_code[np.searchsorted(g.codes, least, sorter=by_code)][orbits]


@pytest.mark.parametrize("n, q, p", ORACLE_GRAPHS)
def test_quotient_lambda2_matches_full_graph_oracle(n, q, p):
    g = enumerate_group(n, q, p)
    whole = full_cayley_graph(n, q, p)
    res = spectral_gap(g)
    assert res.classes == g.sizes.size < g.order == whole.order
    assert abs(res.lambda2 - full_lambda2(whole)) <= 1e-12
    # the quotient Ritz vector, lifted to a unit vector on the whole graph,
    # is an eigenvector of the whole adjacency, and the quotient residual
    # is its residual there up to rounding (about 12 eps lambda_2 an entry)
    cls = _vertex_classes(g, whole)
    f = res.vector[cls] / np.sqrt(g.sizes[cls])
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    lifted = np.linalg.norm(f[whole.neighbors].sum(axis=1) - res.lambda2 * f)
    assert lifted < 1e-12 and res.residual < 1e-12
    assert abs(res.residual - lifted) <= 1e-14


def test_orbits_are_stabiliser_orbits():
    # the classes against brute-force W-orbits of the whole graph
    for n, q, p in ORACLE_GRAPHS:
        g = enumerate_group(n, q, p)
        whole = full_cayley_graph(n, q, p)
        cls = _vertex_classes(g, whole)
        assert np.array_equal(g.sizes, np.bincount(cls))
        assert g.sizes.sum() == g.order == whole.order
        assert g.sizes[0] == 1 and g.codes[0] == whole.codes[0]
        # each class is numbered as its least member is in the whole BFS,
        # and its row is that member's row, generator by generator
        member = np.unique(cls, return_index=True)[1]
        assert (np.diff(member) > 0).all()
        assert np.array_equal(whole.codes[member], g.codes)
        assert np.array_equal(g.neighbors, cls[whole.neighbors[member]])
        # equitable: every vertex has its class's neighbour counts
        rows = np.sort(cls[whole.neighbors], axis=1)
        assert np.array_equal(rows, np.sort(g.neighbors, axis=1)[cls])


def _merged(graph, a, b):
    """``graph`` with classes a < b made one class: b's members join a,
    b's row is dropped and the later classes are renumbered."""
    keep = np.arange(graph.sizes.size) != b
    relabel = np.cumsum(keep) - 1
    relabel[b] = relabel[a]
    sizes = graph.sizes.copy()
    sizes[a] += sizes[b]
    return dataclasses.replace(graph, codes=graph.codes[keep],
                               sizes=sizes[keep],
                               neighbors=relabel[graph.neighbors[keep]])


def test_merged_orbits_are_refused(monkeypatch, capsys):
    g = enumerate_group(3, 3, 1)
    spectral_gap(g)   # the true partition passes the gate
    with pytest.raises(ValueError, match="identity alone"):
        spectral_gap(_merged(g, 0, 1))
    with pytest.raises(ValueError, match="not equitable"):
        spectral_gap(_merged(g, 1, 2))

    def merged_group(*args, **kwargs):
        return _merged(enumerate_group(*args, **kwargs), 1, 2)

    monkeypatch.setattr(expander, "enumerate_group", merged_group)
    assert main(["expander", "run", "--n", "3", "--q", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: orbit partition is not equitable")
    assert err.count("\n") == 1


def test_tampered_sizes_are_refused(monkeypatch, capsys):
    g = enumerate_group(3, 3, 1)
    sizes = g.sizes.copy()
    sizes[1] += 1
    tampered = dataclasses.replace(g, sizes=sizes)
    with pytest.raises(ValueError, match="not equitable"):
        spectral_gap(tampered)
    monkeypatch.setattr(expander, "enumerate_group",
                        lambda *args, **kwargs: tampered)
    assert main(["expander", "run", "--n", "3", "--q", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: orbit partition is not equitable")
    assert err.count("\n") == 1


_W_GENERATORS = expander._stabiliser_generators


def _transpose_for_inverse_transpose(n):
    # transpose keeps the generating set and word length, but reverses
    # products: an anti-automorphism
    return _W_GENERATORS(n)[:-1] + [np.arange(n * n).reshape(n, n).T.ravel()]


def _cofactor_entry_0_1(n):
    # takes digit (0, 1) from the cofactor matrix: fixes e, sends e_{0,1}(v)
    # to e
    sel = np.arange(n * n)
    sel[1] += 2 * n * n
    return _W_GENERATORS(n) + [sel]


def _swap_entries_0_0_and_0_1(n):
    sel = np.arange(n * n)
    sel[[0, 1]] = 1, 0
    return _W_GENERATORS(n) + [sel]


@pytest.mark.parametrize("generators, message", [
    (_transpose_for_inverse_transpose, "not a homomorphism"),
    (_cofactor_entry_0_1, "generating set onto itself"),
    (_swap_entries_0_0_and_0_1, "does not fix the identity"),
])
def test_broken_stabiliser_is_refused(generators, message, monkeypatch,
                                      capsys):
    monkeypatch.setattr(expander, "_stabiliser_generators", generators)
    # W closed from the broken generators, past the cache of the true W
    monkeypatch.setattr(expander, "stabiliser_maps",
                        expander.stabiliser_maps.__wrapped__)
    with pytest.raises(ValueError, match=message):
        enumerate_group(3, 3, 1)
    assert main(["expander", "run", "--n", "3", "--q", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stabiliser generator") and message in err
    assert err.count("\n") == 1


def test_gap_invariant_under_relabeling():
    a = full_cayley_graph(3, 3, 1)
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
    with pytest.raises(ValueError, match="at least 1"):
        family_report(3, [0])
    # the rank is checked before the memory guard's stabiliser maps
    for n in (-1, 1, 4):
        with pytest.raises(ValueError, match=r"n in \{2, 3\}"):
            family_report(n, [2])


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
