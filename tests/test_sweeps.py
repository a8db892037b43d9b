"""Sweep margins against closed forms, search behavior and determinism."""

from fractions import Fraction
from functools import partial
from itertools import product
from math import asin, pi, sqrt

import numpy as np
import pytest

from heisenkit import sweeps
from heisenkit.algebra import hermitian_square
from heisenkit.cli import main
from heisenkit.rotation import (RationalAngle, farey_angles, kron_word,
                               parity_stack, site_letters, x_op, y_op)
from heisenkit.sweeps import (_tensor_sweep, three_site_operator,
                              three_site_terms, two_site_operator,
                              two_site_terms, verify_bz, verify_formula,
                              verify_prodnorm, verify_smalltheta,
                              verify_xsmall, verify_xyz1, verify_xyz2,
                              verify_zzz, zzz_theta0)
from oracles import (Heisenberg3, evaluate3, parity_block_minima,
                     single_site_sweep, xyz2_block)

SQRT2 = sqrt(2.0)


def find(report, p, q, **extras):
    for r in report.records:
        if (r.p, r.q) == (p, q) and all(r.extras.get(k) == v
                                        for k, v in extras.items()):
            return r
    raise AssertionError(f"no record for {p}/{q} {extras}")


def test_bz_closed_forms():
    report = verify_bz(qmax=12, lambdas=(2.0,))
    assert report.passed
    assert find(report, 1, 2, **{"lambda": 2.0}).margin == pytest.approx(
        3.0 - 2 * SQRT2, abs=1e-12)
    assert find(report, 0, 1).margin == pytest.approx(0.0, abs=1e-12)


def test_sweeps_take_only_their_own_options():
    # an option a sweep does not read is an error, never silently ignored
    with pytest.raises(TypeError):
        verify_bz(qmax=6, R=4.0)
    with pytest.raises(TypeError):
        verify_formula(qmax=4, theta0=Fraction(1, 8))


def test_xyz1_closed_forms():
    report = verify_xyz1(qmax=12)
    assert report.passed
    assert find(report, 1, 2).margin == pytest.approx(3.0 - 2 * SQRT2, abs=1e-12)
    assert find(report, 0, 1).margin == pytest.approx(0.0, abs=1e-12)


def test_zzz_theta0_formula():
    assert zzz_theta0(1.0, 0.5) == pytest.approx(asin(0.5 * sqrt(0.5)) / pi,
                                                 abs=1e-12)
    assert zzz_theta0(1.0, 0.5) == pytest.approx(0.11502, abs=1e-5)
    # for R >= 1 the arcsin branch always wins: max of kappa sqrt(1-kappa)
    # over (0,1) is below sqrt(2)/2, so the 1/4 cap never binds
    assert zzz_theta0(1.0, 2.0 / 3.0) == pytest.approx(
        asin((2.0 / 3.0) * sqrt(1.0 / 3.0)) / pi, abs=1e-15)
    assert zzz_theta0(1.0, 2.0 / 3.0) < 0.25


def test_zzz_margins():
    for R, kappa in ((1.0, 0.5), (4.0, 0.5), (16.0, 0.25)):
        report = verify_zzz(qmax=30, R=R, kappa=kappa)
        assert report.passed, (R, kappa)
        assert find(report, 0, 1).margin == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        verify_zzz(qmax=30)
    with pytest.raises(ValueError):
        verify_zzz(qmax=30, R=0.5, kappa=0.5)


def test_zzz_empty_sweep_warning():
    # theta0 for large R shuts out every positive angle at tiny qmax
    report = verify_zzz(qmax=3, R=16.0, kappa=0.25)
    assert any("empty sweep" in n for n in report.notes)


def test_zzz_margin_monotone_in_R():
    kappa = 0.5
    reports = {R: verify_zzz(qmax=24, R=R, kappa=kappa)
               for R in (1.0, 2.0, 4.0, 8.0)}
    rs = sorted(reports)
    for lo, hi in zip(rs, rs[1:]):
        common = ({(r.p, r.q) for r in reports[lo].records}
                  & {(r.p, r.q) for r in reports[hi].records})
        for (p, q) in common:
            assert find(reports[hi], p, q).margin >= \
                find(reports[lo], p, q).margin - 1e-12


def test_xyz2_block_closed_form():
    t = xyz2_block(RationalAngle(1, 2), 1)
    assert np.allclose(t, [[2.0, -4.0], [-4.0, 10.0]], atol=1e-12)
    assert np.linalg.det(t) == pytest.approx(4.0, abs=1e-12)


def test_xyz2_sweep():
    report = verify_xyz2(qmax=20)
    assert report.passed
    rec = find(report, 0, 1)
    assert rec.margin == pytest.approx(0.0, abs=1e-12)
    for r in report.records:
        # blocks PSD forces the operator margin (the operator is their sum)
        assert r.extras["det_min"] >= -1e-9
        assert r.extras["trace_min"] >= -1e-9
        assert r.extras["identity_residual"] <= 1e-12


def test_prodnorm_sweep():
    report = verify_prodnorm(qmax=20)
    assert report.passed
    assert find(report, 1, 2).margin == pytest.approx(0.0, abs=1e-9)


def test_xsmall_sweep():
    report = verify_xsmall(qmax=20)
    assert report.passed
    for r in report.records:
        assert not r.extras["consecutive"]
        assert r.extras["eq_residual"] <= 1e-9
    # delta = 0.5 is only valid once 2(1 - cos(pi theta)) > 0.5
    for r in report.records:
        theta = r.p / r.q
        assert r.extras["delta"] < 2.0 * (1.0 - np.cos(pi * theta))


def test_xsmall_refuses_a_cut_at_an_entry_of_X(monkeypatch):
    # 2 - sqrt(2) = 2 b_3 at 3/8, an angle where that cut applies
    with pytest.raises(ValueError, match="ambiguous"):
        verify_xsmall(qmax=8, deltas=(2 - sqrt(2),))
    # it is an eigenvalue of Y too; with Y's cuts moved off it, the
    # refusal still comes from the cut on X
    project = sweeps.spectral_projection
    monkeypatch.setattr(sweeps, "spectral_projection",
                        lambda op, delta: project(op, np.add(delta, 1e-7)))
    with pytest.raises(ValueError, match="ambiguous"):
        verify_xsmall(qmax=8, deltas=(2 - sqrt(2),))


def test_xsmall_decomposes_y_once_per_part_and_stack(monkeypatch):
    # at order 12 each denominator is one stack, and Y's one call per
    # parity part takes the sorted union of the stack's cuts (1/5 and 2/5
    # apply different cuts)
    project = sweeps.spectral_projection
    calls = []
    monkeypatch.setattr(sweeps, "spectral_projection",
                        lambda op, delta: calls.append(tuple(delta))
                        or project(op, delta))
    report = verify_xsmall(qmax=12)
    union = {}
    for r in report.records:
        union.setdefault(r.q, set()).add(r.extras["delta"])
    assert sorted(union[5]) == [0.1, 0.3, 0.5]
    parts = {q: len(parity_stack([RationalAngle(1, q)])) for q in union}
    assert sorted(calls) == sorted(tuple(sorted(c)) for q, c in union.items()
                                   for _ in range(parts[q]))


def test_smalltheta_explicit_failure_at_half():
    report = verify_smalltheta(qmax=8, theta0=Fraction(1, 2), R=8.0,
                               epsilon=Fraction(1, 16))
    assert not report.passed
    assert any((w.p, w.q) == (1, 2) for w in report.witnesses())
    assert report.min_margin < -1e-3


def test_smalltheta_failure_for_every_scanned_R():
    for R in (2.0, 4.0, 8.0, 16.0, 32.0):
        report = verify_smalltheta(qmax=2, theta0=Fraction(1, 2), R=R,
                                   epsilon=Fraction(0))
        assert find(report, 1, 2).margin < 0, R


def test_smalltheta_search_small_grid():
    report = verify_smalltheta(qmax=12)
    assert report.passed
    assert report.constants["mode"] == "search"
    assert {"R", "epsilon", "theta0"} <= set(report.constants)
    assert report.constants["scan"]  # margins recorded for scanned triples


def test_formula_explicit_small_q():
    report = verify_formula(qmax=2, R=8.0, epsilon=Fraction(1, 16))
    # independent oracle at q = 2: direct 8x8 assembly
    a = RationalAngle(1, 2)
    x, y = x_op(a), y_op(a)
    eye = np.eye(2)
    m = (8.0 * (np.kron(np.kron(x, y), eye) + np.kron(np.kron(y, x), eye)
                + np.kron(np.kron(x, eye), y) + np.kron(np.kron(y, eye), x))
         + np.kron(np.kron(x, x), eye) + np.kron(np.kron(y, y), eye)
         + np.kron(np.kron(x @ y + y @ x, eye), eye))
    expected = float(np.linalg.eigvalsh(m)[0]) - (1.0 / 16.0) * 4.0
    assert find(report, 1, 2).margin == pytest.approx(expected, abs=1e-12)


def test_formula_search_small_grid():
    report = verify_formula(qmax=6)
    assert report.passed
    assert "R" in report.constants and "epsilon" in report.constants


def test_tensor_margin_monotone_in_R():
    grid = [RationalAngle(0, 1), RationalAngle(1, 6), RationalAngle(1, 4),
            RationalAngle(1, 3), RationalAngle(1, 2)]
    for builder in (two_site_operator, three_site_operator):
        prev = None
        for R in (2.0, 4.0, 8.0):
            vals = [float(np.linalg.eigvalsh(builder(a, R))[0]) for a in grid]
            if prev is not None:
                assert all(v >= p - 1e-12 for v, p in zip(vals, prev))
            prev = vals


def test_tensor_operators_match_group_algebra():
    """Both production operators equal the rank-3 group-algebra element
    they stand for, evaluated through the rotation representation, and the
    sweep's minimum over parity blocks is the minimum eigenvalue of both.
    One angle per q = 1..9: q = 1, 2 have no odd block, even q has the
    fixed point q/2."""
    G3 = Heisenberg3
    X = [hermitian_square(G3, G3.x(i)) for i in range(3)]
    Y = [hermitian_square(G3, G3.y(i)) for i in range(3)]
    onsite = X[0] * X[1] + Y[0] * Y[1] + X[0] * Y[0] + Y[0] * X[0]
    cross2 = X[0] * Y[1] + Y[0] * X[1]
    cross3 = X[0] * Y[2] + Y[0] * X[2]
    for p, q in ((0, 1), (1, 2), (1, 3), (1, 4), (2, 5), (1, 6), (3, 7),
                 (3, 8), (4, 9)):
        angle = RationalAngle(p, q)
        eye = np.eye(q)
        # evaluate3 is linear, so the R-free parts are evaluated once
        on, c2, c3 = (evaluate3(angle, e) for e in (onsite, cross2, cross3))
        for R in (2, 3, 16):
            two, three = R * c2 + on, R * (c2 + c3) + on
            dense2 = two_site_operator(angle, R)
            dense3 = three_site_operator(angle, R)
            assert dense2.dtype == dense3.dtype == np.float64
            assert np.max(np.abs(dense3 - three)) <= 1e-12
            assert np.max(np.abs(np.kron(dense2, eye) - two)) <= 1e-12
            for inequality, dense, oracle in ((two_site_terms, dense2, two),
                                              (three_site_terms, dense3, three)):
                block_min = _tensor_sweep(inequality, [angle], R, {})[0].margin
                assert abs(block_min - np.linalg.eigvalsh(dense)[0]) <= 1e-12
                assert abs(block_min - np.linalg.eigvalsh(oracle)[0]) <= 1e-12


def _counting_dense_solves(monkeypatch) -> list:
    """Patch the sweeps' dense solver to log the order of each matrix it
    solves."""
    solved, solve = [], sweeps.min_eigenvalue

    def spy(op):
        solved.append(op.shape[-1])
        return solve(op)

    monkeypatch.setattr(sweeps, "min_eigenvalue", spy)
    return solved


def test_screening_solves_a_later_block_that_holds_the_minimum(monkeypatch):
    # -S has its least eigenvalue on the odd part at 1/5 and IY is least on
    # the even part, so the minimum sits in block (odd, even), the third
    angle = RationalAngle(1, 5)
    terms = ((-1.0, "SI"), (1.0, "IY"))
    minima = parity_block_minima(angle, terms)
    assert int(np.argmin(minima)) == 2
    assert min(minima) < minima[0] - 1.0
    parts = parity_stack([angle])
    table = sweeps._letters(parts)
    positions = sweeps._block_positions(parts, [word for _, word in terms],
                                        table)
    solved = _counting_dense_solves(monkeypatch)
    [low] = sweeps._block_min_eigenvalue(table[0], terms, positions)
    assert low == min(minima)
    assert len(solved) == 2  # block 0, then the refused block 2


def test_letter_table_equals_site_letters_bitwise():
    """Each letter of ``_letters``, scattered into a dense matrix per angle
    and part, is the float array of that letter of ``site_letters``, at
    every p/q with q <= 13."""
    grid = farey_angles(13, max_value=None)
    for q in range(1, 14):
        angles = [a for a in grid if a.q == q]
        parts = parity_stack(angles)
        values, (part, rows, cols), spans = sweeps._letters(parts)
        assert values.shape == (len(angles), len(part))
        assert {a.dtype for a in (part, rows, cols, *spans.values())} == {
            np.dtype(np.int32)}
        assert sorted(np.concatenate(list(spans.values()))) == list(
            range(len(part)))
        for k, (x, y) in enumerate(parts):
            for letter, span in spans.items():
                span = span[part[span] == k]
                assert len(set(zip(rows[span], cols[span]))) == len(span)
                for i, angle in enumerate(angles):
                    dense = np.zeros((len(y), len(y)))
                    dense[rows[span], cols[span]] = values[i, span]
                    want = site_letters(x[i], y)[letter]
                    assert np.array_equal(dense, want), (angle, k, letter)


def _full_words(R: float) -> tuple:
    # every site of every word a letter other than I: in the two criteria
    # each three-site word has an I, and a product of two floats does not
    # depend on their order, so only words like these show the site order
    return ((R, "XYS"), (1.0, "SSY"), (R, "YXX"), (1.0, "SYS"))


@pytest.mark.parametrize("inequality",
                         [two_site_terms, three_site_terms, _full_words])
def test_parity_blocks_equal_the_kronecker_oracle_bitwise(inequality):
    """Every block summed from its nonzeros is the float array of the dense
    sum of Kronecker words over ``site_letters``, at every p/q with
    q <= 13, every choice of parts and R = 2, 16: q <= 2 has only the
    even part, and q = 3, 4 have an odd part of size 1."""
    grid = farey_angles(13, max_value=None)
    for q in range(1, 14):
        angles = [a for a in grid if a.q == q]
        parts = parity_stack(angles)
        assert [len(y) for _, y in parts] == [q // 2 + 1, (q - 1) // 2][:len(parts)]
        assert len(parts) == (1 if q <= 2 else 2)
        letters = [[site_letters(x[i], y) for x, y in parts]
                   for i in range(len(angles))]
        for R in (2.0, 16.0):
            terms = inequality(R)
            table = sweeps._letters(parts)
            positions = sweeps._block_positions(
                parts, [word for _, word in terms], table)
            blocks = list(sweeps._parity_blocks(table[0], terms, positions))
            oracle = [(i, sweeps._assemble(
                           partial(kron_word, [letters[i][k] for k in choice]),
                           terms))
                      for choice in product(range(len(parts)),
                                            repeat=len(terms[0][1]))
                      for i in range(len(angles))]
            assert len(blocks) == len(oracle)
            for (i, block), (j, want) in zip(blocks, oracle):
                assert i == j
                assert np.array_equal(block, want), (angles[i], R)


def test_positions_are_built_once_per_denominator_per_verdict(monkeypatch):
    # theta0 = 1/2 fails at every R, so each verdict scans all of R_SCAN;
    # the parts' orders add up to the denominator
    built, build = [], sweeps._block_positions
    monkeypatch.setattr(
        sweeps, "_block_positions", lambda parts, words, table: (
            built.append(sum(len(y) for _, y in parts))
            or build(parts, words, table)))

    def refuse(sites, word):
        raise AssertionError("a search built a Kronecker word")

    monkeypatch.setattr(sweeps.rotation, "kron_word", refuse)
    for verdict in range(2):
        built.clear()
        report = verify_smalltheta(qmax=6, theta0=Fraction(1, 2),
                                   epsilon=Fraction(1, 16))
        assert len(report.constants["scan"]) == len(sweeps.R_SCAN)
        assert sorted(built) == list(range(1, 7)), verdict


def test_search_builds_one_parity_stack_per_denominator_and_R(monkeypatch):
    # theta0 = 1/2 fails at every R, so the search scans all of R_SCAN
    stacked, stack = [], sweeps.rotation.parity_stack
    monkeypatch.setattr(sweeps.rotation, "parity_stack",
                        lambda angles: stacked.append(angles) or stack(angles))

    def refuse(angle):
        raise AssertionError("a search built a dense X")

    monkeypatch.setattr(sweeps.rotation, "x_op", refuse)
    report = verify_smalltheta(qmax=6, theta0=Fraction(1, 2),
                               epsilon=Fraction(1, 16))
    assert len(report.constants["scan"]) == len(sweeps.R_SCAN)
    per_R = [[a for a in farey_angles(6) if a.q == q] for q in range(1, 7)]
    assert sorted(stacked) == sorted(per_R * len(sweeps.R_SCAN))


# The grids of criteria 7 (two-site, and its theta0 = 1/2 witness) and 8
# (three-site) at the constants their searches find.
CRITERIA_GRIDS = [(two_site_terms, 24, 2.0), (three_site_terms, 12, 16.0)]


@pytest.mark.parametrize("inequality, qmax, R", CRITERIA_GRIDS)
def test_screened_tensor_sweep_equals_the_all_blocks_oracle(
        monkeypatch, inequality, qmax, R):
    grid = farey_angles(qmax)
    solved = _counting_dense_solves(monkeypatch)
    records = _tensor_sweep(inequality, grid, R, {})
    assert [(r.p, r.q) for r in records] == [(a.p, a.q) for a in grid]
    assert len(solved) == len(grid)  # one dense solve per angle
    for r, a in zip(records, grid):
        assert r.margin == min(parity_block_minima(a, inequality(R))), (a, R)


# Single-site sweeps on grids where some denominator solves more angles
# than one stack: q = 19 on the full circle at order 20 (9 angles in
# [0, 1/2]; the mirrors in (1/2, 1) are not solved), q = 23 on [0, 1/2] at
# order 24, q = 79 below theta0 = 0.115 at order 80.
CHUNKED = [("bz", {"qmax": 20, "full_circle": True}),
           ("xyz1", {"qmax": 20, "full_circle": True}),
           ("xyz2", {"qmax": 20, "full_circle": True}),
           ("zzz", {"qmax": 80, "R": 1.0, "kappa": 0.5}),
           ("zzz", {"qmax": 16, "R": 16.0, "kappa": 0.25}),
           ("prodnorm", {"qmax": 24}),
           ("xsmall", {"qmax": 24}),
           ("xsmall", {"qmax": 16, "tol": -1.0, "deltas": (0.5, 0.2)})]


@pytest.mark.parametrize("name, params", CHUNKED)
def test_stacked_sweeps_match_the_per_angle_oracle(name, params):
    report = getattr(sweeps, f"verify_{name}")(**params)
    oracle = single_site_sweep(name, **params)
    assert report.passed == oracle.passed
    assert len(report.records) == len(oracle.records)
    assert report.notes == oracle.notes
    for got, want in zip(report.records, oracle.records):
        assert (got.p, got.q) == (want.p, want.q)
        assert abs(got.margin - want.margin) <= 1e-12
        assert got.extras.keys() == want.extras.keys()
        for key, value in want.extras.items():
            if isinstance(value, float):
                assert abs(got.extras[key] - value) <= 1e-12, key
            else:
                assert got.extras[key] == value, key


def test_oracle_grids_cross_a_stack(monkeypatch):
    # the angles handed to parity_stack, one list per denominator, are the
    # angles the sweep solves
    stacked, stack = [], sweeps.rotation.parity_stack
    monkeypatch.setattr(sweeps.rotation, "parity_stack",
                        lambda angles: stacked.append(angles) or stack(angles))
    for name, params in CHUNKED[:4] + CHUNKED[5:7]:
        stacked.clear()
        getattr(sweeps, f"verify_{name}")(**params)
        assert max(map(len, stacked)) > sweeps.STACK, name


def _logging_solves(monkeypatch) -> list:
    """Patch both dense solvers of the single-site sweeps to log a copy of
    each stack of matrices they solve."""
    solved = []
    for name in ("min_eigenvalue", "hermitian_norm"):
        def spy(op, solve=getattr(sweeps, name)):
            solved.append(op.copy())
            return solve(op)
        monkeypatch.setattr(sweeps, name, spy)
    return solved


@pytest.mark.parametrize("name", ["bz", "xyz1", "xyz2"])
def test_full_circle_solves_each_mirror_pair_once(monkeypatch, name):
    sweep = getattr(sweeps, f"verify_{name}")
    solved = _logging_solves(monkeypatch)
    half = sweep(qmax=16)
    half_solves = list(solved)
    solved.clear()
    full = sweep(qmax=16, full_circle=True)
    assert len(solved) == len(half_solves)
    assert all(np.array_equal(a, b) for a, b in zip(solved, half_solves))
    assert len(full.records) > len(half.records)
    # the margin of (q-p)/q is that of p/q ...
    margins = {(r.p, r.q, r.extras.get("lambda")): r.margin
               for r in full.records}
    for (p, q, lam), margin in margins.items():
        assert margins[(-p % q, q, lam)] == margin
    # ... and the float that solving (q-p)/q itself gives
    upper = [a for a in farey_angles(16, max_value=None) if 2 * a.p > a.q]
    monkeypatch.setattr(sweeps, "farey_angles", lambda *_, **__: upper)
    for r in sweep(qmax=16, full_circle=True).records:
        assert r.margin == margins[(r.p, r.q, r.extras.get("lambda"))]


def test_reports_are_deterministic(tmp_path):
    for name, params in CHUNKED[:4] + CHUNKED[5:7]:
        argv = ["verify", name, "--qmax", str(params["qmax"])]
        if params.get("full_circle"):
            argv.append("--full-circle")
        if name == "zzz":
            argv += ["--R", str(params["R"]), "--kappa", str(params["kappa"])]
        reports = []
        for run in ("a", "b"):
            out, csv = tmp_path / f"{run}.json", tmp_path / f"{run}.csv"
            assert main(argv + ["--out", str(out), "--csv", str(csv)]) == 0
            reports.append((out.read_bytes(), csv.read_bytes()))
        assert reports[0] == reports[1], name


def test_report_json_excludes_wall_time(tmp_path):
    out, csv = tmp_path / "xyz1.json", tmp_path / "xyz1.csv"
    assert main(["verify", "xyz1", "--qmax", "6", "--out", str(out),
                 "--csv", str(csv)]) == 0
    for path in (out, csv):
        text = path.read_text()
        assert "wall_time" not in text and "seconds" not in text
