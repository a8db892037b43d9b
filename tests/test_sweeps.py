"""Sweep margins against closed forms, search behavior and determinism."""

import json
from fractions import Fraction
from math import asin, pi, sqrt

import numpy as np
import pytest

from heisenkit.algebra import hermitian_square
from heisenkit.groups import Heisenberg3
from heisenkit.rotation import RationalAngle, evaluate3, x_op, y_op
from heisenkit.sweeps import (SweepConfig, three_site_operator,
                              two_site_operator, verify_bz, verify_formula,
                              verify_prodnorm, verify_smalltheta,
                              verify_xsmall, verify_xyz1, verify_xyz2,
                              verify_zzz, xyz2_block, zzz_theta0)

SQRT2 = sqrt(2.0)


def find(report, p, q, **extras):
    for r in report.records:
        if (r.p, r.q) == (p, q) and all(r.extras.get(k) == v
                                        for k, v in extras.items()):
            return r
    raise AssertionError(f"no record for {p}/{q} {extras}")


def test_bz_closed_forms():
    report = verify_bz(SweepConfig(qmax=12, lambdas=(2.0,)))
    assert report.passed
    assert find(report, 1, 2, **{"lambda": 2.0}).margin == pytest.approx(
        3.0 - 2 * SQRT2, abs=1e-12)
    assert find(report, 0, 1).margin == pytest.approx(0.0, abs=1e-12)


def test_xyz1_closed_forms():
    report = verify_xyz1(SweepConfig(qmax=12))
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
        report = verify_zzz(SweepConfig(qmax=30, R=R, kappa=kappa))
        assert report.passed, (R, kappa)
        assert find(report, 0, 1).margin == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        verify_zzz(SweepConfig(qmax=30))
    with pytest.raises(ValueError):
        verify_zzz(SweepConfig(qmax=30, R=0.5, kappa=0.5))


def test_zzz_empty_sweep_warning():
    # theta0 for large R shuts out every positive angle at tiny qmax
    report = verify_zzz(SweepConfig(qmax=3, R=16.0, kappa=0.25))
    assert any("empty sweep" in n for n in report.notes)


def test_zzz_margin_monotone_in_R():
    kappa = 0.5
    reports = {R: verify_zzz(SweepConfig(qmax=24, R=R, kappa=kappa))
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
    report = verify_xyz2(SweepConfig(qmax=20))
    assert report.passed
    rec = find(report, 0, 1)
    assert rec.margin == pytest.approx(0.0, abs=1e-12)
    for r in report.records:
        # blocks PSD forces the operator margin (the operator is their sum)
        assert r.extras["det_min"] >= -1e-9
        assert r.extras["trace_min"] >= -1e-9
        assert r.extras["identity_residual"] <= 1e-12


def test_prodnorm_sweep():
    report = verify_prodnorm(SweepConfig(qmax=20))
    assert report.passed
    assert find(report, 1, 2).margin == pytest.approx(0.0, abs=1e-9)


def test_xsmall_sweep():
    report = verify_xsmall(SweepConfig(qmax=20))
    assert report.passed
    for r in report.records:
        assert not r.extras["consecutive"]
        assert r.extras["eq_residual"] <= 1e-9
    # delta = 0.5 is only valid once 2(1 - cos(pi theta)) > 0.5
    for r in report.records:
        theta = r.p / r.q
        assert r.extras["delta"] < 2.0 * (1.0 - np.cos(pi * theta))


def test_smalltheta_explicit_failure_at_half():
    cfg = SweepConfig(qmax=8, theta0=Fraction(1, 2), R=8.0,
                      epsilon=Fraction(1, 16))
    report = verify_smalltheta(cfg)
    assert not report.passed
    assert any((w.p, w.q) == (1, 2) for w in report.witnesses())
    assert report.min_margin < -1e-3


def test_smalltheta_failure_for_every_scanned_R():
    for R in (2.0, 4.0, 8.0, 16.0, 32.0):
        cfg = SweepConfig(qmax=2, theta0=Fraction(1, 2), R=R, epsilon=Fraction(0))
        report = verify_smalltheta(cfg)
        assert find(report, 1, 2).margin < 0, R


def test_smalltheta_search_small_grid():
    report = verify_smalltheta(SweepConfig(qmax=12))
    assert report.passed
    assert report.constants["mode"] == "search"
    assert {"R", "epsilon", "theta0"} <= set(report.constants)
    assert report.constants["scan"]  # margins recorded for scanned triples


def test_formula_explicit_small_q():
    cfg = SweepConfig(qmax=2, R=8.0, epsilon=Fraction(1, 16))
    report = verify_formula(cfg)
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
    report = verify_formula(SweepConfig(qmax=6))
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
    they stand for, evaluated through the rotation representation."""
    G3 = Heisenberg3
    X = [hermitian_square(G3, G3.x(i)) for i in range(3)]
    Y = [hermitian_square(G3, G3.y(i)) for i in range(3)]
    onsite = X[0] * X[1] + Y[0] * Y[1] + X[0] * Y[0] + Y[0] * X[0]
    for angle in (RationalAngle(1, 2), RationalAngle(1, 3)):
        eye = np.eye(angle.q)
        for R in (2, 3):
            two = R * (X[0] * Y[1] + Y[0] * X[1]) + onsite
            three = two + R * (X[0] * Y[2] + Y[0] * X[2])
            assert np.max(np.abs(three_site_operator(angle, R)
                                 - evaluate3(angle, three))) <= 1e-12
            assert np.max(np.abs(np.kron(two_site_operator(angle, R), eye)
                                 - evaluate3(angle, two))) <= 1e-12


def test_reports_are_deterministic():
    cfg = SweepConfig(qmax=10, lambdas=(1.0, 2.0))
    r1, r2 = verify_bz(cfg), verify_bz(cfg)
    assert json.dumps(r1.to_json_dict(), sort_keys=True) == \
        json.dumps(r2.to_json_dict(), sort_keys=True)
    assert r1.csv_rows() == r2.csv_rows()
    serial = verify_bz(SweepConfig(qmax=10, lambdas=(1.0, 2.0), jobs=1))
    assert serial.csv_rows() == r1.csv_rows()


def test_report_json_excludes_wall_time():
    report = verify_xyz1(SweepConfig(qmax=6))
    payload = report.to_json_dict()
    assert "wall_time" not in json.dumps(payload)
    assert report.wall_time_s > 0
