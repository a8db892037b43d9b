"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line; run with ``pytest -s`` to see them
as they complete.  The heavy searches (two-site and three-site constants,
the q = 5 Cayley family) run here at full scale.
"""

import time
from fractions import Fraction
from math import sqrt

import numpy as np

from heisenkit.algebra import sos_identity_sides
from heisenkit.expander import family_report
from heisenkit.graded import (dimension_table, gram_matrix_check, phi_report,
                              rederive_square_swap_lines)
from heisenkit.rotation import evaluate, farey_angles
from heisenkit.sweeps import (verify_bz, verify_formula, verify_prodnorm,
                              verify_smalltheta, verify_xsmall, verify_xyz1,
                              verify_xyz2, verify_zzz)
from heisenkit.symmetrize import (StabilityCertificate, build_parts,
                                  orbit_sum, stability_threshold)

SQRT2 = sqrt(2.0)


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_almost_mathieu_bound():
    t0 = time.perf_counter()
    report = verify_bz(qmax=60, lambdas=(1.0, 2.0, 4.0), full_circle=True)
    dt = time.perf_counter() - t0
    ok = report.passed and report.min_margin >= -1e-9 and dt < 30
    _report(1, ok, f"norm bound, q<=60, lambda in {{1,2,4}}: "
                   f"min slack {report.min_margin:+.3e} over "
                   f"{len(report.records)} records in {dt:.1f}s")


def test_criterion_02_xyz1():
    report = verify_xyz1(qmax=60, full_circle=True)
    half = next(r for r in report.records if (r.p, r.q) == (1, 2))
    exact = abs(half.margin - (3.0 - 2.0 * SQRT2)) <= 1e-12
    ok = report.passed and report.min_margin >= -1e-9 and exact
    _report(2, ok, f"X+Y vs sqrt(Z)/2: min margin {report.min_margin:+.3e}; "
                   f"margin at 1/2 = {half.margin:.12f} (3-2sqrt2 to 1e-12)")


def test_criterion_03_zzz():
    results = []
    for R, kappa in ((1.0, 0.5), (4.0, 0.5), (16.0, 0.25)):
        report = verify_zzz(qmax=60, R=R, kappa=kappa)
        results.append((R, kappa, report.min_margin, report.passed,
                        report.constants["theta0"]))
    ok = all(r[3] and r[2] >= -1e-9 for r in results)
    detail = "; ".join(f"(R={r[0]:g},k={r[1]:g}): min {r[2]:+.2e} "
                       f"theta0={r[4]:.5f}" for r in results)
    _report(3, ok, f"scaled small-angle bound: {detail}")


def test_criterion_04_xyz2():
    report = verify_xyz2(qmax=60, full_circle=True)
    worst_resid = max(r.extras["identity_residual"] for r in report.records)
    det_ok = all(r.extras["det_min"] >= -1e-9 and r.extras["trace_min"] >= -1e-9
                 for r in report.records)
    ok = (report.passed and report.min_margin >= -1e-9 and det_ok
          and worst_resid <= 1e-12)
    _report(4, ok, f"anticommutator lower bound: operator min margin "
                   f"{report.min_margin:+.3e}, block checks "
                   f"{'ok' if det_ok else 'VIOLATED'}, corrected-identity "
                   f"residual {worst_resid:.2e}")


def test_criterion_05_prodnorm():
    report = verify_prodnorm(qmax=60)
    half = next(r for r in report.records if (r.p, r.q) == (1, 2))
    ok = (report.passed and report.min_margin >= -1e-9
          and abs(half.margin) <= 1e-9)
    _report(5, ok, f"product norm vs 4cos(pi theta/2): min margin "
                   f"{report.min_margin:+.3e}; equality slack at 1/2 = "
                   f"{half.margin:.2e}")


def test_criterion_06_xsmall():
    report = verify_xsmall(qmax=40, deltas=(0.1, 0.3, 0.5))
    worst_eq = max(r.extras["eq_residual"] for r in report.records)
    ok = report.passed and report.min_margin >= -1e-9 and worst_eq <= 1e-9
    _report(6, ok, f"projection bounds, q<=40, delta in {{.1,.3,.5}}: "
                   f"min margin {report.min_margin:+.3e}, compression "
                   f"residual {worst_eq:.2e} over {len(report.records)} records")


def test_criterion_07_smalltheta_search():
    t0 = time.perf_counter()
    report = verify_smalltheta(qmax=24)
    dt = time.perf_counter() - t0
    found = report.passed and {"R", "epsilon", "theta0"} <= set(report.constants)
    fail_half = verify_smalltheta(
        qmax=24, theta0=Fraction(1, 2), R=float(report.constants.get("R", 8)),
        epsilon=Fraction(report.constants.get("epsilon", Fraction(1, 16))))
    witnessed = (not fail_half.passed) and fail_half.min_margin < 0
    ok = found and witnessed and dt < 300
    consts = {k: str(report.constants[k]) for k in ("theta0", "R", "epsilon")
              if k in report.constants}
    _report(7, ok, f"two-site search at Q=24 found {consts} with min margin "
                   f"{report.min_margin:+.3e} in {dt:.1f}s; theta0=1/2 fails "
                   f"with margin {fail_half.min_margin:+.3e}")


def test_criterion_08_formula_search():
    t0 = time.perf_counter()
    report = verify_formula(qmax=12)
    dt = time.perf_counter() - t0
    ok = (report.passed and "R" in report.constants
          and "epsilon" in report.constants and dt < 1800)
    _report(8, ok, f"three-site search at Q=12 found "
                   f"R={report.constants.get('R')}, "
                   f"eps={report.constants.get('epsilon')} with min margin "
                   f"{report.min_margin:+.3e} in {dt:.1f}s "
                   f"({len(report.constants.get('scan', {}))} scanned pairs)")


def test_criterion_09_orbit_sums():
    from math import factorial
    checks = []
    for m, n in ((4, 5), (4, 6), (5, 6)):
        for d in (1, 2):
            pm, pn = build_parts(m, d), build_parts(n, d)
            s2 = orbit_sum(pm["Delta2"], n).divides_exactly(pn["Delta2"])
            sa = orbit_sum(pm["Adj"], n).divides_exactly(pn["Adj"])
            so = orbit_sum(pm["Op"], n).divides_exactly(pn["Op"])
            checks.append(s2 == m * (m - 1) * factorial(n - 2)
                          and sa == m * (m - 1) * (m - 2) * factorial(n - 3)
                          and so == m * (m - 1) * (m - 2) * (m - 3)
                          * factorial(n - 4))
    split_ok = all(
        build_parts(m, d)["Delta_sq"] == (lambda p: p["Sq"] + p["Adj"] + p["Op"])(
            build_parts(m, d))
        for m in (2, 3, 4, 5) for d in (1, 2))
    ok = all(checks) and split_ok
    _report(9, ok, f"orbit-sum identities exact for (m,n) in "
                   f"{{(4,5),(4,6),(5,6)}}, d in {{1,2}}; "
                   f"square split exact for m <= 5")


def test_criterion_10_stability_calculator():
    cert = StabilityCertificate(5, Fraction(6), Fraction(1))
    ok = True
    for n in range(5, 40):
        rec = stability_threshold(cert, n)
        ok = ok and rec["applies"] == (n >= 15)
        ok = ok and rec["epsilon_n"] == Fraction(n - 2, 3)
    _report(10, ok, "certificate (m,R,eps)=(5,6,1): applies iff n >= 15, "
                    "epsilon_n = (n-2)/3 exactly")


def test_criterion_11_augmentation():
    dims_ok = all(f == b for _, f, b in dimension_table(10))
    phi = phi_report()
    gram = gram_matrix_check()
    eig_ok = bool(np.allclose(sorted(gram["eigenvalues"]), [0, 1, 1, 2],
                              atol=1e-12))
    lines_ok = rederive_square_swap_lines()["pass"]
    lhs, rhs = sos_identity_sides()
    exact_sos = lhs == rhs
    worst = 0.0
    for angle in farey_angles(10, max_value=None)[:10]:
        worst = max(worst, float(np.max(np.abs(evaluate(angle, lhs)
                                               - evaluate(angle, rhs)))))
    ok = (dims_ok and phi["pass"] and gram["matches_expected"] and eig_ok
          and gram["psd"] and lines_ok and exact_sos and worst <= 1e-12)
    _report(11, ok, f"graded dims n<=10 match; phi values "
                    f"(Delta^2, box, z*z) = ({phi['phi_delta_sq']}, "
                    f"{phi['phi_box']}, {phi['phi_zstar_z']}); Gram matrix "
                    f"matches with eigenvalues {{0,1,1,2}}; certificate "
                    f"identity exact, numeric residual {worst:.2e}")


def test_criterion_12_cayley_family():
    t0 = time.perf_counter()
    rows = family_report(3, [2, 3, 4, 5], p_rule="coprime")
    dt = time.perf_counter() - t0
    orders_ok = all(r["order_matches"] for r in rows)
    gaps_ok = all(r["connected"] and r["normalized_gap"] > 0.01 for r in rows)
    ok = orders_ok and gaps_ok
    worst = min(r["normalized_gap"] for r in rows)
    _report(12, ok, f"SL_3(Z/q) for q in {{2,3,4,5}}, all coprime p "
                    f"({len(rows)} graphs): BFS orders match the classical "
                    f"formula; min normalized gap {worst:.4f} > 0.01 "
                    f"({dt:.0f}s)")
