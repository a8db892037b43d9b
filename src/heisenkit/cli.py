"""Command-line front end: every verification as a reproducible run.

Exit codes: 0 all checks pass, 2 a check failed, 1 usage error.  Reports
are deterministic (identical argv gives byte-identical files); wall time
goes to stdout only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import shlex
import sys
import time
from fractions import Fraction

import numpy as np

from . import graded, symmetrize
from .algebra import sos_identity_sides, steinberg_check
from .expander import DEFAULT_ORDER_CAP, family_report
from .rotation import evaluate, farey_angles
from .sweeps import (SweepConfig, verify_bz, verify_formula, verify_prodnorm,
                     verify_smalltheta, verify_xsmall, verify_xyz1,
                     verify_xyz2, verify_zzz)

EXIT_PASS, EXIT_USAGE, EXIT_FAIL = 0, 1, 2


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_fraction(text: str) -> Fraction:
    value = _fraction(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _write_json(path: str | None, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path: str | None, rows):
    if not path:
        return
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _report_outcome(name: str, report, args, seconds: float,
                    extra_params=None) -> int:
    params = {k: str(v) for k, v in sorted((extra_params or {}).items())}
    payload = {"command": name, "params": params, **report.to_json_dict()}
    _write_json(args.out, payload)
    if args.csv:
        _write_csv(args.csv, report.csv_rows())
    verdict = "PASS" if report.passed else "FAIL"
    amin = report.argmin
    where = f" at theta={amin.p}/{amin.q}" if amin else ""
    print(f"[{verdict}] {name}: min margin {report.min_margin:+.3e}{where} "
          f"({len(report.records)} records, {seconds:.2f}s)")
    for note in report.notes:
        print(f"    note: {note}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(SweepConfig)})


def cmd_verify(args) -> int:
    cfg = _sweep_config(args)
    runners = {
        "bz": verify_bz, "xyz1": verify_xyz1, "zzz": verify_zzz,
        "xyz2": verify_xyz2, "prodnorm": verify_prodnorm,
        "xsmall": verify_xsmall, "smalltheta": verify_smalltheta,
        "formula": verify_formula,
    }
    t0 = time.perf_counter()
    report = runners[args.inequality](cfg)
    return _report_outcome(f"verify {args.inequality}", report, args,
                           time.perf_counter() - t0,
                           extra_params={"qmax": cfg.qmax, "tol": cfg.tol})


def cmd_symmetry(args) -> int:
    t0 = time.perf_counter()
    if args.what == "orbit":
        parts_m = symmetrize.build_parts(args.m, args.d)
        parts_n = symmetrize.build_parts(args.n, args.d)
        results = []
        for name, k in (("Delta2", 2), ("Adj", 3), ("Op", 4)):
            # a part needs k distinct indices, so it is zero when k > m
            expected = (math.perm(args.m, k) * math.factorial(args.n - k)
                        if k <= args.m else 0)
            scalar = symmetrize.orbit_sum(parts_m[name], args.n).divides_exactly(
                parts_n[name])
            results.append({"identity": name, "m": args.m, "n": args.n,
                            "d": args.d,
                            "lhs_terms": parts_m[name].term_count(),
                            "rhs_terms": parts_n[name].term_count(),
                            "scalar": scalar, "expected_scalar": expected,
                            "match": scalar == expected})
        split = parts_m["Delta_sq"] == (parts_m["Sq"] + parts_m["Adj"]
                                        + parts_m["Op"])
        ok = split and all(r["match"] for r in results)
        payload = {"command": "symmetry orbit", "pass": ok,
                   "split_exact": split, "identities": results}
    elif args.what == "census":
        payload = {"command": "symmetry census",
                   **symmetrize.edge_pair_census(args.m)}
        payload["pass"] = payload["edges_match"] and payload["disjoint_matches_ordered"]
    elif args.what == "spade":
        rec = symmetrize.spade_to_heart(args.m, args.d)
        payload = {"command": "symmetry spade", **_plainify(rec),
                   "pass": bool(rec.get("adj_match") and rec.get("rhs_match"))}
    elif args.what == "threshold":
        cert = symmetrize.StabilityCertificate(args.m, _fraction(args.R_exact),
                                               _fraction(args.eps_exact))
        rec = symmetrize.stability_threshold(cert, args.n)
        rec["n_threshold"] = symmetrize.n_threshold(cert)
        payload = {"command": "symmetry threshold", **_plainify(rec),
                   "pass": True}
    elif args.what == "el5":
        rec = symmetrize.instantiate_el5(args.q, args.tr, args.ts)
        steinberg = steinberg_check(3, min(args.q, 5))
        payload = {"command": "symmetry el5", **_plainify(rec),
                   "steinberg_pass": steinberg["pass"],
                   "pass": rec["pass"] and steinberg["pass"]}
    else:  # pragma: no cover
        raise ValueError(args.what)
    _write_json(args.out, payload)
    status = "PASS" if payload["pass"] else "FAIL"
    print(f"[{status}] {payload['command']} ({time.perf_counter() - t0:.2f}s)")
    return EXIT_PASS if payload["pass"] else EXIT_FAIL


def _plainify(obj):
    if isinstance(obj, dict):
        return {str(k): _plainify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plainify(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    return obj


def cmd_graded(args) -> int:
    t0 = time.perf_counter()
    if args.what == "dims":
        rows = graded.dimension_table(args.max)
        ok = all(r[1] == r[2] for r in rows)
        _write_csv(args.csv, [("n", "formula", "enumerated")] + rows)
        payload = {"command": "graded dims", "pass": ok,
                   "rows": [list(r) for r in rows]}
    elif args.what == "phi":
        rec = graded.phi_report()
        lines = graded.rederive_square_swap_lines()
        payload = {"command": "graded phi",
                   "phi_delta_sq": str(rec["phi_delta_sq"]),
                   "phi_box": str(rec["phi_box"]),
                   "phi_zstar_z": str(rec["phi_zstar_z"]),
                   "witness_value": str(rec["witness_value"]),
                   "selfadjoint": graded.phi_selfadjoint_check(),
                   "square_swap_lines_pass": lines["pass"],
                   "pass": rec["pass"] and lines["pass"]}
    elif args.what == "gram":
        rec = graded.gram_matrix_check()
        payload = {"command": "graded gram",
                   "matrix": [[str(v) for v in row] for row in rec["matrix"]],
                   "eigenvalues": rec["eigenvalues"],
                   "matches_expected": rec["matches_expected"],
                   "psd": rec["psd"],
                   "pass": rec["matches_expected"] and rec["psd"]}
    elif args.what == "sos-identity":
        lhs, rhs = sos_identity_sides()
        exact = lhs == rhs
        worst = 0.0
        for angle in farey_angles(args.points, max_value=None)[:args.points]:
            diff = evaluate(angle, lhs - rhs)
            worst = max(worst, float(np.max(np.abs(diff))) if diff.size else 0.0)
        payload = {"command": "graded sos-identity", "exact_match": exact,
                   "max_numeric_residual": worst,
                   "pass": exact and worst <= 1e-12}
    else:  # pragma: no cover
        raise ValueError(args.what)
    _write_json(args.out, payload)
    status = "PASS" if payload["pass"] else "FAIL"
    print(f"[{status}] {payload['command']} ({time.perf_counter() - t0:.2f}s)")
    return EXIT_PASS if payload["pass"] else EXIT_FAIL


def cmd_expander(args) -> int:
    t0 = time.perf_counter()
    rows = family_report(args.n, args.q, p_rule=args.p_rule,
                         order_cap=args.cap)
    ok = all(r["order_matches"] and r["connected"] and r["normalized_gap"] > 0.01
             for r in rows)
    header = ["n", "q", "p", "order", "degree", "lambda2", "gap",
              "normalized_gap"]
    csv_rows = [header] + [[r[k] if not isinstance(r[k], float) else repr(r[k])
                            for k in header] for r in rows]
    _write_csv(args.csv, csv_rows)
    payload = {"command": "expander run", "pass": ok,
               "rows": [{k: _plainify(v) for k, v in r.items()
                         if k != "seconds"} for r in rows]}
    _write_json(args.out, payload)
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] expander run: {len(rows)} graphs "
          f"({time.perf_counter() - t0:.2f}s)")
    for r in rows:
        print(f"    n={r['n']} q={r['q']} p={r['p']}: order {r['order']} "
              f"gap {r['gap']:.4f} normalized {r['normalized_gap']:.4f}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_all(args) -> int:
    """Full verification suite; exit code is the conjunction.  A component
    that exits 1 (usage error) counts as failed."""
    checks = (
        "verify bz", "verify xyz1", "verify xyz2", "verify prodnorm",
        "verify xsmall", "verify smalltheta", "verify formula",
        "verify zzz --R 1 --kappa 0.5", "verify zzz --R 4 --kappa 0.5",
        "verify zzz --R 16 --kappa 0.25",
        "symmetry orbit --m 4 --n 5 --d 1", "symmetry orbit --m 4 --n 5 --d 2",
        "symmetry orbit --m 4 --n 6 --d 1", "symmetry orbit --m 4 --n 6 --d 2",
        "symmetry orbit --m 5 --n 6 --d 1", "symmetry orbit --m 5 --n 6 --d 2",
        "symmetry orbit --m 6 --n 12 --d 1",
        "symmetry census --m 4", "symmetry spade --m 5 --d 1",
        "symmetry threshold --m 5 --R 6 --eps 1 --n 15",
        "symmetry el5 --q 5 --tr 2 --ts 3",
        "graded dims --max 10", "graded phi", "graded gram",
        "graded sos-identity --points 10",
        "expander run --n 3 --q 2,3,4,5 --p-rule coprime",
    )
    failures = []
    for check in checks:
        argv = shlex.split(check)
        if check.startswith("verify"):
            argv += ["--tol", repr(args.tol)]
        t0 = time.perf_counter()
        code = main(argv)
        if code != EXIT_PASS:
            failures.append(check)
        print(f"  -> {check}: {'ok' if code == EXIT_PASS else 'FAILED'} "
              f"({time.perf_counter() - t0:.1f}s)")
    if failures:
        print(f"FAILED: {len(failures)} component(s): {', '.join(failures)}")
        return EXIT_FAIL
    print("All verifications passed.")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="heisenkit",
        description="Verification sweeps for rotation-representation "
                    "inequalities, exact symmetrization identities, graded "
                    "augmentation arithmetic, and Cayley spectral gaps.")
    sub = top.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="rotation-representation inequality sweeps")
    pv.add_argument("inequality",
                    choices=["bz", "xyz1", "zzz", "xyz2", "prodnorm",
                             "xsmall", "smalltheta", "formula"])
    pv.add_argument("--qmax", type=_positive_int, default=SweepConfig.qmax,
                    help="Farey grid order (default per inequality)")
    pv.add_argument("--tol", type=_finite_float, default=SweepConfig.tol)
    pv.add_argument("--lambda", dest="lambdas", type=_float_list,
                    default=SweepConfig.lambdas, help="couplings, comma separated")
    pv.add_argument("--R", type=_positive_float, default=SweepConfig.R)
    pv.add_argument("--kappa", type=float, default=SweepConfig.kappa)
    pv.add_argument("--epsilon", type=_positive_fraction,
                    default=SweepConfig.epsilon)
    pv.add_argument("--theta0", type=_positive_fraction,
                    default=SweepConfig.theta0)
    pv.add_argument("--deltas", type=_float_list, default=SweepConfig.deltas)
    pv.add_argument("--full-circle", action="store_true",
                    help="sweep all of [0,1) instead of [0,1/2]")
    pv.add_argument("--out", default=None, help="write JSON summary here")
    pv.add_argument("--csv", default=None, help="write per-angle CSV here")
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("symmetry", help="exact orbit-sum and threshold checks")
    ps.add_argument("what", choices=["orbit", "census", "spade", "threshold", "el5"])
    ps.add_argument("--m", type=_positive_int, default=4)
    ps.add_argument("--n", type=_positive_int, default=5)
    ps.add_argument("--d", type=_positive_int, default=1)
    ps.add_argument("--R", dest="R_exact", default="6",
                    help="certificate R (exact rational)")
    ps.add_argument("--eps", dest="eps_exact", default="1",
                    help="certificate epsilon (exact rational)")
    ps.add_argument("--q", type=int, default=5)
    ps.add_argument("--tr", type=int, default=2)
    ps.add_argument("--ts", type=int, default=3)
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_symmetry)

    pg = sub.add_parser("graded", help="augmentation-quotient computations")
    pg.add_argument("what", choices=["dims", "phi", "gram", "sos-identity"])
    pg.add_argument("--max", type=_positive_int, default=10,
                    help="largest degree for dims")
    pg.add_argument("--points", type=_positive_int, default=10,
                    help="numeric grid size for sos-identity")
    pg.add_argument("--out", default=None)
    pg.add_argument("--csv", default=None)
    pg.set_defaults(fn=cmd_graded)

    pe = sub.add_parser("expander", help="Cayley graphs of SL_n(Z/qZ)")
    pe.add_argument("what", choices=["run"])
    pe.add_argument("--n", type=int, default=3)
    pe.add_argument("--q", type=_int_list, default=(2, 3, 4, 5))
    pe.add_argument("--p-rule", choices=["unit", "coprime"], default="coprime")
    pe.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP)
    pe.add_argument("--out", default=None)
    pe.add_argument("--csv", default=None)
    pe.set_defaults(fn=cmd_expander)

    pa = sub.add_parser("all", help="run the full verification suite")
    pa.add_argument("--tol", type=_finite_float, default=SweepConfig.tol)
    pa.set_defaults(fn=cmd_all)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
