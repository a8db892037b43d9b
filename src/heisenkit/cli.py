"""Command-line front end: every verification as a reproducible run.

Each command handler returns one ``Result``; ``main`` times the handler and
hands the result to ``_emit``, which normalizes its values once, writes the
payload to ``--out`` (JSON) and the rows to ``--csv``, prints the verdict
line ``[PASS]``/``[FAIL] <command>[: summary] (N.NNs)`` and the note lines,
and picks the exit code: 0 all checks pass, 2 a check failed, 1 usage error
(a malformed or out-of-range option, an option the chosen check does not
read, an option so large that the arithmetic overflows, or a workload
refused before it runs).  Reports are deterministic (identical argv at a
fixed BLAS thread count gives byte-identical files; the thread count can
move the last digits of a tensor search's margins); wall time goes to
stdout only.  No other module knows the report format.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import shlex
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import graded, sweeps, symmetrize
from .algebra import sos_identity_sides, steinberg_check
from .expander import DEFAULT_ORDER_CAP, family_report
from .rotation import evaluate, farey_angles
from .sweeps import (verify_bz, verify_formula, verify_prodnorm,
                     verify_smalltheta, verify_xsmall, verify_xyz1,
                     verify_xyz2, verify_zzz)

EXIT_PASS, EXIT_USAGE, EXIT_FAIL = 0, 1, 2
MAX_SOS_POINTS = 120


def _positive_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
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
    return tuple(_finite_float(v) for v in text.split(","))


def _positive_int_list(text: str) -> tuple:
    return tuple(_positive_int(v) for v in text.split(","))


@dataclass
class Result:
    """What one command found.

    ``payload`` is the ``--out`` report and carries the ``command`` and
    ``pass`` keys; ``rows`` are the ``--csv`` rows, header first; ``summary``
    follows the command name on the verdict line and ``lines`` are printed
    under it.
    """

    payload: dict
    rows: list | None = None
    summary: str = ""
    lines: list = field(default_factory=list)


_PLAIN_TYPES = frozenset({int, float, str, bool, type(None)})


def _plain(value):
    """The report form of a value: string keys, lists, exact rationals as
    strings and numpy scalars as Python numbers."""
    if type(value) in _PLAIN_TYPES:  # exact types: np.float64 is a float
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.generic):
        return value.item()
    return value


def _emit(result: Result, args, seconds: float) -> int:
    """Write --out and --csv, print the verdict, return the exit code."""
    payload = _plain(result.payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if getattr(args, "csv", None) and result.rows is not None:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(_plain(result.rows))
    summary = f": {result.summary}" if result.summary else ""
    print(f"[{'PASS' if payload['pass'] else 'FAIL'}] {payload['command']}"
          f"{summary} ({seconds:.2f}s)")
    for line in result.lines:
        print(f"    {line}")
    return EXIT_PASS if payload["pass"] else EXIT_FAIL


def symmetry_orbit(m: int = 4, n: int = 5, d: int = 1) -> dict:
    parts_m = symmetrize.build_parts(m, d)
    parts_n = symmetrize.build_parts(n, d)
    results = []
    for name, k in (("Delta2", 2), ("Adj", 3), ("Op", 4)):
        # a part needs k distinct indices, so it is zero when k > m
        expected = math.perm(m, k) * math.factorial(n - k) if k <= m else 0
        scalar = symmetrize.orbit_sum(parts_m[name], n).divides_exactly(
            parts_n[name])
        results.append({"identity": name, "m": m, "n": n, "d": d,
                        "lhs_terms": parts_m[name].term_count(),
                        "rhs_terms": parts_n[name].term_count(),
                        "scalar": scalar, "expected_scalar": expected,
                        "match": scalar == expected})
    split = parts_m["Delta_sq"] == parts_m["Sq"] + parts_m["Adj"] + parts_m["Op"]
    return {"pass": split and all(r["match"] for r in results),
            "split_exact": split, "identities": results}


def symmetry_census(m: int = 4) -> dict:
    rec = symmetrize.edge_pair_census(m)
    return {**rec, "pass": rec["edges_match"] and rec["disjoint_matches_ordered"]}


def symmetry_spade(m: int = 4, d: int = 1) -> dict:
    rec = symmetrize.spade_to_heart(m, d)
    return {**rec, "pass": bool(rec.get("adj_match") and rec.get("rhs_match"))}


def symmetry_threshold(m: int = 4, n: int = 5, R: Fraction = Fraction(6),
                       eps: Fraction = Fraction(1)) -> dict:
    """A calculator: Adj_m + R Op_m >= eps Delta2_m pushed to rank n, and
    the least rank it reaches.  R and eps are taken as given, not from a
    verified inequality, so ``"pass": true`` says only that it ran."""
    cert = symmetrize.StabilityCertificate(m, R, eps)
    return {**symmetrize.stability_threshold(cert, n),
            "n_threshold": symmetrize.n_threshold(cert), "pass": True}


def symmetry_el5(q: int = 5, tr: int = 2, ts: int = 3) -> dict:
    rec = symmetrize.instantiate_el5(q, tr, ts)
    steinberg = steinberg_check(3, min(q, 5))
    return {**rec, "steinberg_pass": steinberg["pass"],
            "pass": rec["pass"] and steinberg["pass"]}


def graded_dims(max: int = 10) -> dict:
    table = graded.dimension_table(max)
    return {"pass": all(r[1] == r[2] for r in table), "rows": table}


def graded_phi() -> dict:
    rec = graded.phi_report()
    lines = graded.rederive_square_swap_lines()
    return {**rec, "selfadjoint": graded.phi_selfadjoint_check(),
            "square_swap_lines_pass": lines["pass"],
            "pass": rec["pass"] and lines["pass"]}


def graded_gram() -> dict:
    rec = graded.gram_matrix_check()
    return {**rec, "pass": rec["matches_expected"] and rec["psd"]}


def graded_sos_identity(points: int = 10) -> dict:
    # it lists about 0.3 points^2 Farey angles, then evaluates matrices of
    # order up to `points` at `points` of them: a large grid never finishes
    if points > MAX_SOS_POINTS:
        raise ValueError(f"sos-identity is evaluated at up to "
                         f"{MAX_SOS_POINTS} points, got {points}")
    # the sides are evaluated apart: when they match exactly, lhs - rhs is
    # the zero element and its image is zero whatever evaluate computes
    lhs, rhs = sos_identity_sides()
    exact = lhs == rhs
    worst = 0.0
    for angle in farey_angles(points, max_value=None)[:points]:
        diff = evaluate(angle, lhs) - evaluate(angle, rhs)
        worst = max(worst, float(np.max(np.abs(diff))))
    return {"exact_match": exact, "max_numeric_residual": worst,
            "pass": exact and worst <= 1e-12}


def _checks() -> dict:
    """command -> check name -> check, whose keyword parameters are its
    options.  Built at call time, so a replaced function (a tracer's) runs."""
    return {
        "verify": {"bz": verify_bz, "xyz1": verify_xyz1, "zzz": verify_zzz,
                   "xyz2": verify_xyz2, "prodnorm": verify_prodnorm,
                   "xsmall": verify_xsmall, "smalltheta": verify_smalltheta,
                   "formula": verify_formula},
        "symmetry": {"orbit": symmetry_orbit, "census": symmetry_census,
                     "spade": symmetry_spade, "threshold": symmetry_threshold,
                     "el5": symmetry_el5},
        "graded": {"dims": graded_dims, "phi": graded_phi, "gram": graded_gram,
                   "sos-identity": graded_sos_identity},
    }


def _given(args) -> dict:
    """The options given on the command line, by dest (all default to None)."""
    return {k: v for k, v in vars(args).items() if v is not None
            and k not in ("command", "fn", "inequality", "what", "out", "csv")}


def _run_check(args):
    """The chosen check called with the options given, or a usage error."""
    name = args.inequality if args.command == "verify" else args.what
    check = _checks()[args.command][name]
    given = _given(args)
    unread = [k for k in given if k not in inspect.signature(check).parameters]
    if unread:
        flags = ", ".join("--" + {"lambdas": "lambda"}.get(k, k).replace("_", "-")
                          for k in unread)
        raise ValueError(f"{args.command} {name} does not read {flags}")
    return check(**given)


def cmd_verify(args) -> Result:
    report = _run_check(args)
    amin = report.argmin
    cols = sorted({k for r in report.records for k in r.extras})
    payload = {
        "command": f"verify {args.inequality}",
        "params": {"qmax": str(report.constants["qmax"]),
                   "tol": str(sweeps.TOL)},
        "name": report.name,
        "pass": report.passed,
        "min_margin": report.min_margin if report.records else None,
        "argmin_theta": f"{amin.p}/{amin.q}" if amin else None,
        "constants": report.constants,
        "tol": sweeps.TOL,
        "n_records": len(report.records),
        "notes": report.notes,
        # floats among the extras are kept as their repr strings
        "witnesses": [{"p": r.p, "q": r.q, "margin": r.margin,
                       **{k: repr(v) if isinstance(v, float) else v
                          for k, v in r.extras.items()}}
                      for r in report.witnesses()[:20]],
    }
    rows = [["p", "q", "theta", "margin", *cols]] + [
        [r.p, r.q, r.theta, r.margin, *(r.extras.get(c, "") for c in cols)]
        for r in report.records]
    where = f" at theta={amin.p}/{amin.q}" if amin else ""
    return Result(payload, rows,
                  f"min margin {report.min_margin:+.3e}{where}, "
                  f"{len(report.records)} records",
                  [f"note: {note}" for note in report.notes])


def cmd_exact(args) -> Result:
    """A symmetry or graded check: its payload is the report."""
    payload = {"command": f"{args.command} {args.what}", **_run_check(args)}
    rows = ([("n", "formula", "enumerated")] + payload["rows"]
            if payload["command"] == "graded dims" else None)
    return Result(payload, rows)


def cmd_expander(args) -> Result:
    rows = family_report(args.n, args.q, p_rule=args.p_rule,
                         order_cap=args.cap)
    ok = all(r["order_matches"] and r["connected"] and r["normalized_gap"] > 0.01
             for r in rows)
    header = ["n", "q", "p", "order", "degree", "lambda2", "gap",
              "normalized_gap"]
    payload = {"command": "expander run", "pass": ok,
               "rows": [{k: v for k, v in r.items() if k != "seconds"}
                        for r in rows]}
    return Result(payload, [header] + [[r[k] for k in header] for r in rows],
                  f"{len(rows)} graphs",
                  [f"n={r['n']} q={r['q']} p={r['p']}: order {r['order']} "
                   f"gap {r['gap']:.4f} normalized {r['normalized_gap']:.4f}"
                   for r in rows])


def cmd_all(args) -> Result:
    """Full verification suite; it passes when every component passes.  A
    component that exits 1 (usage error) counts as failed."""
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
        t0 = time.perf_counter()
        code = main(shlex.split(check))
        if code != EXIT_PASS:
            failures.append(check)
        print(f"  -> {check}: {'ok' if code == EXIT_PASS else 'FAILED'} "
              f"({time.perf_counter() - t0:.1f}s)")
    return Result({"command": "all", "pass": not failures},
                  summary=f"{len(checks) - len(failures)} of {len(checks)} "
                          f"components passed",
                  lines=[f"failed: {check}" for check in failures])


def build_parser() -> argparse.ArgumentParser:
    """A check option not given is None, left to the check's default."""
    checks = _checks()
    top = argparse.ArgumentParser(
        prog="heisenkit",
        description="Verification sweeps for rotation-representation "
                    "inequalities, exact symmetrization identities, graded "
                    "augmentation arithmetic, and Cayley spectral gaps.")
    sub = top.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="rotation-representation inequality sweeps")
    pv.add_argument("inequality", choices=list(checks["verify"]))
    pv.add_argument("--qmax", type=_positive_int,
                    help="Farey grid order (default per inequality)")
    pv.add_argument("--lambda", dest="lambdas", type=_float_list,
                    help="couplings, comma separated")
    pv.add_argument("--R", type=_positive_float)
    pv.add_argument("--kappa", type=float)
    pv.add_argument("--epsilon", type=_positive_fraction)
    pv.add_argument("--theta0", type=_positive_fraction)
    pv.add_argument("--deltas", type=_float_list)
    pv.add_argument("--full-circle", action="store_true", default=None,
                    help="sweep all of [0,1) instead of [0,1/2]")
    pv.add_argument("--out", default=None, help="write JSON summary here")
    pv.add_argument("--csv", default=None, help="write per-angle CSV here")
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("symmetry", help="exact orbit-sum and threshold checks")
    ps.add_argument("what", choices=list(checks["symmetry"]))
    ps.add_argument("--m", type=_positive_int)
    ps.add_argument("--n", type=_positive_int)
    ps.add_argument("--d", type=_positive_int)
    ps.add_argument("--R", type=_positive_fraction, metavar="R_EXACT",
                    help="certificate R (positive rational)")
    ps.add_argument("--eps", type=_positive_fraction, metavar="EPS_EXACT",
                    help="certificate epsilon (positive rational)")
    ps.add_argument("--q", type=int)
    ps.add_argument("--tr", type=int)
    ps.add_argument("--ts", type=int)
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_exact)

    pg = sub.add_parser("graded", help="augmentation-quotient computations")
    pg.add_argument("what", choices=list(checks["graded"]))
    pg.add_argument("--max", type=_positive_int,
                    help=f"largest degree for dims (at most "
                         f"{graded.MAX_TRUNCATION})")
    pg.add_argument("--points", type=_positive_int,
                    help=f"numeric grid size for sos-identity (at most "
                         f"{MAX_SOS_POINTS})")
    pg.add_argument("--out", default=None)
    pg.add_argument("--csv", default=None)
    pg.set_defaults(fn=cmd_exact)

    pe = sub.add_parser("expander", help="Cayley graphs of SL_n(Z/qZ)")
    pe.add_argument("what", choices=["run"])
    pe.add_argument("--n", type=_positive_int, default=3)
    pe.add_argument("--q", type=_positive_int_list, default=(2, 3, 4, 5))
    pe.add_argument("--p-rule", choices=["unit", "coprime"], default="coprime")
    pe.add_argument("--cap", type=_positive_int, default=DEFAULT_ORDER_CAP)
    pe.add_argument("--out", default=None)
    pe.add_argument("--csv", default=None)
    pe.set_defaults(fn=cmd_expander)

    pa = sub.add_parser("all", help="run the full verification suite")
    pa.set_defaults(fn=cmd_all)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        # a finite but huge option overflows in the operators (a coupling of
        # 1e308) or as a float (an epsilon of 1e400): the option's fault
        with np.errstate(over="raise", invalid="raise"):
            return _emit(args.fn(args), args, time.perf_counter() - t0)
    except FloatingPointError as exc:
        print(f"error: {exc} in {shlex.join(argv)!r}: an option is too "
              f"large for double precision", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
