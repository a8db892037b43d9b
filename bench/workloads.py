"""The benchmark's three workloads and the verdict checks run on each.

A check is one ``heisenkit`` argv.  Every workload exists at two sizes:
``full`` (the measured size) and ``smoke`` (tiny grids with the same argv
shapes, for the self-test).  Pinned expectations live in reference.json,
keyed by size, workload and argv string; see README.md for why each
workload was chosen.
"""

from __future__ import annotations

_SINGLE_SITE = [
    "verify bz --qmax {q} --full-circle",
    "verify xyz1 --qmax {q} --full-circle",
    "verify xyz2 --qmax {q} --full-circle",
    "verify zzz --qmax {q} --R 1 --kappa 0.5",
    "verify zzz --qmax {q} --R 4 --kappa 0.5",
    "verify zzz --qmax {q} --R 16 --kappa 0.25",
    "verify prodnorm --qmax {q}",
    "verify xsmall --qmax {qx}",
]

_TENSOR_SEARCH = [
    "verify smalltheta --qmax {q2}",
    "verify smalltheta --qmax {qw} --theta0 1/2 --R 2 --epsilon 1/4",
    "verify formula --qmax {q3}",
]

# The exact-arithmetic checks (criteria 9-11 and the symmetry commands)
# ride along in single_site.  The three largest orbit sums, (4,6,2), (5,6,1)
# and (5,6,2), are left out: they are pure interpreter work whose speed on a
# shared host swings too much for a workload of their own (see README.md).
_EXACT = [
    "symmetry orbit --m 4 --n 5 --d 1",
    "symmetry orbit --m 4 --n 5 --d 2",
    "symmetry orbit --m 4 --n 6 --d 1",
    "symmetry census --m 4",
    "symmetry spade --m 5 --d 1",
    "symmetry threshold --m 5 --R 6 --eps 1 --n 15",
    "symmetry el5 --q 5 --tr 2 --ts 3",
    "graded dims",
    "graded phi",
    "graded gram",
    "graded sos-identity",
]

WORKLOADS = {
    "single_site": {
        "full": [c.format(q=60, qx=40) for c in _SINGLE_SITE] + _EXACT,
        "smoke": [c.format(q=6, qx=6) for c in _SINGLE_SITE] + _EXACT[:1]
                 + _EXACT[3:],
    },
    "tensor_search": {
        "full": [c.format(q2=24, qw=20, q3=9) for c in _TENSOR_SEARCH],
        "smoke": [c.format(q2=6, qw=6, q3=4) for c in _TENSOR_SEARCH],
    },
    "cayley": {
        "full": ["expander run --n 3 --q 2,3,4,5 --p-rule unit --cap 400000",
                 "expander run --n 2 --q 16 --p-rule unit"],
        "smoke": ["expander run --n 3 --q 2,3 --p-rule unit",
                  "expander run --n 2 --q 3 --p-rule unit"],
    },
}

# Tolerances for floats in the pinned expectations; exact values (ints,
# strings, booleans, rationals printed as strings) must match exactly.
FLOAT_TOL = 1e-9
LAMBDA2_TOL = 1e-6
_ROW_KEYS = ("n", "q", "p", "order", "classical_order", "order_matches",
             "degree", "connected", "lambda2")


def command_of(check: str) -> str:
    """``verify formula --qmax 10`` -> ``verify_formula``."""
    return "_".join(check.split()[:2]).replace("-", "_")


# Every check command of the workloads, as in the per-layer metric names
# check.<command>_s.
COMMANDS = sorted({command_of(c) for sizes in WORKLOADS.values()
                   for c in sizes["full"]})


def writes_csv(check: str) -> bool:
    """Sweeps are run with --csv as well as --out."""
    return check.startswith("verify ")


def _flatten(obj, prefix: str, out: dict):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}.{i}", out)
    else:
        out[prefix] = obj


def expectation(check: str, exit_code: int, payload: dict) -> dict:
    """The verdict-bearing fields of one check's --out report.

    Sweeps: pass, n_records, min_margin and every constant, including each
    scanned (R, eps[, theta0]) margin.  Cayley runs: pass and, per graph,
    its order, the classical |SL_n(Z/q)| and lambda_2.  Exact commands:
    every field of the report.
    """
    exp = {"exit": exit_code}
    kind = check.split()[0]
    if kind == "verify":
        exp.update({"pass": payload["pass"], "n_records": payload["n_records"],
                    "min_margin": payload["min_margin"]})
        _flatten(payload["constants"], "constants", exp)
    elif kind == "expander":
        exp["pass"] = payload["pass"]
        for i, row in enumerate(payload["rows"]):
            for k in _ROW_KEYS:
                exp[f"rows.{i}.{k}"] = row[k]
    else:
        _flatten(payload, "", exp)
    return exp


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _same(key: str, want, got) -> bool:
    if _is_number(want) and _is_number(got) and float in (type(want), type(got)):
        tol = LAMBDA2_TOL if key.endswith("lambda2") else FLOAT_TOL
        return want == got or abs(want - got) <= tol  # inf only equals inf
    return type(want) is type(got) and want == got


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Human-readable differences of ``actual`` from the pinned ``expected``;
    keys that only ``actual`` has are ignored."""
    out = []
    for key, want in expected.items():
        if key not in actual:
            out.append(f"{key}: missing (expected {want!r})")
        elif not _same(key, want, actual[key]):
            out.append(f"{key}: got {actual[key]!r}, expected {want!r}")
    return out
