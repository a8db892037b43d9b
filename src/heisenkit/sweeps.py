"""Numerical sweeps over rational-angle grids for the operator inequalities.

Each ``verify_*`` function sweeps a Farey grid, records one margin per angle
(min eigenvalue of the slack operator, or bound minus norm) and reports the
global minimum.  Positivity in the group C*-algebra is accepted when every
margin clears ``-tol``; the grid order is the accuracy knob.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import asin, cos, pi, sin, sqrt

import numpy as np

from . import rotation
from .linalg import min_eigenvalue, spectral_norm, spectral_projection
from .rotation import RationalAngle, farey_angles

R_SCAN = (2, 4, 8, 16, 32)
EPS_SCAN = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
THETA0_SCAN = (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32))
IDENTITY_TOL = 1e-12


@dataclass
class SweepConfig:
    """Knobs shared by the sweeps; unused fields are ignored per command.

    ``qmax=None`` selects the per-command default grid order: 60 for the
    single-site sweeps, 40 for the projection sweep, 24 for the two-site
    inequality, 12 for the three-site inequality (dense eigensolve cost
    q, q^2, q^3).
    """

    qmax: int | None = None
    tol: float = 1e-9
    lambdas: tuple = (1.0, 2.0, 4.0)
    R: float | None = None
    kappa: float | None = None
    epsilon: Fraction | None = None
    theta0: Fraction | None = None
    deltas: tuple = (0.1, 0.3, 0.5)
    full_circle: bool = False
    jobs: int | None = None


@dataclass
class AngleRecord:
    p: int
    q: int
    margin: float
    extras: dict = field(default_factory=dict)

    @property
    def theta(self) -> float:
        return self.p / self.q

    def sort_key(self):
        return (Fraction(self.p, self.q), sorted(self.extras.items()))


@dataclass
class SweepReport:
    """Per-angle margins plus the global verdict for one inequality sweep."""

    name: str
    records: list
    tol: float
    constants: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def min_margin(self) -> float:
        return min((r.margin for r in self.records), default=float("inf"))

    @property
    def argmin(self) -> AngleRecord | None:
        return min(self.records, key=lambda r: r.margin, default=None)

    @property
    def passed(self) -> bool:
        return self.min_margin >= -self.tol and not any(
            n.startswith("FAIL") for n in self.notes)

    def witnesses(self) -> list:
        return [r for r in self.records if r.margin < -self.tol]

    def to_json_dict(self) -> dict:
        """Machine report; excludes wall time so identical configs yield
        byte-identical files."""
        amin = self.argmin
        return {
            "name": self.name,
            "pass": self.passed,
            "min_margin": self.min_margin if self.records else None,
            "argmin_theta": f"{amin.p}/{amin.q}" if amin else None,
            "constants": _json_safe(self.constants),
            "tol": self.tol,
            "n_records": len(self.records),
            "notes": list(self.notes),
            "witnesses": [
                {"p": r.p, "q": r.q, "margin": r.margin,
                 **{k: _plain(v) for k, v in sorted(r.extras.items())}}
                for r in self.witnesses()[:20]
            ],
        }

    def csv_rows(self) -> list:
        cols = sorted({k for r in self.records for k in r.extras})
        header = ["p", "q", "theta", "margin"] + cols
        rows = [header]
        for r in self.records:
            rows.append([r.p, r.q, repr(r.theta), repr(r.margin)]
                        + [_plain(r.extras.get(c, "")) for c in cols])
        return rows


def _plain(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return str(v)
    return v


def _json_safe(v):
    if isinstance(v, dict):
        return {str(k): _json_safe(u) for k, u in sorted(v.items(), key=lambda t: str(t[0]))}
    if isinstance(v, (list, tuple)):
        return [_json_safe(u) for u in v]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)


def _map_angles(fn, angles, jobs: int | None):
    """Run fn over angles (possibly in parallel) and flatten the records
    in deterministic sorted-angle order."""
    if jobs is not None and jobs <= 1:
        chunks = [fn(a) for a in angles]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            chunks = list(ex.map(fn, angles))
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=AngleRecord.sort_key)
    return records


def _finish(name, records, cfg, constants=None, notes=None, t0=0.0) -> SweepReport:
    if not records:
        notes = (notes or []) + ["FAIL: sweep produced no records"]
    return SweepReport(name=name, records=records, tol=cfg.tol,
                       constants=constants or {}, notes=notes or [],
                       wall_time_s=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# single-site sweeps

def verify_bz(cfg: SweepConfig) -> SweepReport:
    """Almost Mathieu norm bound: ||H|| <= lam+2 - (2 lam/(lam+2)) sin(pi theta)."""
    t0 = time.perf_counter()
    qmax = _qmax(cfg, 60)
    grid = farey_angles(qmax, max_value=None if cfg.full_circle else Fraction(1, 2))

    def work(a: RationalAngle):
        out = []
        for lam in cfg.lambdas:
            h = rotation.almost_mathieu(a, lam)
            slack = rotation.bz_bound(a, lam) - spectral_norm(h)
            out.append(AngleRecord(a.p, a.q, slack, {"lambda": float(lam)}))
        return out

    records = _map_angles(work, grid, cfg.jobs)
    return _finish("bz", records, cfg,
                   constants={"lambdas": list(cfg.lambdas), "qmax": qmax}, t0=t0)


def verify_xyz1(cfg: SweepConfig) -> SweepReport:
    """X + Y >= sqrt(Z)/2, i.e. min eig(X + Y - sin(pi theta)) >= 0."""
    t0 = time.perf_counter()
    qmax = _qmax(cfg, 60)
    grid = farey_angles(qmax, max_value=None if cfg.full_circle else Fraction(1, 2))

    def work(a: RationalAngle):
        m = rotation.x_op(a) + rotation.y_op(a) - a.s * np.eye(a.q)
        return [AngleRecord(a.p, a.q, min_eigenvalue(m))]

    records = _map_angles(work, grid, cfg.jobs)
    return _finish("xyz1", records, cfg, constants={"qmax": qmax}, t0=t0)


def zzz_theta0(R: float, kappa: float) -> float:
    """Small-angle threshold min{1/4, arcsin(kappa sqrt((1-kappa)/R))/pi}."""
    return min(0.25, asin(kappa * sqrt((1.0 - kappa) / R)) / pi)


def verify_zzz(cfg: SweepConfig) -> SweepReport:
    """R X + Y >= sqrt((1-kappa) R) sin(pi theta) for theta <= theta0(R, kappa)."""
    if cfg.R is None or cfg.kappa is None:
        raise ValueError("verify_zzz needs R and kappa")
    if cfg.R < 1 or not (0 < cfg.kappa < 1):
        raise ValueError(f"need R >= 1 and kappa in (0,1), got R={cfg.R}, kappa={cfg.kappa}")
    t0 = time.perf_counter()
    qmax = _qmax(cfg, 60)
    theta0 = zzz_theta0(cfg.R, cfg.kappa)
    coeff = sqrt((1.0 - cfg.kappa) * cfg.R)
    grid = [a for a in farey_angles(qmax) if a.theta <= theta0]
    notes = []
    if all(a.p == 0 for a in grid):
        notes.append(f"empty sweep: no positive angle <= theta0={theta0:.6f} at qmax={qmax}")

    def work(a: RationalAngle):
        m = cfg.R * rotation.x_op(a) + rotation.y_op(a) - coeff * a.s * np.eye(a.q)
        return [AngleRecord(a.p, a.q, min_eigenvalue(m))]

    records = _map_angles(work, grid, cfg.jobs)
    return _finish("zzz", records, cfg, notes=notes,
                   constants={"R": cfg.R, "kappa": cfg.kappa, "theta0": theta0,
                              "qmax": qmax}, t0=t0)


def xyz2_block(angle: RationalAngle, m: int) -> np.ndarray:
    """2x2 corner block of 2s(X+Y) + (XY+YX)/2 at positions (m-1, m)."""
    s = angle.s
    bm1, bm = angle.b_m(m - 1), angle.b_m(m)
    off = -(2 * s + bm1 + bm)
    return np.array([[2 * (s + 1) * bm1 + 2 * s, off],
                     [off, 2 * (s + 1) * bm + 2 * s]])


def verify_xyz2(cfg: SweepConfig) -> SweepReport:
    """(X+Y) sqrt(Z) + (XY+YX)/2 >= 0, via the operator sweep and the exact
    2x2 block determinants, plus the corrected difference identity
    b_{m-1} - b_m = -2 sin(pi theta) sin((2m-1) pi theta)."""
    t0 = time.perf_counter()
    qmax = _qmax(cfg, 60)
    grid = farey_angles(qmax, max_value=None if cfg.full_circle else Fraction(1, 2))
    notes = []

    def work(a: RationalAngle):
        x, y = rotation.x_op(a), rotation.y_op(a)
        op = (x + y) * (2.0 * a.s) + 0.5 * (x @ y + y @ x)
        margin_op = min_eigenvalue(op)
        det_min, trace_min, resid = np.inf, np.inf, 0.0
        for m in range(a.q):
            t = xyz2_block(a, m)
            det_min = min(det_min, float(np.linalg.det(t)))
            trace_min = min(trace_min, float(np.trace(t)))
            lhs = a.b_m(m - 1) - a.b_m(m)
            rhs = -2.0 * a.s * sin((2 * m - 1) * pi * a.p / a.q)
            resid = max(resid, abs(lhs - rhs))
        return [AngleRecord(a.p, a.q, margin_op,
                            {"det_min": det_min, "trace_min": trace_min,
                             "identity_residual": resid})]

    records = _map_angles(work, grid, cfg.jobs)
    bad_det = [r for r in records if r.extras["det_min"] < -cfg.tol
               or r.extras["trace_min"] < -cfg.tol]
    bad_id = [r for r in records if r.extras["identity_residual"] > IDENTITY_TOL]
    if bad_det:
        notes.append(f"FAIL: {len(bad_det)} angle(s) with negative block det/trace")
    if bad_id:
        notes.append(f"FAIL: {len(bad_id)} angle(s) violate the corrected "
                     f"difference identity beyond {IDENTITY_TOL}")
    return _finish("xyz2", records, cfg, notes=notes,
                   constants={"qmax": qmax}, t0=t0)


def verify_prodnorm(cfg: SweepConfig) -> SweepReport:
    """||pi((1-x)(1-y))|| <= 4 cos(pi theta / 2)."""
    t0 = time.perf_counter()
    qmax = _qmax(cfg, 60)
    grid = farey_angles(qmax)

    def work(a: RationalAngle):
        eye = np.eye(a.q, dtype=complex)
        m = (eye - rotation.pi_x(a)) @ (eye - rotation.pi_y(a))
        margin = 4.0 * cos(pi * a.theta / 2.0) - spectral_norm(m)
        return [AngleRecord(a.p, a.q, margin)]

    records = _map_angles(work, grid, cfg.jobs)
    return _finish("prodnorm", records, cfg, constants={"qmax": qmax}, t0=t0)


def verify_xsmall(cfg: SweepConfig) -> SweepReport:
    """Spectral-projection facts for 0 < delta < 2(1 - cos(pi theta)):
    the low-X subspace sees Y as 2 (no consecutive residues), and
    ||P_{Y<=d} P_{X<=d}|| <= sqrt(2/(4-d))."""
    t0 = time.perf_counter()
    qmax = _qmax(cfg, 40)
    grid = [a for a in farey_angles(qmax) if a.p != 0]
    notes = []

    def work(a: RationalAngle):
        out = []
        x, y = rotation.x_op(a), rotation.y_op(a)
        for delta in cfg.deltas:
            if not (0 < delta < 2.0 * (1.0 - cos(pi * a.theta))):
                continue
            px = spectral_projection(x, delta, "le")
            py = spectral_projection(y, delta, "le")
            low = [m for m in range(a.q) if 2.0 * a.b_m(m) <= delta]
            consecutive = any((m + 1) % a.q in low for m in low) and len(low) > 1
            eq_residual = float(np.max(np.abs(
                px.matrix @ y @ px.matrix - 2.0 * px.matrix)))
            margin = sqrt(2.0 / (4.0 - delta)) - spectral_norm(py.matrix @ px.matrix)
            out.append(AngleRecord(a.p, a.q, margin,
                                   {"delta": delta, "eq_residual": eq_residual,
                                    "low_set_size": len(low),
                                    "consecutive": consecutive}))
        return out

    records = _map_angles(work, grid, cfg.jobs)
    bad_eq = [r for r in records if r.extras["eq_residual"] > cfg.tol]
    bad_cons = [r for r in records if r.extras["consecutive"]]
    if bad_eq:
        notes.append(f"FAIL: compression identity violated at {len(bad_eq)} point(s)")
    if bad_cons:
        notes.append(f"FAIL: low-X residue set has consecutive members at "
                     f"{len(bad_cons)} point(s)")
    return _finish("xsmall", records, cfg, notes=notes,
                   constants={"deltas": list(cfg.deltas), "qmax": qmax}, t0=t0)


# ---------------------------------------------------------------------------
# tensor-product sweeps and constant searches

def two_site_operator(angle: RationalAngle, R: float) -> np.ndarray:
    """R(X(x)Y + Y(x)X) + X(x)X + Y(x)Y + (XY+YX)(x)1 at a common angle."""
    word = partial(rotation.tensor_operator, angle)
    return R * (word("XY") + word("YX")) + word("XX") + word("YY") + word("SI")


def three_site_operator(angle: RationalAngle, R: float) -> np.ndarray:
    """R(X1 Y2 + Y1 X2 + X1 Y3 + Y1 X3) + X1 X2 + Y1 Y2 + X1 Y1 + Y1 X1
    realized as Kronecker products at a common angle."""
    word = partial(rotation.tensor_operator, angle)
    cross = word("XYI") + word("YXI") + word("XIY") + word("YIX")
    return R * cross + (word("XXI") + word("YYI")) + word("SII")


def _tensor_sweep(builder, grid, R: float, jobs) -> list:
    """One record per angle whose margin is min eig(builder(theta, R))."""
    return _map_angles(
        lambda a: [AngleRecord(a.p, a.q, min_eigenvalue(builder(a, R)))],
        grid, jobs)


def _search_constants(name, builder, grid, th0_list, cfg, qmax, t0) -> SweepReport:
    """First-pass-wins scan of R, then epsilon, then theta0.

    Unset R and epsilon scan R_SCAN and EPS_SCAN; a theta0 of ``None``
    means the whole grid.  The minimum eigenvalues are computed once per R,
    and the margin at (R, epsilon) is min eig - epsilon * 4 sin^2(pi theta).
    """
    r_list = [cfg.R] if cfg.R is not None else list(R_SCAN)
    eps_list = [cfg.epsilon] if cfg.epsilon is not None else list(EPS_SCAN)
    explicit = len(r_list) == len(eps_list) == len(th0_list) == 1
    if None not in th0_list:
        grid = [a for a in grid if a.fraction <= max(th0_list)]

    def scan():
        for R in r_list:
            mineigs = _tensor_sweep(builder, grid, R, cfg.jobs)
            for eps in eps_list:
                margins = [AngleRecord(r.p, r.q, r.margin - float(eps)
                                       * rotation.z_scalar(RationalAngle(r.p, r.q)))
                           for r in mineigs]
                for th0 in th0_list:
                    combo = {"R": R, "epsilon": eps}
                    if th0 is not None:
                        combo["theta0"] = th0
                    yield combo, [r for r in margins
                                  if th0 is None or Fraction(r.p, r.q) <= th0]

    scanned, notes = {}, []
    best = (-float("inf"), None, [])  # (min margin, constants, records)
    for combo, records in scan():
        key = f"R={combo['R']},eps={combo['epsilon']}"
        if "theta0" in combo:
            key += f",theta0={combo['theta0']}"
            if all(r.p == 0 for r in records):
                notes.append(f"empty sweep: no positive angle <= "
                             f"theta0={combo['theta0']} at qmax={qmax}")
        worst = min((r.margin for r in records), default=float("inf"))
        scanned[key] = worst
        if worst > best[0]:
            best = (worst, combo, records)
        if worst >= -cfg.tol:
            break
    else:
        params = "theta0, R, epsilon" if th0_list != [None] else "R, epsilon"
        notes.insert(0, f"FAIL: no passing ({params}) in scan range")
    constants = {"scan": scanned, "qmax": qmax,
                 "mode": "explicit" if explicit else "search", **(best[1] or {})}
    return _finish(name, best[2], cfg, constants=constants, notes=notes, t0=t0)


def verify_smalltheta(cfg: SweepConfig) -> SweepReport:
    """Two-site inequality for small angles.

    Constants left unset scan geometric grids (R in {2,4,8,16,32}, epsilon
    in {1/4,1/8,1/16}, theta0 in {1/8,1/16,1/32}), first-pass-wins; pinned
    constants replace their grid by a singleton.  Margins of every scanned
    triple are kept in the report constants; with no passing triple the
    report carries the best candidate's records and fails.
    """
    t0 = time.perf_counter()
    qmax = _qmax(cfg, 24)
    th0_list = [cfg.theta0] if cfg.theta0 is not None else list(THETA0_SCAN)
    return _search_constants("smalltheta", two_site_operator, farey_angles(qmax),
                             th0_list, cfg, qmax, t0)


def verify_formula(cfg: SweepConfig) -> SweepReport:
    """Three-site inequality over the full grid in [0, 1/2].

    Pinned (R, epsilon) sweep directly; unset constants scan the same
    geometric grids as the two-site search (first-pass-wins)."""
    t0 = time.perf_counter()
    qmax = _qmax(cfg, 12)
    return _search_constants("formula", three_site_operator, farey_angles(qmax),
                             [None], cfg, qmax, t0)


def _qmax(cfg: SweepConfig, default: int) -> int:
    return default if cfg.qmax is None else cfg.qmax
