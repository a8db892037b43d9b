"""Span tracing of heisenkit from outside the package, and the per-layer
metrics derived from the spans.

Each traced function is replaced, for the duration of a traced pass, at the
name its caller looks up: ``sweeps.min_eigenvalue`` (imported by name into
``sweeps``), ``rotation.x_op`` (looked up through the module at call time),
and so on.  A span records name, start, end, parent and thread.  Spans
opened on sweep-pool worker threads, which start with an empty stack, attach
to the enclosing ``verify_*`` span of the client thread.  Spans are kept in
memory and written out by the caller at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from heisenkit import (cli, expander, graded, linalg, rotation, sweeps,
                       symmetrize)

from workloads import COMMANDS

VERIFY_FNS = ("verify_bz", "verify_xyz1", "verify_xyz2", "verify_zzz",
              "verify_prodnorm", "verify_xsmall", "verify_smalltheta",
              "verify_formula")
SEARCH_SPANS = ("sweeps.verify_smalltheta", "sweeps.verify_formula")
BUILDERS = ("x_op", "y_op", "pi_x", "pi_y", "almost_mathieu")
SYM_OTHER = ("edge_pair_census", "spade_to_heart", "stability_threshold",
             "n_threshold", "instantiate_el5")
GRADED_FNS = ("dimension_table", "phi_report", "rederive_square_swap_lines",
              "phi_selfadjoint_check", "gram_matrix_check")
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def _input_size(args, kwargs, result):
    return {"dim": args[0].shape[0], "bytes": args[0].nbytes}


def _result_bytes(args, kwargs, result):
    return {"bytes": result.nbytes}


def _graph_size(args, kwargs, result):
    return {"vertices": result.order, "bytes": result.neighbors.nbytes}


def _gap_info(args, kwargs, result):
    return {"iterations": result.iterations, "method": result.method}


def _terms(args, kwargs, result):
    return {"terms": result.term_count()}


def _records(args, kwargs, result):
    return {"records": len(result)}


# (module, attribute looked up by the caller, span name, attribute function)
TRACE_POINTS = (
    [(cli, f, f"sweeps.{f}", None) for f in VERIFY_FNS]
    + [(cli, "family_report", "expander.family_report", None),
       (cli, "sos_identity_sides", "algebra.sos_identity_sides", None),
       (cli, "steinberg_check", "algebra.steinberg_check", None),
       (cli, "evaluate", "rotation.evaluate", None),
       (cli, "farey_angles", "rotation.farey_angles", None),
       (sweeps, "farey_angles", "rotation.farey_angles", None),
       (sweeps, "two_site_operator", "sweeps.two_site_operator", _result_bytes),
       (sweeps, "three_site_operator", "sweeps.three_site_operator", _result_bytes),
       (sweeps, "min_eigenvalue", "linalg.min_eigenvalue", _input_size),
       (sweeps, "spectral_norm", "linalg.spectral_norm", None),
       (sweeps, "spectral_projection", "linalg.spectral_projection", None),
       (linalg, "hermitian_operator", "linalg.hermitian_operator", None),
       (expander, "enumerate_group", "expander.enumerate_group", _graph_size),
       (expander, "spectral_gap", "expander.spectral_gap", _gap_info),
       (symmetrize, "build_parts", "symmetrize.build_parts", None),
       (symmetrize, "orbit_sum", "symmetrize.orbit_sum", _terms)]
    + [(rotation, f, f"rotation.{f}", None) for f in BUILDERS]
    + [(symmetrize, f, f"symmetrize.{f}", None) for f in SYM_OTHER]
    + [(graded, f, f"graded.{f}", None) for f in GRADED_FNS]
)

# Counted, not timed: a span here would cover the whole pool map and hide
# the search loop's self time.
COUNT_POINTS = ((sweeps, "_tensor_sweep", "sweeps.tensor_sweep", _records),)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[str, dict]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor = None  # open verify_* span on the client thread
        self.client_thread = threading.get_ident()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._anchor
        anchors = name.startswith("sweeps.verify_")
        if anchors:
            outer, self._anchor = self._anchor, sid
        stack.append(sid)
        info: dict = {}
        start = time.perf_counter()
        try:
            yield info
        finally:
            end = time.perf_counter()
            stack.pop()
            if anchors:
                self._anchor = outer
            self.spans.append(Span(sid, parent, name, threading.get_ident(),
                                   start, end, info))

    def _timed(self, fn, name, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as info:
                result = fn(*args, **kwargs)
                if describe is not None:
                    info.update(describe(args, kwargs, result))
            return result
        return wrapper

    def _counted(self, fn, name, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts.append((name, describe(args, kwargs, result)))
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every trace point for the duration of the block."""
        saved = []
        try:
            for points, make in ((TRACE_POINTS, self._timed),
                                 (COUNT_POINTS, self._counted)):
                for module, attr, name, describe in points:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, make(fn, name, describe))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def to_json(self) -> dict:
        return {"spans": [[s.id, s.parent, s.name, s.thread, s.start, s.end,
                           s.info] for s in self.spans],
                "counts": [[name, info] for name, info in self.counts]}


def _union(intervals) -> float:
    """Total length covered by (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """The highest of TAIL_PERCENTILES with at least ten of n samples
    beyond it; 50 when there are fewer than 20 samples."""
    return next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10),
                50.0)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values (unit-free floats) of one traced pass."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return sum(s.duration for s in named(*names))

    def self_time(s):
        return s.duration - _union((c.start, c.end)
                                   for c in children.get(s.id, ()))

    def parent_name(s):
        return by_id[s.parent].name if s.parent in by_id else None

    m = {}
    for cmd in COMMANDS:
        m[f"check.{cmd}_s"] = total(f"check.{cmd}")
    m["cli.self_s"] = sum(self_time(s) for s in spans
                          if s.name.startswith("check."))

    assembled = named("sweeps.two_site_operator", "sweeps.three_site_operator")
    m["sweeps.assemble_s"] = sum(s.duration for s in assembled)
    m["sweeps.assemble_calls"] = len(assembled)
    m["sweeps.assemble_bytes"] = sum(s.info["bytes"] for s in assembled)
    m["sweeps.search_self_s"] = sum(self_time(s) for s in named(*SEARCH_SPANS))
    records = sum(info["records"] for name, info in tracer.counts
                  if name == "sweeps.tensor_sweep")
    search_eigs = sum(1 for s in named("linalg.min_eigenvalue")
                      if parent_name(s) in SEARCH_SPANS)
    m["sweeps.eig_per_record"] = search_eigs / records if records else 0.0
    verify = [s for s in spans if s.name.startswith("sweeps.verify_")]
    verify_ids = {s.id for s in verify}
    pooled = sum(s.duration for s in spans if s.parent in verify_ids
                 and s.thread != tracer.client_thread)
    verify_wall = sum(s.duration for s in verify)
    m["sweeps.pool_overlap"] = pooled / verify_wall if verify_wall else 0.0

    builder_names = tuple(f"rotation.{f}" for f in BUILDERS)
    builds = named(*builder_names)
    m["rotation.farey_s"] = total("rotation.farey_angles")
    m["rotation.build_s"] = sum(s.duration for s in builds
                                if parent_name(s) not in builder_names)
    m["rotation.build_calls"] = len(builds)
    m["rotation.evaluate_s"] = total("rotation.evaluate")

    eigs = named("linalg.min_eigenvalue")
    eig_ms = sorted(s.duration * 1e3 for s in eigs)
    pct = tail_percentile(len(eig_ms))
    m["linalg.mineig_calls"] = len(eigs)
    m["linalg.mineig_s"] = sum(s.duration for s in eigs)
    m["linalg.mineig_p50_ms"] = _percentile(eig_ms, 50.0) if eig_ms else 0.0
    m["linalg.mineig_tail_ms"] = _percentile(eig_ms, pct) if eig_ms else 0.0
    m["linalg.mineig_dim_max"] = max((s.info["dim"] for s in eigs), default=0)
    m["linalg.mineig_bytes"] = sum(s.info["bytes"] for s in eigs)
    m["linalg.hermitian_s"] = total("linalg.hermitian_operator")
    norms = named("linalg.spectral_norm")
    m["linalg.norm_calls"] = len(norms)
    m["linalg.norm_s"] = sum(s.duration for s in norms)
    m["linalg.projection_s"] = total("linalg.spectral_projection")

    bfs = named("expander.enumerate_group")
    gaps = named("expander.spectral_gap")
    m["expander.bfs_s"] = sum(s.duration for s in bfs)
    m["expander.vertices"] = sum(s.info["vertices"] for s in bfs)
    m["expander.neighbors_bytes"] = sum(s.info["bytes"] for s in bfs)
    m["expander.gap_s"] = sum(s.duration for s in gaps)
    m["expander.gap_iterations"] = sum(s.info["iterations"] for s in gaps)
    m["expander.gap_dense_calls"] = sum(1 for s in gaps if s.info["method"] == "dense")
    m["expander.gap_power_calls"] = sum(1 for s in gaps if s.info["method"] == "power")

    orbits = named("symmetrize.orbit_sum")
    m["symmetrize.build_parts_s"] = total("symmetrize.build_parts")
    m["symmetrize.orbit_sum_s"] = sum(s.duration for s in orbits)
    m["symmetrize.orbit_sum_calls"] = len(orbits)
    m["symmetrize.orbit_terms"] = sum(s.info["terms"] for s in orbits)
    m["symmetrize.other_s"] = sum(
        self_time(s) for s in named(*(f"symmetrize.{f}" for f in SYM_OTHER)))

    m["graded.total_s"] = total(*(f"graded.{f}" for f in GRADED_FNS))
    m["algebra.sos_s"] = total("algebra.sos_identity_sides")
    m["algebra.steinberg_s"] = total("algebra.steinberg_check")
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name in ("sweeps.eig_per_record", "sweeps.pool_overlap"):
        return "1"
    return "count"
