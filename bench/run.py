"""heisenkit verdict benchmark.

Runs one workload's checks back to back through ``heisenkit.cli.main``,
in process, with a single client thread (closed loop, one client), and
checks every verdict against the pinned references in reference.json.

    python3 bench/run.py --workload tensor_search --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --all            # every workload, one process each
    python3 bench/run.py --capture        # re-pin reference.json from this tree

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  ``--trace 0`` reports the end-to-end metrics (setup_s,
verdict_s, cpu_s, peak_rss_mb); ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics plus the tracing overhead.
The program is imported from ``src/`` of the checkout this file sits in; no
thread count or ``--jobs`` is set, the thread environment is only recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_SAMPLES = {"full": 12, "smoke": 4}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "t0 = time.perf_counter(); import heisenkit.cli; "
              "print(time.perf_counter() - t0)")

from workloads import (WORKLOADS, command_of, expectation,  # noqa: E402
                       mismatches, writes_csv)


def load_program():
    """Import heisenkit.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "heisenkit" / "cli.py").is_file():
        sys.exit(f"error: no heisenkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import heisenkit.cli
    if Path(heisenkit.cli.__file__).resolve().parent != SRC / "heisenkit":
        sys.exit(f"error: imported heisenkit from {heisenkit.cli.__file__}, "
                 f"not from {SRC}")
    return heisenkit.cli.main


def measure_setup(samples: int) -> list[float]:
    """Times to import heisenkit.cli, each in a fresh interpreter."""
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    nproc = os.cpu_count() or 1
    threads = {v: os.environ.get(v) for v in THREAD_VARS}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "nproc": nproc,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": threads,
        "thread_env_set": sorted(k for k, v in threads.items() if v is not None),
        "jobs": None,
        "sweep_pool_width": min(32, nproc + 4),
    }


class Runner:
    """Runs checks of one workload and judges them against the reference."""

    def __init__(self, main, checks, reference, workdir: Path):
        self.main = main
        self.checks = checks
        self.reference = reference
        self.workdir = workdir
        self.first_digest: dict = {}
        self.attempted = 0
        self.failed = 0

    def paths(self, check):
        """The --out file of a check, and its --csv file or None."""
        stem = self.workdir / f"{self.checks.index(check):02d}"
        out = stem.with_suffix(".json")
        return out, (stem.with_suffix(".csv") if writes_csv(check) else None)

    def run(self, check, tracer=None):
        """Run one check; return (wall s, cpu s, exit code or None)."""
        out, csv = self.paths(check)
        argv = check.split() + ["--out", str(out)]
        if csv is not None:
            argv += ["--csv", str(csv)]
        for path in (out, csv):
            if path is not None:
                path.unlink(missing_ok=True)
        span = (tracer.span(f"check.{command_of(check)}") if tracer
                else contextlib.nullcontext())
        code = None
        with contextlib.redirect_stdout(io.StringIO()):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with span:
                    code = self.main(argv)
            except Exception:  # a crashing check is a failed check
                traceback.print_exc()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return wall, cpu, code

    def judge(self, check, code):
        """Count the check run; it fails on a crash, a verdict that differs
        from the pinned reference, or output bytes that differ from the
        first pass."""
        self.attempted += 1
        out, csv = self.paths(check)
        problems = []
        if code is None:
            problems.append("raised")
        elif not out.is_file():
            problems.append("no --out file written")
        else:
            digest = hashlib.sha256()
            for path in (out, csv):
                if path is not None:
                    digest.update(path.read_bytes() if path.is_file() else b"<missing>")
            if self.first_digest.setdefault(check, digest.hexdigest()) != digest.hexdigest():
                problems.append("output files differ from the first pass")
            expected = self.reference.get(check)
            if expected is None:
                problems.append("no pinned reference")
            else:
                try:
                    got = expectation(check, code, json.loads(out.read_text()))
                except (ValueError, KeyError, TypeError) as exc:
                    problems.append(f"unreadable report: {exc!r}")
                else:
                    problems += mismatches(expected, got)
        if problems:
            self.failed += 1
            print(f"check failed: {check}: " + "; ".join(problems[:5]),
                  file=sys.stderr)


def run_workload(args, main) -> dict:
    checks = WORKLOADS[args.workload][args.size]
    with open(args.reference) as fh:
        reference = json.load(fh)[args.size][args.workload]
    # Half of the set-up samples are taken before the passes and half after,
    # so that their median spans the run as the passes do.
    setup_times = []
    if not args.trace:
        setup_times += measure_setup(SETUP_SAMPLES[args.size] // 2)

    import tracing  # imports heisenkit, so only after load_program()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(main, checks, reference, workdir)
        rng = random.Random(args.seed)
        kinds = ("plain", "traced") if args.trace else ("plain",)
        passes = []
        start = time.perf_counter()
        while True:
            kind = kinds[len(passes) % len(kinds)]
            tracer = tracing.Tracer() if kind == "traced" else None
            order = list(checks)
            rng.shuffle(order)
            wall = cpu = 0.0
            with tracer.installed() if tracer else contextlib.nullcontext():
                for check in order:
                    w, c, code = runner.run(check, tracer)
                    runner.judge(check, code)
                    wall += w
                    cpu += c
            passes.append({"kind": kind, "wall": wall, "cpu": cpu,
                           "tracer": tracer})
            longest = max(p["wall"] for p in passes)
            elapsed = time.perf_counter() - start
            if len(passes) >= len(kinds) and elapsed + longest > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        setup_times += measure_setup(SETUP_SAMPLES[args.size] // 2)

    plain = [p for p in passes if p["kind"] == "plain"]
    traced = [p for p in passes if p["kind"] == "traced"]
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} ({args.size}), seed {args.seed}: "
          f"{len(plain)} untraced and {len(traced)} traced passes of "
          f"{len(checks)} checks; {runner.failed} of {runner.attempted} "
          f"check runs failed, check_fail_ratio "
          f"{runner.failed / runner.attempted} (unit 1)")
    if args.trace:
        metrics = layer_summary(args, plain, traced, tracing)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "verdict_s": statistics.median(p["wall"] for p in plain),
            "cpu_s": statistics.median(p["cpu"] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"setup_s": len(setup_times), "peak_rss_mb": 1,
                   "verdict_s": len(plain), "cpu_s": len(plain)}
        metrics = {}
        for name, value in values.items():
            unit = END_TO_END_UNITS[name]
            print(f"  {name} = {value:.6g} {unit} (median of {samples[name]})")
            metrics[name] = {"value": value, "unit": unit}
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def layer_summary(args, plain, traced, tracing) -> dict:
    """Median per-layer metrics over the traced passes; writes the spans."""
    per_pass = [tracing.layer_metrics(p["tracer"]) for p in traced]
    metrics = {}
    for name in per_pass[0]:
        value = float(statistics.median(m[name] for m in per_pass))
        metrics[name] = {"value": value, "unit": tracing.layer_unit(name)}
    overhead = (statistics.median(p["wall"] for p in traced)
                - statistics.median(p["wall"] for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    solves = int(metrics["linalg.mineig_calls"]["value"])
    tail_pct = tracing.tail_percentile(solves)
    print(f"  linalg.mineig_tail_ms is the p{tail_pct:g} of {solves} solves "
          f"per pass")
    print(f"  trace.overhead_s = {overhead:.6g} s (traced minus untraced "
          f"verdict_s, medians of {len(traced)} and {len(plain)} passes)")
    trace_file = WORK / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": environment(),
                   "passes": [p["tracer"].to_json() for p in traced]}, fh)
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    return metrics


def capture(main, reference_path: Path):
    """Run every check once at both sizes and pin its expectation."""
    reference = {}
    for size in ("full", "smoke"):
        for name, sizes in WORKLOADS.items():
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                runner = Runner(main, sizes[size], {}, Path(tmp))
                pinned = {}
                for check in sizes[size]:
                    _, _, code = runner.run(check)
                    out, _ = runner.paths(check)
                    pinned[check] = expectation(check, code,
                                                json.loads(out.read_text()))
                    print(f"{size} {name}: {check} -> exit {code}")
                reference.setdefault(size, {})[name] = pinned
    with open(reference_path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args) -> int:
    """One process per workload; print the five end-to-end metrics each."""
    rows, failed = [], False
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--reference", str(args.reference)]
        if args.size == "smoke":
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            failed = True
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed |= not result["correct"]
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "check_fail_ratio",
                     result["failed"] / result["attempted"], "1"))
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<17} {value:>12.6g} {unit}")
    return 1 if failed else 0


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the order of checks within each pass")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="start no pass that would end after this budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", dest="size", action="store_const",
                        const="smoke", default="full",
                        help="tiny grids with the same argv shapes")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--capture", action="store_true",
                        help="re-pin the reference from the current sources")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    main = load_program()
    if args.capture:
        WORK.mkdir(exist_ok=True)
        capture(main, args.reference)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args, main)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
