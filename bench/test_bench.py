"""Self-test of the benchmark on tiny grids (``run.py --smoke``).

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a wrong pinned reference makes checks fail, and that the benchmark
refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), "--smoke",
                           "--seconds", "0", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    result = result_of(run_bench("--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_wrong_reference_entry_raises_fail_ratio(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["smoke"]["single_site"]["verify bz --qmax 6 --full-circle"][
        "min_margin"] += 1.0
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result = result_of(run_bench("--workload", "single_site",
                                 "--reference", str(path)))
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench("--workload", "cayley", cwd=tmp_path,
                     script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
