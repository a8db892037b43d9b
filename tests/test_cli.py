"""Exit codes, report files and end-to-end determinism of the CLI."""

import json
import threading
import time

from heisenkit import cli, expander, sweeps
from heisenkit.cli import build_parser, main
from heisenkit.sweeps import SweepConfig, verify_formula


def test_verify_bz_passes(tmp_path):
    out = tmp_path / "bz.json"
    csv = tmp_path / "bz.csv"
    code = main(["verify", "bz", "--qmax", "12", "--lambda", "2",
                 "--out", str(out), "--csv", str(csv)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["command"] == "verify bz"
    assert payload["min_margin"] >= -1e-9
    header = csv.read_text().splitlines()[0]
    assert header.split(",")[:4] == ["p", "q", "theta", "margin"]


def test_verify_smalltheta_failure_exit_code(tmp_path):
    out = tmp_path / "st.json"
    code = main(["verify", "smalltheta", "--theta0", "1/2", "--R", "8",
                 "--epsilon", "1/16", "--qmax", "8", "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["pass"] is False
    assert payload["witnesses"]  # failure witness recorded
    assert any(w["q"] == 2 for w in payload["witnesses"])


def test_verify_zzz_flags():
    assert main(["verify", "zzz", "--R", "4", "--kappa", "0.5",
                 "--qmax", "20"]) == 0


def test_usage_errors():
    assert main(["verify", "nonsense"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["verify", "zzz", "--qmax", "10"]) == 1  # missing R/kappa
    assert main(["--jobs", "2", "verify", "bz"]) == 1
    # non-finite tolerances are refused; inf would pass this known failure
    known_failure = ["verify", "smalltheta", "--theta0", "1/2", "--R", "8",
                     "--epsilon", "1/16", "--qmax", "8"]
    for tol in ("inf", "-inf", "nan"):
        assert main(known_failure + ["--tol", tol]) == 1
    assert main(["all", "--tol", "inf"]) == 1
    # search constants must be positive; these used to print [PASS]
    assert main(["verify", "formula", "--qmax", "4", "--R", "2",
                 "--epsilon", "-1"]) == 1
    assert main(["verify", "smalltheta", "--qmax", "6", "--R", "-5",
                 "--epsilon", "1/4", "--theta0", "1/8"]) == 1
    for flag, value in (("--R", "0"), ("--R", "inf"), ("--R", "nan"),
                        ("--epsilon", "0"), ("--theta0", "-1/8")):
        assert main(["verify", "smalltheta", "--qmax", "4", flag, value]) == 1
    # each of these would check nothing: an ignored theta0, no variables,
    # no index pairs
    assert main(["verify", "formula", "--qmax", "4", "--theta0", "1/8"]) == 1
    assert main(["symmetry", "spade", "--m", "5", "--d", "0"]) == 1
    assert main(["symmetry", "census", "--m", "0"]) == 1
    assert main(["symmetry", "census", "--m", "1"]) == 1


def test_graded_dims(tmp_path):
    csv = tmp_path / "dims.csv"
    out = tmp_path / "dims.json"
    assert main(["graded", "dims", "--max", "8", "--csv", str(csv),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()]
    assert rows[0] == ["n", "formula", "enumerated"]
    assert rows[1:][2][:3] == ["2", "4", "4"]
    payload = json.loads(out.read_text())
    assert payload["pass"] is True


def test_nonpositive_counts_are_usage_errors():
    assert main(["graded", "sos-identity", "--points", "0"]) == 1
    assert main(["graded", "sos-identity", "--points", "-3"]) == 1
    assert main(["graded", "dims", "--max", "-1"]) == 1
    assert main(["graded", "dims", "--max", "0"]) == 1


def test_graded_phi_gram_sos():
    assert main(["graded", "phi"]) == 0
    assert main(["graded", "gram"]) == 0
    assert main(["graded", "sos-identity", "--points", "6"]) == 0


def test_symmetry_commands(tmp_path):
    out = tmp_path / "orbit.json"
    assert main(["symmetry", "orbit", "--m", "4", "--n", "5", "--d", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] and payload["split_exact"]
    scalars = {r["identity"]: r["scalar"] for r in payload["identities"]}
    assert scalars == {"Delta2": 72, "Adj": 48, "Op": 24}
    assert main(["symmetry", "census", "--m", "4"]) == 0
    assert main(["symmetry", "spade", "--m", "5", "--d", "1"]) == 0
    assert main(["symmetry", "threshold", "--m", "5", "--R", "6",
                 "--eps", "1", "--n", "15"]) == 0
    assert main(["symmetry", "el5", "--q", "5", "--tr", "2", "--ts", "3"]) == 0


def test_orbit_past_sym8(tmp_path):
    out = tmp_path / "orbit9.json"
    assert main(["symmetry", "orbit", "--m", "4", "--n", "9", "--d", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] and all(r["match"] for r in payload["identities"])


def test_symmetry_threshold_payload(tmp_path):
    out = tmp_path / "thr.json"
    main(["symmetry", "threshold", "--m", "5", "--R", "6", "--eps", "1",
          "--n", "15", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["applies"] is True
    assert payload["epsilon_n"] == "13/3"
    assert payload["n_threshold"] == 15


def test_expander_cli(tmp_path):
    out = tmp_path / "exp.json"
    csv = tmp_path / "exp.csv"
    assert main(["expander", "run", "--n", "3", "--q", "2", "--out", str(out),
                 "--csv", str(csv)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["rows"][0]["order"] == 168
    header = csv.read_text().splitlines()[0].split(",")
    assert header == ["n", "q", "p", "order", "degree", "lambda2", "gap",
                      "normalized_gap"]


def test_oversize_expander_run_is_refused_quickly(capsys):
    # |SL_3(Z/30)| is past the default cap; BFS would need 17.9 TiB
    t0 = time.perf_counter()
    assert main(["expander", "run", "--n", "3", "--q", "30"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the order cap 400000" in capsys.readouterr().err


def test_out_of_memory_is_a_one_line_error(monkeypatch, capsys):
    def oversize(*args, **kwargs):
        raise MemoryError("Unable to allocate 17.9 TiB")

    monkeypatch.setattr(expander, "enumerate_group", oversize)
    assert main(["expander", "run", "--n", "3", "--q", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 17.9 TiB\n"


def test_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "xyz1", "--qmax", "15", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(["verify", "xyz2", "--qmax", "12", "--csv", str(c)]) == 0
    assert main(["verify", "xyz2", "--qmax", "12", "--csv", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_sweeps_start_no_thread(monkeypatch):
    def refuse(self):
        raise RuntimeError(f"sweep started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["verify", "bz", "--qmax", "10"]) == 0
    assert main(["verify", "formula", "--qmax", "3"]) == 0


def test_searches_assemble_no_full_operator(monkeypatch):
    def refuse(angle, R):
        raise RuntimeError(f"assembled a full operator at {angle}")

    monkeypatch.setattr(sweeps, "two_site_operator", refuse)
    monkeypatch.setattr(sweeps, "three_site_operator", refuse)
    assert main(["verify", "smalltheta", "--qmax", "8"]) == 0
    assert main(["verify", "formula", "--qmax", "5"]) == 0


def test_smalltheta_theta0_only_scans_and_fails(tmp_path):
    # pinning theta0 = 1/2 alone scans (R, epsilon) and reports the failure
    out = tmp_path / "half.json"
    code = main(["verify", "smalltheta", "--theta0", "0.5", "--qmax", "4",
                 "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["pass"] is False
    assert payload["constants"]["mode"] == "search"
    assert len(payload["constants"]["scan"]) == 15  # 5 R values x 3 epsilons
    assert any(w["q"] == 2 for w in payload["witnesses"])


def test_qmax_below_one_is_a_usage_error():
    assert main(["verify", "bz", "--qmax", "0"]) == 1
    assert main(["verify", "xyz1", "--qmax", "-3"]) == 1
    assert main(["verify", "formula", "--qmax", "0"]) == 1


def test_sweep_without_records_fails(tmp_path):
    out = tmp_path / "xsmall.json"
    assert main(["verify", "xsmall", "--qmax", "1", "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["n_records"] == 0 and payload["pass"] is False
    assert "FAIL: sweep produced no records" in payload["notes"]
    report = verify_formula(SweepConfig(qmax=0))
    assert not report.records and not report.passed


def _record_all(monkeypatch, code_of=lambda argv: 0):
    calls = []

    def recorder(argv):
        calls.append(build_parser().parse_args(argv))
        return code_of(argv)

    monkeypatch.setattr(cli, "main", recorder)
    return calls


def test_all_table_parses_and_forwards(monkeypatch):
    calls = _record_all(monkeypatch)
    args = build_parser().parse_args(["all", "--tol", "1e-7"])
    assert cli.cmd_all(args) == 0
    assert len(calls) == 26
    verify = [c for c in calls if c.command == "verify"]
    assert len(verify) == 10 and all(c.tol == 1e-7 for c in verify)
    assert {c.command for c in calls} == {"verify", "symmetry", "graded",
                                          "expander"}


def test_all_fails_when_a_component_fails(monkeypatch):
    args = build_parser().parse_args(["all"])
    for code in (1, 2):
        _record_all(monkeypatch,
                    lambda argv, code=code: code if "gram" in argv else 0)
        assert cli.cmd_all(args) == 2
