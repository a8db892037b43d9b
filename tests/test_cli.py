"""Exit codes, report files and end-to-end determinism of the CLI."""

import argparse
import inspect
import json
import re
import threading
import time

from heisenkit import cli, expander, sweeps
from heisenkit.algebra import sos_identity_sides
from heisenkit.cli import build_parser, main
from heisenkit.groups import Heisenberg
from heisenkit.rotation import evaluate
from heisenkit.sweeps import verify_formula


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


def test_report_records_the_grid_order_used(tmp_path):
    # --qmax left to the sweep's default is recorded as that default
    out = tmp_path / "zzz.json"
    assert main(["verify", "zzz", "--R", "16", "--kappa", "0.25",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["params"]["qmax"] == "60"
    assert payload["constants"]["qmax"] == 60
    assert main(["verify", "xsmall", "--qmax", "7", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["params"]["qmax"], payload["constants"]["qmax"]) == ("7", 7)


def test_usage_errors(capsys):
    assert main(["verify", "nonsense"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["verify", "zzz", "--qmax", "10"]) == 1  # missing R/kappa
    assert main(["--jobs", "2", "verify", "bz"]) == 1
    # --tol is not an option, whatever its value
    known_failure = ["verify", "smalltheta", "--theta0", "1/2", "--R", "8",
                     "--epsilon", "1/16", "--qmax", "8"]
    for tol in ("inf", "-inf", "nan"):
        assert main(known_failure + ["--tol", tol]) == 1
    # couplings must be positive; lambda 0 passed the bound and lambda -2
    # divided by zero in it
    capsys.readouterr()
    for lam in ("0", "-2"):
        assert main(["verify", "bz", "--qmax", "6", "--lambda", lam]) == 1
        err = capsys.readouterr().err
        assert err == f"error: coupling must be positive, got {float(lam)}\n"
    assert main(["all", "--tol", "inf"]) == 1
    # non-finite list items are refused when parsed; inf used to reach the
    # solver and inf/nan cuts were skipped into an empty sweep
    for argv in ("verify bz --qmax 5 --lambda inf",
                 "verify xsmall --qmax 5 --deltas inf,nan"):
        assert main(argv.split()) == 1
        assert "must be finite" in capsys.readouterr().err
    # a repeated coupling or cut used to give duplicate records
    for argv in ("verify bz --qmax 4 --lambda 1,1",
                 "verify xsmall --qmax 8 --deltas 0.1,0.1",
                 "expander run --n 3 --q 2,2 --p-rule unit",
                 "expander run --n 2 --q 3,3 --p-rule coprime"):
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: repeated") and err.count("\n") == 1
    # the gap 2(1 - cos pi theta) on [0, 1/2] is at most 2: a cut outside
    # (0, 2) never applies and used to be dropped from the sweep silently
    for argv in ("verify xsmall --qmax 8 --deltas=-0.1,0.3",
                 "verify xsmall --qmax 8 --deltas=0,0.3",
                 "verify xsmall --qmax 8 --deltas=2,0.3",
                 "verify xsmall --qmax 8 --deltas=-0.1"):
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cut must lie in (0, 2)")
        assert err.count("\n") == 1
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
    # certificate constants are positive rationals; these used to raise
    # out of main with a traceback
    for flag, value in (("--R", "abc"), ("--R", "1/0"), ("--eps", "x"),
                        ("--R", "0")):
        assert main(["symmetry", "threshold", flag, value]) == 1
    # finite but huge constants overflow in the operators; they used to
    # print numpy warnings (a traceback under -W error) before the error
    capsys.readouterr()
    for argv in ("verify bz --qmax 5 --lambda 1e308",
                 "verify formula --qmax 4 --R 1e308 --epsilon 1/8"):
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: overflow encountered in ")
        assert err.count("\n") == 1
    # an exact constant too large for a float used to raise OverflowError
    # out of main with a traceback
    for argv in ("verify smalltheta --qmax 6 --R 2 --epsilon 1e400",
                 "verify formula --qmax 4 --R 2 --epsilon 1e400"):
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # moduli must be at least 1; q = 0 used to raise ZeroDivisionError out
    # of main
    capsys.readouterr()
    for argv in ("expander run --q 0", "expander run --q 2,-3"):
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "must be at least 1" in err
    # so are the rank and the order cap; --n -1 used to reach factorial(-1)
    # and --cap -5 was refused only as a cap every group exceeds
    for argv in ("expander run --n -1", "expander run --n 0",
                 "expander run --cap -5"):
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "must be at least 1" in err, argv


def test_no_option_moves_the_gate(capsys):
    # the two-site inequality fails at theta0 = 1/2; --tol 10 used to
    # print [PASS] at margin -0.8 and exit 0
    known_failure = ["verify", "smalltheta", "--qmax", "8", "--theta0", "1/2",
                     "--R", "8", "--epsilon", "1/16"]
    assert main(known_failure) == 2
    capsys.readouterr()
    assert main(known_failure + ["--tol", "10"]) == 1
    assert "[PASS]" not in capsys.readouterr().out
    assert main(["all", "--tol", "1e-7"]) == 1
    for table in cli._checks().values():
        for check in table.values():
            assert "tol" not in inspect.signature(check).parameters


def test_overflowing_epsilon_is_refused_before_the_scan(monkeypatch, capsys):
    # float(epsilon) used to overflow inside the scan, after the first R
    # sweep, with "integer division result too large for a float"
    def no_sweep(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(sweeps, "_tensor_sweep", no_sweep)
    monkeypatch.setattr(sweeps, "physical_memory", lambda: 0)
    for argv in ("verify formula --qmax 16 --R 16 --epsilon 1e400",
                 "verify smalltheta --qmax 6 --R 2 --epsilon 1e400"):
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epsilon" in err
        assert err.count("\n") == 1 and len(err) < 80


def test_overflow_refusals_name_the_options(capsys):
    # each used to exit 1 with only "error: overflow encountered in dot"
    # (or "in multiply"), naming neither the option nor its value
    for argv, option in (
            ("verify formula --qmax 3 --R 1e300 --epsilon 1/4", "--R 1e300"),
            ("verify smalltheta --qmax 12 --R 1e300 --epsilon 1/4 "
             "--theta0 1/2", "--R 1e300"),
            ("verify bz --qmax 5 --lambda 1e308", "--lambda 1e308")):
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: overflow encountered in ")
        assert option in err and err.count("\n") == 1, err


def test_verify_refuses_options_it_does_not_read(capsys):
    # each of these used to pass with the option silently ignored
    for argv, flags in (("verify prodnorm --qmax 6 --full-circle",
                         "--full-circle"),
                        ("verify bz --R 4 --deltas 0.2", "--R, --deltas"),
                        ("verify xsmall --full-circle", "--full-circle"),
                        ("verify xyz1 --lambda 3", "--lambda"),
                        ("symmetry census --m 4 --d 3", "--d"),
                        ("symmetry el5 --q 3 --m 9", "--m"),
                        ("symmetry threshold --m 5 --q 7", "--q"),
                        ("graded phi --max 3", "--max"),
                        ("graded dims --points 2", "--points")):
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        command = " ".join(argv.split()[:2])
        assert err == f"error: {command} does not read {flags}\n"


def test_check_parameters_are_options(monkeypatch):
    # a check parameter without a flag could never be set; an all entry
    # with an option its check does not read would exit 1 at run time
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    for command, table in cli._checks().items():
        actions = {a.dest: a for a in subparsers[command]._actions}
        positional = actions["inequality" if command == "verify" else "what"]
        assert positional.choices == list(table)
        for name, check in table.items():
            params = inspect.signature(check).parameters
            assert set(params) <= set(actions), (command, name)
            # an option left out is not passed, so each needs a default
            assert all(p.default is not p.empty for p in params.values())
    calls = _record_all(monkeypatch)
    cli.cmd_all(build_parser().parse_args(["all"]))
    for args in calls:
        if args.command != "expander":
            name = args.inequality if args.command == "verify" else args.what
            check = cli._checks()[args.command][name]
            assert set(cli._given(args)) <= set(
                inspect.signature(check).parameters), (args.command, name)


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


def test_sos_identity_refuses_points_above_the_cap(capsys):
    # P = 10^8 was still running after 20 s; 120, the cap, takes about
    # 0.25 s
    t0 = time.perf_counter()
    assert main(["graded", "sos-identity", "--points", "100000000"]) == 1
    assert main(["graded", "sos-identity", "--points", "121"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "error: sos-identity is evaluated at up to 120 points, got 100000000\n"
        "error: sos-identity is evaluated at up to 120 points, got 121\n")
    assert main(["graded", "sos-identity", "--points", "120"]) == 0


def test_graded_phi_gram_sos():
    assert main(["graded", "phi"]) == 0
    assert main(["graded", "gram"]) == 0
    assert main(["graded", "sos-identity", "--points", "6"]) == 0


def test_graded_dims_refuses_degrees_above_the_cap(capsys):
    # the brute-force count takes about N^4/8 steps: refused before it runs
    t0 = time.perf_counter()
    assert main(["graded", "dims", "--max", "11"]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert main(["graded", "dims", "--max", "10"]) == 0


def test_graded_checks_stay_in_the_quotient(monkeypatch, tmp_path):
    # dims, phi and gram give the same reports with no product or inverse
    # in the Heisenberg group to call
    def reports():
        out = {}
        for what in ("dims", "phi", "gram"):
            path = tmp_path / f"{what}.json"
            assert main(["graded", what, "--out", str(path)]) == 0
            out[what] = path.read_bytes()
        return out

    def refuse(*_):
        raise AssertionError("a graded check multiplied in R[H]")

    want = reports()
    monkeypatch.setattr(Heisenberg, "mul", staticmethod(refuse))
    monkeypatch.setattr(Heisenberg, "inv", staticmethod(refuse))
    assert reports() == want


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
    assert main(["symmetry", "el5", "--q", "1"]) == 0   # the zero ring


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
    assert payload["rows"][0]["matvecs"] > 0           # how lambda_2 was reached
    assert payload["rows"][0]["residual"] < 1e-12
    assert payload["rows"][0]["classes"] == 19        # W-orbits of SL_3(F_2)
    header = csv.read_text().splitlines()[0].split(",")
    assert header == ["n", "q", "p", "order", "degree", "lambda2", "gap",
                      "normalized_gap"]


def test_oversize_expander_run_is_refused_quickly(capsys):
    # |SL_3(Z/30)| is past the default cap; BFS would need 17.9 TiB
    t0 = time.perf_counter()
    assert main(["expander", "run", "--n", "3", "--q", "30"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the order cap 400000" in capsys.readouterr().err


def test_huge_modulus_is_refused_before_its_order(capsys):
    # factoring q by trial division for |SL_2(Z/q)| took 25 s at the first
    # q and minutes at the second; q^4 > 2^53 is refused first
    for q in ("10000000000000061", "1000000000000000003"):
        t0 = time.perf_counter()
        assert main(["expander", "run", "--n", "2", "--q", q]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            f"error: codes of 2x2 matrices mod {q} reach {q}^4, past the "
            f"2^53 that float64 images hold exactly\n")


def test_expander_run_past_physical_memory_is_refused_quickly(capsys):
    # under the cap, but |SL_3(Z/30)| / |W| classes of 12 neighbours need
    # about 700 GB; the class BFS would run for hours before failing
    t0 = time.perf_counter()
    assert main(["expander", "run", "--n", "3", "--q", "30",
                 "--cap", "100000000000000"]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: the class table of SL_3(Z/30) needs")
    assert "physical memory" in err and err.count("\n") == 1


def test_tensor_search_past_physical_memory_is_refused_quickly(monkeypatch,
                                                                capsys):
    # the all-even three-site block of order (q//2 + 1)^3 is solved in
    # about 4 * 8 N^2 bytes: 3.8 MB at q = 12 (N = 343), 17 MB at q = 16
    # (N = 729)
    monkeypatch.setattr(sweeps, "physical_memory", lambda: 10 * 2 ** 20)
    argv = ["verify", "formula", "--R", "16", "--epsilon", "1/8", "--qmax"]
    assert main(argv + ["12"]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(argv + ["16"]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err == (f"error: a parity block of order 729 needs about "
                   f"{4 * 8 * 729 ** 2} bytes to solve, more than the "
                   f"{10 * 2 ** 20} bytes of physical memory\n")


def test_expander_run_past_default_cap(tmp_path):
    out = tmp_path / "exp.json"
    assert main(["expander", "run", "--n", "3", "--q", "6", "--p-rule", "unit",
                 "--cap", "1000000", "--out", str(out)]) == 0
    row, = json.loads(out.read_text())["rows"]
    assert row["order"] == row["classical_order"] == 943488
    assert row["order_matches"] and row["connected"]


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
    report = verify_formula(qmax=0)
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
    args = build_parser().parse_args(["all"])
    result = cli.cmd_all(args)
    assert result.payload == {"command": "all", "pass": True}
    assert result.summary == "26 of 26 components passed"
    assert result.lines == []
    assert len(calls) == 26
    verify = [c for c in calls if c.command == "verify"]
    assert len(verify) == 10
    assert {c.command for c in calls} == {"verify", "symmetry", "graded",
                                          "expander"}


def test_all_fails_when_a_component_fails(monkeypatch):
    args = build_parser().parse_args(["all"])
    for code in (1, 2):
        _record_all(monkeypatch,
                    lambda argv, code=code: code if "gram" in argv else 0)
        result = cli.cmd_all(args)
        assert result.payload["pass"] is False
        assert result.lines == ["failed: graded gram"]
        assert cli._emit(result, args, 0.0) == 2


# --out and --csv bytes as written before the report format moved into one
# emitter
PINNED_REPORTS = {
    "symmetry threshold --m 5 --R 6 --eps 1 --n 15": ("""{
  "R": "6",
  "applies": true,
  "command": "symmetry threshold",
  "eps_prime": "13/45",
  "epsilon": "1",
  "epsilon_n": "13/3",
  "m": 5,
  "n": 15,
  "n_threshold": 15,
  "op_coefficient": "1",
  "pass": true
}
""", None),
    "symmetry census --m 4": ("""{
  "adjacent_matches_ordered": false,
  "adjacent_matches_unordered": false,
  "adjacent_ordered": 24,
  "adjacent_unordered": 12,
  "closed_form_adjacent": 4,
  "closed_form_disjoint": 6,
  "closed_form_edges": 6,
  "command": "symmetry census",
  "disjoint_matches_ordered": true,
  "disjoint_ordered": 6,
  "disjoint_unordered": 3,
  "edges": 6,
  "edges_match": true,
  "m": 4,
  "pass": true
}
""", None),
    "graded dims --max 3": ("""{
  "command": "graded dims",
  "pass": true,
  "rows": [
    [
      0,
      1,
      1
    ],
    [
      1,
      2,
      2
    ],
    [
      2,
      4,
      4
    ],
    [
      3,
      6,
      6
    ]
  ]
}
""", "n,formula,enumerated\r\n0,1,1\r\n1,2,2\r\n2,4,4\r\n3,6,6\r\n"),
}


def test_report_bytes_are_pinned(tmp_path, monkeypatch):
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    for check, (want_json, want_csv) in PINNED_REPORTS.items():
        argv = check.split() + ["--out", str(out)]
        if want_csv is not None:
            argv += ["--csv", str(csv)]
        assert main(argv) == 0
        assert out.read_bytes() == want_json.encode()
        if want_csv is not None:
            assert csv.read_bytes() == want_csv.encode()
    # witness extras stay the repr strings of their floats
    monkeypatch.setattr(sweeps, "TOL", -1.0)
    assert main(["verify", "bz", "--qmax", "4", "--out", str(out)]) == 2
    witnesses = json.loads(out.read_text())["witnesses"]
    assert len(witnesses) == 12
    assert [w["lambda"] for w in witnesses[:3]] == ["1.0", "2.0", "4.0"]


def test_stdout_verdict_notes_and_rows(capsys):
    for argv, code, want in (
            (["verify", "smalltheta", "--qmax", "8", "--theta0", "1/2",
              "--R", "8", "--epsilon", "1/16"], 2,
             [r"\[FAIL\] verify smalltheta: min margin -8\.004e-01 at "
              r"theta=1/2, 12 records \(\d+\.\d\ds\)",
              r"    note: FAIL: no passing \(theta0, R, epsilon\) in scan range"]),
            (["expander", "run", "--n", "2", "--q", "3", "--p-rule", "unit"], 0,
             [r"\[PASS\] expander run: 1 graphs \(\d+\.\d\ds\)",
              r"    n=2 q=3 p=1: order 24 gap 1\.2679 normalized 0\.3170"]),
            (["symmetry", "census", "--m", "4"], 0,
             [r"\[PASS\] symmetry census \(\d+\.\d\ds\)"])):
        assert main(argv) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(want)
        for line, pattern in zip(lines, want):
            assert re.fullmatch(pattern, line), line


def test_sos_identity_compares_the_evaluated_sides(monkeypatch):
    # the image of lhs - rhs is zero whenever the exact sides match, so
    # only the two sides evaluated apart can show a numeric mismatch
    lhs, rhs = sos_identity_sides()
    monkeypatch.setattr(cli, "sos_identity_sides", lambda: (lhs, rhs))
    monkeypatch.setattr(cli, "evaluate", lambda angle, xi: evaluate(angle, xi)
                        + (1e-6 if xi is rhs else 0.0))
    assert main(["graded", "sos-identity", "--points", "4"]) == 2
