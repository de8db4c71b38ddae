"""Command-line interface tests: exit codes, output schemas, determinism,
comparison behavior."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conelab.cone
from conelab import checks, cli
from conelab.cli import main

DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestAnalyze:
    def test_stable_json(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--n", "7", "--k", "1",
                             "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        row = payload["rows"][0]
        assert row["verdict"] == "strictly_stable"
        assert abs(row["lambda1"] + 5.698) < 5e-4
        assert abs(row["t_nk"] - 0.5173) < 1e-3

    def test_unstable_text(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--n", "6", "--k", "2")
        assert rc == 0
        assert "unstable" in out

    def test_invalid_k(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "--n", "7", "--k", "9")
        assert rc == 2
        assert "k must lie" in err

    def test_n3_margin_undefined(self, capsys):
        # at n = 3 the degree-(4-n) profile is f itself, so L has a pole at
        # the root; this used to exit 2 on PoleEncounteredError
        rc, out, _ = run_cli(capsys, "analyze", "--n", "3", "--k", "1")
        assert rc == 0
        assert "subsolution margin at degree 4-n: undefined" in out
        rc, out, _ = run_cli(capsys, "table", "--n", "3", "4", "--format", "json")
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert (row["n"], row["margin_4_minus_n"]) == (3, None)
        assert "margin_4_minus_n_undefined" in row["flags"]

    def test_json_roundtrip(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "--n", "8", "--k", "3",
                             "--format", "json")
        row = json.loads(out)["rows"][0]
        again = json.loads(json.dumps(row))
        assert again == row


class TestTable:
    def test_csv_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--n", "7", "7", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,k,t_nk,neg_lambda1,neg_gamma_plus,verdict"
        assert len(lines) == 6  # header + k = 1..5
        cell = lines[1].split(",")[2]
        assert len(cell.split(".")[1]) == 6  # %.6f cells

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "--n", "7", "8", "--format", "csv")
        _, out2, _ = run_cli(capsys, "table", "--n", "7", "8", "--format", "csv")
        assert out1 == out2
        assert "\r" not in out1

    def test_golden_csv(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--n", "7", "9")
        assert rc == 0
        assert out.encode("utf-8") == (DATA / "table_n7_9.csv").read_bytes()

    def test_one_root_per_cone(self, capsys, monkeypatch):
        raw = conelab.cone.find_root
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return raw(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("conelab.") and getattr(mod, "find_root", None) is raw:
                monkeypatch.setattr(mod, "find_root", counted)
        rc, _, _ = run_cli(capsys, "table", "--n", "7", "8")
        assert rc == 0
        assert len(calls) == 11 and len(set(calls)) == 11

    def test_compare_clean_rows(self, capsys):
        rc, _, err = run_cli(capsys, "table", "--n", "7", "7", "--compare")
        assert rc == 0
        assert "MISMATCH" not in err

    def test_compare_flagged_entry_informational(self, capsys):
        # the flagged t(9,6) cell must be surfaced but never fatal on its own
        rc, _, err = run_cli(capsys, "table", "--n", "9", "9", "--compare")
        assert "flagged (n=9, k=6) t" in err
        # the printed reference for n=9 also carries erroneous unflagged t
        # cells (k = 3, 4, 5), so the comparison honestly fails
        assert rc == 1
        assert "MISMATCH (n=9, k=4) t" in err

    def test_compare_json_carries_flags(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--n", "10", "10", "--format",
                             "json", "--compare")
        payload = json.loads(out)
        assert any("neg_gamma_plus" in f for f in payload["flags"])

    def test_range_validation(self, capsys):
        rc, _, err = run_cli(capsys, "table", "--n", "7", "50")
        assert rc == 2


class TestScan:
    def test_exit_and_schema(self, capsys):
        rc, out, err = run_cli(capsys, "scan", "--n-max", "9", "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["flags"] == []
        rows = payload["rows"]
        assert rows[0]["n"] == 3
        stable = [r for r in rows if r["n"] >= 7]
        for r in stable:
            assert r["lambda1"] > 8 - 2 * r["n"]

    @pytest.mark.parametrize("n_max", [9, 20])
    def test_golden_csv(self, capsys, n_max):
        rc, out, _ = run_cli(capsys, "scan", "--n-max", str(n_max))
        assert rc == 0
        assert out.encode("utf-8") == (DATA / f"scan_nmax{n_max}.csv").read_bytes()

    def test_csv_nan_for_complex_roots(self, capsys):
        rc, out, _ = run_cli(capsys, "scan", "--n-max", "5", "--format", "csv")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,k,t_nk,lambda1,gamma_plus,gamma_minus"
        # n = 3..5 cones are unstable far below threshold: complex roots
        assert all(line.split(",")[4] == "nan" for line in lines[1:])

    def test_nmax_validation(self, capsys):
        rc, _, _ = run_cli(capsys, "scan", "--n-max", "55")
        assert rc == 2

    @pytest.mark.parametrize("n_max", ["41", "2"])
    def test_nmax_range_checked_by_family_scan(self, capsys, n_max):
        # main turns family_scan's ValueError into exit 2
        rc, out, err = run_cli(capsys, "scan", "--n-max", n_max)
        assert rc == 2
        assert out == ""
        assert err == "error: n_range must satisfy 3 <= n_lo <= n_hi <= 40\n"


class TestConfig:
    # the series tolerances are constants of conelab.specfun: no subcommand
    # takes a configuration file or a tolerance override
    @pytest.mark.parametrize("flag", [("--config", "x.cfg"),
                                      ("--tol-override", "series.rel_tol=1e-4")],
                             ids=["config", "tol_override"])
    @pytest.mark.parametrize("argv", [("analyze", "--n", "7", "--k", "1"),
                                      ("table", "--n", "7", "8"),
                                      ("scan", "--n-max", "7"),
                                      ("verify", "--suite", "specfun")],
                             ids=lambda argv: argv[0])
    def test_control_flags_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


class TestVerifySuites:
    def test_single_suite_json(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--suite", "specfun")
        assert rc == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["flags"] == []
        assert all(r["passed"] for r in payload["rows"])

    def test_suite_names_match_checks(self):
        # the parser spells the suite names out so that it need not load checks
        assert cli._SUITE_NAMES == tuple(checks.SUITES)

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nope"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --suite: invalid choice: 'nope'" in captured.err


class TestColdImport:
    @staticmethod
    def _loaded_after(*argvs, watch=("scipy", "numpy")):
        # run the commands in a fresh interpreter, each expecting exit 0,
        # and list the imported modules that are, or belong to, one in watch
        script = "\n".join([
            "import contextlib, io, sys",
            "from conelab.cli import main",
            f"for argv in {list(map(list, argvs))!r}:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0, argv",
            "print(sorted(m for m in sys.modules",
            f"             if m in {watch!r} or m.split('.')[0] in {watch!r}),",
            "      file=sys.stderr)",
        ])
        src = str(Path(conelab.cone.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=env, check=True)
        return out.stderr.strip()

    def test_no_scipy_or_numpy_on_the_evaluation_path(self):
        # analyze (16,14) takes the log case of the connection formula,
        # analyze (31,24) the non-integer one
        assert self._loaded_after(("analyze", "--n", "16", "--k", "14"),
                                  ("analyze", "--n", "31", "--k", "24"),
                                  ("table", "--n", "7", "9")) == "[]"

    def test_verify_loads_no_scipy_or_numpy(self):
        assert self._loaded_after(("verify", "--suite", "all")) == "[]"

    def test_analyze_and_table_do_not_load_checks(self):
        # the verification batteries load for verify only
        assert self._loaded_after(("analyze", "--n", "7", "--k", "1"),
                                  ("table", "--n", "7", "8"),
                                  watch=("conelab.checks",)) == "[]"
        assert self._loaded_after(("verify", "--suite", "specfun"),
                                  watch=("conelab.checks",)) == "['conelab.checks']"
