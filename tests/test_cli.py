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


def _records_text(rows):
    """The JSON records, one line each, as cone_records.json holds them."""
    return "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n"


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(conelab.cone.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def stdio_env():
    """src_env() with stdout block-buffered, as it is by default for a pipe
    or a file, so that output still buffered at the exit shows."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


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

    @pytest.mark.parametrize("n, k, lambda1", [(1000, 997, "-998.525395"),
                                               (3000, 2990, "-2998.549172"),
                                               (5000, 2500, "-4998.576581"),
                                               (160008, 80004, "-160006.576560")])
    def test_verdict_past_the_series_frontier(self, capsys, n, k, lambda1):
        # L from the continued fraction never overflows and needs no sign of
        # F: these cells used to exit 2 on an unsettled threshold sign
        # (1000, 997), on an overflowed profile (3000, 2990) and (5000,
        # 2500), and on the log case's term budget (160008, 80004), whose
        # root solve once evaluated near s = 1.  The profile changes sign
        # across 1e-12 relative of the printed root in 40-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        rc, out, err = run_cli(capsys, "analyze", "--n", str(n), "--k", str(k))
        assert (rc, err) == (0, "")
        assert f"first eigenvalue lambda1 = {lambda1}\n" in out
        assert "verdict: strictly_stable\n" in out
        p = conelab.cone.ConeParams(n, k)
        hp = conelab.cone.profile_params(p, 1.0)
        with mpmath.workdps(40):
            s = mpmath.mpf(conelab.cone.find_root(p).s_nk)
            band = s * mpmath.mpf(10) ** -12
            assert mpmath.hyp2f1(hp.a, hp.b, hp.c, s - band) > 0
            assert mpmath.hyp2f1(hp.a, hp.b, hp.c, s + band) < 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("alpha", [-2.5, -3.0], ids=["threshold", "4_minus_n"])
    def test_non_finite_margin_is_named(self, monkeypatch, capsys, value, alpha):
        # fault injection: L_direct at (7,1) returns a non-finite value at
        # one exponent, the threshold (2-n)/2 or 4-n, as a subnormal profile
        # would; it used to be classified, bracketed or printed as a number
        real = conelab.cone.L_direct

        def faulty(p, a, ss):
            return [value] * len(ss) if a == alpha else real(p, a, ss)

        monkeypatch.setattr(conelab.cone, "L_direct", faulty)
        rc, out, err = run_cli(capsys, "analyze", "--n", "7", "--k", "1",
                               "--format", "json")
        assert rc == 2
        assert out == ""
        assert err == (f"error: margin at alpha={alpha} for (n,k)=(7,1) is "
                       f"{value!r}, not finite\n")

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

    def test_margin_residual_exit_is_named(self, capsys):
        # at (160008, 80003) the margin's root in lambda leaves |margin|
        # above MARGIN_TOL, below the margin's own error at this n; the
        # exit names that step
        rc, out, err = run_cli(capsys, "analyze", "--n", "160008", "--k", "80003")
        assert (rc, out) == (2, "")
        assert err == ("error: margin root lambda1=-160006.57655781994 at (n,k)=(160008,80003) "
                       "leaves residual 3.029e-09 above 1e-09\n")


    def test_nan_profile_exit_is_named(self, capsys):
        # the root solve meets a NaN from the connection formula; the exit
        # names where, the strategy and the parameters, and prints no row
        rc, out, err = run_cli(capsys, "analyze", "--n", "160008", "--k", "144006")
        assert (rc, out) == (2, "")
        assert err == ("error: profile not finite at s=0.9008052394776422 for "
                       "(n,k)=(160008,144006): f = nan +- nan by ConnectionAt1 at "
                       "(a,b,c)=(80003.5,-0.5,72003.0)\n")


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

    def test_golden_records(self, capsys):
        # every JSON record of n = 3..20, floats to the last bit: the
        # complex-pair cells n <= 6 and the stable ones from 7 on; a change
        # that moves one rewrites the file, with
        # `PYTHONPATH=src python tests/test_cli.py`, and says why
        rc, out, _ = run_cli(capsys, "table", "--n", "3", "20", "--format", "json")
        assert rc == 0
        assert _records_text(json.loads(out)["rows"]) == (DATA / "cone_records.json").read_text()

    def test_one_threshold_margin_per_cone(self, capsys, monkeypatch):
        # verdict evaluates L at alpha = (2-n)/2 once per cone, for the
        # verdict and the lambda_1 bracket alike
        raw = conelab.cone.L_direct
        calls = []

        def counted(p, alpha, ss):
            if alpha == (2.0 - p.n) / 2.0:
                calls.append((p.n, p.k))
            return raw(p, alpha, ss)

        for name, mod in list(sys.modules.items()):
            if name.startswith("conelab.") and getattr(mod, "L_direct", None) is raw:
                monkeypatch.setattr(mod, "L_direct", counted)
        rc, _, _ = run_cli(capsys, "analyze", "--n", "7", "--k", "1")
        assert rc == 0
        assert calls == [(7, 1)]
        calls.clear()
        rc, _, _ = run_cli(capsys, "table", "--n", "7", "8")
        assert rc == 0
        assert calls == [(n, k) for n in (7, 8) for k in range(1, n - 1)]

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
        assert err == "error: --n must satisfy 3 <= N_MIN <= N_MAX <= 40, got 7 50\n"
        rc, out, err = run_cli(capsys, "table", "--n", "12", "7")
        assert rc == 2
        assert out == ""
        assert err == "error: --n must satisfy 3 <= N_MIN <= N_MAX <= 40, got 12 7\n"


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

    @pytest.mark.parametrize("n_max, vacuous", [
        (6, ["lambda1_strictly_increasing_in_k", "lambda1_above_8_minus_2n",
             "gamma_minus_in_2mn_4mn", "gamma_plus_in_m2_0", "gamma_bar_strictly_increasing",
             "gamma_bar_in_m2_m1", "lambda_bar_strictly_decreasing"]),
        (7, ["gamma_bar_strictly_increasing", "lambda_bar_strictly_decreasing"]),
        (8, []),
    ])
    def test_flags_that_judged_nothing_are_noted(self, capsys, n_max, vacuous):
        # the flags judge the n >= 7 rows, the two bar-monotonicity flags
        # consecutive k = n-2 rows; a flag with nothing to judge passes, and
        # says so once on stderr, while stdout and the exit code stay
        rc, out, err = run_cli(capsys, "scan", "--n-max", str(n_max), "--format", "json")
        assert (rc, json.loads(out)["flags"]) == (0, [])
        assert err == "".join(f"note: flag {name} judged no row or pair: it passes vacuously\n"
                              for name in vacuous)

    def test_nmax_validation(self, capsys):
        rc, _, _ = run_cli(capsys, "scan", "--n-max", "55")
        assert rc == 2

    @pytest.mark.parametrize("n_max", ["41", "2"])
    def test_nmax_range_checked_by_family_cells(self, capsys, n_max):
        # main turns family_cells's ValueError into exit 2
        rc, out, err = run_cli(capsys, "scan", "--n-max", n_max)
        assert rc == 2
        assert out == ""
        assert err == f"error: --n-max must satisfy 3 <= N_MAX <= 40, got {n_max}\n"


class TestFamilyScan:
    # scan's rows are table's records cut to its six columns, and
    # cli._scan_flags judges them
    def test_flags_hold_to_twelve(self, capsys):
        rc, out, err = run_cli(capsys, "scan", "--n-max", "12", "--format", "json")
        assert (rc, json.loads(out)["flags"], err) == (0, [], "")

    def test_row_ordering_and_gamma_consistency(self, capsys):
        rc, out, _ = run_cli(capsys, "scan", "--n-max", "8", "--format", "json")
        assert rc == 0
        rows = json.loads(out)["rows"]
        keys = [(r["n"], r["k"]) for r in rows]
        assert keys == sorted(keys) == cli.family_cells(3, 8)
        for r in rows:
            if r["gamma_plus"] is not None:
                got = conelab.cone.indicial_roots(r["lambda1"], r["n"])
                assert abs(got[1] - r["gamma_plus"]) < 1e-10

    def test_range_validation(self):
        with pytest.raises(ValueError):
            cli.family_cells(2, 10)
        with pytest.raises(ValueError):
            cli.family_cells(7, 41)

    def test_scan_rows_are_table_records(self, capsys):
        _, scan, _ = run_cli(capsys, "scan", "--n-max", "9", "--format", "json")
        _, table, _ = run_cli(capsys, "table", "--n", "3", "9", "--format", "json")
        cut = [{key: r[key] for key in cli._SCAN_HEADER} for r in json.loads(table)["rows"]]
        assert json.loads(scan)["rows"] == cut

    def test_failed_flag_is_named(self):
        # lambda1 falling in k at n = 8 fails its flag and is noted; the
        # other flags hold on these rows
        rows = [{"n": n, "k": k, "lambda1": lam, "gamma_plus": 0.1 * n - 2.2,
                 "gamma_minus": 4.2 - 1.1 * n}
                for n, k, lam in [(7, 5, -5.5), (8, 5, -6.0), (8, 6, -6.5)]]
        assert cli._scan_flags(rows) == (
            ["lambda1_strictly_increasing_in_k"],
            ["lambda1 not strictly increasing in k at n=8"])


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [("table", "--n", "3", "40"), ("scan", "--n-max", "40"),
                                      ("analyze", "--n", "7", "--k", "1"),
                                      ("verify", "--suite", "all")],
                             ids=lambda argv: argv[0])
    def test_closed_stdout_exits_141_quietly(self, argv):
        # a reader that leaves early (`conelab table ... | head -1`) is no
        # usage error: exit 128 + SIGPIPE, with nothing on stderr; what the
        # failed flush left in stdout's buffer goes nowhere at the exit
        rfd, wfd = os.pipe()
        os.close(rfd)
        try:
            proc = subprocess.run([sys.executable, "-m", "conelab.cli", *argv], stdout=wfd,
                                  stderr=subprocess.PIPE, env=stdio_env(), timeout=120)
        finally:
            os.close(wfd)
        assert (proc.returncode, proc.stderr) == (141, b"")


class TestProcessExit:
    # `python -m conelab.cli` ends through cli.run, which skips the
    # interpreter's teardown: the process must still give the bytes and
    # the exit code of main() in process
    @pytest.mark.parametrize("argv, code", [
        (("analyze", "--n", "7", "--k", "1"), 0),
        (("analyze", "--n", "7", "--k", "1", "--format", "json"), 0),
        (("table", "--n", "7", "9"), 0),
        (("table", "--n", "7", "9", "--format", "json"), 0),
        (("table", "--n", "7", "12", "--compare"), 1),
        (("scan", "--n-max", "9"), 0),
        (("verify", "--suite", "specfun"), 0),
        (("analyze", "--n", "2", "--k", "1"), 2),
        (("analyze", "--n", "7"), 2),
    ], ids=["analyze-text", "analyze-json", "table-csv", "table-json", "table-compare",
            "scan", "verify-specfun", "analyze-bad-n", "analyze-usage"])
    def test_process_matches_main(self, capsys, argv, code):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "conelab.cli", *argv],
                              capture_output=True, env=stdio_env(), timeout=120)
        assert rc == code
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            rc, captured.out.encode(), captured.err.encode())
        if "--compare" in argv:
            assert captured.err.count("MISMATCH ") == 5
        elif code == 2:
            assert captured.out == "" and captured.err.startswith(
                "error: n >= 3" if "--k" in argv else "usage: conelab analyze")

    def test_run_flushes_then_exits_with_the_code(self, monkeypatch):
        flushed = []

        class Stream:
            def __init__(self, name):
                self.name = name

            def flush(self):
                flushed.append(self.name)

        def exit_now(code):
            raise RuntimeError(f"os._exit({code}) after {flushed}")

        monkeypatch.setattr(cli, "main", lambda argv: 1)
        monkeypatch.setattr(sys, "stdout", Stream("stdout"))
        monkeypatch.setattr(sys, "stderr", Stream("stderr"))
        monkeypatch.setattr(os, "_exit", exit_now)
        with pytest.raises(RuntimeError, match=r"os\._exit\(1\) after \['stdout', 'stderr'\]"):
            cli.run([])

    def test_failed_flush_takes_the_usual_exit(self, monkeypatch):
        class Closed:
            def flush(self):
                raise ValueError("I/O operation on closed file")

        def exit_now(code):
            raise AssertionError("os._exit after a failed flush")

        monkeypatch.setattr(cli, "main", lambda argv: 0)
        monkeypatch.setattr(sys, "stdout", Closed())
        monkeypatch.setattr(os, "_exit", exit_now)
        with pytest.raises(SystemExit) as exc:
            cli.run([])
        assert exc.value.code == 0

    def test_commands_register_no_exit_callback(self):
        # what the skipped teardown would run: no subcommand adds an atexit
        # callback to those a bare interpreter has (site hooks may add some)
        count = "import atexit; print(atexit._ncallbacks())"
        bare = subprocess.run([sys.executable, "-c", count], capture_output=True,
                              text=True, env=src_env(), check=True).stdout
        script = "\n".join([
            "import contextlib, io",
            "from conelab.cli import main",
            "for argv in [['analyze', '--n', '7', '--k', '1'], ['table', '--n', '7', '8'],",
            "             ['scan', '--n-max', '9'], ['verify', '--suite', 'all']]:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0, argv",
            count,
        ])
        after = subprocess.run([sys.executable, "-c", script], capture_output=True,
                               text=True, env=src_env(), check=True).stdout
        assert after == bare

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"conelab": "conelab.cli:run"}


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

    def test_all_suites_run_in_this_process(self, monkeypatch, capsys):
        # no worker and no pipe; the rows are the golden records
        def forbidden(*args):
            raise AssertionError("verify made a process or a pipe")

        monkeypatch.setattr(os, "fork", forbidden)
        monkeypatch.setattr(os, "pipe", forbidden)
        rc, out, err = run_cli(capsys, "verify", "--suite", "all")
        assert (rc, err) == (0, "")
        golden = json.loads((DATA / "verify_records.json").read_text())
        assert json.loads(out)["rows"] == [
            {"suite": suite, "name": name, "passed": passed, "detail": detail}
            for suite in cli._SUITE_NAMES for name, passed, detail in golden[suite]]

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
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=src_env(), check=True)
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

    def test_commands_load_no_dataclasses_or_inspect(self):
        # dataclasses brings in inspect, ast, dis and tokenize, some 10 ms
        # of every cold start; a module a bare interpreter already loads
        # (a site hook) is not the commands' doing and is not watched
        script = "import sys; print(sorted(sys.modules))"
        bare = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=src_env(), check=True).stdout
        watch = tuple(m for m in ("dataclasses", "inspect") if repr(m) not in bare)
        assert self._loaded_after(("analyze", "--n", "7", "--k", "1"), ("table", "--n", "7", "8"),
                                  ("scan", "--n-max", "9"), ("verify", "--suite", "all"),
                                  watch=watch) == "[]"

    def test_each_command_loads_only_its_layers(self):
        # analyze, table and scan load the pipeline up to cone; checks
        # loads for verify only, and the package root
        # loads nothing but the kernel backend
        kernels = {"compiled": "_kernels", "python": "_pykernels"}[conelab.BACKEND_NAME]
        backend = ["conelab", "conelab._backend", f"conelab.{kernels}"]
        runs = backend + [f"conelab.{m}" for m in
                          ("cli", "cone", "errors", "reference", "specfun")]
        for argv in (("analyze", "--n", "7", "--k", "1"), ("table", "--n", "7", "8"),
                     ("scan", "--n-max", "8")):
            assert self._loaded_after(argv, watch=("conelab",)) == repr(sorted(runs)), argv
        verifies = runs + ["conelab.checks"]
        loaded = self._loaded_after(("verify", "--suite", "specfun"), watch=("conelab",))
        assert loaded == repr(sorted(verifies)) and "'conelab.riccati'" not in loaded
        script = ("import sys, conelab; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'conelab'))")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=src_env(), check=True)
        assert out.stdout.strip() == repr(sorted(backend))


if __name__ == "__main__":
    # rewrite cone_records.json from `table --n 3 20 --format json`
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["table", "--n", "3", "20", "--format", "json"]) == 0
    (DATA / "cone_records.json").write_text(_records_text(json.loads(out.getvalue())["rows"]))
