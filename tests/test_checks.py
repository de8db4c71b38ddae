"""Battery plumbing tests: every suite passes on a healthy build, and the
verify command propagates failures into its exit code."""

import json

import pytest

from conelab import checks
from conelab.checks import CheckRecord, run_suites


@pytest.mark.parametrize("suite", ["specfun", "riccati", "lemmas", "barriers"])
def test_suite_green(suite):
    records = run_suites([suite])
    assert records
    failures = [r for r in records if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]


def test_records_carry_suite_names():
    for rec in run_suites(["specfun"]):
        assert rec.suite == "specfun"
        assert rec.detail


def test_verify_exit_code_on_seeded_failure(monkeypatch, capsys):
    # simulate a build regression: one battery entry flips to failed
    from conelab import cli

    def broken():
        return [CheckRecord(suite="specfun", name="seeded_bug",
                            passed=False, detail="sign flipped")]

    monkeypatch.setitem(checks.SUITES, "specfun", broken)
    rc = cli.main(["verify", "--suite", "specfun"])
    captured = capsys.readouterr()
    assert rc == 1
    payload = json.loads(captured.out)
    assert payload["flags"] == ["seeded_bug"]
    assert "FAILED: seeded_bug" in captured.err
