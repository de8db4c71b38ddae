"""Battery plumbing tests: every suite passes on a healthy build and
reports the golden records, and the verify command propagates failures
into its exit code."""

import json
from pathlib import Path

import pytest

from conelab import checks
from conelab.checks import CheckRecord, run_suites

# (name, passed, detail) of every record, per suite, as `verify` reported
# them when the file was written; a change that moves any of them must
# regenerate the file, with `PYTHONPATH=src python tests/test_checks.py`,
# and explain why
GOLDEN = Path(__file__).parent / "data" / "verify_records.json"


@pytest.mark.parametrize("suite", ["specfun", "riccati", "lemmas", "barriers"])
def test_suite_green(suite):
    records = run_suites([suite])
    assert records
    failures = [r for r in records if not r.passed]
    assert not failures, [f"{r.name}: {r.detail}" for r in failures]
    golden = json.loads(GOLDEN.read_text())[suite]
    assert [[r.name, r.passed, r.detail] for r in records] == golden


def test_check_record_contract():
    rec = CheckRecord(suite="specfun", name="x", passed=True, detail="ok")
    assert repr(rec) == "CheckRecord(suite='specfun', name='x', passed=True, detail='ok')"
    with pytest.raises(AttributeError):
        rec.passed = False


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


if __name__ == "__main__":
    # rewrite the golden file from the records of every suite, in run order
    GOLDEN.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n"
        + ",\n".join("  " + json.dumps([r.name, r.passed, r.detail]) for r in run_suites([name]))
        + "\n ]" for name in checks.SUITES) + "\n}\n")
