"""``repro lint`` CLI smoke tests: exit codes, JSON schema, baseline flow."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.report import REPORT_VERSION

REPO_ROOT = Path(__file__).parents[2]

BAD_SOURCE = "import json\n\npayload = json.dumps({'b': 1})\n"

#: Required keys and the type of their values in the version-1 report.
REPORT_SCHEMA = {
    "version": int,
    "tool": str,
    "paths": list,
    "files_scanned": int,
    "counts": dict,
    "rules": list,
    "findings": list,
    "baselined": list,
    "suppressed": list,
    "ok": bool,
}

FINDING_SCHEMA = {
    "rule": str,
    "name": str,
    "severity": str,
    "path": str,
    "line": int,
    "col": int,
    "message": str,
    "snippet": str,
    "suppressed": bool,
    "baselined": bool,
}


def run_lint(capsys, *argv):
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


class TestRepoIsClean:
    def test_lint_exits_zero_on_the_repo(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out = run_lint(capsys, "--format", "json")
        document = json.loads(out)
        assert code == 0, document["findings"]
        assert document["ok"] is True
        assert document["findings"] == []
        assert document["files_scanned"] > 80

    def test_committed_baseline_is_empty(self):
        payload = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert payload == {"version": 1, "entries": {}}


class TestJsonReportSchema:
    @pytest.fixture()
    def document(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(BAD_SOURCE)
        out_file = tmp_path / "report.json"
        code, out = run_lint(
            capsys, str(target), "--format", "json",
            "--out", str(out_file), "--no-baseline",
        )
        assert code == 1
        # stdout and --out carry the identical document.
        assert json.loads(out) == json.loads(out_file.read_text())
        return json.loads(out)

    def test_top_level_schema(self, document):
        assert set(document) == set(REPORT_SCHEMA)
        for key, expected_type in REPORT_SCHEMA.items():
            assert isinstance(document[key], expected_type), key
        assert document["version"] == REPORT_VERSION
        assert document["tool"] == "repro-lint"

    def test_finding_schema(self, document):
        assert document["counts"]["new"] == 1
        [finding] = document["findings"]
        assert set(finding) == set(FINDING_SCHEMA)
        for key, expected_type in FINDING_SCHEMA.items():
            assert isinstance(finding[key], expected_type), key
        assert finding["rule"] == "REPRO105"
        assert document["ok"] is False

    def test_rule_table_lists_every_rule(self, document):
        from repro.lint import rule_classes

        assert [row["id"] for row in document["rules"]] == [
            cls.id for cls in rule_classes()
        ]
        for row in document["rules"]:
            assert set(row) == {"id", "name", "severity", "description"}


class TestExitCodesAndFlags:
    def test_clean_file_exits_zero_human_format(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        code, out = run_lint(capsys, str(target), "--no-baseline")
        assert code == 0
        assert "0 new finding(s)" in out

    def test_violation_exits_one_with_location(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(BAD_SOURCE)
        code, out = run_lint(capsys, str(target), "--no-baseline")
        assert code == 1
        assert "mod.py:3" in out
        assert "REPRO105" in out

    def test_fail_on_never_reports_but_passes(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(BAD_SOURCE)
        code, out = run_lint(
            capsys, str(target), "--no-baseline", "--fail-on", "never",
            "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["counts"]["new"] == 1
        assert document["ok"] is True

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code, _out = run_lint(capsys, str(tmp_path / "absent"))
        assert code == 2

    def test_unknown_rule_id_exits_two(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        code, _out = run_lint(capsys, str(target), "--rules", "NOPE1")
        assert code == 2

    def test_list_rules_prints_table(self, capsys):
        code, out = run_lint(capsys, "--list-rules")
        assert code == 0
        assert "REPRO101" in out and "REPRO203" in out


class TestBaselineWorkflow:
    def test_write_then_gate_then_resurface(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "legacy.py"
        target.write_text(BAD_SOURCE)

        # 1. Adopting the rule over legacy code: record the baseline.
        code, _ = run_lint(capsys, "legacy.py", "--write-baseline")
        assert code == 0
        assert (tmp_path / "lint-baseline.json").exists()

        # 2. Same tree lints clean; the finding is reported as baselined.
        code, out = run_lint(capsys, "legacy.py", "--format", "json")
        document = json.loads(out)
        assert code == 0
        assert document["counts"] == {"new": 0, "baselined": 1, "suppressed": 0}

        # 3. A second, new violation still gates.
        target.write_text(BAD_SOURCE + "more = json.dumps({'c': 2})\n")
        code, out = run_lint(capsys, "legacy.py", "--format", "json")
        document = json.loads(out)
        assert code == 1
        assert document["counts"]["new"] == 1
        assert document["counts"]["baselined"] == 1

        # 4. --no-baseline makes everything gate again.
        code, out = run_lint(capsys, "legacy.py", "--no-baseline",
                             "--format", "json")
        assert code == 1
        assert json.loads(out)["counts"]["new"] == 2
