"""``repro lint`` CLI smoke tests: exit codes and the JSON report schema."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import RULES
from repro.lint.report import REPORT_VERSION

REPO_ROOT = Path(__file__).parents[2]

BAD_SOURCE = "import json\n\npayload = json.dumps({'b': 1})\n"

#: Required keys and the type of their values in the version-2 report.
REPORT_SCHEMA = {
    "version": int,
    "tool": str,
    "paths": list,
    "files_scanned": int,
    "counts": dict,
    "rules": list,
    "findings": list,
    "suppressed": list,
    "ok": bool,
}

FINDING_SCHEMA = {
    "rule": str,
    "name": str,
    "path": str,
    "line": int,
    "col": int,
    "message": str,
    "snippet": str,
    "suppressed": bool,
}


def run_lint(capsys, *argv):
    code = main(["lint", *argv])
    return code, capsys.readouterr().out


class TestRepoIsClean:
    def test_lint_exits_zero_on_the_repo(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        out_file = tmp_path / "report.json"
        code, _out = run_lint(capsys, "--out", str(out_file))
        document = json.loads(out_file.read_text())
        assert code == 0, document["findings"]
        assert document["ok"] is True
        assert document["findings"] == []
        assert document["files_scanned"] > 80


class TestJsonReportSchema:
    @pytest.fixture()
    def document(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(BAD_SOURCE)
        out_file = tmp_path / "report.json"
        code, out = run_lint(capsys, str(target), "--out", str(out_file))
        # A failing run still writes the report; stdout is the listing.
        assert code == 1
        assert "mod.py:3" in out and "REPRO105" in out
        return json.loads(out_file.read_text())

    def test_top_level_schema(self, document):
        assert set(document) == set(REPORT_SCHEMA)
        for key, expected_type in REPORT_SCHEMA.items():
            assert isinstance(document[key], expected_type), key
        assert document["version"] == REPORT_VERSION == 2
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
        assert [row["id"] for row in document["rules"]] == [
            rule.id for rule in RULES
        ]
        for row in document["rules"]:
            assert set(row) == {"id", "name", "description"}


class TestExitCodesAndFlags:
    def test_clean_file_exits_zero_human_format(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        code, out = run_lint(capsys, str(target))
        assert code == 0
        assert "0 new finding(s)" in out

    def test_violation_exits_one_with_location(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(BAD_SOURCE)
        code, out = run_lint(capsys, str(target))
        assert code == 1
        assert "mod.py:3" in out
        assert "REPRO105" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code, _out = run_lint(capsys, str(tmp_path / "absent"))
        assert code == 2

    def test_list_rules_prints_table(self, capsys):
        code, out = run_lint(capsys, "--list-rules")
        assert code == 0
        assert "REPRO101" in out and "REPRO203" in out

