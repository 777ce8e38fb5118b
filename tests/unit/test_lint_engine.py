"""Suppression and discovery semantics of the lint engine."""

from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.engine import discover_files

BAD_JSON = "import json\n\ndef dump(p):\n    return json.dumps(p)\n"


class TestSuppressions:
    def test_inline_allow_suppresses_the_finding(self):
        source = (
            "import json\n"
            "def dump(p):\n"
            "    return json.dumps(p)  # repro: allow[REPRO105]\n"
        )
        result = lint_source(source, module="repro.chaos.fake")
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["REPRO105"]
        assert result.suppressed[0].suppressed is True

    def test_allow_on_the_line_above_suppresses(self):
        source = (
            "import json\n"
            "def dump(p):\n"
            "    # repro: allow[REPRO105] - key order cannot matter here\n"
            "    return json.dumps(p)\n"
        )
        result = lint_source(source, module="repro.chaos.fake")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_allow_for_a_different_rule_does_not_suppress(self):
        source = (
            "import json\n"
            "def dump(p):\n"
            "    return json.dumps(p)  # repro: allow[REPRO104]\n"
        )
        result = lint_source(source, module="repro.chaos.fake")
        assert [f.rule for f in result.findings] == ["REPRO105"]

    def test_wildcard_allow_suppresses_everything_on_the_line(self):
        source = (
            "import json\n"
            "def dump(p):\n"
            "    return json.dumps(p)  # repro: allow[*]\n"
        )
        result = lint_source(source, module="repro.chaos.fake")
        assert result.findings == []

    def test_multiple_ids_in_one_directive(self):
        source = (
            "import json\n"
            "def dump(p):\n"
            "    return json.dumps(p)  # repro: allow[REPRO104, REPRO105]\n"
        )
        result = lint_source(source, module="repro.chaos.fake")
        assert result.findings == []

    def test_non_comment_line_above_does_not_suppress(self):
        source = (
            "import json\n"
            "ok = 1  # repro: allow[REPRO105]\n"
            "bad = json.dumps({})\n"
        )
        result = lint_source(source, module="repro.chaos.fake")
        assert [f.rule for f in result.findings] == ["REPRO105"]


class TestDiscovery:
    def test_discovery_is_sorted_and_excludes_fixture_dirs(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        nested = tmp_path / "pkg" / "lint_fixtures"
        nested.mkdir(parents=True)
        (nested / "bad.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "c.py").write_text("x = 1\n")
        files = discover_files([tmp_path])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "nope"])

    def test_single_file_path_is_accepted(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text(BAD_JSON)
        result = lint_paths([target])
        assert result.files_scanned == 1

    def test_results_are_deterministically_ordered(self, tmp_path):
        for name in ("zz.py", "aa.py"):
            (tmp_path / name).write_text(BAD_JSON)
        result = lint_paths([tmp_path])
        paths = [f.path for f in result.findings]
        assert paths == sorted(paths)

    def test_module_name_derivation_uses_src_layout(self):
        from repro.lint.engine import module_name_for

        assert (
            module_name_for(Path("src/repro/kafka/producer.py"))
            == "repro.kafka.producer"
        )
        assert module_name_for(Path("src/repro/lint/__init__.py")) == "repro.lint"
        assert module_name_for(Path("tests/unit/test_x.py")) == "test_x"
