"""Per-rule golden-fixture tests for the lint framework.

Every shipped rule must (a) fire on its violating fixture and (b) stay
quiet on its clean fixture, with both fixtures linted under a module
name inside the rule's scope.  A coverage test pins ``RULES`` to the
fixture table so adding a rule without a fixture pair fails loudly.
"""

from pathlib import Path

import pytest

from repro.lint import RULES, lint_source
from repro.lint.rules import DETERMINISTIC_PACKAGES

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: rule id -> (fixture slug, in-scope module override, findings expected
#: in the bad fixture).
RULE_FIXTURES = {
    "REPRO101": ("unseeded_random", "repro.simulation.fake", 3),
    "REPRO102": ("wall_clock", "repro.kafka.fake", 3),
    "REPRO103": ("set_iteration", "repro.observability.fake", 3),
    "REPRO104": ("builtin_hash", "repro.simulation.fake", 1),
    "REPRO105": ("unsorted_json", "repro.chaos.fake", 3),
    "REPRO106": ("fs_order", "repro.testbed.fake", 2),
    "REPRO107": ("raw_generator", "repro.network.fake", 5),
    "REPRO201": ("float_equality", "repro.kpi.fake", 3),
    "REPRO203": ("spawn_closure", "repro.testbed.fake", 2),
}


def lint_fixture(slug: str, kind: str, module: str):
    source = (FIXTURES / f"{slug}_{kind}.py").read_text()
    return lint_source(source, path=f"{slug}_{kind}.py", module=module)


class TestRegistryCoverage:
    def test_every_registered_rule_has_a_fixture_pair(self):
        assert {rule.id for rule in RULES} == set(RULE_FIXTURES)

    def test_fixture_files_exist(self):
        for slug, _module, _count in RULE_FIXTURES.values():
            assert (FIXTURES / f"{slug}_bad.py").exists()
            assert (FIXTURES / f"{slug}_clean.py").exists()

    def test_rule_metadata_is_complete(self):
        for rule in RULES:
            assert rule.id.startswith("REPRO")
            assert rule.name
            assert rule.description
            assert rule.node_types

    def test_rule_ids_are_unique(self):
        ids = [rule.id for rule in RULES]
        assert all(a < b for a, b in zip(ids, ids[1:])), ids


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
class TestGoldenFixtures:
    def test_rule_fires_on_bad_fixture(self, rule_id):
        slug, module, expected = RULE_FIXTURES[rule_id]
        result = lint_fixture(slug, "bad", module)
        fired = [f for f in result.findings if f.rule == rule_id]
        assert len(fired) == expected, [f.to_dict() for f in result.findings]
        for finding in fired:
            assert finding.line > 0
            assert finding.snippet
            assert finding.message

    def test_rule_quiet_on_clean_fixture(self, rule_id):
        slug, module, _expected = RULE_FIXTURES[rule_id]
        result = lint_fixture(slug, "clean", module)
        fired = [f for f in result.findings if f.rule == rule_id]
        assert fired == []

    def test_bad_fixture_has_no_other_noise(self, rule_id):
        """Fixtures are surgical: only their own rule fires."""
        slug, module, _expected = RULE_FIXTURES[rule_id]
        result = lint_fixture(slug, "bad", module)
        assert {f.rule for f in result.findings} == {rule_id}


class TestScoping:
    def test_deterministic_rules_skip_out_of_scope_modules(self):
        source = (FIXTURES / "unseeded_random_bad.py").read_text()
        result = lint_source(source, module="repro.analysis.fake")
        assert [f for f in result.findings if f.rule == "REPRO101"] == []

    def test_deterministic_scope_covers_every_core_package(self):
        source = "import random\nx = random.random()\n"
        for package in DETERMINISTIC_PACKAGES:
            result = lint_source(source, module=package + ".mod")
            assert any(f.rule == "REPRO101" for f in result.findings), package

    def test_test_modules_are_out_of_float_equality_scope(self):
        source = "def check(x):\n    return x == 0.5\n"
        result = lint_source(source, module="test_something")
        assert result.findings == []


class TestRulePrecision:
    """Targeted non-fixture cases that pin each rule's boundaries."""

    def test_seeded_default_rng_is_allowed_in_scope(self):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        result = lint_source(source, module="repro.network.fake")
        assert [f for f in result.findings if f.rule == "REPRO101"] == []
        # A seeded private stream still bypasses the registry (REPRO107).
        assert [f.rule for f in result.findings] == ["REPRO107"]

    def test_registry_module_may_build_generators(self):
        source = (
            "import numpy as np\n"
            "def stream(seq):\n"
            "    return np.random.Generator(np.random.PCG64(seq))\n"
        )
        result = lint_source(source, module="repro.simulation.random")
        assert result.findings == []
        result = lint_source(source, module="repro.simulation.fake")
        assert [f.rule for f in result.findings] == ["REPRO107", "REPRO107"]

    def test_raw_generator_scope_is_the_simulated_layers(self):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        for module in ("repro.testbed.collection", "repro.models.training", "repro.chaos.fake"):
            result = lint_source(source, module=module)
            assert result.findings == [], module
        for module in (
            "repro.simulation.fake",
            "repro.network.fake",
            "repro.kafka.fake",
            "repro.workloads.fake",
        ):
            result = lint_source(source, module=module)
            assert [f.rule for f in result.findings] == ["REPRO107"], module

    def test_unseeded_default_rng_is_reported_once(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        result = lint_source(source, module="repro.network.fake")
        assert [f.rule for f in result.findings] == ["REPRO101"]

    def test_other_generator_classes_do_not_fire(self):
        source = (
            "import typing\n"
            "from .codegen import Generator\n"
            "def build(factory):\n"
            "    return factory.Generator(), Generator(), typing.Generator\n"
        )
        result = lint_source(source, module="repro.kafka.fake")
        assert result.findings == []

    def test_generator_annotations_do_not_fire(self):
        source = (
            "import numpy as np\n"
            "def sample(rng: np.random.Generator) -> float:\n"
            "    return float(rng.uniform())\n"
        )
        result = lint_source(source, module="repro.network.fake")
        assert result.findings == []

    def test_sorted_wrapping_spans_generator_expressions(self):
        source = (
            "def names(root):\n"
            "    return sorted(p.name for p in root.iterdir())\n"
        )
        result = lint_source(source, module="repro.models.fake")
        assert result.findings == []

    def test_sorted_elsewhere_does_not_launder_iteration(self):
        source = (
            "def bad(items):\n"
            "    ordered = sorted(items)\n"
            "    return [x for x in set(items)]\n"
        )
        result = lint_source(source, module="repro.models.fake")
        assert [f.rule for f in result.findings] == ["REPRO103"]

    def test_json_dump_with_kwargs_passthrough_is_not_flagged(self):
        source = (
            "import json\n"
            "def dump(payload, **kw):\n"
            "    return json.dumps(payload, **kw)\n"
        )
        result = lint_source(source, module="repro.chaos.fake")
        assert result.findings == []

    def test_float_zero_sentinel_is_allowed(self):
        source = "def f(x):\n    return x == 0.0\n"
        result = lint_source(source, module="repro.kpi.fake")
        assert result.findings == []

    def test_parse_error_becomes_a_finding(self):
        result = lint_source("def broken(:\n", path="broken.py")
        assert [f.rule for f in result.findings] == ["REPRO000"]
