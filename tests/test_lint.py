"""Tests for the ``repro.lint`` static-analysis pass.

Every rule gets one positive fixture (minimal source that must trigger
it) and one negative fixture (the compliant spelling that must not), so
a rule regression shows up as a named test, not as CI noise.  On top of
the fixtures: the suppression round-trip (valid, reasonless, standalone
comments), the baseline round-trip, the JSON schema, the CLI surface,
and the pinned self-lint — ``repro-le lint src`` must exit 0.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.lint import (
    BaseRule,
    ENGINE_RULE,
    JSON_REPORT_VERSION,
    RULES,
    lint_paths,
    lint_source,
    load_baseline,
    register_rule,
    render_json,
    render_text,
    rule_table,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def rule_ids(findings):
    return [finding.rule for finding in findings]


def counting(findings):
    return [finding for finding in findings if finding.counts]


# --------------------------------------------------------------------------- #
# rule fixtures: one positive + one negative per rule
# --------------------------------------------------------------------------- #


class TestUnseededRng:
    def test_global_draw_flagged(self):
        findings = lint_source(
            "import random\nvalue = random.random()\n", rules=["REP101"]
        )
        assert rule_ids(findings) == ["REP101"]
        assert "process-global RNG" in findings[0].message

    def test_from_import_alias_flagged(self):
        findings = lint_source(
            "from random import shuffle as mix\nmix(items)\n", rules=["REP101"]
        )
        assert rule_ids(findings) == ["REP101"]

    def test_seedless_random_instance_flagged(self):
        findings = lint_source(
            "import random\nrng = random.Random()\n", rules=["REP101"]
        )
        assert rule_ids(findings) == ["REP101"]

    def test_seeded_stream_clean(self):
        findings = lint_source(
            "import random\n"
            "from repro.core.rng import derive_seed\n"
            "rng = random.Random(derive_seed(7, 'node', 3))\n"
            "value = rng.random()\n",
            rules=["REP101"],
        )
        assert findings == []


class TestWallClock:
    def test_time_time_flagged(self):
        findings = lint_source("import time\nnow = time.time()\n", rules=["REP102"])
        assert rule_ids(findings) == ["REP102"]

    def test_perf_counter_alias_flagged(self):
        findings = lint_source(
            "from time import perf_counter as pc\nstart = pc()\n", rules=["REP102"]
        )
        assert rule_ids(findings) == ["REP102"]

    def test_datetime_now_flagged(self):
        findings = lint_source(
            "import datetime\nstamp = datetime.datetime.now()\n", rules=["REP102"]
        )
        assert rule_ids(findings) == ["REP102"]

    def test_monotonic_clean(self):
        # Monotonic deadline arithmetic never appears in results; the rule
        # deliberately leaves it alone.
        findings = lint_source(
            "import time\ndeadline = time.monotonic() + 5.0\n", rules=["REP102"]
        )
        assert findings == []

    def test_obs_layer_is_the_allowlist(self):
        findings = lint_source(
            "import time\nstart = time.perf_counter()\n",
            path="src/repro/obs/spans.py",
            rules=["REP102"],
        )
        assert findings == []


class TestUnorderedIteration:
    def test_for_over_set_literal_flagged(self):
        findings = lint_source(
            "for item in {1, 2, 3}:\n    print(item)\n", rules=["REP103"]
        )
        assert rule_ids(findings) == ["REP103"]

    def test_for_over_tracked_set_name_flagged(self):
        findings = lint_source(
            "pending = set(tasks)\nfor task in pending:\n    handle(task)\n",
            rules=["REP103"],
        )
        assert rule_ids(findings) == ["REP103"]

    def test_list_over_set_flagged(self):
        findings = lint_source("order = list({3, 1, 2})\n", rules=["REP103"])
        assert rule_ids(findings) == ["REP103"]

    def test_sorted_iteration_clean(self):
        findings = lint_source(
            "pending = set(tasks)\n"
            "for task in sorted(pending):\n"
            "    handle(task)\n"
            "count = len(pending)\n",
            rules=["REP103"],
        )
        assert findings == []


class TestPickleSafety:
    def test_lambda_registry_entry_flagged(self):
        findings = lint_source(
            "PROTOCOLS = {}\nPROTOCOLS['quick'] = lambda spec: spec\n", rules=["REP104"]
        )
        assert rule_ids(findings) == ["REP104"]
        assert "spawn" in findings[0].message

    def test_lambda_pool_initializer_flagged(self):
        findings = lint_source(
            "pool = Pool(4, initializer=lambda: setup())\n", rules=["REP104"]
        )
        assert rule_ids(findings) == ["REP104"]

    def test_nested_function_registration_flagged(self):
        findings = lint_source(
            "def install():\n"
            "    def runner(spec):\n"
            "        return spec\n"
            "    register_protocol('nested', runner)\n",
            rules=["REP104"],
        )
        assert rule_ids(findings) == ["REP104"]

    def test_module_level_function_clean(self):
        findings = lint_source(
            "def runner(spec):\n"
            "    return spec\n"
            "PROTOCOLS = {'quick': runner}\n"
            "register_protocol('quick', runner)\n",
            rules=["REP104"],
        )
        assert findings == []


class TestContractConformance:
    def test_wrong_emit_arity_flagged(self):
        findings = lint_source(
            "class Sink(ResultSink):\n"
            "    def emit(self, result):\n"
            "        self.results.append(result)\n",
            rules=["REP105"],
        )
        assert rule_ids(findings) == ["REP105"]
        assert "takes 2 positional" in findings[0].message

    def test_protocol_node_missing_step_flagged(self):
        findings = lint_source(
            "class Node(ProtocolNode):\n"
            "    def result(self):\n"
            "        return None\n",
            rules=["REP105"],
        )
        assert rule_ids(findings) == ["REP105"]
        assert "does not define step()" in findings[0].message

    def test_quiescent_without_step_flagged(self):
        findings = lint_source(
            "class Node(ProtocolNode):\n"
            "    def step(self, round_index, inbox):\n"
            "        return []\n"
            "\n"
            "class Lazy(Node):\n"
            "    pass\n"
            "\n"
            "class Quiet(ProtocolNode):\n"
            "    def step(self, round_index, inbox):\n"
            "        return []\n"
            "    def quiescent_until(self, round_index):\n"
            "        return round_index + 1\n",
            rules=["REP105"],
        )
        # Node/Quiet conform; Lazy doesn't subclass the contract directly.
        assert findings == []
        findings = lint_source(
            "class Quiet(ProtocolNode):\n"
            "    def quiescent_until(self, round_index):\n"
            "        return round_index + 1\n",
            rules=["REP105"],
        )
        messages = " ".join(finding.message for finding in findings)
        assert "without overriding step()" in messages

    def test_conformant_sink_clean(self):
        findings = lint_source(
            "class Sink(ResultSink):\n"
            "    def emit(self, spec_name, topology_index, seed_index, result,\n"
            "             wall_clock_seconds):\n"
            "        pass\n"
            "    def close(self):\n"
            "        pass\n",
            rules=["REP105"],
        )
        assert findings == []

    def test_abstract_intermediate_clean(self):
        findings = lint_source(
            "import abc\n"
            "class Base(ProtocolNode, abc.ABC):\n"
            "    @abc.abstractmethod\n"
            "    def decide(self):\n"
            "        ...\n",
            rules=["REP105"],
        )
        assert findings == []


class TestExactAccumulation:
    def test_float_attribute_sum_flagged(self):
        findings = lint_source(
            "class Cell:\n"
            "    def add(self, result):\n"
            "        self.sum_messages += result.mean_messages\n",
            rules=["REP106"],
        )
        assert rule_ids(findings) == ["REP106"]
        assert "order-independent" in findings[0].message

    def test_sum_over_set_flagged(self):
        findings = lint_source("total = sum({0.5, 1.5, 2.5})\n", rules=["REP106"])
        assert rule_ids(findings) == ["REP106"]

    def test_exact_accumulation_clean(self):
        findings = lint_source(
            "from fractions import Fraction\n"
            "class Cell:\n"
            "    def add(self, result):\n"
            "        self.sum_messages += int(result.messages)\n"
            "        self.sum_rounds += Fraction(result.mean_rounds) * int(result.runs)\n"
            "    def merge(self, other):\n"
            "        self.sum_messages += other.sum_messages\n",
            rules=["REP106"],
        )
        assert findings == []

    def test_column_sums_exact_only_through_the_exact_helpers(self):
        # A cell folds a column at once: through the exact column sums it
        # stays exact; a bare ``sum`` of a float column would not.
        clean = lint_source(
            "class Cell:\n"
            "    def fold(self, messages):\n"
            "        self.sum_messages += _exact_sum(messages)\n"
            "        self.sum_sq_messages += _exact_sum_of_squares(messages)\n",
            rules=["REP106"],
        )
        assert clean == []
        flagged = lint_source(
            "class Cell:\n"
            "    def fold(self, messages):\n"
            "        self.sum_messages += sum(messages)\n",
            rules=["REP106"],
        )
        assert rule_ids(flagged) == ["REP106"]

    def test_wall_clock_attribute_exempt(self):
        # Wall clock is the one legitimately nondeterministic measurement;
        # it is excluded from the equivalence guarantee and from the rule.
        findings = lint_source(
            "class Cell:\n"
            "    def add(self, seconds):\n"
            "        self.sum_wall_clock += seconds\n",
            rules=["REP106"],
        )
        assert findings == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        findings = lint_source(
            "def collect(item, into=[]):\n    into.append(item)\n", rules=["REP107"]
        )
        assert rule_ids(findings) == ["REP107"]

    def test_dict_call_kwonly_default_flagged(self):
        findings = lint_source(
            "def configure(*, options=dict()):\n    return options\n",
            rules=["REP107"],
        )
        assert rule_ids(findings) == ["REP107"]

    def test_none_default_clean(self):
        findings = lint_source(
            "def collect(item, into=None):\n"
            "    into = [] if into is None else into\n"
            "    into.append(item)\n",
            rules=["REP107"],
        )
        assert findings == []


class TestSwallowedException:
    def test_bare_except_flagged(self):
        findings = lint_source(
            "try:\n    run()\nexcept:\n    cleanup()\n", rules=["REP108"]
        )
        assert rule_ids(findings) == ["REP108"]

    def test_broad_silent_handler_flagged(self):
        findings = lint_source(
            "try:\n    run()\nexcept Exception:\n    pass\n", rules=["REP108"]
        )
        assert rule_ids(findings) == ["REP108"]

    def test_narrow_or_recorded_clean(self):
        findings = lint_source(
            "try:\n"
            "    run()\n"
            "except ValueError:\n"
            "    pass\n"
            "try:\n"
            "    run()\n"
            "except Exception as error:\n"
            "    failures.append(error)\n",
            rules=["REP108"],
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------------- #


class TestSuppressions:
    def test_inline_suppression_with_reason(self):
        findings = lint_source(
            "import time\n"
            "now = time.time()  # repro: disable=REP102 — fixture needs epoch time\n",
            rules=["REP102"],
        )
        assert len(findings) == 1
        assert findings[0].suppressed
        assert not findings[0].counts
        assert findings[0].reason == "fixture needs epoch time"

    def test_standalone_comment_covers_next_code_line(self):
        findings = lint_source(
            "import time\n"
            "# repro: disable=REP102 — fixture: the comment stands alone and\n"
            "# continues over a second line before the code it covers\n"
            "now = time.time()\n",
            rules=["REP102"],
        )
        assert len(findings) == 1
        assert findings[0].suppressed

    def test_reasonless_suppression_suppresses_nothing(self):
        findings = lint_source(
            "import time\nnow = time.time()  # repro: disable=REP102\n",
            rules=["REP102"],
        )
        rules = rule_ids(findings)
        assert ENGINE_RULE in rules  # the reasonless suppression is reported
        original = [f for f in findings if f.rule == "REP102"]
        assert original and not original[0].suppressed

    def test_suppression_only_covers_named_rules(self):
        findings = lint_source(
            "import time, random\n"
            "now = time.time()  # repro: disable=REP101 — wrong rule named\n",
            rules=["REP102"],
        )
        assert len(findings) == 1
        assert not findings[0].suppressed

    def test_multi_rule_suppression(self):
        findings = lint_source(
            "import random\n"
            "import time\n"
            "# repro: disable=REP101,REP102 — fixture exercises both rules\n"
            "value = random.random() + time.time()\n",
            rules=["REP101", "REP102"],
        )
        assert len(findings) == 2
        assert all(finding.suppressed for finding in findings)


# --------------------------------------------------------------------------- #
# engine: files, selection, registration, parse failures
# --------------------------------------------------------------------------- #


class TestEngine:
    def test_syntax_error_reported_as_engine_finding(self):
        findings = lint_source("def broken(:\n")
        assert rule_ids(findings) == [ENGINE_RULE]
        assert "does not parse" in findings[0].message

    def test_unknown_rule_selection_rejected(self):
        with pytest.raises(ConfigurationError):
            lint_source("x = 1\n", rules=["REP999"])

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            lint_paths([str(tmp_path / "nowhere")])

    def test_duplicate_rule_id_rejected(self):
        with pytest.raises(ConfigurationError):

            @register_rule
            class Duplicate(BaseRule):
                id = "REP101"
                title = "duplicate"
                rationale = "duplicate"

    def test_rule_without_id_rejected(self):
        with pytest.raises(ConfigurationError):

            @register_rule
            class Nameless(BaseRule):
                title = "nameless"
                rationale = "nameless"

    def test_all_documented_rules_registered(self):
        expected = {f"REP10{index}" for index in range(1, 9)}
        assert expected <= set(RULES)
        rows = rule_table()
        assert {row["rule"] for row in rows} >= expected

    def test_report_counts_files_and_sorts_findings(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nnow = time.time()\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        report = lint_paths([str(tmp_path)])
        assert report.files_checked == 2
        assert report.exit_code == 1
        assert [finding.rule for finding in report.counting] == ["REP102"]


# --------------------------------------------------------------------------- #
# baseline round-trip
# --------------------------------------------------------------------------- #


class TestBaseline:
    def test_round_trip_tolerates_recorded_findings_only(self, tmp_path):
        module = tmp_path / "legacy.py"
        module.write_text("import time\nnow = time.time()\n")
        baseline_file = tmp_path / "baseline.json"

        report = lint_paths([str(module)])
        assert report.exit_code == 1
        written = write_baseline(str(baseline_file), report.findings)
        assert written == 1

        baseline = load_baseline(str(baseline_file))
        report = lint_paths([str(module)], baseline=baseline)
        assert report.exit_code == 0
        assert len(report.baselined) == 1

        # A *new* finding is not covered by the old baseline.
        module.write_text(
            "import time\nnow = time.time()\nimport random\nrandom.seed(0)\n"
        )
        report = lint_paths([str(module)], baseline=baseline)
        assert report.exit_code == 1
        assert [finding.rule for finding in report.counting] == ["REP101"]

    def test_baseline_excludes_suppressed_findings(self, tmp_path):
        module = tmp_path / "suppressed.py"
        module.write_text(
            "import time\n"
            "now = time.time()  # repro: disable=REP102 — fixture\n"
        )
        baseline_file = tmp_path / "baseline.json"
        report = lint_paths([str(module)])
        assert write_baseline(str(baseline_file), report.findings) == 0

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(ConfigurationError):
            load_baseline(str(bad))
        bad.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ConfigurationError):
            load_baseline(str(bad))


# --------------------------------------------------------------------------- #
# report formats
# --------------------------------------------------------------------------- #


class TestReportFormats:
    def test_json_schema(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(
            "import time\n"
            "now = time.time()\n"
            "later = time.time()  # repro: disable=REP102 — fixture\n"
        )
        payload = json.loads(render_json(lint_paths([str(module)])))
        assert payload["version"] == JSON_REPORT_VERSION
        assert payload["files_checked"] == 1
        assert payload["summary"] == {
            "counting": 1,
            "suppressed": 1,
            "baselined": 0,
        }
        for entry in payload["findings"]:
            assert {"rule", "path", "line", "col", "message", "suppressed", "baselined"} <= set(entry)
        suppressed = [entry for entry in payload["findings"] if entry["suppressed"]]
        assert suppressed and suppressed[0]["reason"] == "fixture"

    def test_text_report_lists_locations(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text("import time\nnow = time.time()\n")
        text = render_text(lint_paths([str(module)]))
        assert "module.py:2:" in text
        assert "REP102" in text
        assert "1 finding(s) in 1 file(s)" in text


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #


class TestLintCli:
    def test_exit_one_on_findings(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text("import time\nnow = time.time()\n")
        assert main(["lint", str(module)]) == 1
        assert "REP102" in capsys.readouterr().out

    def test_exit_zero_when_suppressed(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text(
            "import time\nnow = time.time()  # repro: disable=REP102 — fixture\n"
        )
        assert main(["lint", str(module)]) == 0
        assert "1 suppressed" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text("import time\nnow = time.time()\n")
        assert main(["lint", str(module), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["counting"] == 1

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP101", "REP105", "REP108"):
            assert rule_id in out

    def test_baseline_workflow(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text("import time\nnow = time.time()\n")
        baseline = tmp_path / "baseline.json"
        assert (
            main(["lint", str(module), "--baseline", str(baseline), "--write-baseline"])
            == 0
        )
        assert "recorded 1 finding(s)" in capsys.readouterr().out
        assert main(["lint", str(module), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_write_baseline_requires_baseline_path(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text("x = 1\n")
        assert main(["lint", str(module), "--write-baseline"]) == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main(["lint", str(tmp_path / "nowhere")]) == 2


# --------------------------------------------------------------------------- #
# the pinned gate: the repo's own sources stay lint-clean
# --------------------------------------------------------------------------- #


class TestSelfLint:
    def test_src_is_lint_clean(self, capsys):
        assert main(["lint", str(REPO_ROOT / "src")]) == 0

    def test_benchmarks_and_examples_are_lint_clean(self, capsys):
        paths = [
            str(REPO_ROOT / name)
            for name in ("benchmarks", "examples")
            if (REPO_ROOT / name).exists()
        ]
        assert paths, "benchmarks/ and examples/ should exist at the repo root"
        assert main(["lint", *paths]) == 0
