"""simlint engine: suppressions, rule selection, baseline, reporters."""

import json
import pathlib
import textwrap

import pytest

from repro.lint.baseline import BASELINE_NAME, Baseline
from repro.lint.core import (
    LintProject,
    SourceFile,
    Violation,
    all_rules,
    get_rule,
    lint_source,
    select_rules,
)
from repro.lint.reporters import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_rule_catalog,
    render_text,
)


def _src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


WALL = _src("""
    import time

    def f():
        return time.time()
""")


class TestSuppressions:
    def test_line_suppression_silences_the_rule(self):
        rule = get_rule("DET001")
        assert lint_source(WALL, rule)  # fires unsuppressed
        suppressed = WALL.replace(
            "return time.time()",
            "return time.time()  # simlint: disable=DET001")
        assert lint_source(suppressed, rule) == []

    def test_line_suppression_is_rule_specific(self):
        suppressed = WALL.replace(
            "return time.time()",
            "return time.time()  # simlint: disable=DET002")
        assert lint_source(suppressed, get_rule("DET001"))

    def test_file_suppression(self):
        text = "# simlint: disable-file=DET001\n" + WALL
        assert lint_source(text, get_rule("DET001")) == []

    def test_multiple_rules_one_directive(self):
        sf = SourceFile(pathlib.Path("x.py"), "x.py",
                        "x = 1  # simlint: disable=DET001, UNIT001\n")
        assert sf.suppressed("DET001", 1)
        assert sf.suppressed("UNIT001", 1)
        assert not sf.suppressed("DET002", 1)

    def test_unit_declaration_parsed(self):
        sf = SourceFile(pathlib.Path("x.py"), "x.py",
                        "comm: float = 0.0  # simlint: unit=s\n")
        assert sf.unit_decls == {1: "s"}


class TestRuleRegistry:
    def test_all_families_registered(self):
        ids = {r.id for r in all_rules()}
        for family in ("DET001", "DET002", "DET003", "UNIT001", "UNIT002",
                       "UNIT003", "REG001", "REG002", "REG003", "REG004",
                       "UNIT101", "UNIT102", "UNIT103", "SUP001"):
            assert family in ids

    def test_select_by_prefix(self):
        ids = {r.id for r in select_rules("DET")}
        assert ids == {"DET001", "DET002", "DET003"}

    def test_select_local_det_only(self):
        ids = {r.id for r in select_rules("DET001,DET002,DET003")}
        assert ids == {"DET001", "DET002", "DET003"}

    def test_select_mixed_spec(self):
        ids = {r.id for r in select_rules("UNIT001,OBS")}
        assert ids == {"UNIT001", "OBS001", "OBS002"}

    def test_select_none_selects_all(self):
        assert select_rules(None) == all_rules()

    def test_unknown_selector_raises(self):
        with pytest.raises(KeyError):
            select_rules("NOPE")

    def test_rules_scoped_outside_include_do_not_fire(self):
        # DET rules only run on src/repro; a tests/ file is out of scope
        assert lint_source(WALL, get_rule("DET001"), rel="tests/x.py") == []


class TestViolationKey:
    def test_key_stable_across_line_moves(self):
        a = Violation("DET001", "error", "a.py", 3, 0, "m", snippet="x = t()")
        b = Violation("DET001", "error", "a.py", 99, 4, "m", snippet="x = t()")
        assert a.key() == b.key()

    def test_key_changes_with_snippet(self):
        a = Violation("DET001", "error", "a.py", 3, 0, "m", snippet="x = t()")
        b = Violation("DET001", "error", "a.py", 3, 0, "m", snippet="y = t()")
        assert a.key() != b.key()


class TestBaseline:
    def _violations(self):
        return [
            Violation("DET001", "error", "a.py", 1, 0, "m1", snippet="s1"),
            Violation("UNIT001", "error", "b.py", 2, 0, "m2", snippet="s2"),
        ]

    def test_write_then_diff_roundtrip(self, tmp_path):
        vs = self._violations()
        base = Baseline(tmp_path / BASELINE_NAME)
        base.write(vs)
        new, stale = Baseline(tmp_path / BASELINE_NAME).diff(vs)
        assert new == [] and stale == []

    def test_new_violation_detected(self, tmp_path):
        vs = self._violations()
        base = Baseline(tmp_path / BASELINE_NAME)
        base.write(vs[:1])
        new, stale = base.diff(vs)
        assert [v.rule for v in new] == ["UNIT001"]
        assert stale == []

    def test_stale_entry_detected(self, tmp_path):
        vs = self._violations()
        base = Baseline(tmp_path / BASELINE_NAME)
        base.write(vs)
        new, stale = base.diff(vs[:1])
        assert new == []
        assert [e["rule"] for e in stale] == ["UNIT001"]

    def test_missing_baseline_means_everything_new(self, tmp_path):
        base = Baseline(tmp_path / BASELINE_NAME)
        new, stale = base.diff(self._violations())
        assert len(new) == 2 and stale == []


class TestReporters:
    def test_text_clean(self):
        assert "clean" in render_text([])

    def test_text_tags_new_vs_baselined(self):
        vs = [Violation("DET001", "error", "a.py", 1, 0, "m", snippet="s1"),
              Violation("DET002", "error", "a.py", 2, 0, "m", snippet="s2")]
        out = render_text(vs, new_keys={vs[0].key()})
        assert "[NEW]" in out and "[baselined]" in out

    def test_json_schema(self):
        vs = [Violation("DET001", "error", "a.py", 3, 4, "msg", snippet="s")]
        doc = json.loads(render_json(vs, new_keys=set()))
        assert doc["version"] == JSON_SCHEMA_VERSION
        assert doc["summary"]["total"] == 1
        assert doc["summary"]["by_rule"] == {"DET001": 1}
        assert doc["summary"]["by_severity"] == {"error": 1}
        (v,) = doc["violations"]
        assert set(v) == {"rule", "severity", "path", "line", "end_line",
                          "col", "message", "key", "new"}
        assert v["new"] is False

    def test_json_without_baseline_omits_new_flag(self):
        vs = [Violation("DET001", "error", "a.py", 3, 4, "msg", snippet="s")]
        (v,) = json.loads(render_json(vs))["violations"]
        assert "new" not in v

    def test_rule_catalog_lists_every_rule(self):
        out = render_rule_catalog()
        for rule in all_rules():
            assert rule.id in out


class TestProjectParsing:
    def test_unparseable_file_reports_lint000(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("def broken(:\n")
        project = LintProject(tmp_path)
        assert [v.rule for v in project.errors] == ["LINT000"]
