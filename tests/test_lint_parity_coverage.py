"""PAR1xx rules: auto-discovered parity coverage.

The acceptance scenario lives here: adding a new fast-path mirror to a
throwaway copy of the parity surface — without registering a PairSpec —
must fail the coverage gate (PAR101 when a scalar twin exists, PAR102
when nothing watches the new function at all).
"""

import pathlib
import shutil

from repro.lint.core import LintProject, get_rule
from repro.lint.flow.coverage import (
    PARITY_IGNORE,
    SCALAR_FILES,
    VECTOR_FILES,
    covered_functions,
    discover,
    mirror_key,
)
from repro.lint.parity import _function_index

REPO = pathlib.Path(__file__).resolve().parents[1]


def _copy_surface(tmp_path: pathlib.Path) -> pathlib.Path:
    for rel in sorted(set(VECTOR_FILES) | set(SCALAR_FILES)):
        dst = tmp_path / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO / rel, dst)
    return tmp_path


def _append(root: pathlib.Path, rel: str, src: str) -> None:
    path = root / rel
    path.write_text(path.read_text() + src)


def _run(root: pathlib.Path, rule_id: str):
    project = LintProject(root)
    return list(get_rule(rule_id).run(project))


class TestMirrorKey:
    def test_strips_underscores_and_suffixes(self):
        assert mirror_key("_kernel_time") == "kernel"
        assert mirror_key("kernel_time") == "kernel"
        assert mirror_key("VectorizedStepModel._gemm_eff") == "gemm"
        assert mirror_key("gemm_efficiency") == "gemm"
        assert mirror_key("step_totals") == "step"
        assert mirror_key("embedding_cost") == "embedding"

    def test_never_drops_the_last_token(self):
        assert mirror_key("_total") == "total"
        assert mirror_key("cost") == "cost"


class TestCurrentCoverage:
    def test_repo_surface_is_fully_covered(self):
        project = LintProject(REPO)
        entries = discover(project)
        assert entries, "fast-path surface not found"
        bad = [e for e in entries
               if e["status"] in ("unregistered", "unwatched")]
        assert bad == []

    def test_ignore_entries_point_at_real_functions(self):
        # an allowlist entry for a renamed/deleted helper is dead weight
        project = LintProject(REPO)
        for (path, qualname), reason in PARITY_IGNORE.items():
            sf = project.file(path)
            assert sf is not None, path
            assert qualname in _function_index(sf.tree), (path, qualname)
            assert reason

    def test_ignore_and_covered_do_not_overlap(self):
        covered = covered_functions()
        assert not set(PARITY_IGNORE) & covered

    def test_par_rules_clean_on_repo(self):
        for rid in ("PAR101", "PAR102"):
            assert _run(REPO, rid) == []


class TestUnregisteredMirror:
    def test_new_vectorized_mirror_without_pairspec_fails(self, tmp_path):
        root = _copy_surface(tmp_path)
        # scalar flops.py has embedding_cost -> mirror key "embedding"
        _append(root, "src/repro/serving/fastpath.py", (
            "\n\ndef _embedding_time(model, hw):\n"
            "    return 2.0 * model.d_model\n"))
        vs = _run(root, "PAR101")
        assert [v.rule for v in vs] == ["PAR101"]
        assert "_embedding_time" in vs[0].message
        assert "embedding_cost" in vs[0].message
        assert vs[0].path == "src/repro/serving/fastpath.py"

    def test_registered_surface_stays_clean(self, tmp_path):
        root = _copy_surface(tmp_path)
        assert _run(root, "PAR101") == []


class TestUnwatchedVector:
    def test_new_function_with_no_twin_fails(self, tmp_path):
        root = _copy_surface(tmp_path)
        _append(root, "src/repro/serving/fastpath.py", (
            "\n\ndef _novel_reorder(batch):\n"
            "    return sorted(batch)\n"))
        vs = _run(root, "PAR102")
        assert [v.rule for v in vs] == ["PAR102"]
        assert "_novel_reorder" in vs[0].message

    def test_dunders_are_exempt(self, tmp_path):
        root = _copy_surface(tmp_path)
        entries = discover(LintProject(root))
        assert not any(e["qualname"].endswith("__init__") for e in entries)
