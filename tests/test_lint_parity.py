"""PAR0xx rules: scalar engine <-> decode-window replay parity.

The acceptance scenario lives here: a deliberate one-sided edit to the
decode window's replay of the scalar iteration (on a throwaway copy of
the repo's parity surface) must fail PAR001 against the committed
LINT_PARITY.json.
"""

import ast
import pathlib
import shutil
import textwrap

from repro.lint.core import LintProject, get_rule
from repro.lint.parity import (
    MANIFEST_NAME,
    PAIRS,
    current_fingerprints,
    function_fingerprint,
    literal_multiset,
    load_manifest,
    update_manifest,
)

REPO = pathlib.Path(__file__).resolve().parents[1]

#: every file the PAIRS table references (parity surface of the repo)
PARITY_FILES = sorted({spec.scalar[0] for spec in PAIRS}
                      | {spec.vector[0] for spec in PAIRS})

#: unique anchors used to fake a coefficient edit on each side of the
#: engine_decode_durations pair (the decode context floor)
VECTOR_ANCHOR = "contexts = [max(1, int((kv_sum + j * batch) / batch))"
SCALAR_ANCHOR = "ctx = max(1, int(mean_ctx))"
_VECTOR_FILE = "src/repro/serving/fastpath.py"
_SCALAR_FILE = "src/repro/serving/engine.py"


def _fn(src: str) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(src)).body[0]


def _copy_parity_surface(tmp_path: pathlib.Path,
                         with_manifest: bool = True) -> pathlib.Path:
    for rel in PARITY_FILES:
        dst = tmp_path / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO / rel, dst)
    if with_manifest:
        shutil.copy(REPO / MANIFEST_NAME, tmp_path / MANIFEST_NAME)
    return tmp_path


def _edit(root: pathlib.Path, rel: str, old: str, new: str) -> None:
    path = root / rel
    text = path.read_text()
    assert text.count(old) == 1, f"anchor not unique in {rel}: {old!r}"
    path.write_text(text.replace(old, new))


def _par001(root: pathlib.Path):
    project = LintProject(root)
    return list(get_rule("PAR001").run(project))


class TestFingerprint:
    def test_insensitive_to_docstring_and_position(self):
        a = _fn("""
            def f(x):
                return 2.0 * x
        """)
        b = _fn("""


            def f(x):
                "moved down, grew a docstring"
                return 2.0 * x
        """)
        assert function_fingerprint(a) == function_fingerprint(b)

    def test_sensitive_to_coefficient(self):
        a = _fn("def f(x):\n    return 2.0 * x\n")
        b = _fn("def f(x):\n    return 3.0 * x\n")
        assert function_fingerprint(a) != function_fingerprint(b)

    def test_sensitive_to_operand_order(self):
        a = _fn("def f(x, y):\n    return x / y\n")
        b = _fn("def f(x, y):\n    return y / x\n")
        assert function_fingerprint(a) != function_fingerprint(b)

    def test_literal_multiset_skips_docstring_and_bools(self):
        fn = _fn("""
            def f(x):
                "has 99 in the docstring"
                flag = True
                return 2 * x + 0.5
        """)
        assert literal_multiset(fn) == {2.0: 1, 0.5: 1}


class TestRepoManifest:
    def test_committed_manifest_matches_the_code(self):
        manifest = load_manifest(REPO)
        assert manifest is not None, "LINT_PARITY.json missing — run " \
                                     "`repro lint --update-parity`"
        assert manifest["pairs"] == current_fingerprints(LintProject(REPO))

    def test_every_pair_function_exists(self):
        project = LintProject(REPO)
        for pair in current_fingerprints(project).values():
            assert pair["scalar"]["sha"] is not None
            assert pair["vector"]["sha"] is not None


class TestSnapshotParity:
    def test_clean_copy_passes(self, tmp_path):
        root = _copy_parity_surface(tmp_path)
        assert _par001(root) == []

    def test_one_sided_vectorized_edit_fails(self, tmp_path):
        root = _copy_parity_surface(tmp_path)
        _edit(root, _VECTOR_FILE,
              VECTOR_ANCHOR, VECTOR_ANCHOR.replace("max(1,", "max(2,"))
        vs = _par001(root)
        assert [v.snippet for v in vs] == ["engine_decode_durations:vector:one-sided"]
        assert "one-sided fast-path edit" in vs[0].message
        assert "--update-parity" in vs[0].message

    def test_one_sided_scalar_edit_fails(self, tmp_path):
        root = _copy_parity_surface(tmp_path)
        _edit(root, _SCALAR_FILE,
              SCALAR_ANCHOR, SCALAR_ANCHOR.replace("max(1,", "max(2,"))
        vs = _par001(root)
        assert [v.snippet for v in vs] == ["engine_decode_durations:scalar:one-sided"]

    def test_paired_edit_reported_for_rerecord(self, tmp_path):
        root = _copy_parity_surface(tmp_path)
        _edit(root, _VECTOR_FILE,
              VECTOR_ANCHOR, VECTOR_ANCHOR.replace("max(1,", "max(2,"))
        _edit(root, _SCALAR_FILE,
              SCALAR_ANCHOR, SCALAR_ANCHOR.replace("max(1,", "max(2,"))
        vs = _par001(root)
        assert [v.snippet for v in vs] == ["engine_decode_durations:paired"]

    def test_update_parity_clears_the_drift(self, tmp_path):
        root = _copy_parity_surface(tmp_path)
        _edit(root, _VECTOR_FILE,
              VECTOR_ANCHOR, VECTOR_ANCHOR.replace("max(1,", "max(2,"))
        _edit(root, _SCALAR_FILE,
              SCALAR_ANCHOR, SCALAR_ANCHOR.replace("max(1,", "max(2,"))
        update_manifest(root)
        assert _par001(root) == []

    def test_missing_manifest_is_an_error(self, tmp_path):
        root = _copy_parity_surface(tmp_path, with_manifest=False)
        vs = _par001(root)
        assert len(vs) == 1
        assert "manifest missing" in vs[0].message


class TestLiteralMirror:
    def _mini_pair(self, tmp_path, scalar_coeff: str, vector_coeff: str):
        engine = tmp_path / _SCALAR_FILE
        engine.parent.mkdir(parents=True, exist_ok=True)
        engine.write_text(textwrap.dedent(f"""
            class ServingEngine:
                def _iteration_cost(self, x):
                    return {scalar_coeff} * x
        """))
        (tmp_path / _VECTOR_FILE).write_text(
            textwrap.dedent(f"""
            class EngineFastPath:
                def _window_durations(self, x):
                    return {vector_coeff} * x
        """))
        project = LintProject(tmp_path)
        return [v for v in get_rule("PAR002").run(project)
                if v.snippet.startswith("engine_decode_durations:")]

    def test_one_sided_coefficient_caught(self, tmp_path):
        vs = self._mini_pair(tmp_path, "2.0", "3.0")
        assert len(vs) == 1
        assert "[3]" in vs[0].message

    def test_mirrored_coefficient_clean(self, tmp_path):
        assert self._mini_pair(tmp_path, "2.0", "2.0") == []

    def test_repeated_constant_across_branches_allowed(self, tmp_path):
        # fast-path code legitimately repeats a constant across
        # branches; only *distinct* fast-path values must mirror
        assert self._mini_pair(tmp_path, "2.0", "2.0 + x * 2.0 - 2.0") == []

    def test_repo_is_literal_clean(self):
        assert list(get_rule("PAR002").run(LintProject(REPO))) == []
