"""Fast-path parity lints (PAR0xx): the engine decode-window replay.

``repro.serving.fastpath.EngineFastPath`` advances runs of quiet decode
iterations in one batched window, and must reproduce the scalar
``ServingEngine.step`` loop operand for operand: the clock, the mean
decode context, the KV block pops and the step totals (the PR-2
fingerprint gate digests ``repr()`` of every float).  That contract is
enforced dynamically by ``tests/test_engine_fastpath.py`` — but only for
the workloads the tests happen to cover.  These rules prove the
*editing* invariant statically: you cannot change one side of a replayed
computation without touching the other.

Two mechanisms per registered pair:

* **snapshot parity** (PAR001) — a normalized AST fingerprint of each
  side is recorded in the committed ``LINT_PARITY.json``; if exactly one
  side's fingerprint drifts, someone edited the scalar engine *or* the
  decode window without its twin.  If both drift, the edit was paired —
  re-record with ``repro lint --update-parity`` (after the fast-path
  tests pass) so the manifest follows the code.
* **literal mirroring** (PAR002) — every distinct numeric literal of the
  fast-path side must appear among the scalar side's literals, after
  inlining the helpers each side delegates to.  A coefficient changed on
  one side only breaks the set immediately, with no recorded state
  needed (multiplicity is deliberately ignored; the snapshot rule owns
  same-value structural drift).

The step cost itself has one implementation
(:class:`repro.perfmodel.phases.StepModel`, point and array inputs
alike), so no step-model pair is registered.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import hashlib
import json
import pathlib
from typing import Iterator

from repro.lint.core import LintProject, ProjectRule, Violation, register_rule

__all__ = ["PAIRS", "PairSpec", "function_fingerprint", "literal_multiset",
           "load_manifest", "update_manifest", "SnapshotParityRule",
           "LiteralMirrorRule", "MANIFEST_NAME"]

MANIFEST_NAME = "LINT_PARITY.json"

_ENGINE = "src/repro/serving/engine.py"
_FASTPATH = "src/repro/serving/fastpath.py"
_SCHED = "src/repro/serving/scheduler.py"
_KV = "src/repro/serving/kv_cache.py"


@dataclasses.dataclass(frozen=True)
class PairSpec:
    """One scalar-engine / fast-path pair.

    ``scalar_inline`` / ``vector_inline`` name helper functions whose
    literals are merged into the respective side before the PAR002
    multiset comparison (the scalar step delegates to the scheduler and
    KV cache; the window to its private ``_``-helpers).
    ``literal_mirror=False`` restricts a pair to snapshot parity when its
    sides legitimately use different constants.
    """

    pair_id: str
    scalar: tuple[str, str]  # (repo-relative path, dotted qualname)
    vector: tuple[str, str]
    scalar_inline: tuple[tuple[str, str], ...] = ()
    vector_inline: tuple[tuple[str, str], ...] = ()
    literal_mirror: bool = True


PAIRS: tuple[PairSpec, ...] = (
    # the batched decode window must track the scalar iteration it
    # replays, operand for operand
    PairSpec(
        "engine_decode_window",
        (_ENGINE, "ServingEngine.step"),
        (_FASTPATH, "EngineFastPath.decode_window"),
        scalar_inline=((_ENGINE, "ServingEngine._admit_arrivals"),
                       (_ENGINE, "ServingEngine._iteration_cost"),
                       (_SCHED, "Scheduler._schedule_decode"),
                       (_KV, "PagedKVCache.try_append_slot"),
                       (_KV, "PagedKVCache.utilization")),
        vector_inline=((_FASTPATH, "EngineFastPath._window_durations"),
                       (_FASTPATH, "EngineFastPath._plan")),
    ),
    PairSpec(
        "engine_decode_durations",
        (_ENGINE, "ServingEngine._iteration_cost"),
        (_FASTPATH, "EngineFastPath._window_durations"),
    ),
)


# --------------------------------------------------------------------- #
# AST utilities
# --------------------------------------------------------------------- #


def _function_index(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Map dotted qualname (``Class.method`` / ``function``) → def node."""
    index: dict[str, ast.FunctionDef] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index[f"{prefix}{child.name}"] = child
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return index


def _body_sans_docstring(fn: ast.FunctionDef) -> list[ast.stmt]:
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def function_fingerprint(fn: ast.FunctionDef) -> str:
    """Normalized structural hash: docstring/decorators out, every
    operand, operator, literal and call in (``ast.dump`` excludes
    line/column attributes, so pure movement does not drift it)."""
    payload = ast.dump(fn.args) + "|" + "|".join(
        ast.dump(stmt) for stmt in _body_sans_docstring(fn))
    return hashlib.sha256(payload.encode()).hexdigest()


def literal_multiset(fn: ast.FunctionDef) -> collections.Counter:
    """Multiset of numeric literals in the function body (docstring
    excluded; bools excluded; ints and floats compare by value, since
    ``2`` and ``2.0`` price identically in float64)."""
    counts: collections.Counter = collections.Counter()
    for stmt in _body_sans_docstring(fn):
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, (int, float))
                    and not isinstance(node.value, bool)):
                counts[float(node.value)] += 1
    return counts


# --------------------------------------------------------------------- #
# manifest
# --------------------------------------------------------------------- #


def _resolve(project: LintProject, side: tuple[str, str]) -> ast.FunctionDef | None:
    path, qualname = side
    sf = project.file(path)
    if sf is None:
        return None
    return _function_index(sf.tree).get(qualname)


def manifest_path(root: pathlib.Path | str) -> pathlib.Path:
    return pathlib.Path(root) / MANIFEST_NAME


def load_manifest(root: pathlib.Path | str) -> dict | None:
    path = manifest_path(root)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def current_fingerprints(project: LintProject) -> dict:
    pairs = {}
    for spec in PAIRS:
        entry = {}
        for side_name, side in (("scalar", spec.scalar), ("vector", spec.vector)):
            fn = _resolve(project, side)
            entry[side_name] = {
                "path": side[0],
                "qualname": side[1],
                "sha": function_fingerprint(fn) if fn is not None else None,
            }
        pairs[spec.pair_id] = entry
    return pairs


def update_manifest(root: pathlib.Path | str,
                    project: LintProject | None = None) -> pathlib.Path:
    """(Re-)record the parity snapshot — run after a *paired* edit, once
    ``tests/test_engine_fastpath.py`` passes."""
    root = pathlib.Path(root)
    if project is None:
        project = LintProject(root)
    payload = {
        "version": 1,
        "comment": ("scalar engine <-> decode-window parity snapshot; "
                    "refresh with `repro lint --update-parity` after a "
                    "paired edit"),
        "pairs": current_fingerprints(project),
    }
    path = manifest_path(root)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------------- #
# rules
# --------------------------------------------------------------------- #


@register_rule
class SnapshotParityRule(ProjectRule):
    id = "PAR001"
    name = "fastpath-snapshot-parity"
    severity = "error"
    description = (
        "the scalar engine iteration and the decode-window replay must "
        "change together (snapshot recorded in LINT_PARITY.json)"
    )

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        manifest = load_manifest(project.root)
        if manifest is None:
            yield Violation(
                rule=self.id, severity=self.severity, path=MANIFEST_NAME,
                line=1, col=0, snippet="",
                message=("parity manifest missing — record it with "
                         "`repro lint --update-parity`"))
            return
        recorded = manifest.get("pairs", {})
        current = current_fingerprints(project)
        for spec in PAIRS:
            cur = current[spec.pair_id]
            for side_name in ("scalar", "vector"):
                side = cur[side_name]
                if side["sha"] is None:
                    yield Violation(
                        rule=self.id, severity=self.severity,
                        path=side["path"], line=1, col=0,
                        snippet=f"{spec.pair_id}:{side_name}:missing",
                        message=(f"parity pair {spec.pair_id!r}: "
                                 f"{side['qualname']} not found — renamed? "
                                 f"update repro.lint.parity.PAIRS and "
                                 f"re-record with --update-parity"))
            rec = recorded.get(spec.pair_id)
            if rec is None:
                yield Violation(
                    rule=self.id, severity=self.severity, path=MANIFEST_NAME,
                    line=1, col=0, snippet=f"{spec.pair_id}:unrecorded",
                    message=(f"pair {spec.pair_id!r} has no recorded "
                             f"snapshot — run `repro lint --update-parity`"))
                continue
            drifted = [s for s in ("scalar", "vector")
                       if cur[s]["sha"] is not None
                       and rec.get(s, {}).get("sha") != cur[s]["sha"]]
            if len(drifted) == 1:
                side = drifted[0]
                other = "vector" if side == "scalar" else "scalar"
                yield Violation(
                    rule=self.id, severity=self.severity,
                    path=cur[side]["path"], line=1, col=0,
                    snippet=f"{spec.pair_id}:{side}:one-sided",
                    message=(
                        f"one-sided fast-path edit: {cur[side]['qualname']} "
                        f"changed but its {other} mirror "
                        f"{cur[other]['qualname']} did not — the decode "
                        f"window must stay operand-for-operand identical "
                        f"to the scalar engine (mirror the edit, run "
                        f"`pytest tests/test_engine_fastpath.py`, then "
                        f"`repro lint --update-parity`)"))
            elif len(drifted) == 2:
                yield Violation(
                    rule=self.id, severity=self.severity,
                    path=cur["scalar"]["path"], line=1, col=0,
                    snippet=f"{spec.pair_id}:paired",
                    message=(
                        f"paired fast-path edit to {spec.pair_id!r} — "
                        f"confirm bit parity (pytest "
                        f"tests/test_engine_fastpath.py && repro bench "
                        f"--check) and re-record the snapshot with "
                        f"`repro lint --update-parity`"))


@register_rule
class LiteralMirrorRule(ProjectRule):
    id = "PAR002"
    name = "fastpath-literal-mirror"
    severity = "error"
    description = (
        "every numeric coefficient on the fast-path side of a pair must "
        "appear in its scalar counterpart (helpers inlined)"
    )

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        for spec in PAIRS:
            if not spec.literal_mirror:
                continue
            scalar_fn = _resolve(project, spec.scalar)
            vector_fn = _resolve(project, spec.vector)
            if scalar_fn is None or vector_fn is None:
                continue  # PAR001 reports the missing side
            scalar_lits = literal_multiset(scalar_fn)
            for side in spec.scalar_inline:
                fn = _resolve(project, side)
                if fn is not None:
                    scalar_lits += literal_multiset(fn)
            vector_lits = literal_multiset(vector_fn)
            for side in spec.vector_inline:
                fn = _resolve(project, side)
                if fn is not None:
                    vector_lits += literal_multiset(fn)
            missing = sorted(set(vector_lits) - set(scalar_lits))
            if missing:
                detail = ", ".join(f"{v:g}" for v in missing)
                yield Violation(
                    rule=self.id, severity=self.severity,
                    path=spec.vector[0],
                    line=vector_fn.lineno, col=vector_fn.col_offset,
                    snippet=f"{spec.pair_id}:literals:{detail}",
                    message=(
                        f"pair {spec.pair_id!r}: fast-path side uses "
                        f"coefficient(s) [{detail}] absent from the scalar "
                        f"side ({spec.scalar[1]} + inlined helpers) — a "
                        f"one-sided coefficient edit breaks bit parity"))
