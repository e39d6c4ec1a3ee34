"""Auto-discovered parity coverage (PAR1xx).

PAR001/PAR002 police the pairs someone *remembered to register* in
``repro.lint.parity.PAIRS``.  The coverage gap is the pair nobody
registered: a new function lands in ``serving.fastpath``, replays part
of the scalar engine iteration immediately, and drifts from its scalar
twin with no fingerprint watching.  These rules close the gap by
*discovering* mirror candidates instead of trusting the manifest:

* every function on the fast-path side (``fastpath.py``) is reduced to a
  **mirror key** — lowercase, leading underscores stripped, bookkeeping
  suffixes (``_time``, ``_totals``, ``_cost``, ``_eff``...) dropped — and
  matched against the scalar surface (``phases`` / ``flops`` /
  ``roofline`` / ``interconnect`` / ``engine`` / ``scheduler`` /
  ``kv_cache``) by key;
* a fast-path function whose key has a scalar twin but no committed
  ``PairSpec`` is a PAR101 error (register the pair or allowlist it);
* a fast-path function with neither twin nor coverage nor allowlist
  entry is a PAR102 error — new fast-path code cannot land unwatched.

``PARITY_IGNORE`` is the explicit, reasoned allowlist for fast-path
helpers that genuinely have no scalar mirror (feature probes).  Dunders
are skipped — construction is not a cost expression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import LintProject, ProjectRule, Violation, register_rule
from repro.lint.parity import PAIRS, _function_index

__all__ = ["PARITY_IGNORE", "VECTOR_FILES", "SCALAR_FILES", "mirror_key",
           "covered_functions", "discover", "UnregisteredMirrorRule",
           "UnwatchedVectorRule"]

VECTOR_FILES = (
    "src/repro/serving/fastpath.py",
)

SCALAR_FILES = (
    "src/repro/perfmodel/phases.py",
    "src/repro/perfmodel/flops.py",
    "src/repro/hardware/roofline.py",
    "src/repro/hardware/interconnect.py",
    "src/repro/serving/engine.py",
    "src/repro/serving/scheduler.py",
    "src/repro/serving/kv_cache.py",
)

#: (path, qualname) -> why this fast-path function has no scalar mirror
PARITY_IGNORE: dict[tuple[str, str], str] = {
    ("src/repro/serving/fastpath.py", "engine_vectorize_enabled"):
        "feature flag probe — no arithmetic to mirror",
}

#: trailing name tokens that are bookkeeping, not identity
_DROP_TOKENS = frozenset({
    "time", "times", "totals", "total", "one", "step", "eff", "efficiency",
    "cost", "costs", "durations", "duration", "breakdown",
})


def mirror_key(qualname: str) -> str:
    """Reduce a function name to its mirror identity: ``kernel_time``,
    ``_kernel_time`` and ``kernel_cost`` all map to ``kernel``."""
    base = qualname.rsplit(".", 1)[-1].lower().lstrip("_")
    tokens = [t for t in base.split("_") if t]
    while len(tokens) > 1 and tokens[-1] in _DROP_TOKENS:
        tokens.pop()
    return "".join(tokens)


def covered_functions() -> set[tuple[str, str]]:
    """Every (path, qualname) a committed PairSpec fingerprints."""
    covered: set[tuple[str, str]] = set()
    for spec in PAIRS:
        covered.add(spec.scalar)
        covered.add(spec.vector)
        covered.update(spec.scalar_inline)
        covered.update(spec.vector_inline)
    return covered


def _is_dunder(qualname: str) -> bool:
    name = qualname.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def _surface(project: LintProject,
             paths: tuple[str, ...]) -> list[tuple[str, str, ast.FunctionDef]]:
    out: list[tuple[str, str, ast.FunctionDef]] = []
    for path in paths:
        sf = project.file(path)
        if sf is None:
            continue
        for qualname, fn in sorted(_function_index(sf.tree).items()):
            out.append((path, qualname, fn))
    return out


def discover(project: LintProject) -> list[dict]:
    """Coverage verdict for every fast-path-side function.

    Each entry: ``{"path", "qualname", "line", "status", "twins"}`` with
    status one of ``covered`` / ``ignored`` / ``unregistered`` (twin
    exists, no PairSpec) / ``unwatched`` (no twin at all).
    """
    covered = covered_functions()
    scalar_by_key: dict[str, list[tuple[str, str]]] = {}
    for path, qualname, _fn in _surface(project, SCALAR_FILES):
        if not _is_dunder(qualname):
            scalar_by_key.setdefault(mirror_key(qualname), []).append(
                (path, qualname))

    out: list[dict] = []
    for path, qualname, fn in _surface(project, VECTOR_FILES):
        if _is_dunder(qualname):
            continue
        entry = {"path": path, "qualname": qualname, "line": fn.lineno,
                 "twins": []}
        if (path, qualname) in covered:
            entry["status"] = "covered"
        elif (path, qualname) in PARITY_IGNORE:
            entry["status"] = "ignored"
        else:
            twins = scalar_by_key.get(mirror_key(qualname), [])
            entry["twins"] = twins
            entry["status"] = "unregistered" if twins else "unwatched"
        out.append(entry)
    return out


@register_rule
class UnregisteredMirrorRule(ProjectRule):
    id = "PAR101"
    name = "unregistered-mirror"
    severity = "error"
    description = (
        "a fast-path function has a scalar twin (matched by mirror "
        "key) but no committed PairSpec — its fingerprint pair is not "
        "being watched by PAR001/PAR002"
    )

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        for entry in discover(project):
            if entry["status"] != "unregistered":
                continue
            sf = project.file(entry["path"])
            twins = ", ".join(q for _p, q in entry["twins"])
            yield Violation(
                rule=self.id, severity=self.severity, path=entry["path"],
                line=entry["line"], col=0,
                snippet=sf.snippet(entry["line"]) if sf else entry["qualname"],
                message=(
                    f"{entry['qualname']} mirrors scalar {twins} (same "
                    f"mirror key) but no PairSpec fingerprints the pair — "
                    f"add it to repro.lint.parity.PAIRS and run "
                    f"`repro lint --update-parity`, or record why it has "
                    f"no mirror in PARITY_IGNORE"))


@register_rule
class UnwatchedVectorRule(ProjectRule):
    id = "PAR102"
    name = "unwatched-vector-function"
    severity = "error"
    description = (
        "a fast-path function has no scalar twin, no PairSpec "
        "coverage, and no PARITY_IGNORE entry — fast-path code cannot "
        "land unwatched"
    )

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        for entry in discover(project):
            if entry["status"] != "unwatched":
                continue
            sf = project.file(entry["path"])
            yield Violation(
                rule=self.id, severity=self.severity, path=entry["path"],
                line=entry["line"], col=0,
                snippet=sf.snippet(entry["line"]) if sf else entry["qualname"],
                message=(
                    f"{entry['qualname']} is new fast-path surface with no "
                    f"scalar twin and no parity coverage — register a "
                    f"PairSpec against its scalar counterpart, or add a "
                    f"reasoned PARITY_IGNORE entry"))
