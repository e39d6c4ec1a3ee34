"""Committed lint baseline: the ``--check`` gate's grandfather list.

``LINT_BASELINE.json`` records the violation keys present when the gate
was last (re-)recorded; ``repro lint --check`` fails only on violations
*not* in the baseline, so a new rule can land before every legacy finding
is fixed — mirroring how ``repro bench --check`` gates fingerprint drift
against its recorded trajectories.  The repo's baseline is kept empty:
every finding the rule families raised has been fixed or given a
reviewed inline suppression.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable

from repro.lint.core import Violation

__all__ = ["BASELINE_NAME", "Baseline"]

BASELINE_NAME = "LINT_BASELINE.json"


class Baseline:
    """Load/diff/write the committed baseline file."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        self.entries: list[dict] = []
        if path.is_file():
            doc = json.loads(path.read_text())
            self.entries = doc.get("entries", [])

    @classmethod
    def at_root(cls, root: pathlib.Path | str) -> "Baseline":
        return cls(pathlib.Path(root) / BASELINE_NAME)

    @property
    def exists(self) -> bool:
        return self.path.is_file()

    def known_keys(self) -> set[str]:
        return {e["key"] for e in self.entries}

    def diff(self, violations: Iterable[Violation]) -> tuple[list[Violation],
                                                             list[dict]]:
        """(new violations, stale baseline entries)."""
        violations = list(violations)
        known = self.known_keys()
        current = {v.key() for v in violations}
        new = [v for v in violations if v.key() not in known]
        stale = [e for e in self.entries if e["key"] not in current]
        return new, stale

    def write(self, violations: Iterable[Violation]) -> pathlib.Path:
        doc = {
            "version": 1,
            "comment": ("simlint grandfathered findings; re-record with "
                        "`repro lint --update-baseline` (prefer fixing or "
                        "inline-suppressing instead of baselining)"),
            "entries": [
                {"key": v.key(), "rule": v.rule, "path": v.path,
                 "message": v.message}
                for v in sorted(violations,
                                key=lambda v: (v.path, v.line, v.rule))
            ],
        }
        self.path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        self.entries = doc["entries"]
        return self.path
