"""Incremental flow cache: per-file summaries keyed on SHA-256.

The whole-program passes are rebuilt every run (they are cheap: dict
walks over summaries), but per-file extraction — five AST walks per
file — is the dominant cost, so summaries persist to
``<root>/.lint_cache/flow.json`` keyed on each file's content hash.  A
warm run re-extracts only files whose bytes changed; everything else is
loaded as plain JSON.  Invalidation is exact: the key is the file's own
SHA-256, and a ``SUMMARY_VERSION`` bump (schema change in the extractor)
discards the whole cache.

Writes are atomic (tmp + rename) so concurrent lint runs can race on the
cache without corrupting it — the loser's write simply wins whole-file.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any

from repro.lint.flow.summary import SUMMARY_VERSION, FileSummary

__all__ = ["FlowCache", "CACHE_DIR", "CACHE_NAME"]

CACHE_DIR = ".lint_cache"
CACHE_NAME = "flow.json"


class FlowCache:
    """Load/store the per-file summary cache under the repo root."""

    def __init__(self, root: pathlib.Path | str,
                 path: pathlib.Path | None = None) -> None:
        self.path = path if path is not None else (
            pathlib.Path(root) / CACHE_DIR / CACHE_NAME)
        self._entries: dict[str, dict[str, Any]] = {}
        if self.path.is_file():
            try:
                doc = json.loads(self.path.read_text())
            except (json.JSONDecodeError, OSError):
                doc = {}
            if doc.get("version") == SUMMARY_VERSION:
                self._entries = doc.get("files", {})

    def get(self, rel: str, sha: str) -> FileSummary | None:
        entry = self._entries.get(rel)
        if entry is None or entry.get("sha") != sha:
            return None
        try:
            return FileSummary.from_dict(entry["summary"])
        except (KeyError, TypeError):
            return None

    def store(self, summaries: dict[str, FileSummary]) -> None:
        """Replace the cache with the current project's summaries."""
        doc = {
            "version": SUMMARY_VERSION,
            "files": {
                rel: {"sha": s.sha, "summary": s.to_dict()}
                for rel, s in sorted(summaries.items())
            },
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(doc, sort_keys=True))
            tmp.replace(self.path)
        except OSError:
            pass  # a read-only checkout just runs cold every time
