"""Performance-regression gate: baselines, drift detection, attribution.

The paper is a measurement study — its value is trend *shapes* across 18
figures, so this module makes the reproduction self-watching:

* :class:`BaselineStore` persists fingerprint trajectories, one
  ``BENCH_<figure>.json`` per experiment, each holding an append-only list
  of records (fingerprint + git sha + timestamp).
* :func:`compare_fingerprints` diffs a fresh fingerprint against the
  recorded baseline under per-metric :class:`Tolerance` bands — exact
  (float-tolerance) for sim-deterministic values, percentage bands for
  wall-clock values (opt-in).
* :func:`suspect_modules` names the first commit-visible suspect: files
  changed since the baseline's git sha, intersected with the ``repro``
  modules actually loaded while the experiment ran.

``repro bench --record / --check / --trend`` is the CLI surface.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import pathlib
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.fingerprint import Fingerprint

__all__ = [
    "Tolerance",
    "Drift",
    "BaselineStore",
    "compare_fingerprints",
    "render_drift_report",
    "suspect_modules",
    "first_suspect",
]


# --------------------------------------------------------------------------- #
# tolerance bands
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Tolerance:
    """Per-metric drift bands.

    Sim-derived values are deterministic replays, so the default band is
    float noise only; wall-clock values get a generous percentage band and
    only gate when ``check_wall`` is enabled in the comparison.
    """

    sim_rel: float = 1e-9
    sim_abs: float = 1e-12
    wall_rel: float = 0.5
    overrides: dict[str, float] = field(default_factory=dict)
    """Metric-name substring → relative tolerance, overriding the default
    band for matching sim metrics (e.g. ``{"imbalance": 1e-6}``)."""

    def sim_band(self, metric: str) -> float:
        for fragment, rel in self.overrides.items():
            if fragment in metric:
                return rel
        return self.sim_rel


@dataclass(frozen=True)
class Drift:
    """One detected divergence from the baseline."""

    exp_id: str
    metric: str
    kind: str  # "sim" | "wall" | "digest" | "structure"
    baseline: Any
    current: Any
    suspect: str | None = None

    def describe(self) -> str:
        msg = (f"[{self.exp_id}] {self.kind} drift in {self.metric}: "
               f"baseline {self.baseline!r} -> current {self.current!r}")
        if isinstance(self.baseline, float) and isinstance(self.current, float) \
                and self.baseline:
            msg += f" ({100 * (self.current / self.baseline - 1):+.3f}%)"
        if self.suspect:
            msg += f" — first suspect module: {self.suspect}"
        return msg


def compare_fingerprints(
    baseline: Fingerprint,
    current: Fingerprint,
    tolerance: Tolerance | None = None,
    check_wall: bool = False,
) -> list[Drift]:
    """All drifts of ``current`` against ``baseline`` (empty = clean)."""
    tol = tolerance or Tolerance()
    exp_id = current.exp_id
    drifts: list[Drift] = []

    for name, shape in baseline.structure.items():
        cur_shape = current.structure.get(name)
        if cur_shape is None:
            drifts.append(Drift(exp_id, f"table {name!r}", "structure",
                                shape, "missing"))
        elif cur_shape != shape:
            drifts.append(Drift(exp_id, f"table {name!r} shape", "structure",
                                shape, cur_shape))
    for name in current.structure:
        if name not in baseline.structure:
            drifts.append(Drift(exp_id, f"table {name!r}", "structure",
                                "absent", "new"))

    for metric, base_v in baseline.sim.items():
        cur_v = current.sim.get(metric)
        if cur_v is None:
            drifts.append(Drift(exp_id, metric, "sim", base_v, "missing"))
        elif not math.isclose(cur_v, base_v, rel_tol=tol.sim_band(metric),
                              abs_tol=tol.sim_abs):
            drifts.append(Drift(exp_id, metric, "sim", base_v, cur_v))

    for name, digest in baseline.digests.items():
        cur_d = current.digests.get(name)
        if cur_d is not None and cur_d != digest:
            drifts.append(Drift(exp_id, f"table {name!r} row digest",
                                "digest", digest[:12], cur_d[:12]))

    if check_wall:
        for metric, base_v in baseline.wall.items():
            cur_v = current.wall.get(metric)
            if cur_v is None or base_v <= 0:
                continue
            if abs(cur_v - base_v) / base_v > tol.wall_rel:
                drifts.append(Drift(exp_id, metric, "wall", base_v, cur_v))
    return drifts


# --------------------------------------------------------------------------- #
# baseline store
# --------------------------------------------------------------------------- #


def git_head_sha(repo_root: str | pathlib.Path = ".") -> str | None:
    """Current commit sha, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(repo_root),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class BaselineStore:
    """``BENCH_<figure>.json`` trajectory files under one directory.

    Each file holds ``{"exp_id", "records": [...]}`` where a record is
    ``{"recorded_at", "git_sha", "note", "fingerprint"}``; the *latest*
    record is the gating baseline, the whole list is the perf trajectory
    charted by ``repro bench --trend``.
    """

    def __init__(self, root: str | pathlib.Path = ".") -> None:
        self.root = pathlib.Path(root)

    def path(self, exp_id: str) -> pathlib.Path:
        return self.root / f"BENCH_{exp_id}.json"

    def known_ids(self) -> list[str]:
        return sorted(
            p.stem[len("BENCH_"):] for p in self.root.glob("BENCH_*.json")
        )

    def records(self, exp_id: str) -> list[dict[str, Any]]:
        path = self.path(exp_id)
        if not path.exists():
            return []
        data = json.loads(path.read_text())
        return list(data.get("records", []))

    def latest_fingerprint(self, exp_id: str) -> Fingerprint | None:
        records = self.records(exp_id)
        if not records:
            return None
        return Fingerprint.from_dict(records[-1]["fingerprint"])

    def latest_sha(self, exp_id: str) -> str | None:
        records = self.records(exp_id)
        return records[-1].get("git_sha") if records else None

    def record(self, fingerprint: Fingerprint, note: str = "",
               git_sha: str | None = None,
               recorded_at: str | None = None) -> pathlib.Path:
        """Append one record to the experiment's trajectory file."""
        records = self.records(fingerprint.exp_id)
        records.append({
            "recorded_at": recorded_at or _dt.datetime.now(
                _dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "git_sha": git_sha if git_sha is not None else git_head_sha(self.root),
            "note": note,
            "fingerprint": fingerprint.to_dict(),
        })
        path = self.path(fingerprint.exp_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"exp_id": fingerprint.exp_id, "records": records}, indent=1,
        ) + "\n")
        return path


# --------------------------------------------------------------------------- #
# suspect attribution
# --------------------------------------------------------------------------- #


def changed_files_since(sha: str | None,
                        repo_root: str | pathlib.Path = ".") -> list[str]:
    """Repo-relative paths changed (committed or not) since ``sha``."""
    if not sha:
        return []
    try:
        out = subprocess.run(
            ["git", "diff", "--name-only", sha], cwd=str(repo_root),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return []
    if out.returncode != 0:
        return []
    return [line for line in out.stdout.splitlines() if line.strip()]


def loaded_repro_modules() -> set[str]:
    """Repo-relative source paths of every ``repro`` module imported so far
    (after running an experiment, its transitive dependency set)."""
    files: set[str] = set()
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        path = getattr(module, "__file__", None)
        if not path:
            continue
        parts = pathlib.Path(path).parts
        if "repro" not in parts:
            continue
        idx = len(parts) - 1 - parts[::-1].index("repro")  # package dir
        files.add("src/" + "/".join(parts[idx:]))
    return files


def suspect_modules(changed: Iterable[str],
                    deps: set[str] | None = None) -> list[str]:
    """Changed files that plausibly caused a drift, most likely first:
    changed ``repro`` source files the experiment actually imported, then
    any other changed ``src/repro`` file."""
    deps = loaded_repro_modules() if deps is None else deps
    src_changes = [f for f in changed if f.startswith("src/repro/")]
    hits = [f for f in src_changes if f in deps]
    return hits + [f for f in src_changes if f not in hits]


def first_suspect(baseline_sha: str | None,
                  repo_root: str | pathlib.Path = ".") -> str | None:
    """The first commit-visible suspect module for a drift, or None."""
    suspects = suspect_modules(changed_files_since(baseline_sha, repo_root))
    return suspects[0] if suspects else None


def render_drift_report(drifts: list[Drift]) -> str:
    """Human-readable drift report grouped by figure."""
    if not drifts:
        return "no drift detected"
    lines = [f"{len(drifts)} drifted metric(s):"]
    for d in drifts:
        lines.append(f"  - {d.describe()}")
    return "\n".join(lines)
