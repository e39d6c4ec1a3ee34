"""Deterministic multiprocessing experiment runner.

``repro run --jobs N`` / ``repro bench --jobs N`` fan registered
experiments out across worker processes.  The determinism contract:

* **Merge order is fixed.**  Results are always yielded in the caller's
  input order, regardless of which worker finishes first, so anything
  derived from the stream — fingerprints, table digests, summary
  markdown, ``BENCH_<figure>.json`` trajectories — is byte-stable for
  any ``--jobs`` value.
* **Workers are hermetic.**  Each experiment function is pure given the
  process environment; the only cross-experiment state (the step cache,
  ``lru_cache``'d parameter counts) is an exact memo, so a cold worker
  computes the same floats a warm serial loop replays.  ``jobs <= 1``
  does not touch multiprocessing at all and is the exact historical
  serial loop.
* **Scheduling only affects wall time.**  Submission order is a
  longest-first heuristic fed by the recorded wall metrics in
  ``BENCH_<figure>.json`` (when present) so the slowest figure does not
  become the tail of the pool; it cannot affect results, only speedup.

Workers inherit ``os.environ`` (fork or spawn), so escape hatches such
as ``REPRO_NO_VECTORIZE_ENGINE`` / ``REPRO_NO_STEPCACHE`` exported by the
CLI apply to every process in the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Sequence

from repro.core.experiment import ExperimentResult
from repro.core.registry import run_experiment

__all__ = ["default_jobs", "iter_experiments", "run_experiments"]


def default_jobs() -> int:
    """Worker-count default: ``REPRO_JOBS`` if set, else 1 (serial)."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits the warmed import state); fall back to
    spawn where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_run(exp_id: str) -> ExperimentResult:
    """Module-level so it pickles under the spawn start method."""
    return run_experiment(exp_id)


#: approximate wall runtimes (seconds) for experiments that dominate the
#: pool tail, used when no ``BENCH_<figure>.json`` baseline has been
#: recorded yet (fresh clone, newly added figure).  Without a hint a
#: first run submits in input order and the slowest figure can land
#: last, serializing the pool; the values only need the right ordering,
#: not precision.  Recorded baselines always win over this table.
_RUNTIME_SEED_S: dict[str, float] = {
    "ext_fleet_capacity": 3.1,
    "ext_fleet_diurnal": 2.1,
    "ext_fleet_policy": 2.0,
}


def _recorded_runtime(exp_id: str, root: pathlib.Path) -> float:
    """Last recorded wall runtime for ``exp_id``, falling back to the
    static seed table and then 0.0 for unknown experiments."""
    try:
        from repro.obs.regress import BaselineStore

        fp = BaselineStore(root).latest_fingerprint(exp_id)
        if fp is not None:
            return float(fp.wall.get("runtime_s", 0.0))
    except Exception:  # noqa: BLE001 - scheduling hint only, never fatal
        pass
    return _RUNTIME_SEED_S.get(exp_id, 0.0)


def _submission_order(exp_ids: Sequence[str],
                      baseline_dir: str | os.PathLike | None) -> list[str]:
    """Longest-first submission keeps the pool packed; ties (and figures
    without a recorded baseline) keep input order.  Purely a wall-clock
    heuristic — the merge order is always the input order."""
    root = pathlib.Path(baseline_dir) if baseline_dir is not None else pathlib.Path(".")
    index = {eid: i for i, eid in enumerate(exp_ids)}
    return sorted(exp_ids,
                  key=lambda eid: (-_recorded_runtime(eid, root), index[eid]))


def iter_experiments(
    exp_ids: Sequence[str],
    jobs: int = 1,
    return_exceptions: bool = False,
    baseline_dir: str | os.PathLike | None = None,
) -> Iterator[tuple[str, "ExperimentResult | Exception"]]:
    """Run experiments, yielding ``(exp_id, outcome)`` in input order.

    ``jobs <= 1`` runs in-process (the exact historical serial loop);
    otherwise a process pool computes results while this generator yields
    each experiment as soon as it — and everything before it — is done.
    With ``return_exceptions`` a failing experiment yields its exception
    instead of raising, so one broken figure cannot hide the rest
    (``repro run-all`` semantics).
    """
    exp_ids = list(exp_ids)
    if jobs <= 1 or len(exp_ids) <= 1:
        for exp_id in exp_ids:
            try:
                yield exp_id, run_experiment(exp_id)
            except Exception as exc:  # noqa: BLE001 - optional run-all mode
                if not return_exceptions:
                    raise
                yield exp_id, exc
        return

    ctx = _pool_context()
    with ProcessPoolExecutor(max_workers=min(jobs, len(exp_ids)),
                             mp_context=ctx) as pool:
        futures = {exp_id: pool.submit(_worker_run, exp_id)
                   for exp_id in _submission_order(exp_ids, baseline_dir)}
        for exp_id in exp_ids:  # fixed merge order
            try:
                yield exp_id, futures[exp_id].result()
            except Exception as exc:  # noqa: BLE001 - optional run-all mode
                if not return_exceptions:
                    raise
                yield exp_id, exc


def run_experiments(
    exp_ids: Sequence[str],
    jobs: int = 1,
    return_exceptions: bool = False,
    baseline_dir: str | os.PathLike | None = None,
) -> list["ExperimentResult | Exception"]:
    """:func:`iter_experiments`, gathered into an input-ordered list."""
    return [outcome for _, outcome in
            iter_experiments(exp_ids, jobs=jobs,
                             return_exceptions=return_exceptions,
                             baseline_dir=baseline_dir)]
