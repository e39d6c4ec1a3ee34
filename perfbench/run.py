"""Host-time benchmark of the simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload serve_steady --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout.  Every measured run is a fresh
interpreter (``child.py``), so the step cache and ``lru_cache``s start
cold, as they do for a CLI user.  Runs go one at a time, with BLAS
threads pinned to 1 and no ``REPRO_NO_*`` switch set.  The harness keeps
starting runs until ``--seconds`` have passed (at least three untraced
runs, or one untraced and traced pair with ``--trace 1``).

Host times are normalised to a reference host speed.  On a shared
machine a CPU slows down by tens of percent, for milliseconds to minutes,
while other tenants load it.  Each run therefore samples the host's speed
during the interval it times (``child.SpeedProbe``), and its times are
scaled by ``REFERENCE_SAMPLE_S / mean sample time``, after the samples'
own time is taken out.  Times are medians over the runs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics, from runs that also record layer spans.  The last
stdout line is one JSON object: ``correct``, ``attempted`` (checks run),
``failed`` (checks failed) and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("serve_steady", "serve_observed", "fleet_templated",
             "paper_figures")
PAPER_FIGURES = ("table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
                 "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                 "fig15", "fig16", "fig17", "fig18")
"""The ``paper_figures`` workload: the paper's table and figures, in
registry order.  Fixed here so that registering a new experiment does not
change the workload."""

END_TO_END = {"setup_s": "s", "wall_s": "s", "sim_tokens_per_s": "tok/s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "perfmodel.calls": "count",
    "perfmodel.self_s": "s",
    "perfmodel.stepcache_lookups": "count",
    "perfmodel.stepcache_hit_rate": "ratio",
    "perfmodel.stepcache_clears": "count",
    "serving.submit_s": "s",
    "serving.self_s": "s",
    "serving.step_calls": "count",
    "serving.window_iterations": "count",
    "serving.window_share": "ratio",
    "serving.kv_calls": "count",
    "serving.kv_self_s": "s",
    "serving.preemptions": "count",
    "serving.prefix_hit_rate": "ratio",
    "moe.route_calls": "count",
    "moe.tokens_routed": "count",
    "moe.self_s": "s",
    "obs.hook_calls": "count",
    "obs.self_s": "s",
    "fleet.events": "count",
    "fleet.self_s": "s",
    "fleet.router_calls": "count",
    "fleet.router_self_s": "s",
    "fleet.reroutes": "count",
    "fleet.shed": "count",
    "fleet.peak_replicas": "count",
    "fleet.max_replicas": "count",
    "fleet.replicas_spawned": "count",
    "fleet.ceiling_breached": "count",
    "fleet.audit_ceiling_found": "count",
    "faults.replica_kills": "count",
    "experiments.self_s": "s",
    **{f"experiments.{e}.wall_s": "s" for e in PAPER_FIGURES},
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

FLEET_COUNTS = ("fleet.events", "fleet.reroutes", "fleet.shed",
                "fleet.peak_replicas", "fleet.max_replicas",
                "fleet.replicas_spawned", "faults.replica_kills")

REFERENCE_SAMPLE_S = 1.5e-4
"""Speed-probe sample time that normalised times refer to: the
development host (a 2-vCPU Xeon VM, Python 3.11) when lightly loaded.
Normalised seconds are seconds on a host of that speed."""

MIN_UNTRACED_RUNS = 3
MIN_SETUPS = 5
RUN_BUDGET_S = 150.0
"""Wall budget for one invocation, below the 180 s a run may take."""


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_NO_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, mode: str, deadline: float,
              spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    timeout = max(1.0, deadline - time.monotonic())
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawn-time", repr(spawn)],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} run exceeded {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildFailed(f"{mode} run exited {proc.returncode}: "
                          + " | ".join(tail))
    record = json.loads(lines[-1])
    return normalise(record)


def to_reference(raw_s: float, probe: list[float]) -> tuple[float, float]:
    """``raw_s`` without the probe's own time, scaled to the reference
    speed; returns it with the speed factor used."""
    if not probe:
        return raw_s, 1.0
    speed = REFERENCE_SAMPLE_S * len(probe) / sum(probe)
    return (raw_s - sum(probe)) * speed, speed


def normalise(record: dict) -> dict:
    """Scale every host time of one run to the reference speed; the raw
    wall time stays in ``raw_wall_s``."""
    record["setup_s"], _ = to_reference(record["setup_s"],
                                        record.pop("setup_probe"))
    if "wall_s" not in record:
        return record
    record["raw_wall_s"] = record["wall_s"]
    probe = record.pop("run_probe")
    record["wall_s"], speed = to_reference(record["wall_s"], probe)
    record["speed"] = speed
    summary = record["summary"]
    for key in summary:
        if key.endswith(".wall_s"):
            summary[key] *= speed
    for span in record.get("spans", {}).values():
        span["total_s"] *= speed
        span["self_s"] *= speed
    return record


def median(values) -> float:
    return float(statistics.median(values))


def typical(runs: list[dict]) -> dict:
    """The run with the median wall time (the lower one of an even
    count), so that its layer times add up to one real run."""
    return sorted(runs, key=lambda r: r["wall_s"])[(len(runs) - 1) // 2]


def layer_metrics(traced: dict, untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run (paper-figure walls are medians
    over the untraced runs)."""
    spans = traced["spans"]
    counters = traced["counters"]
    summary = traced["summary"]

    def layer(prefix: str, field: str) -> float:
        return sum(s[field] for name, s in spans.items()
                   if name.startswith(prefix))

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    cache = traced["stepcache"]
    lookups = cache["hits"] + cache["misses"]
    windows = counters["serving.window_iterations"]
    iterations = windows + counters["serving.step_iterations"]
    m = {
        "perfmodel.calls": layer("perfmodel.", "entries"),
        "perfmodel.self_s": layer("perfmodel.", "self_s"),
        "perfmodel.stepcache_lookups": lookups,
        "perfmodel.stepcache_hit_rate":
            cache["hits"] / lookups if lookups else 0.0,
        "perfmodel.stepcache_clears": cache["clears"],
        "serving.submit_s": span("serving.engine.submit", "total_s"),
        "serving.self_s": layer("serving.", "self_s"),
        "serving.step_calls": span("serving.engine.step", "calls"),
        "serving.window_iterations": windows,
        "serving.window_share": windows / iterations if iterations else 0.0,
        "serving.kv_calls": layer("serving.kv.", "calls"),
        "serving.kv_self_s": layer("serving.kv.", "self_s"),
        "serving.preemptions": summary["preemptions"],
        "serving.prefix_hit_rate": summary["prefix_hit_rate"],
        "moe.route_calls": layer("moe.", "calls"),
        "moe.tokens_routed": counters["moe.tokens_routed"],
        "moe.self_s": layer("moe.", "self_s"),
        "obs.hook_calls": layer("obs.", "entries"),
        "obs.self_s": layer("obs.", "self_s"),
        "fleet.self_s": layer("fleet.", "self_s"),
        "fleet.router_calls": layer("fleet.router.", "calls"),
        "fleet.router_self_s": layer("fleet.router.", "self_s"),
        "experiments.self_s": layer("experiments.", "self_s"),
        "trace.spans": traced["span_count"],
    }
    m.update({k: summary.get(k, 0) for k in FLEET_COUNTS})
    for key in ("fleet.ceiling_breached", "fleet.audit_ceiling_found"):
        m[key] = int(key in traced["known_defects"])
    for exp_id in PAPER_FIGURES:
        key = f"experiments.{exp_id}.wall_s"
        m[key] = median(r["summary"].get(key, 0.0) for r in untraced)
    return m


def spans_path(workload: str, seed: int) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}.spans.npz"


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict], list[float], list[str]]:
    """Run children until ``seconds`` have passed; returns untraced runs,
    traced runs, set-up times and failures of runs that did not finish.
    A new round starts only if one as long as the last still fits in
    ``RUN_BUDGET_S``."""
    start = time.monotonic()
    budget_end = start + RUN_BUDGET_S
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    errors: list[str] = []
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = spans_path(workload, seed)
    round_s = 0.0
    try:
        while time.monotonic() + round_s < budget_end:
            enough = traced if trace else len(untraced) >= MIN_UNTRACED_RUNS
            if enough and time.monotonic() >= start + seconds:
                break
            t0 = time.monotonic()
            untraced.append(run_child(workload, seed, "untraced", budget_end))
            setups.append(untraced[-1]["setup_s"])
            if trace:
                traced.append(run_child(workload, seed, "traced", budget_end,
                                        spans_out))
            round_s = time.monotonic() - t0
        while len(setups) < MIN_SETUPS and time.monotonic() < budget_end:
            setups.append(run_child(workload, seed, "setup",
                                    budget_end)["setup_s"])
    except ChildFailed as exc:
        errors.append(str(exc))
    return untraced, traced, setups, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    untraced, traced, setups, errors = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    if not untraced or (args.trace and not traced):
        for error in errors:
            print(f"perfbench: {error}", file=sys.stderr)
        return 1

    runs = untraced + traced
    attempted = sum(r["checks_run"] for r in runs) + len(errors)
    failures = [f for r in runs for f in r["failures"]] + errors
    digests = {r["summary"]["digest"] for r in runs}
    if len(runs) > 1:
        attempted += 1
        if len(digests) > 1:
            failures.append(f"outcome digest differs across {len(runs)} "
                            f"runs of seed {args.seed}: {sorted(digests)}")
    known = {msg for r in runs for msg in r["known_defects"].values()}

    print(f"perfbench {args.workload} seed={args.seed}: {len(untraced)} "
          f"untraced and {len(traced)} traced runs, {len(setups)} set-ups, "
          "each in a fresh interpreter")
    print(f"  digest {sorted(digests)[0]}")
    if args.trace:
        metrics = layer_metrics(typical(traced), untraced)
        metrics["trace.overhead_ratio"] = \
            median(r["wall_s"] for r in traced) \
            / median(r["wall_s"] for r in untraced)
        metrics = {name: metrics[name] for name in PER_LAYER}
        print(f"  spans written to {spans_path(args.workload, args.seed)}")
    else:
        print("  raw wall_s of the runs: " + ", ".join(
            f"{r['raw_wall_s']:.3f} (speed {r['speed']:.2f})"
            for r in untraced))
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(r["wall_s"] for r in untraced),
            "sim_tokens_per_s": median(r["summary"]["sim_tokens"]
                                       / r["wall_s"] for r in untraced),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        }
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    print(f"  checks_failed {len(failures)} of checks_run {attempted}")
    for failure in failures:
        print(f"  FAILED {failure}")
    for message in sorted(known):
        print(f"  known defect found: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
