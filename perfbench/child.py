"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line.
Modes: ``setup`` stops once the deployment is built; ``untraced`` times
the run; ``traced`` also records layer spans (see ``tracing.py``) and
writes them to ``--spans-out``.

``setup_s`` runs from ``--spawn-time`` (the parent's ``time.monotonic()``
just before it started this interpreter; the clock is system-wide) until
imports and deployment construction are done.  ``wall_s`` is the timed
run.  While both run, a :class:`SpeedProbe` samples the host's speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time

PROBE_PERIOD_S = 0.05


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


_CELLS = [_Cell() for _ in range(16)]


def _negate(v: int) -> int:
    return -v


def probe_pass() -> None:
    """A fixed slice of interpreter work of the kinds the simulator does:
    attribute updates, dict reads and writes, float arithmetic, and a
    keyed sort."""
    table: dict[int, float] = {}
    for i in range(400):
        cell = _CELLS[i & 15]
        cell.value = cell.value + i * 0.5
        table[i & 31] = table.get(i & 31, 0.0) + cell.value
    sorted(range(100), key=_negate)


class SpeedProbe:
    """Samples the host's current speed while the program runs.

    Every ``PROBE_PERIOD_S`` a ``SIGALRM`` handler times one
    :func:`probe_pass`.  On a shared machine a CPU slows down by tens of
    percent, for milliseconds to minutes, while other tenants load it; the
    samples, taken during the very interval being timed, say by how much.
    They cost about half a percent of the run, and their own time is
    reported so the harness can take it out again.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_pass()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def take(self) -> list[float]:
        """The samples since the last call."""
        samples, self.samples = self.samples, []
        return samples


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"),
                        required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    import workloads
    from repro.perfmodel import stepcache

    workload = workloads.WORKLOADS[args.workload]()
    if tracer is not None:
        workload.span = tracer.span
    state = workload.setup(args.seed)
    setup_s = time.monotonic() - args.spawn_time
    probe.stop()
    setup_probe = probe.take()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_probe": setup_probe}))
        return 0

    inputs = workload.inputs(args.seed)
    cache0 = stepcache.stats().as_dict()
    probe.start()
    t0 = time.perf_counter()
    if tracer is None:
        out = workload.run(state, inputs)
    else:
        with tracer.span("bench.run"):
            out = workload.run(state, inputs)
        tracer.restore()
    wall_s = time.perf_counter() - t0
    probe.stop()
    run_probe = probe.take()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache1 = stepcache.stats().as_dict()

    checks = workload.check(state, out, args.seed)
    record = {
        "setup_s": setup_s,
        "setup_probe": setup_probe,
        "wall_s": wall_s,
        "run_probe": run_probe,
        "peak_rss_mb": peak_rss_mb,
        "checks_run": checks.run,
        "failures": checks.failures,
        "known_defects": checks.known_defects,
        "summary": workload.summary(state, out),
        "stepcache": {k: cache1[k] - cache0[k]
                      for k in ("hits", "misses", "clears")},
    }
    if tracer is not None:
        record["spans"] = tracer.totals()
        record["counters"] = tracer.counters
        record["span_count"] = len(tracer.start)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
