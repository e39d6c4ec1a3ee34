"""Command-line interface: list and regenerate the paper's experiments.

Usage::

    repro list
    repro run fig05[,fig06,...] [--out results/] [--jobs N]
    repro run ... [--no-vectorize-engine]
    repro run-all [--out results/] [--jobs N]
    repro summary [--out report.md] [--jobs N]
    repro trace [model-or-experiment] [--out trace.json]
    repro trace [model] [--poisson RATE] [--request ID] [--match REGEX]
    repro trace [model] [--cluster] [--device ID] [--link NAME]
    repro trace [model] --timeline REQUEST_ID
    repro metrics [model] [--json]
    repro report [model] [--tp N --ep N --pp N] [--out report.md]
    repro report --slo-gate [--out report.md] [--html report.html]
    repro report --bundle DIR | --check
    repro slo [--check] [--out report.json] [--bundle-dir DIR]
    repro bench --record [--figs fig05,fig06] [--note "..."]
    repro bench --check [--wall] [--jobs N]
    repro bench --trend [--out trend.md]
    repro profile [model-or-experiment] [--out profile.folded]
    repro chaos [--fault-seed N] [--fault-rate R] [--policy retry|failfast]
    repro chaos --smoke
    repro fleet [--replicas N] [--policy round_robin|least_kv|prefix_affinity]
    repro fleet [--requests N] [--seed N] [--no-storm] [--no-autoscale]
    repro fleet --smoke
    repro lint [--check] [--rules DET,UNIT,OBS,REG,SUP] [--json] [--no-cache]
    repro lint --update-baseline | --list-rules

(``repro`` and ``moe-inference-bench`` are the same entry point.)

``chaos`` serves a deterministic workload under a seeded fault schedule
(device loss, expert-shard loss, link degradation, KV-pressure spikes) and
reports availability/recovery; ``--smoke`` replays the run, asserts the
two digests are bit-identical and that every simulator invariant held —
the CI determinism gate.  ``fleet`` routes a diurnal templated trace
across a multi-replica fleet (pluggable router policy, SLO-aware
admission, occupancy-driven autoscaler, whole-replica kill/heal storm —
see ``docs/fleet.md``); its ``--smoke`` replays the canonical scenario
and asserts bit-identical :func:`repro.fleet.invariants.fleet_digest`
values plus the full fleet invariant suite on both runs.  ``trace`` records a reference serving run (or a
registered experiment)
under full instrumentation and writes Chrome Trace Event JSON for
Perfetto / ``chrome://tracing`` — ``--poisson RATE`` swaps in the
``ext_serving_load`` Poisson workload, ``--request``/``--match`` filter
the exported events, ``--cluster`` adds per-device occupancy lanes and
per-link utilization counters (``--device``/``--link`` filter them), and
``--timeline`` prints one request's causal lifecycle table (see
:mod:`repro.obs.reqtrace`); ``metrics`` prints the run's metrics in
Prometheus text exposition format.  ``report`` folds one observed run —
a clustered Poisson workload, the ``--slo-gate`` fault-storm scenario,
or an existing flight-recorder ``--bundle`` — into a deterministic
markdown/HTML run report (device occupancy, interconnect accounting,
expert heat, MoE-CAP Sparse-MBU/MFU, SLO budgets, alerts); ``--check``
builds it twice and gates on byte-identical output.  ``slo`` runs the
canonical fault-storm scenario with SLO burn-rate paging armed and
reports error-budget burn; ``--check`` replays it and asserts the report
is byte-identical with at least one burn alert fired (the SLO
determinism gate).  ``bench`` maintains the
``BENCH_<figure>.json`` fingerprint baselines and gates drift
(non-zero exit on ``--check`` failure); ``profile`` attributes a run's
simulated time per phase × component and writes a folded-stack file for
flamegraph tooling.  ``lint`` statically proves the simulator's
invariants (determinism, unit consistency, observability conventions,
registry drift) — the review-time complement to the dynamic
gates.  See ``docs/observability.md``, ``docs/regression.md`` and
``docs/lint.md``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.core.registry import list_experiments, run_experiment
from repro.core.report import (
    render_markdown,
    render_summary,
    render_time_breakdown,
    write_report,
)

__all__ = ["main"]


def _apply_fastpath_flags(args: argparse.Namespace) -> None:
    """Export fast-path escape hatches to the environment so they reach
    both this process and any ``--jobs`` pool workers."""
    if getattr(args, "no_vectorize_engine", False):
        os.environ["REPRO_NO_VECTORIZE_ENGINE"] = "1"


def _cmd_list(_: argparse.Namespace) -> int:
    for exp_id in list_experiments():
        print(exp_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner import iter_experiments

    _apply_fastpath_flags(args)
    exp_ids = [e.strip() for e in args.exp_id.split(",") if e.strip()]
    for _, result in iter_experiments(exp_ids, jobs=args.jobs):
        if args.out:
            path = write_report(result, args.out)
            print(f"wrote {path}")
        else:
            print(render_markdown(result))
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.runner import iter_experiments

    _apply_fastpath_flags(args)
    failures = []
    for exp_id, result in iter_experiments(list_experiments(), jobs=args.jobs,
                                           return_exceptions=True):
        if isinstance(result, Exception):
            failures.append((exp_id, result))
            print(f"[FAIL] {exp_id}: {result}", file=sys.stderr)
            continue
        if args.out:
            path = write_report(result, args.out)
            print(f"[ok] {exp_id} -> {path} ({result.runtime_s:.1f}s)")
        else:
            print(render_markdown(result))
    return 1 if failures else 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.runner import run_experiments

    _apply_fastpath_flags(args)
    results = run_experiments(list_experiments(), jobs=args.jobs)
    text = render_summary(results)
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        print(text)
    return 0


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    from repro.runner import default_jobs

    parser.add_argument("--jobs", type=int, default=default_jobs(),
                        help="worker processes to fan experiments across "
                             "(default $REPRO_JOBS or 1; results merge in a "
                             "fixed order, so output is byte-identical for "
                             "any value)")
    parser.add_argument("--no-vectorize-engine", action="store_true",
                        help="disable the serving-engine batched decode "
                             "window (exported as REPRO_NO_VECTORIZE_ENGINE; "
                             "results are bit-identical either way)")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--requests", type=int, default=8,
                        help="number of requests in the workload (default 8)")
    parser.add_argument("--input-tokens", type=int, default=256,
                        help="prompt length per request (default 256)")
    parser.add_argument("--output-tokens", type=int, default=64,
                        help="generation budget per request (default 64)")
    parser.add_argument("--arrival-interval", type=float, default=0.0,
                        help="seconds between request arrivals (default 0: burst)")


def _write_filtered_trace(obs, out: pathlib.Path,
                          request_id: int | None,
                          match: str | None,
                          device: int | None = None,
                          link: str | None = None) -> int:
    """Write the run's Chrome trace — engine tracks merged with the
    per-request and per-device tracks — through the ``--request`` /
    ``--match`` / ``--device`` / ``--link`` filters.  Returns the number
    of events written."""
    import json

    from repro.obs.trace import filter_trace_events

    events = obs.tracer.events
    if obs.reqtrace is not None:
        events = events + obs.reqtrace.chrome_events()
    if obs.cluster is not None:
        events = events + obs.cluster.chrome_events()
    if request_id is not None or match is not None \
            or device is not None or link is not None:
        events = filter_trace_events(events, request_id=request_id,
                                     match=match, device=device, link=link)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }))
    return len(events)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.harness import (
        clustered_serving_run,
        poisson_serving_run,
        traced_serving_run,
    )
    from repro.obs.instrument import Instrumentation

    out = pathlib.Path(args.out)
    if args.target in list_experiments():
        # wall-clock trace of one registered experiment
        obs = Instrumentation.on()
        with obs.tracer.wall_span(f"experiment.{args.target}",
                                  track="experiment", cat="experiment"):
            run_experiment(args.target)
        obs.tracer.write(out)
        print(f"wrote {out} ({obs.tracer.num_events} events)")
        print()
        print(render_time_breakdown(obs.tracer.span_totals("experiment")))
        return 0

    use_cluster = args.cluster or args.device is not None \
        or args.link is not None
    if use_cluster:
        # device/link lanes need cluster telemetry, which needs a
        # multi-device deployment: the clustered Poisson workload
        result, obs = clustered_serving_run(
            model_name=args.target,
            arrival_rate_rps=args.poisson if args.poisson is not None
            else 8.0,
            num_requests=args.requests,
        )
    elif args.poisson is not None:
        from repro.models.zoo import get_model

        model = get_model(args.target)
        obs = Instrumentation.on(
            model=None if args.no_routing else model)
        result = poisson_serving_run(
            arrival_rate_rps=args.poisson,
            num_requests=args.requests,
            model_name=args.target,
            instrumentation=obs,
        )
    else:
        result, obs = traced_serving_run(
            args.target,
            num_requests=args.requests,
            input_tokens=args.input_tokens,
            output_tokens=args.output_tokens,
            arrival_interval=args.arrival_interval,
            with_routing=not args.no_routing,
        )
    if args.timeline is not None:
        try:
            print(obs.reqtrace.render_timeline(args.timeline))
        except KeyError:
            print(f"no trace recorded for request {args.timeline} "
                  f"(run had {result.num_requests} requests)",
                  file=sys.stderr)
            return 1
        return 0
    num_events = _write_filtered_trace(obs, out, args.request, args.match,
                                       device=args.device, link=args.link)
    print(f"wrote {out} ({num_events} events)")
    print(f"{args.target}: {result.num_requests} requests, "
          f"makespan {result.makespan:.4f}s, "
          f"throughput {result.throughput_tok_s:,.0f} tok/s, "
          f"p50 TTFT {result.p50_ttft() * 1e3:.2f}ms, "
          f"p99 TTFT {result.p99_ttft() * 1e3:.2f}ms")
    print()
    print(render_time_breakdown(obs.tracer.span_totals("engine"),
                                makespan=result.makespan))
    if obs.routing is not None:
        telemetry = obs.routing.telemetry
        print()
        print("### Expert routing")
        print()
        for key, value in telemetry.summary().items():
            print(f"- {key}: {value:,.3f}" if isinstance(value, float)
                  else f"- {key}: {value:,}")
        top = telemetry.activation_ordering()[:8]
        print(f"- most-activated experts (all layers): {top}")
    if args.metrics_out:
        metrics_path = pathlib.Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(obs.metrics.to_prometheus())
        print(f"\nwrote {metrics_path}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.harness import traced_serving_run

    _, obs = traced_serving_run(
        args.model,
        num_requests=args.requests,
        input_tokens=args.input_tokens,
        output_tokens=args.output_tokens,
        arrival_interval=args.arrival_interval,
    )
    text = obs.metrics.to_json() if args.json else obs.metrics.to_prometheus()
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}")
    else:
        print(text, end="")
    return 0


def _bench_ids(args: argparse.Namespace, store) -> list[str]:
    if args.figs:
        return [f.strip() for f in args.figs.split(",") if f.strip()]
    if args.check or args.trend:
        # gate / chart whatever has a recorded baseline; "wallclock" is the
        # suite-timing pseudo-baseline written by benchmarks/bench_wallclock
        # — it has no experiment behind it, so record/check skip it (the
        # trend report still charts its trajectory)
        known = store.known_ids()
        if not args.trend:
            known = [eid for eid in known if eid != "wallclock"]
        if known:
            return known
    return list_experiments()


def _cmd_bench(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.obs.regress import (
        BaselineStore,
        Tolerance,
        compare_fingerprints,
        first_suspect,
        render_drift_report,
    )

    if not (args.record or args.check or args.trend):
        print("bench: choose one of --record / --check / --trend",
              file=sys.stderr)
        return 2
    store = BaselineStore(args.dir)
    ids = _bench_ids(args, store)

    if args.trend:
        text = _render_trend(store, ids)
        if args.out:
            path = pathlib.Path(args.out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {path}")
        else:
            print(text)
        return 0

    from repro.runner import iter_experiments

    _apply_fastpath_flags(args)
    failures = 0
    all_drifts = []
    for exp_id, result in iter_experiments(ids, jobs=args.jobs,
                                           baseline_dir=args.dir):
        fp = result.fingerprint()
        if args.record:
            path = store.record(fp, note=args.note)
            print(f"[recorded] {exp_id} -> {path}")
            continue
        baseline = store.latest_fingerprint(exp_id)
        if baseline is None:
            print(f"[no-baseline] {exp_id}: run `repro bench --record` first",
                  file=sys.stderr)
            failures += 1
            continue
        drifts = compare_fingerprints(baseline, fp, Tolerance(),
                                      check_wall=args.wall)
        if drifts:
            suspect = first_suspect(store.latest_sha(exp_id), args.dir)
            drifts = [dataclasses.replace(d, suspect=suspect) for d in drifts]
            all_drifts.extend(drifts)
            print(f"[DRIFT] {exp_id}: {len(drifts)} metric(s)")
        else:
            print(f"[ok] {exp_id}")
    if args.check and all_drifts:
        print()
        print(render_drift_report(all_drifts), file=sys.stderr)
    return 1 if (failures or all_drifts) else 0


def _render_trend(store, ids: list[str]) -> str:
    """Fingerprint trajectories (sim time + wall runtime) as markdown."""
    lines = ["# Benchmark trend", "",
             "| figure | records | sim_time_total_s trajectory | "
             "runtime_s trajectory | last recorded |", "|---|---:|---|---|---|"]
    charted = 0
    for exp_id in ids:
        records = store.records(exp_id)
        if not records:
            continue
        charted += 1
        sims = [r["fingerprint"].get("sim", {}).get("sim_time_total_s")
                for r in records]
        # the wallclock pseudo-baseline records the whole suite's wall
        # as suite_wall_s; chart it in the same column
        walls = [r["fingerprint"].get("wall", {}).get("runtime_s",
                 r["fingerprint"].get("wall", {}).get("suite_wall_s"))
                 for r in records]
        fmt = lambda xs: " → ".join(
            "?" if x is None else f"{x:.4g}" for x in xs[-6:])
        lines.append(f"| {exp_id} | {len(records)} | {fmt(sims)} | "
                     f"{fmt(walls)} | {records[-1]['recorded_at']} |")
    if charted == 0:
        return "no recorded baselines — run `repro bench --record` first"
    lines.extend(_render_wallclock_trend(store))
    return "\n".join(lines)


def _render_wallclock_trend(store) -> list[str]:
    """The suite-timing pseudo-baseline (``BENCH_wallclock.json``) as its
    own trend section, so the perf trajectory renders next to the
    experiment trends instead of living in a separate report."""
    records = store.records("wallclock")
    if not records:
        return []
    lines = ["", "## Suite wall clock", "",
             "| recorded | suite_wall_s | jobs | cpus | "
             "speedup vs serial baseline |", "|---|---:|---:|---:|---:|"]
    for record in records[-8:]:
        wall = record["fingerprint"].get("wall", {})
        fmt = lambda key: ("?" if wall.get(key) is None
                           else f"{wall[key]:.4g}")
        lines.append(
            f"| {record['recorded_at']} | {fmt('suite_wall_s')} | "
            f"{fmt('jobs')} | {fmt('cpus')} | "
            f"{fmt('speedup_vs_baseline')}x |")
    hidden = len(records) - min(len(records), 8)
    if hidden > 0:
        lines.append(f"\n… {hidden} older record(s) elided.")
    return lines


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.harness import ChaosConfig, chaos_serving_run
    from repro.faults.invariants import (
        InvariantViolation,
        check_final_invariants,
        run_digest,
    )

    config = ChaosConfig(
        model_name=args.model,
        num_requests=args.requests,
        input_tokens=args.input_tokens,
        output_tokens=args.output_tokens,
        arrival_interval=args.arrival_interval or 0.005,
        fault_seed=args.fault_seed,
        fault_rate=args.fault_rate,
        horizon_s=args.horizon,
        num_devices=args.devices,
        ep=args.ep,
        replicas=args.replicas,
        policy=args.policy,
        degrade=not args.no_degrade,
    )
    run = chaos_serving_run(config)
    if args.show_schedule:
        print(run.schedule.describe())
        print()
    summary = run.summary
    health = summary.pop("health")
    print(f"chaos run (fault seed {config.fault_seed}, "
          f"rate {config.fault_rate:g}/s, policy {config.policy}):")
    for key, value in summary.items():
        print(f"  {key}: {value:.4f}" if isinstance(value, float)
              else f"  {key}: {value}")
    print(f"  final health: {health}")
    for req in run.result.requests:
        if req.is_failed:
            print(f"  [failed] request {req.request_id}: {req.failure_reason}")

    try:
        check_final_invariants(run.result)
    except InvariantViolation as exc:
        print(f"[FAIL] invariant violated: {exc}", file=sys.stderr)
        return 1

    if args.smoke:
        digest = run_digest(run.result)
        replay = chaos_serving_run(config)
        replay_digest = run_digest(replay.result)
        try:
            check_final_invariants(replay.result)
        except InvariantViolation as exc:
            print(f"[FAIL] replay invariant violated: {exc}", file=sys.stderr)
            return 1
        if digest != replay_digest:
            print(f"[FAIL] same-seed replay diverged:\n  {digest}\n  "
                  f"{replay_digest}", file=sys.stderr)
            return 1
        print(f"[ok] same-seed replay bit-identical ({digest[:16]}…), "
              "invariants held on both runs")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.faults.invariants import InvariantViolation
    from repro.fleet.harness import (
        fleet_smoke_digest,
        smoke_fleet_config,
        smoke_trace,
    )
    from repro.fleet.invariants import check_fleet_invariants, fleet_digest
    from repro.fleet.simulator import FleetSimulator

    if args.smoke:
        # the CI replay gate: two fresh simulators over the canonical
        # scenario (storm + autoscaler armed) must agree bit-for-bit,
        # with the invariant audit applied inside each digest call
        try:
            first = fleet_smoke_digest(args.policy)
            second = fleet_smoke_digest(args.policy)
        except InvariantViolation as exc:
            print(f"[FAIL] fleet invariant violated: {exc}", file=sys.stderr)
            return 1
        if first != second:
            print(f"[FAIL] same-seed fleet replay diverged:\n  {first}\n  "
                  f"{second}", file=sys.stderr)
            return 1
        print(f"[ok] fleet replay bit-identical ({first[:16]}…), "
              "invariants held on both runs")
        return 0

    config = smoke_fleet_config(policy=args.policy,
                                with_storm=not args.no_storm,
                                with_autoscaler=not args.no_autoscale)
    if args.replicas is not None:
        config = dataclasses.replace(config, num_replicas=args.replicas)
    trace = smoke_trace(num_requests=args.requests, seed=args.seed)
    result = FleetSimulator(config).run(trace)
    try:
        check_fleet_invariants(result, config.autoscaler)
    except InvariantViolation as exc:
        print(f"[FAIL] fleet invariant violated: {exc}", file=sys.stderr)
        return 1

    print(f"fleet run ({config.num_replicas} replicas, policy "
          f"{result.policy}, seed {args.seed}):")
    print(f"  requests: {result.num_requests}  finished: "
          f"{result.num_finished}  shed: {result.num_shed}  "
          f"re-routed: {result.num_rerouted}")
    print(f"  availability: {result.availability:.4f}  makespan: "
          f"{result.makespan:.4f}s  throughput: "
          f"{result.throughput_tok_s:,.0f} tok/s")
    print(f"  TTFT p50/p99: {result.p50_ttft() * 1e3:.2f} / "
          f"{result.p99_ttft() * 1e3:.2f} ms")
    if result.kv_lookups:
        print(f"  prefix-cache hit rate: {result.kv_hit_rate:.2%} "
              f"({result.kv_hits}/{result.kv_lookups})")
    print(f"  kills: {result.num_kills}  heals: {len(result.heals)}  "
          f"peak replicas: {result.peak_replicas}")
    for budget in result.budgets:
        print(f"  SLO '{budget.objective}': budget consumed "
              f"{budget.budget_consumed:.2f}x")
    print("  replicas:")
    for row in result.replica_summaries():
        retired = ("" if row["retired_at_s"] is None
                   else f"  retired@{row['retired_at_s']:.3f}s")
        print(f"    #{row['replica_id']} {row['state']:>8s}  assigned "
              f"{row['assigned']:3d}  finished {row['finished']:3d}  "
              f"busy {row['busy_s']:.3f}s{retired}")
    print(f"  digest: {fleet_digest(result)}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.obs.slo import SLO, fault_storm_config, run_slo_scenario

    slos = None
    if args.spec:
        slos = [SLO.parse(spec) for spec in args.spec]
    config = fault_storm_config()
    if args.fault_seed is not None:
        import dataclasses

        config = dataclasses.replace(config, fault_seed=args.fault_seed)
    kwargs = dict(config=config, hour_s=args.hour_s,
                  out_dir=args.bundle_dir)
    if slos is not None:
        kwargs["slos"] = slos
    report = run_slo_scenario(**kwargs)

    print(f"SLO scenario '{report['scenario']}' "
          f"(1 wall hour = {report['hour_s']:g} simulated s):")
    for budget in report["budgets"]:
        print(f"  {budget['objective']}: attainment "
              f"{budget['attainment']:.4f}, "
              f"{budget['bad']}/{budget['total']} bad, "
              f"budget consumed {budget['budget_consumed']:.2f}x")
    if report["alerts"]:
        for alert in report["alerts"]:
            print(f"  [page] {alert['rule']} at t={alert['time']:.4f}s: "
                  f"{alert['message']}")
    else:
        print("  no burn-rate alerts fired")
    for bundle in report["bundles"]:
        print(f"  flight-recorder bundle: {bundle}")

    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")

    if args.check:
        replay = run_slo_scenario(**kwargs)
        blob = json.dumps(report, sort_keys=True)
        if blob != json.dumps(replay, sort_keys=True):
            print("[FAIL] SLO replay diverged from the first run",
                  file=sys.stderr)
            return 1
        if not report["alerts"]:
            print("[FAIL] fault-storm scenario fired no burn-rate alert",
                  file=sys.stderr)
            return 1
        print(f"[ok] replay byte-identical, {len(report['alerts'])} "
              "burn-rate alert(s) fired deterministically")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import tempfile

    from repro.obs.report import (
        render_bundle_report,
        render_run_report,
        render_scenario_report,
        report_html,
    )

    def build() -> str:
        if args.bundle:
            return render_bundle_report(args.bundle)
        if args.slo_gate:
            from repro.obs.slo import fault_storm_config, run_slo_scenario

            # bundles land in a throwaway dir; only basenames reach the
            # report, so the output is byte-stable across runs
            with tempfile.TemporaryDirectory() as tmp:
                scenario = run_slo_scenario(config=fault_storm_config(),
                                            out_dir=tmp, cluster=True)
                return render_scenario_report(scenario,
                                              bundle_root=pathlib.Path(tmp))
        from repro.obs.alerts import AlertMonitor
        from repro.obs.harness import clustered_serving_run
        from repro.parallel.plan import ParallelPlan

        plan = ParallelPlan(tp=args.tp, ep=args.ep, pp=args.pp)
        result, obs = clustered_serving_run(
            model_name=args.model, plan=plan,
            arrival_rate_rps=args.rate, num_requests=args.requests,
            seed=args.seed, window_s=args.window_s,
            alerts=AlertMonitor(),
        )
        return render_run_report(
            result, obs, title=f"Run report: {args.model} ({plan.label})")

    report = build()
    if args.check:
        replay = build()
        if report != replay:
            print("[FAIL] report replay diverged from the first run",
                  file=sys.stderr)
            return 1
        print(f"[ok] report byte-identical across two seeded runs "
              f"({len(report)} bytes)")
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"wrote {path}")
    if args.html:
        path = pathlib.Path(args.html)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report_html(report))
        print(f"wrote {path}")
    if not args.out and not args.html and not args.check:
        print(report, end="")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.report import render_profile_report
    from repro.obs.instrument import Instrumentation
    from repro.obs.profile import CostProfile, profile_serving_run

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.target in list_experiments():
        # wall-clock attribution of one registered experiment
        obs = Instrumentation.on()
        with obs.tracer.wall_span(f"experiment.{args.target}",
                                  track="experiment", cat="experiment"):
            run_experiment(args.target)
        profile = CostProfile.from_tracer(obs.tracer)
        out.write_text(profile.folded(tracks=["experiment"]))
        print(f"wrote {out}")
        print()
        print(render_time_breakdown(obs.tracer.span_totals("experiment")))
        return 0

    report = profile_serving_run(
        args.target,
        num_requests=args.requests,
        input_tokens=args.input_tokens,
        output_tokens=args.output_tokens,
        arrival_interval=args.arrival_interval,
        speedup=args.speedup,
    )
    out.write_text(report.folded())
    print(f"wrote {out} (load with flamegraph.pl / speedscope)")
    print()
    print(render_profile_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moe-inference-bench",
        description="Regenerate the MoE-Inference-Bench experiments on simulated hardware.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list experiment ids")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one or more experiments")
    p_run.add_argument("exp_id",
                       help="experiment id, or comma-separated ids "
                            "(see `list`)")
    p_run.add_argument("--out", help="directory for markdown/CSV output")
    _add_runner_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_all = sub.add_parser("run-all", help="run every experiment")
    p_all.add_argument("--out", help="directory for markdown/CSV output")
    _add_runner_args(p_all)
    p_all.set_defaults(func=_cmd_run_all)

    p_sum = sub.add_parser(
        "summary", help="run everything into one markdown report"
    )
    p_sum.add_argument("--out", help="output markdown file")
    _add_runner_args(p_sum)
    p_sum.set_defaults(func=_cmd_summary)

    p_trace = sub.add_parser(
        "trace",
        help="record a Chrome trace of a serving workload (or an experiment)",
    )
    p_trace.add_argument(
        "target", nargs="?", default="OLMoE-1B-7B",
        help="model name for a reference serving run, or an experiment id "
             "for a wall-clock experiment trace (default OLMoE-1B-7B)",
    )
    _add_workload_args(p_trace)
    p_trace.add_argument("--out", default="trace.json",
                         help="trace output path (default trace.json)")
    p_trace.add_argument("--metrics-out",
                         help="also write Prometheus metrics to this path")
    p_trace.add_argument("--no-routing", action="store_true",
                         help="disable the expert-routing probe")
    p_trace.add_argument("--poisson", type=float, metavar="RATE",
                         help="use the ext_serving_load Poisson workload "
                              "at RATE requests/s instead of the "
                              "fixed-shape burst")
    p_trace.add_argument("--request", type=int, metavar="ID",
                         help="keep only events belonging to this "
                              "request id")
    p_trace.add_argument("--match", metavar="REGEX",
                         help="keep only events whose span name matches "
                              "this regex")
    p_trace.add_argument("--cluster", action="store_true",
                         help="run the multi-device clustered workload so "
                              "the trace carries per-device occupancy "
                              "lanes and per-link utilization counters")
    p_trace.add_argument("--device", type=int, metavar="ID",
                         help="keep only events of this device lane "
                              "(implies --cluster)")
    p_trace.add_argument("--link", metavar="NAME",
                         help="keep only events of this interconnect link "
                              "(e.g. ep_alltoall; implies --cluster)")
    p_trace.add_argument("--timeline", type=int, metavar="ID",
                         help="print the causal lifecycle timeline of one "
                              "request instead of writing a trace")
    p_trace.set_defaults(func=_cmd_trace)

    p_metrics = sub.add_parser(
        "metrics",
        help="run the reference serving workload and print its metrics",
    )
    p_metrics.add_argument("model", nargs="?", default="OLMoE-1B-7B",
                           help="model name (default OLMoE-1B-7B)")
    _add_workload_args(p_metrics)
    p_metrics.add_argument("--json", action="store_true",
                           help="JSON snapshot instead of Prometheus text")
    p_metrics.add_argument("--out", help="write to a file instead of stdout")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_bench = sub.add_parser(
        "bench",
        help="record / check / chart experiment fingerprint baselines",
    )
    p_bench.add_argument("--record", action="store_true",
                         help="append current fingerprints to the baselines")
    p_bench.add_argument("--check", action="store_true",
                         help="diff current fingerprints against the "
                              "baselines; exit 1 on drift")
    p_bench.add_argument("--trend", action="store_true",
                         help="chart recorded fingerprint trajectories")
    p_bench.add_argument("--figs",
                         help="comma-separated experiment ids (default: all "
                              "with baselines, else all)")
    p_bench.add_argument("--dir", default=".",
                         help="directory holding BENCH_<figure>.json "
                              "(default: repo root)")
    p_bench.add_argument("--note", default="",
                         help="annotation stored with --record")
    p_bench.add_argument("--wall", action="store_true",
                         help="also gate wall-clock metrics (loose band)")
    p_bench.add_argument("--out", help="write the --trend report here")
    _add_runner_args(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_chaos = sub.add_parser(
        "chaos",
        help="serve a deterministic workload under a seeded fault schedule",
    )
    p_chaos.add_argument("--model", default="OLMoE-1B-7B",
                         help="model name (default OLMoE-1B-7B)")
    _add_workload_args(p_chaos)
    p_chaos.add_argument("--fault-seed", type=int, default=0,
                         help="seed of the fault schedule (default 0)")
    p_chaos.add_argument("--fault-rate", type=float, default=2.0,
                         help="total fault events per simulated second "
                              "(default 2.0)")
    p_chaos.add_argument("--horizon", type=float, default=8.0,
                         help="fault-schedule horizon in simulated seconds "
                              "(default 8.0)")
    p_chaos.add_argument("--devices", type=int, default=4,
                         help="devices in the fault domain (default 4)")
    p_chaos.add_argument("--ep", type=int, default=4,
                         help="expert-parallel ranks (default 4)")
    p_chaos.add_argument("--replicas", type=int, default=2,
                         help="expert replicas across EP ranks (default 2)")
    p_chaos.add_argument("--policy", choices=("retry", "failfast"),
                         default="retry",
                         help="recovery policy for fault-killed requests")
    p_chaos.add_argument("--no-degrade", action="store_true",
                         help="disable graceful top-k degradation on "
                              "expert-coverage loss")
    p_chaos.add_argument("--show-schedule", action="store_true",
                         help="print the generated fault schedule")
    p_chaos.add_argument("--smoke", action="store_true",
                         help="replay with the same seeds and assert "
                              "bit-identical digests + invariants (CI gate)")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_fleet = sub.add_parser(
        "fleet",
        help="route a diurnal templated trace across a multi-replica "
             "fleet (router + admission + autoscaler + replica storm)",
    )
    p_fleet.add_argument("--policy", choices=("round_robin", "least_kv",
                                              "prefix_affinity"),
                         default="prefix_affinity",
                         help="router policy (default prefix_affinity)")
    p_fleet.add_argument("--replicas", type=int, default=None,
                         help="override the initial fleet width "
                              "(default: the canonical scenario's 3)")
    p_fleet.add_argument("--requests", type=int, default=96,
                         help="trace length (default 96)")
    p_fleet.add_argument("--seed", type=int, default=23,
                         help="trace seed (default 23; the storm keeps "
                              "the canonical schedule)")
    p_fleet.add_argument("--no-storm", action="store_true",
                         help="disarm the replica kill/heal storm")
    p_fleet.add_argument("--no-autoscale", action="store_true",
                         help="freeze the fleet at its initial width")
    p_fleet.add_argument("--smoke", action="store_true",
                         help="replay the canonical scenario twice and "
                              "assert bit-identical digests + invariants "
                              "(CI gate)")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_slo = sub.add_parser(
        "slo",
        help="run the fault-storm scenario with SLO burn-rate paging "
             "armed and report error-budget burn",
    )
    p_slo.add_argument("--spec", action="append", metavar="SPEC",
                       help="declarative SLO, repeatable (e.g. "
                            "'p99 ttft < 0.5s', 'availability >= 99.9%%'; "
                            "default: the canonical pair)")
    p_slo.add_argument("--hour-s", type=float, default=1.0,
                       help="simulated seconds standing in for one wall "
                            "hour in the SRE burn windows (default 1.0)")
    p_slo.add_argument("--fault-seed", type=int, default=None,
                       help="override the storm's fault-schedule seed")
    p_slo.add_argument("--bundle-dir",
                       help="dump flight-recorder bundles here when a "
                            "burn alert fires")
    p_slo.add_argument("--out", help="write the JSON report here")
    p_slo.add_argument("--check", action="store_true",
                       help="replay the scenario and assert the report is "
                            "byte-identical with >=1 burn alert fired "
                            "(CI gate)")
    p_slo.set_defaults(func=_cmd_slo)

    p_report = sub.add_parser(
        "report",
        help="fold an observed serving run (or a flight-recorder bundle) "
             "into one deterministic markdown/HTML run report",
    )
    p_report.add_argument("model", nargs="?", default="OLMoE-1B-7B",
                          help="model name for the clustered Poisson "
                               "workload (default OLMoE-1B-7B)")
    p_report.add_argument("--tp", type=int, default=4,
                          help="tensor-parallel degree (default 4)")
    p_report.add_argument("--ep", type=int, default=4,
                          help="expert-parallel degree (default 4)")
    p_report.add_argument("--pp", type=int, default=1,
                          help="pipeline-parallel degree (default 1)")
    p_report.add_argument("--rate", type=float, default=8.0,
                          help="Poisson arrival rate in requests/s "
                               "(default 8.0)")
    p_report.add_argument("--requests", type=int, default=48,
                          help="number of requests (default 48)")
    p_report.add_argument("--seed", type=int, default=11,
                          help="workload seed (default 11)")
    p_report.add_argument("--window-s", type=float, default=0.05,
                          help="telemetry window length in simulated "
                               "seconds (default 0.05)")
    p_report.add_argument("--bundle", metavar="DIR",
                          help="render a flight-recorder bundle directory "
                               "instead of running a workload")
    p_report.add_argument("--slo-gate", action="store_true",
                          help="run the fault-storm SLO scenario with "
                               "cluster telemetry armed and fold its "
                               "bundles into the report (the CI artifact)")
    p_report.add_argument("--out", help="write the markdown report here")
    p_report.add_argument("--html",
                          help="also write an HTML-wrapped copy here")
    p_report.add_argument("--check", action="store_true",
                          help="build the report twice and assert the "
                               "bytes are identical (determinism gate)")
    p_report.set_defaults(func=_cmd_report)

    p_prof = sub.add_parser(
        "profile",
        help="attribute a run's time per phase × component "
             "(folded-stack output + roofline advice)",
    )
    p_prof.add_argument(
        "target", nargs="?", default="OLMoE-1B-7B",
        help="model name for a simulated serving profile, or an experiment "
             "id for a wall-clock experiment profile (default OLMoE-1B-7B)",
    )
    _add_workload_args(p_prof)
    p_prof.add_argument("--out", default="profile.folded",
                        help="folded-stack output path (default "
                             "profile.folded)")
    p_prof.add_argument("--speedup", type=float, default=0.10,
                        help="hypothetical component speedup priced by the "
                             "advice table (default 0.10)")
    p_prof.set_defaults(func=_cmd_profile)

    from repro.lint.cli import add_lint_parser

    add_lint_parser(sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
