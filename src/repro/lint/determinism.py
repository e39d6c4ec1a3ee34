"""Determinism lints (DET0xx).

The whole reproduction is gated on bit-identical replays (fingerprint
baselines, chaos ``--smoke``), which only holds if simulated results never
observe the host: no wall clocks, no unseeded RNG, no hash-order
iteration.  The *wall channel* — the span tracer's wall clock, the
regression store's timestamps/overhead probe, and the parallel runner's
scheduling — is explicitly allowed to read the host; everything else in
``repro`` must not.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (
    Rule,
    SourceFile,
    Violation,
    dotted_name,
    import_aliases,
    register_rule,
    resolve_call,
)

__all__ = ["WallClockRule", "UnseededRngRule", "SetIterationRule",
           "iter_wall_hits", "iter_rng_hits", "iter_set_order_hits"]

#: the wall channel + runner: code whose *job* is to observe the host.
#: Everything here is excluded from sim-determinism checks by design —
#: wall readings feed only the fingerprint ``wall`` section, never tables.
WALL_CHANNEL = (
    "src/repro/obs/trace.py",     # wall_span reads perf_counter
    "src/repro/obs/regress.py",   # recorded_at stamps + overhead probe
    "src/repro/runner.py",        # worker scheduling off recorded runtimes
    "src/repro/core/experiment.py",  # runtime_s stamping (wall channel)
)

_WALL_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

# the numpy legacy global RNG: seeded process-wide, order-dependent —
# banned outright in favour of explicit `np.random.default_rng(seed)`
_NP_LEGACY = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "normal", "uniform", "poisson", "exponential",
    "binomial", "standard_normal", "bytes", "sample", "ranf", "get_state",
    "set_state",
}

_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "seed", "getrandbits", "triangular", "paretovariate",
}


def iter_wall_hits(tree: ast.AST,
                   aliases: dict[str, str]) -> Iterator[tuple[ast.Call, str]]:
    """(call node, resolved name) for every wall-clock read in ``tree``
    (DET001's sources)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = resolve_call(node, aliases)
        if name in _WALL_CALLS:
            yield node, name


def iter_rng_hits(tree: ast.AST,
                  aliases: dict[str, str]) -> Iterator[tuple[ast.Call, str]]:
    """(call node, resolved name) for every unseeded / process-global RNG
    use in ``tree`` (DET002's sources)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = resolve_call(node, aliases)
        if name is None:
            continue
        if name in ("numpy.random.default_rng", "random.Random"):
            if not node.args and not node.keywords:
                yield node, name
            continue
        if name.startswith("numpy.random."):
            if name.rsplit(".", 1)[1] in _NP_LEGACY:
                yield node, name
            continue
        if name.startswith("random."):
            if name.rsplit(".", 1)[1] in _STDLIB_RANDOM_FNS:
                yield node, name


@register_rule
class WallClockRule(Rule):
    id = "DET001"
    name = "wall-clock-read"
    severity = "error"
    description = (
        "wall-clock call outside the wall channel: simulated results must "
        "never observe host time (breaks bit-identical fingerprints)"
    )
    include = ("src/repro",)
    exclude = WALL_CHANNEL

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        aliases = import_aliases(sf.tree)
        for node, name in iter_wall_hits(sf.tree, aliases):
            yield sf.violation(
                self, node,
                f"{name}() reads the host clock; simulated code must "
                f"use the simulated clock (wall channel is allowlisted: "
                f"obs.trace / obs.regress / runner / core.experiment)",
            )


@register_rule
class UnseededRngRule(Rule):
    id = "DET002"
    name = "unseeded-rng"
    severity = "error"
    description = (
        "unseeded or process-global RNG: every random stream must be an "
        "explicitly seeded np.random.default_rng / random.Random"
    )
    include = ("src/repro",)

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        aliases = import_aliases(sf.tree)
        for node, name in iter_rng_hits(sf.tree, aliases):
            if name in ("numpy.random.default_rng", "random.Random"):
                yield sf.violation(
                    self, node,
                    f"{name}() without a seed draws entropy from the "
                    f"host; pass an explicit seed",
                )
            elif name.startswith("numpy.random."):
                yield sf.violation(
                    self, node,
                    f"{name}() uses the process-global legacy RNG; use "
                    f"an explicitly seeded np.random.default_rng(seed)",
                )
            else:
                yield sf.violation(
                    self, node,
                    f"{name}() uses the process-global stdlib RNG; use "
                    f"an explicitly seeded random.Random(seed) instance",
                )


_MATERIALIZERS = {"list", "tuple", "enumerate", "iter"}


def _set_typed_names(tree: ast.AST) -> set[str]:
    """Names assigned a set display / set() call anywhere in the file
    (coarse but effective: one namespace, no reassignment tracking)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    names.add(tgt.id)
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            ann = node.annotation
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            if isinstance(base, ast.Name) and base.id in ("set", "frozenset"):
                names.add(node.target.id)
    return names


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fname = dotted_name(node.func)
        return fname in ("set", "frozenset")
    return False


def iter_set_order_hits(tree: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """(node, description) for every hash-order set iteration in ``tree``
    (DET003's sources)."""
    set_names = _set_typed_names(tree)

    def flag(iter_node: ast.AST) -> Iterator[tuple[ast.AST, str]]:
        if _is_set_expr(iter_node):
            yield iter_node, "set iteration"
        elif (isinstance(iter_node, ast.Name)
              and iter_node.id in set_names):
            yield iter_node, f"iteration over set-typed {iter_node.id!r}"

    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            yield from flag(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield from flag(gen.iter)
        elif isinstance(node, ast.Call):
            fname = dotted_name(node.func)
            if fname in _MATERIALIZERS and node.args:
                yield from flag(node.args[0])


@register_rule
class SetIterationRule(Rule):
    id = "DET003"
    name = "set-iteration"
    severity = "error"
    description = (
        "iteration over a set: element order depends on hash seeding and "
        "insertion history — sort first (sorted(...)) before iterating"
    )
    include = ("src/repro",)

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        for node, detail in iter_set_order_hits(sf.tree):
            if detail == "set iteration":
                yield sf.violation(
                    self, node,
                    "iterating a set: order is hash/insertion dependent; "
                    "wrap in sorted(...) to fix the order",
                )
            else:
                yield sf.violation(
                    self, node,
                    f"iterating set-typed name {node.id!r}: order is "
                    f"hash/insertion dependent; wrap in sorted(...)",
                )
