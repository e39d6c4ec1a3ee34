"""repro.lint — static analysis that proves the simulator's invariants.

Five rule families, all AST-based (nothing executes):

* **DET** determinism: no wall clocks, unseeded RNG, or set-order
  iteration outside the wall channel (bit-identical fingerprints),
  flagged at the line that does it, however many calls later the value
  reaches a digest;
* **UNIT** unit consistency: suffix-inferred dimensional analysis of
  the roofline arithmetic in ``repro.perfmodel`` / ``repro.hardware``,
  in one function (UNIT0xx) and across calls (UNIT1xx);
* **OBS** observability conventions: unit-suffixed metric names and
  simulated-clock span timestamps;
* **REG** registry drift: experiments ↔ BENCH baselines ↔
  EXPERIMENTS.md ↔ CLI surface;
* **SUP** stale ``# simlint: disable=`` suppressions.

Entry points: ``repro lint`` (CLI, the CI gate) and :func:`run_lint`
(programmatic).  See ``docs/lint.md``.
"""

from repro.lint.core import (
    LintProject,
    ProjectRule,
    Rule,
    Violation,
    all_rules,
    get_rule,
    lint_source,
    run_lint,
)

__all__ = [
    "LintProject",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_source",
    "run_lint",
]
