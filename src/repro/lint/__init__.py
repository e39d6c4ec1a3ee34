"""repro.lint — static analysis that proves the simulator's invariants.

Four rule families, all AST-based (nothing executes):

* **DET0xx** determinism: no wall clocks, unseeded RNG, or set-order
  iteration outside the wall channel (bit-identical fingerprints);
* **UNIT0xx** unit consistency: suffix-inferred dimensional analysis of
  the roofline arithmetic in ``repro.perfmodel`` / ``repro.hardware``;
* **PAR0xx** fast-path parity: the scalar engine iteration and the
  batched decode-window replay must change together (snapshot + literal
  mirroring);
* **REG0xx** registry drift: experiments ↔ BENCH baselines ↔
  EXPERIMENTS.md ↔ CLI surface.

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
