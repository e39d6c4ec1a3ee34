"""repro.lint.flow — whole-program interprocedural analysis.

Where the PR-5 rule families pattern-match inside one function, this
package builds a project-wide **symbol table** and **call graph** over
``src/repro`` (resolving ``self.method``, imported names, instance-attr
and local-variable receiver types, and registry indirections like
``@experiment``), then runs three analyses on it:

* **DET1xx determinism taint** (:mod:`repro.lint.flow.taint`) —
  wall-clock reads, unseeded RNG and set-order iteration are *sources*;
  digest-bearing entry points (experiment fingerprints, the serving
  engine's event log, fleet digests, chaos replay) are *roots*; taint
  propagates through calls, with the declared wall-channel modules as
  sanitizers.  A source laundered through any number of helper calls is
  reported with its full root→source call chain.
* **UNIT1xx interprocedural units** (:mod:`repro.lint.flow.unitflow`) —
  the suffix unit lattice of ``repro.lint.units`` lifted to function
  signatures and returns, so units are checked at call boundaries
  (argument vs parameter suffix, returned unit vs use-site arithmetic)
  instead of going silent at the first call.
* **PAR1xx parity coverage** (:mod:`repro.lint.flow.coverage`) —
  scalar-engine ↔ fast-path mirror candidates are auto-discovered by name
  heuristics over the fast-path modules, and every candidate must be
  registered in ``repro.lint.parity.PAIRS`` (and therefore fingerprinted
  in ``LINT_PARITY.json``) or explicitly allowlisted — the manifest is
  exhaustiveness-checked, not honor-system.

Per-file summaries are cached on each file's SHA-256
(:mod:`repro.lint.flow.cache`), so a warm re-lint skips extraction for
unchanged files; ``repro lint --graph`` exports the call graph (DOT or
JSON) with taint paths highlighted.
"""

from repro.lint.flow.engine import program_for
from repro.lint.flow.graph import Program

__all__ = ["Program", "program_for"]
