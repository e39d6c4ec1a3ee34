"""repro.lint.flow — whole-program interprocedural analysis.

Where the UNIT0xx rules pattern-match inside one function, this package
builds a project-wide **symbol table** and **call graph** over
``src/repro`` (resolving ``self.method``, imported names, instance-attr
and local-variable receiver types), then runs the **UNIT1xx
interprocedural units** analysis on it (:mod:`repro.lint.flow.unitflow`):
the suffix unit lattice of ``repro.lint.units`` lifted to function
signatures and returns, so units are checked at call boundaries
(argument vs parameter suffix, returned unit vs use-site arithmetic)
instead of going silent at the first call.

Per-file summaries are cached on each file's SHA-256
(:mod:`repro.lint.flow.cache`), so a warm re-lint skips extraction for
unchanged files.
"""

from repro.lint.flow.engine import program_for
from repro.lint.flow.graph import Program

__all__ = ["Program", "program_for"]
