"""reprolint: AST-based static checks for the simulator's invariants.

The reproduction's headline guarantees — bit-identical golden snapshots
across ``--jobs`` levels, picklable experiment grids — are
*behavioural* contracts that a stray ``random.random()``
or a lambda in a run spec silently violates until a golden test
happens to catch it.  This package moves those contracts to lint time:

* :mod:`repro.analysis.rules` — the four rules (REP001-REP004; codes
  REP005-REP014 retired) and the pluggable registry new rules hook
  into;
* :mod:`repro.analysis.engine` — file walking and suppression
  partitioning;
* :mod:`repro.analysis.cli` — the ``python -m repro lint`` gate.

Every rule checks one file at a time.  Whether a run actually reaches
a draw or a clock read is a property of executions, which the goldens
and the differential sweeps check by running them.

See ``docs/static-analysis.md`` for the rule catalogue, the
suppression workflow, and how to add a rule.
"""

from repro.analysis.cli import LINT_JSON_SCHEMA, LINT_SCHEMA, main
from repro.analysis.engine import LintResult, lint_paths
from repro.analysis.findings import Finding, scan_suppressions
from repro.analysis.rules import (
    KERNEL_PACKAGES,
    Rule,
    all_rules,
    register,
    rule_catalog,
)

__all__ = [
    "Finding",
    "KERNEL_PACKAGES",
    "LINT_JSON_SCHEMA",
    "LINT_SCHEMA",
    "LintResult",
    "Rule",
    "all_rules",
    "lint_paths",
    "main",
    "register",
    "rule_catalog",
    "scan_suppressions",
]
