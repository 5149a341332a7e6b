"""Static analysis and formal verification of the simulator.

This package is the repo's correctness gate (``coma-sim verify`` /
``coma-sim lint``, both run in CI):

* :mod:`repro.analysis.model` — the E/O/S/I table lifted to a
  machine-wide transition system for small configurations;
* :mod:`repro.analysis.invariants` — the rule catalogue: static table
  rules (T…), machine-wide state invariants (I…), cross-check rules (C…);
* :mod:`repro.analysis.modelcheck` — exhaustive reachability check with
  minimal counterexample traces;
* :mod:`repro.analysis.crosscheck` — drives the executable
  :class:`~repro.coma.machine.ComaMachine` against the table;
* :mod:`repro.analysis.liveness` — deadlock-freedom and
  no-replacement-livelock proofs over the same transition system (L…);
* :mod:`repro.analysis.sanitize` — the runtime coherence sanitizer: a
  trace sink checking happens-before races (R…), golden shadow-memory
  value integrity (V…) and relocation ping-pong (L003) on live runs;
* :mod:`repro.analysis.lint` — the determinism/hygiene AST linter
  (DET/MUT/FLT/EXC rules) over ``src/repro``;
* :mod:`repro.analysis.bounds` — static per-path latency envelopes
  derived from the protocol table, certified against observed span
  trees (B101–B103, ``coma-sim bounds``);
* :mod:`repro.analysis.coverage` — reachable table cells vs cells the
  workloads exercise: dead cells, gaps and directed micro-workloads
  (``coma-sim coverage``);
* :mod:`repro.analysis.report` — shared finding vocabulary and the
  consolidated rule registry (``coma-sim lint --explain``).

See ``docs/VERIFICATION.md`` for the full catalogue and suppression
syntax.
"""

from repro.analysis.bounds import (
    BOUNDS_RULES,
    BoundsCertifier,
    bound_table,
    certify_bounds,
    enumerate_paths,
    envelope_for,
    format_bounds,
)
from repro.analysis.coverage import (
    MICRO_RECIPES,
    CoverageAnalysis,
    CoverageMap,
    format_coverage,
    reachable_cells,
    run_micro,
    table_cells,
)
from repro.analysis.crosscheck import crosscheck
from repro.analysis.invariants import ALL_RULES, check_line_state, check_table
from repro.analysis.lint import RULES as LINT_RULES
from repro.analysis.lint import lint_file, lint_source, lint_tree
from repro.analysis.liveness import check_liveness, format_liveness_report
from repro.analysis.model import ProtocolModel, Step
from repro.analysis.modelcheck import check_protocol, format_report
from repro.analysis.report import (
    AnalysisReport,
    Finding,
    explain_rule,
    format_findings,
    rule_registry,
)
from repro.analysis.sanitize import (
    CoherenceSanitizer,
    sanitizer_for,
)

__all__ = [
    "ALL_RULES",
    "BOUNDS_RULES",
    "AnalysisReport",
    "BoundsCertifier",
    "CoherenceSanitizer",
    "CoverageAnalysis",
    "CoverageMap",
    "Finding",
    "LINT_RULES",
    "MICRO_RECIPES",
    "ProtocolModel",
    "Step",
    "bound_table",
    "certify_bounds",
    "check_line_state",
    "check_liveness",
    "check_protocol",
    "check_table",
    "crosscheck",
    "enumerate_paths",
    "envelope_for",
    "explain_rule",
    "format_bounds",
    "format_coverage",
    "format_findings",
    "format_liveness_report",
    "format_report",
    "lint_file",
    "lint_source",
    "lint_tree",
    "reachable_cells",
    "rule_registry",
    "run_micro",
    "table_cells",
    "sanitizer_for",
]
