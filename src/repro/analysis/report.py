"""Shared finding/report vocabulary for the static-analysis passes.

Every pass — the protocol model checker, the static table rules, the
machine cross-check and the determinism linter — reports
:class:`Finding` objects carrying a stable rule ID, a location and a
fix-it message, so the CLI and CI render them uniformly and tests can
assert on exact IDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Finding:
    """One defect reported by an analysis pass."""

    rule: str           #: stable rule ID, e.g. "DET001" or "I001"
    message: str        #: what is wrong and how to fix it
    path: str = ""      #: file (linter) or logical location (checker)
    line: int = 0       #: 1-based source line; 0 when not file-based
    detail: str = ""    #: multi-line context, e.g. a counterexample trace

    def location(self) -> str:
        if self.path and self.line:
            return f"{self.path}:{self.line}"
        return self.path or "<protocol>"


@dataclass
class AnalysisReport:
    """Aggregate outcome of one or more passes."""

    findings: list[Finding] = field(default_factory=list)
    #: Pass-specific statistics, e.g. states explored, files linted.
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def extend(self, other: "AnalysisReport") -> None:
        self.findings.extend(other.findings)
        for key, value in other.stats.items():
            self.stats[key] = self.stats.get(key, 0) + value


def rule_registry() -> dict[str, str]:
    """Every stable rule ID the analysis passes can emit, with its doc.

    Collected from the passes' own documentation dicts (imported lazily —
    those modules import this one for :class:`Finding`).  Raises
    ``ValueError`` on a duplicate ID so two passes can never silently
    claim the same rule.
    """
    from repro.analysis.bounds import BOUNDS_RULES
    from repro.analysis.invariants import ALL_RULES
    from repro.analysis.lint import RULES as LINT_RULES

    registry: dict[str, str] = {}
    for source in (ALL_RULES, LINT_RULES, BOUNDS_RULES):
        for rule, doc in source.items():
            if rule in registry:
                raise ValueError(f"duplicate rule ID {rule!r}")
            registry[rule] = doc
    return registry


def explain_rule(rule: str) -> Optional[str]:
    """The documentation string for ``rule``, or None if unknown."""
    return rule_registry().get(rule)


def format_findings(findings: list[Finding]) -> str:
    """Render findings one per line, with indented detail blocks."""
    out = []
    for f in findings:
        out.append(f"{f.location()}: {f.rule}: {f.message}")
        if f.detail:
            out.extend("    " + line for line in f.detail.splitlines())
    return "\n".join(out)
