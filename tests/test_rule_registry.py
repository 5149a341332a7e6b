"""The consolidated rule registry: every stable rule ID documented
exactly once, and no analysis pass emitting an unregistered ID."""

from __future__ import annotations

import re
from pathlib import Path

import repro.analysis as analysis_pkg
from repro.analysis.report import explain_rule, rule_registry

#: Shape of every stable rule ID (prefix families are part of the
#: public vocabulary; see docs/VERIFICATION.md).
_ID = re.compile(r"\b(T|I|C|DET|MUT|FLT|EXC|HOT|R|V|L|SYN|B)(\d{3})\b")

#: String-literal matches in the analysis sources that *look like* rule
#: IDs but are not findings (none currently; add here with a reason).
_FALSE_POSITIVES: frozenset[str] = frozenset()


def _ids_in_analysis_sources() -> set[str]:
    root = Path(analysis_pkg.__file__).parent
    found: set[str] = set()
    for path in sorted(root.glob("*.py")):
        for m in _ID.finditer(path.read_text()):
            found.add(m.group(0))
    return found - _FALSE_POSITIVES


class TestRegistry:
    def test_builds_without_duplicates(self):
        registry = rule_registry()
        assert len(registry) == 34

    def test_covers_every_prefix_family(self):
        prefixes = {re.match(r"[A-Z]+", rule).group(0)
                    for rule in rule_registry()}
        assert prefixes == {"T", "I", "C", "DET", "MUT", "FLT", "EXC",
                            "HOT", "R", "V", "L", "SYN", "B"}

    def test_no_undocumented_ids_in_sources(self):
        """Every rule-ID-shaped literal in the analysis sources must be
        registered — a pass cannot emit an ID the registry can't
        explain."""
        registry = rule_registry()
        undocumented = _ids_in_analysis_sources() - set(registry)
        assert not undocumented, sorted(undocumented)

    def test_every_registered_id_appears_in_sources(self):
        """No orphan documentation: a registered ID must actually occur
        in the analysis sources (emission site or rule table)."""
        orphans = set(rule_registry()) - _ids_in_analysis_sources()
        assert not orphans, sorted(orphans)

    def test_docs_are_nonempty_prose(self):
        for rule, doc in rule_registry().items():
            assert doc and len(doc) >= 10, rule

    def test_explain_rule(self):
        assert "static maximum" in explain_rule("B101")
        assert explain_rule("Z999") is None


class TestExplainCli:
    def test_known_rule(self, capsys):
        from repro.cli import main

        assert main(["lint", "--explain", "C002"]) == 0
        assert "relocation" in capsys.readouterr().out

    def test_unknown_rule_exits_2(self, capsys):
        from repro.cli import main

        assert main(["lint", "--explain", "Z999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err and "B101" in err
