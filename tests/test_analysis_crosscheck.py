"""Machine/table cross-check: clean on the shipped simulator, and any
seeded machine-side divergence is reported as C001/C002."""

from __future__ import annotations

import pytest

from repro.analysis.crosscheck import (
    crosscheck,
    crosscheck_relocations,
    crosscheck_sequences,
)
from repro.coma.machine import ComaMachine
from repro.coma.replacement import ReplacementEngine
from repro.coma.states import EXCLUSIVE, OWNER


class TestShippedMachine:
    def test_sequences_match_table(self):
        report = crosscheck_sequences(nodes=3, depth=3)
        assert report.ok, [f.detail for f in report.findings]
        # 6 ops (r/w x 3 nodes), depths 1..3: 6 + 36 + 216
        assert report.stats["sequences"] == 258

    def test_two_node_deeper_sequences(self):
        report = crosscheck_sequences(nodes=2, depth=4)
        assert report.ok, [f.detail for f in report.findings]

    def test_relocation_scenarios_match_table(self):
        report = crosscheck_relocations()
        assert report.ok, [f.detail for f in report.findings]
        assert report.stats["scenarios"] == 4

    def test_combined_entry_point(self):
        report = crosscheck(nodes=3, depth=2)
        assert report.ok
        assert report.stats["sequences"] == 42
        assert report.stats["scenarios"] == 4


def drop_owner_degrade(monkeypatch) -> None:
    """Every built machine resolves the supplier's remote_read snoop to
    E (no degrade).  ``read`` degrades an AM owner in line and calls
    ``_owner_to_shared_state`` for the others; both read ``_st_degrade``."""
    real_init = ComaMachine.__init__

    def mutated_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self._st_degrade = EXCLUSIVE

    monkeypatch.setattr(ComaMachine, "__init__", mutated_init)


class TestMachineMutationsAreCaught:
    """Monkeypatch a coherence action out of the machine and assert the
    cross-check localizes the divergence with the right rule ID."""

    def test_missing_owner_degrade_is_c001(self, monkeypatch):
        # Supplier no longer snoops remote_read: stays E instead of E->O.
        drop_owner_degrade(monkeypatch)
        report = crosscheck_sequences(nodes=2, depth=2)
        assert not report.ok
        f = report.findings[0]
        assert f.rule == "C001"
        assert "table predicts" in f.detail and "machine holds" in f.detail

    def test_divergence_carries_minimal_sequence(self, monkeypatch):
        drop_owner_degrade(monkeypatch)
        report = crosscheck_sequences(nodes=2, depth=3)
        # A shortest exposing sequence: materialize at one node, read at
        # the other (two ops — depth-1 sequences cannot expose it).
        detail = report.findings[0].detail
        assert "sequence: r@n0 r@n1" in detail
        assert "table predicts: O S" in detail
        assert "machine holds:  E S" in detail

    def test_missing_invalidation_is_c001(self, monkeypatch):
        # Writes no longer invalidate remote sharers.
        monkeypatch.setattr(
            ComaMachine, "_invalidate_others",
            lambda self, line, writer: None,
        )
        report = crosscheck_sequences(nodes=2, depth=3)
        assert not report.ok
        assert report.findings[0].rule == "C001"

    def test_inject_state_mutation_is_c002(self, monkeypatch):
        # Receiver preserves the evicted copy's state instead of applying
        # the resolved I + inject row (the pre-fix divergence this
        # subsystem was built to catch: O relocates as O with no sharers).
        original = ReplacementEngine._transfer

        def transfer_preserving_state(self, src, src_way, dst, dst_way, now, *args):
            am = src.am
            line, state = am.line_a[src_way], am.state_a[src_way]
            original(self, src, src_way, dst, dst_way, now, *args)
            dst.am.state_a[dst.am.index[line]] = state

        monkeypatch.setattr(
            ReplacementEngine, "_transfer", transfer_preserving_state
        )
        report = crosscheck_relocations()
        assert not report.ok
        f = report.findings[0]
        assert f.rule == "C002"
        assert "owner-no-sharers" in f.message
        assert "table resolves inject to E" in f.detail
        assert "machine installed O" in f.detail

    def test_takeover_state_mutation_is_c002(self, monkeypatch):
        # Sharer takeover always installs Owner, ignoring the
        # sharer-dependent resolution (should be E when the taker is the
        # last copy).  Mutate the resolution each built machine binds,
        # so the scenarios' own expected-state lookups (which read the
        # declarative table) stay honest.
        real_init = ComaMachine.__init__

        def mutated_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            self._inj_shared = (OWNER, OWNER)

        monkeypatch.setattr(ComaMachine, "__init__", mutated_init)
        report = crosscheck_relocations()
        assert not report.ok
        assert {f.rule for f in report.findings} == {"C002"}
        assert any("takeover-last" in f.message for f in report.findings)


class TestSpeed:
    def test_crosscheck_is_fast_enough_for_ci(self):
        import time

        t0 = time.perf_counter()
        crosscheck(nodes=3, depth=3)
        assert time.perf_counter() - t0 < 10.0


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
