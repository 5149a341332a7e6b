"""Coherence-sanitizer tests: rule semantics and seeded-defect mutations.

Two layers:

* **Stream unit tests** feed hand-built event sequences straight into
  :class:`CoherenceSanitizer.emit` and pin each rule's trigger and
  non-trigger conditions (the happens-before algebra, the golden/copy
  version bookkeeping, the ping-pong bounce criterion).
* **Mutation tests** run real (small) simulations through an event
  *filter* that seeds one defect class — a dropped release edge, a
  stale injected value, a forced relocation loop — and assert that the
  sanitizer catches each with exactly the intended rule ID.  A clean
  end-to-end run must stay clean, so the detectors have no false
  positives to hide behind.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.report import format_findings
from repro.analysis.sanitize import (
    DEFAULT_PINGPONG_THRESHOLD,
    CoherenceSanitizer,
    sanitizer_for,
)
from repro.obs.events import MemAccess, Replacement, SyncOp, Transition
from repro.obs.sink import TraceSink
from repro.workloads.base import SHARING_PRIVATE, SHARING_SYNC


# ----------------------------------------------------------------------
# stream-building helpers
# ----------------------------------------------------------------------

def acc(t, proc, op, addr, level="remote", line=None):
    """A memory access; defaults to level "remote" so V-rule copy
    tracking stays out of R-rule tests."""
    return MemAccess(t, proc, op, line if line is not None else addr // 64,
                     level, 10, addr)


def lock(t, proc, op, obj=0):
    return SyncOp(t, proc, op, "lock", obj)


def barrier(t, proc, op, obj=0):
    return SyncOp(t, proc, op, "barrier", obj)


def feed(san, *events):
    for ev in events:
        san.emit(ev)
    return san.finish()


def rules(report):
    return [f.rule for f in report.findings]


# ----------------------------------------------------------------------
# R-rules: happens-before races
# ----------------------------------------------------------------------

class TestRaceRules:
    def test_lock_ordered_accesses_are_clean(self):
        report = feed(
            CoherenceSanitizer(),
            lock(1, 0, "acquire"), acc(2, 0, "w", 0x100),
            lock(3, 0, "release"),
            lock(4, 1, "acquire"), acc(5, 1, "r", 0x100),
            acc(6, 1, "w", 0x100), lock(7, 1, "release"),
        )
        assert report.ok

    def test_unordered_write_write_is_R001(self):
        report = feed(
            CoherenceSanitizer(),
            acc(1, 0, "w", 0x100), acc(2, 1, "w", 0x100),
        )
        assert rules(report) == ["R001"]

    def test_unordered_write_then_read_is_R002(self):
        report = feed(
            CoherenceSanitizer(),
            acc(1, 0, "w", 0x100), acc(2, 1, "r", 0x100),
        )
        assert rules(report) == ["R002"]

    def test_unordered_read_then_write_is_R002(self):
        report = feed(
            CoherenceSanitizer(),
            acc(1, 0, "r", 0x100), acc(2, 1, "w", 0x100),
        )
        assert rules(report) == ["R002"]

    def test_dropped_release_edge_loses_the_ordering(self):
        # Same as the clean lock test, minus P0's release: the critical
        # sections no longer synchronize and both directions race.
        report = feed(
            CoherenceSanitizer(),
            lock(1, 0, "acquire"), acc(2, 0, "w", 0x100),
            lock(4, 1, "acquire"), acc(5, 1, "w", 0x100),
        )
        assert rules(report) == ["R001"]

    def test_different_addresses_do_not_race(self):
        # Same line, different words: false sharing, not a data race.
        report = feed(
            CoherenceSanitizer(),
            acc(1, 0, "w", 0x100, line=4), acc(2, 1, "w", 0x108, line=4),
        )
        assert report.ok

    def test_barrier_orders_phases(self):
        report = feed(
            CoherenceSanitizer(),
            acc(1, 0, "w", 0x100),
            barrier(2, 0, "arrive"), barrier(3, 1, "arrive"),
            barrier(4, 0, "depart"), barrier(5, 1, "depart"),
            acc(6, 1, "r", 0x100), acc(7, 1, "w", 0x100),
        )
        assert report.ok

    def test_second_barrier_episode_still_orders(self):
        report = feed(
            CoherenceSanitizer(),
            barrier(1, 0, "arrive"), barrier(2, 1, "arrive"),
            barrier(3, 0, "depart"), barrier(4, 1, "depart"),
            acc(5, 0, "w", 0x100),
            barrier(6, 0, "arrive"), barrier(7, 1, "arrive"),
            barrier(8, 0, "depart"), barrier(9, 1, "depart"),
            acc(10, 1, "w", 0x100),
        )
        assert report.ok

    def test_sync_segment_is_exempt(self):
        san = CoherenceSanitizer(segments=[("sync", 0, 0x1000)])
        report = feed(san, acc(1, 0, "w", 0x100), acc(2, 1, "w", 0x100))
        assert report.ok

    def test_declared_sync_segment_is_exempt(self):
        san = CoherenceSanitizer(
            segments=[("wl.flags", 0, 0x1000)],
            sharing={"wl.flags": SHARING_SYNC},
        )
        report = feed(san, acc(1, 0, "w", 0x100), acc(2, 1, "w", 0x100))
        assert report.ok

    def test_declared_private_two_touchers_is_R003(self):
        san = CoherenceSanitizer(
            segments=[("wl.local", 0, 0x1000)],
            sharing={"wl.local": SHARING_PRIVATE},
        )
        # Ordered by a lock, so no R001/R002 — R003 fires purely on the
        # declaration cross-check.
        report = feed(
            san,
            lock(1, 0, "acquire"), acc(2, 0, "w", 0x100),
            lock(3, 0, "release"),
            lock(4, 1, "acquire"), acc(5, 1, "w", 0x100),
            lock(6, 1, "release"),
        )
        assert rules(report) == ["R003"]

    def test_findings_dedupe_per_rule_and_address(self):
        report = feed(
            CoherenceSanitizer(),
            acc(1, 0, "w", 0x100), acc(2, 1, "w", 0x100),
            acc(3, 0, "w", 0x100),
        )
        assert rules(report) == ["R001"]

    def test_allow_suppresses_but_counts(self):
        san = CoherenceSanitizer(allow=("R001",))
        report = feed(san, acc(1, 0, "w", 0x100), acc(2, 1, "w", 0x100))
        assert report.ok
        assert report.stats["suppressed"] == 1

    def test_finding_carries_the_event_window(self):
        report = feed(
            CoherenceSanitizer(),
            acc(1, 0, "w", 0x100), acc(2, 1, "w", 0x100),
        )
        (finding,) = report.findings
        assert "last events before the finding" in finding.detail
        assert "P1" in finding.detail  # the racing store is in the window


# ----------------------------------------------------------------------
# V-rules: golden shadow memory
# ----------------------------------------------------------------------

def mat(t, node, line):
    return Transition(t, node, line, "materialize", "I", "E")


def fill(t, node, line):
    return Transition(t, node, line, "fill", "I", "S")


def inval(t, node, line, before="S"):
    return Transition(t, node, line, "invalidate", before, "I")


class TestValueRules:
    def test_missed_invalidation_stale_read_is_V001(self):
        # N1 holds a Shared replica; P0 stores without N1 being
        # invalidated (the seeded protocol defect); P1 then reads its
        # stale copy.
        report = feed(
            CoherenceSanitizer(),
            mat(1, 0, 5), fill(2, 1, 5),
            acc(3, 0, "w", -1, level="am", line=5),
            acc(4, 1, "r", -1, level="am", line=5),
        )
        assert rules(report) == ["V001"]

    def test_invalidated_copy_refetched_is_clean(self):
        report = feed(
            CoherenceSanitizer(),
            mat(1, 0, 5), fill(2, 1, 5),
            inval(3, 1, 5),
            acc(4, 0, "w", -1, level="am", line=5),
            fill(5, 1, 5),
            acc(6, 1, "r", -1, level="am", line=5),
        )
        assert report.ok

    def test_stale_relocation_is_V002(self):
        report = feed(
            CoherenceSanitizer(),
            mat(1, 0, 5), fill(2, 1, 5),
            acc(3, 0, "w", -1, level="am", line=5),
            Replacement(4, 1, 2, 5, "to_invalid", 0),
        )
        assert rules(report) == ["V002"]

    def test_relocated_version_rides_the_inject(self):
        # A current copy relocates; the inject installs it at the
        # carried version, so the destination's read is not stale.
        report = feed(
            CoherenceSanitizer(),
            mat(1, 0, 5),
            acc(2, 0, "w", -1, level="am", line=5),
            Replacement(3, 0, 1, 5, "to_invalid", 0),
            Transition(4, 1, 5, "inject", "I", "E"),
            acc(5, 1, "r", -1, level="am", line=5),
        )
        assert report.ok

    def test_read_hit_without_copy_is_V003(self):
        report = feed(
            CoherenceSanitizer(),
            acc(1, 0, "r", -1, level="l1", line=7),
        )
        assert rules(report) == ["V003"]

    def test_remote_read_needs_no_local_copy(self):
        report = feed(
            CoherenceSanitizer(),
            mat(1, 3, 7),
            acc(2, 0, "r", -1, level="remote", line=7),
        )
        assert report.ok

    def test_relocation_from_absent_copy_is_V003(self):
        report = feed(
            CoherenceSanitizer(),
            Replacement(1, 2, 3, 9, "to_invalid", 0),
        )
        assert rules(report) == ["V003"]


# ----------------------------------------------------------------------
# L003: relocation ping-pong
# ----------------------------------------------------------------------

def bounce_stream(n, line=3, nodes=(0, 1)):
    """n relocations strictly alternating between two nodes."""
    events = [mat(0, nodes[0], line)]
    for i in range(n):
        src, dst = (nodes[0], nodes[1]) if i % 2 == 0 else (nodes[1], nodes[0])
        events.append(Replacement(10 + 2 * i, src, dst, line, "to_invalid", 0))
        events.append(Transition(11 + 2 * i, dst, line, "inject", "I", "E"))
    return events


class TestPingPong:
    def test_bounce_chain_at_threshold_is_L003(self):
        report = feed(
            CoherenceSanitizer(),
            *bounce_stream(DEFAULT_PINGPONG_THRESHOLD + 1),
        )
        assert rules(report) == ["L003"]
        (finding,) = report.findings
        assert "reloc" in finding.detail  # window shows the shuttling

    def test_chain_below_threshold_is_clean(self):
        report = feed(
            CoherenceSanitizer(),
            *bounce_stream(DEFAULT_PINGPONG_THRESHOLD - 1),
        )
        assert report.ok

    def test_access_resets_the_chain(self):
        half = DEFAULT_PINGPONG_THRESHOLD // 2 + 2
        stream = bounce_stream(half, line=3)
        stream.append(acc(1000, 0, "r", -1, level="am", line=3))
        stream.extend(bounce_stream(half, line=3)[1:])  # skip the mat
        report = feed(CoherenceSanitizer(), *stream)
        assert report.ok

    def test_wandering_hot_potato_is_not_pingpong(self):
        # The line keeps moving but never bounces straight back: that is
        # ordinary migration under pressure, not a livelock symptom.
        n_nodes = 4
        events = [mat(0, 0, 3)]
        for i in range(4 * DEFAULT_PINGPONG_THRESHOLD):
            src, dst = i % n_nodes, (i + 1) % n_nodes
            events.append(Replacement(10 + 2 * i, src, dst, 3, "to_shared", 0))
            events.append(Transition(11 + 2 * i, dst, 3, "inject", "I", "E"))
        report = feed(CoherenceSanitizer(), *events)
        assert report.ok

    def test_lower_threshold_option(self):
        report = feed(
            CoherenceSanitizer(pingpong_threshold=4),
            *bounce_stream(4),
        )
        assert rules(report) == ["L003"]


# ----------------------------------------------------------------------
# mutation tests on real simulations
# ----------------------------------------------------------------------

class _MutatingSink(TraceSink):
    """Forwards events to a sanitizer through a mutation function."""

    def __init__(self, san, mutate):
        self._san = san
        self._mutate = mutate

    def emit(self, ev) -> None:
        for out in self._mutate(ev):
            self._san.emit(out)


def _run_mutated(mutate, workload="synth_migratory", mp=0.5, scale=0.25):
    from repro.experiments.runner import RunSpec, build_simulation

    spec = RunSpec(workload=workload, scale=scale, memory_pressure=mp,
                   n_processors=8, procs_per_node=2)
    sim = build_simulation(spec)
    san = sanitizer_for(sim, spec=spec)
    sim.attach(_MutatingSink(san, mutate))
    sim.run()
    return san.finish()


#: sha256 of the dropped-release-edge run's rendered findings, windows
#: included.  A change here is a change in what the sanitizer reports.
DROPPED_RELEASE_FINDINGS_SHA256 = (
    "a64f3f5fa6e817eadaa6d877c460aaf24ddb86db9cdf2c907c63bec61159be4d")


class TestSeededDefects:
    def test_clean_run_stays_clean(self):
        report = _run_mutated(lambda ev: (ev,))
        assert report.ok, [f.message for f in report.findings]
        assert report.stats["accesses"] > 0
        assert report.stats["syncops"] > 0

    def test_dropped_release_edges_seed_races(self):
        # Barnes orders its parallel tree build with per-cell locks, so
        # severing every release edge must surface the build as racy.
        def drop_releases(ev):
            if ev.kind == "syncop" and ev.op == "release":
                return ()
            return (ev,)

        report = _run_mutated(drop_releases, workload="barnes", scale=0.1)
        fired = set(rules(report))
        assert fired and fired <= {"R001", "R002"}
        text = format_findings(report.findings)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == DROPPED_RELEASE_FINDINGS_SHA256)

    def test_missed_invalidations_seed_stale_reads(self):
        # Emulate a machine that forgets to invalidate replicas: the
        # invalidate transitions vanish, and the victim node's refetch
        # (fill + remote-served read) is rewritten as the local hit the
        # buggy machine would have had.  The hit then serves the old
        # version and V001 must fire.
        from repro.experiments.runner import RunSpec, build_simulation

        spec = RunSpec(workload="synth_producer_consumer", scale=0.25,
                       memory_pressure=0.5, n_processors=8)
        sim = build_simulation(spec)
        san = sanitizer_for(sim, spec=spec)

        def mutate(ev):
            if ev.kind == "transition" and ev.cause == "invalidate":
                return ()
            tracked = san._copies.get(getattr(ev, "line", -1), {})
            if (ev.kind == "transition" and ev.cause == "fill"
                    and ev.node in tracked):
                return ()  # the node "still has" its (stale) copy
            if (ev.kind == "access" and ev.op == "r"
                    and ev.level == "remote"
                    and san._node_of(ev.proc) in tracked):
                return (MemAccess(ev.t, ev.proc, ev.op, ev.line, "am",
                                  ev.latency_ns, ev.addr),)
            return (ev,)

        sim.attach(_MutatingSink(san, mutate))
        sim.run()
        assert "V001" in rules(san.finish())

    def test_stale_inject_value_is_V002(self):
        # Bump the golden version right before a relocation ships the
        # copy: the injected bytes are now one store behind.
        state = {"done": False}

        def stale_inject(ev):
            if (ev.kind == "replacement" and not state["done"]
                    and ev.outcome in ("to_invalid", "to_shared",
                                       "to_sharer", "cascade")):
                state["done"] = True
                ghost = MemAccess(ev.t - 1, 0, "w", ev.line, "remote", 0, -1)
                return (ghost, ev)
            return (ev,)

        report = _run_mutated(stale_inject, mp=0.875)
        assert "V002" in rules(report)

    def test_stuck_relocation_loop_is_L003(self):
        # Replay every relocation as a long two-node bounce: the
        # watchdog must flag the loop even though each single event is
        # legal.
        state = {"done": False}

        def amplify(ev):
            if (ev.kind == "replacement" and not state["done"]
                    and ev.outcome == "to_invalid"):
                state["done"] = True
                out = []
                for i in range(DEFAULT_PINGPONG_THRESHOLD + 1):
                    src, dst = (ev.src, ev.dst) if i % 2 == 0 else (ev.dst, ev.src)
                    out.append(Replacement(ev.t + 2 * i, src, dst, ev.line,
                                           "to_invalid", 0))
                    out.append(Transition(ev.t + 2 * i + 1, dst, ev.line,
                                          "inject", "I", "E"))
                return out
            return (ev,)

        report = _run_mutated(amplify, mp=0.875)
        assert "L003" in rules(report)


# ----------------------------------------------------------------------
# wiring: sanitizer_for, provenance, fixture
# ----------------------------------------------------------------------

class TestWiring:
    def test_sanitizer_for_picks_up_machine_and_workload(self):
        from repro.experiments.runner import RunSpec, build_simulation

        spec = RunSpec(workload="synth_private", scale=0.25,
                       n_processors=8, procs_per_node=2)
        sim = build_simulation(spec)
        san = sanitizer_for(sim, spec=spec)
        assert san.sharing["synth_private.data"] == SHARING_PRIVATE
        assert san.sharing["sync"] == SHARING_SYNC
        # procs 0,1 -> node 0 on this 2-procs-per-node machine
        assert san._node_of(1) == 0 and san._node_of(2) == 1
        assert san.provenance["spec"]["workload"] == "synth_private"
        assert san.provenance["seed"] == spec.seed

    def test_declared_private_workload_catches_partition_bug(self):
        from repro.experiments.runner import RunSpec, build_simulation

        spec = RunSpec(workload="synth_private", scale=0.25,
                       n_processors=8, procs_per_node=2)
        sim = build_simulation(spec)
        san = sanitizer_for(sim, spec=spec)

        # Relabel P0's *reads* as P1's: P0 still first-touches (owns)
        # its partition, but a second processor now also touches those
        # addresses — the partitioning bug R003 exists to catch.
        def swap(ev):
            if ev.kind == "access" and ev.proc == 0 and ev.op == "r":
                return (MemAccess(ev.t, 1, ev.op, ev.line, ev.level,
                                  ev.latency_ns, ev.addr),)
            return (ev,)

        sim.attach(_MutatingSink(san, swap))
        sim.run()
        assert "R003" in rules(san.finish())

    def test_build_provenance_fields(self):
        from repro.experiments.runner import (
            CACHE_VERSION,
            RunSpec,
            build_simulation,
        )

        spec = RunSpec(workload="fft", seed=7, scale=0.05)
        prov = sanitizer_for(build_simulation(spec), spec=spec).provenance
        assert prov["seed"] == 7
        assert prov["cache_version"] == CACHE_VERSION
        assert prov["git_rev"]
        assert prov["spec"]["workload"] == "fft"

    def test_fixture_attaches_and_checks(self, sanitizer):
        from repro.experiments.runner import RunSpec, build_simulation

        spec = RunSpec(workload="synth_uniform", scale=0.25,
                       n_processors=8, procs_per_node=2)
        sim = build_simulation(spec)
        san = sanitizer(sim)
        sim.run()
        assert san.stats["accesses"] > 0

    def test_fixture_failure_reports_findings(self):
        report = feed(
            CoherenceSanitizer(),
            acc(1, 0, "w", 0x100), acc(2, 1, "w", 0x100),
        )
        with pytest.raises(AssertionError, match="R001"):
            assert report.ok, "\n".join(f.rule for f in report.findings)


class TestCli:
    def test_sanitize_command_clean(self, capsys):
        from repro.cli import main

        rc = main(["sanitize", "synth_migratory", "--scale", "0.25",
                   "--mp", "0.5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sanitize OK" in out
        assert "# provenance:" in out

    def test_sanitize_command_report_file(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "findings.json"
        rc = main(["sanitize", "synth_hotspot", "--scale", "0.25",
                   "--mp", "0.875", "--report", str(path)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["findings"] == []
        assert payload["provenance"]["spec"]["workload"] == "synth_hotspot"
        assert payload["stats"]["accesses"] > 0
