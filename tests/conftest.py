"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from fractions import Fraction

import pytest

from repro.coma.machine import ComaMachine
from repro.common.config import MachineConfig, TimingConfig
from repro.mem.address import AddressSpace

# Tests must never read results cached by an older code version.
os.environ.setdefault("REPRO_NO_DISK_CACHE", "1")
# ... and must never append to (or read) a developer's history archive;
# history tests opt back in with explicit archive paths.
os.environ.setdefault("REPRO_NO_HISTORY", "1")


def make_machine(
    n_processors: int = 4,
    procs_per_node: int = 2,
    am_sets: int = 8,
    am_assoc: int = 4,
    slc_lines: int = 8,
    l1_lines: int = 4,
    line_size: int = 64,
    page_size: int = 256,
    inclusive: bool = True,
    timing: TimingConfig | None = None,
    **config_kwargs,
) -> ComaMachine:
    """A small machine with exactly-controlled geometry for protocol tests."""
    cfg = MachineConfig(
        n_processors=n_processors,
        procs_per_node=procs_per_node,
        line_size=line_size,
        page_size=page_size,
        am_assoc=am_assoc,
        memory_pressure=Fraction(1, 2),
        am_bytes_per_node=am_sets * am_assoc * line_size,
        slc_bytes=slc_lines * line_size,
        l1_bytes=l1_lines * line_size,
        inclusive=inclusive,
        timing=timing or TimingConfig(),
        **config_kwargs,
    )
    space = AddressSpace(page_size=page_size)
    space.alloc(1 << 20, "test")  # plenty of address room
    return ComaMachine(cfg, space)


@pytest.fixture
def machine() -> ComaMachine:
    return make_machine()


@pytest.fixture
def big_machine() -> ComaMachine:
    """16 processors in 4 nodes — the paper's 4-way clustering shape."""
    return make_machine(n_processors=16, procs_per_node=4, am_sets=16)


@pytest.fixture
def sanitizer():
    """Attach a coherence sanitizer to simulations; assert clean at teardown.

    Usage::

        def test_something(sanitizer):
            sim = build_simulation(spec)
            sanitizer(sim)          # before sim.run()
            sim.run()

    Every attached sanitizer's report is checked after the test; any R/V/L
    finding fails it with the full finding list (window included).
    """
    from repro.analysis.report import format_findings
    from repro.analysis.sanitize import sanitizer_for

    attached = []

    def attach(sim, **kwargs):
        san = sanitizer_for(sim, **kwargs)
        sim.attach(san)
        attached.append((sim, san))
        return san

    yield attach

    for sim, san in attached:
        report = san.finish()
        assert report.ok, (
            f"sanitizer found {len(report.findings)} issue(s):\n"
            + format_findings(report.findings)
        )


def observe(machine, *observers):
    """Attach ``observers`` to a machine that a test drives directly,
    through ``Simulation.attach`` (the only attach path); returns the
    thread-less simulation holding them."""
    from repro.sim.simulator import Simulation

    sim = Simulation(machine, [])
    for o in observers:
        sim.attach(o)
    return sim


def drain(machine: ComaMachine, ops, start: int = 0) -> int:
    """Apply (kind, proc, addr) operations sequentially; returns last time.

    ``kind`` is "r" or "w"; each operation starts when the previous one
    completed, which keeps resource timing deterministic and readable.
    """
    t = start
    for kind, proc, addr in ops:
        if kind == "r":
            t, _ = machine.read(proc, addr, t)
        elif kind == "w":
            t = machine.write(proc, addr, t)
        else:
            raise ValueError(kind)
    return t
