"""Executed reference streams and result fingerprints are pinned.

Two nets under every change to a workload generator or the machine:

* **Executed-stream digests.**  Every registered workload runs at tiny
  scale on the ``coma`` machine at two seeds, with each processor's
  program wrapped so that every ``(op, arg)`` event it hands the kernel
  is recorded.  The sha256 of each processor's sequence must equal the
  stored one, so a drift names the workload, the seed and the thread.
  The streams are captured inside a real simulated run (not by running
  threads one after another), so barrier- and lock-ordered workloads
  such as radix are captured as they execute.
* **Result fingerprints.**  The sha256 of ``SimulationResult.to_dict()``
  at 6.25 % and 87.5 % memory pressure must equal the stored one for
  every workload on ``coma``, ``numa`` and ``uma``, and for the
  workloads whose generators are hand-optimized (both ocean layouts,
  barnes, radix) on ``hcoma``.

Both tables are stamped with ``CACHE_VERSION``.  A pin may change only
with a deliberate version bump; then regenerate them with::

    PYTHONPATH=src python tests/data/regen_streams.py

The same script adds new grid points under an unchanged version, as long
as every pin already stored is reproduced exactly.

Select with ``-k streams`` (or ``-m streams``).
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import CACHE_VERSION, RunSpec, build_simulation
from repro.workloads.registry import workload_names

pytestmark = pytest.mark.streams

DATA = Path(__file__).parent / "data" / "streams.json"

SCALE = 0.05
SEEDS = (1997, 4242)
#: Machines fingerprinted on every workload.
FLAT_MACHINES = ("coma", "numa", "uma")
#: The hierarchical machine is fingerprinted on these workloads only.
HCOMA_WORKLOADS = ("ocean_contig", "ocean_noncontig", "barnes", "radix")
PRESSURES = (1 / 16, 14 / 16)
STREAM_PRESSURE = PRESSURES[0]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _recorded(program, sink: list):
    for ev in program:
        sink.append(ev)
        yield ev


@functools.lru_cache(maxsize=None)
def _run(workload: str, machine: str, pressure: float,
         seed: int) -> tuple[tuple[str, ...], str]:
    """One tiny-scale run: per processor, the sha256 of the ``(op, arg)``
    events it executed, and the sha256 of ``SimulationResult.to_dict()``.
    The coma run at 6.25 % serves both tables."""
    spec = RunSpec(workload=workload, machine=machine, memory_pressure=pressure,
                   scale=SCALE, seed=seed)
    sim = build_simulation(spec)
    streams: list[list] = []
    for p in sim.procs:
        events: list = []
        streams.append(events)
        p.program = _recorded(p.program, events)
    result = sim.run().to_dict()
    digests = tuple(_sha("".join(f"{op} {arg}\n" for op, arg in ev)) for ev in streams)
    return digests, _sha(json.dumps(result, sort_keys=True))


def stream_digests(workload: str, seed: int) -> list[str]:
    """Per processor, the digest of its executed stream on ``coma``."""
    return list(_run(workload, "coma", STREAM_PRESSURE, seed)[0])


def fingerprint(workload: str, machine: str, pressure: float) -> str:
    """sha256 of ``SimulationResult.to_dict()`` for one grid point."""
    return _run(workload, machine, pressure, SEEDS[0])[1]


def stream_keys() -> list[tuple[str, int]]:
    return [(w, s) for w in workload_names() for s in SEEDS]


def fingerprint_keys() -> list[tuple[str, str, float]]:
    keys = [(w, m, p) for w in workload_names() for m in FLAT_MACHINES
            for p in PRESSURES]
    keys += [(w, "hcoma", p) for w in HCOMA_WORKLOADS for p in PRESSURES]
    return keys


def fingerprint_key(workload: str, machine: str, pressure: float) -> str:
    return f"{workload}/{machine}/{pressure:.4f}"


def record() -> dict:
    """Every pin, as ``tests/data/streams.json`` stores it."""
    return {
        "cache_version": CACHE_VERSION,
        "scale": SCALE,
        "streams": {f"{w}@{s}": stream_digests(w, s) for w, s in stream_keys()},
        "fingerprints": {
            fingerprint_key(*k): fingerprint(*k) for k in fingerprint_keys()
        },
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    table = json.loads(DATA.read_text())
    assert table["cache_version"] == CACHE_VERSION, (
        f"pins stamped CACHE_VERSION {table['cache_version']}, code is "
        f"{CACHE_VERSION}: regenerate with tests/data/regen_streams.py"
    )
    assert table["scale"] == SCALE
    return table


def test_every_workload_is_pinned(pins: dict) -> None:
    assert sorted(pins["streams"]) == sorted(f"{w}@{s}" for w, s in stream_keys())
    assert sorted(pins["fingerprints"]) == sorted(
        fingerprint_key(*k) for k in fingerprint_keys())


@pytest.mark.parametrize("workload,seed", stream_keys(),
                         ids=[f"{w}@{s}" for w, s in stream_keys()])
def test_executed_stream_digest(workload: str, seed: int, pins: dict) -> None:
    want = pins["streams"][f"{workload}@{seed}"]
    got = stream_digests(workload, seed)
    assert len(got) == len(want), f"{workload} seed {seed}: thread count changed"
    drifted = [t for t, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not drifted, (
        f"{workload} seed {seed}: executed stream drifted on thread(s) "
        f"{drifted} without a CACHE_VERSION bump"
    )


@pytest.mark.parametrize("workload,machine,pressure", fingerprint_keys(),
                         ids=[fingerprint_key(*k) for k in fingerprint_keys()])
def test_result_fingerprint(workload: str, machine: str, pressure: float,
                            pins: dict) -> None:
    key = fingerprint_key(workload, machine, pressure)
    assert fingerprint(workload, machine, pressure) == pins["fingerprints"][key], (
        f"{key}: SimulationResult drifted without a CACHE_VERSION bump"
    )
