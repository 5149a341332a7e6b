"""Trace capture, storage, replay and synthesis.

The paper uses program-driven simulation; this package adds the classic
trace-driven alternative: capture the event stream of a workload whose
threads share no computed values to a compact ``.npz`` file, replay it
later against any machine configuration, or synthesize parametric
reference streams for microbenchmarks and tests.

Caveat (the usual trace-driven one): a replayed trace fixes the
interleaving decisions that were made under the capture configuration, so
timing-dependent effects (lock hand-off order, task-queue assignment)
do not re-adapt to the replay machine.
"""

from repro.trace.capture import capture_trace, CapturedTrace
from repro.trace.store import save_trace, load_trace
from repro.trace.replay import replay_programs
from repro.trace.synth import (
    SyntheticUniform,
    SyntheticHotspot,
    SyntheticPrivate,
    SyntheticMigratory,
    SyntheticProducerConsumer,
)

__all__ = [
    "capture_trace",
    "CapturedTrace",
    "save_trace",
    "load_trace",
    "replay_programs",
    "SyntheticUniform",
    "SyntheticHotspot",
    "SyntheticPrivate",
    "SyntheticMigratory",
    "SyntheticProducerConsumer",
]
