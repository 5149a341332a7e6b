"""Capture a workload's event streams into flat arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.base import Workload

#: opcode character -> small int for array storage.
OP_CODES = {"r": 0, "w": 1, "c": 2, "l": 3, "u": 4, "b": 5}
OP_CHARS = {v: k for k, v in OP_CODES.items()}


@dataclass
class CapturedTrace:
    """One thread-ordered trace: per-thread opcode and argument arrays."""

    n_threads: int
    ops: list[np.ndarray]   # per thread, uint8
    args: list[np.ndarray]  # per thread, int64
    meta: dict

    @property
    def total_events(self) -> int:
        return sum(len(o) for o in self.ops)


def capture_trace(workload: Workload, space) -> CapturedTrace:
    """Exhaust every thread generator of an *allocated* workload.

    This runs the threads **sequentially to completion**, so a thread
    never sees what a later thread writes.  Workloads whose control flow
    depends on cross-thread timing (task queues, locks) record the
    interleaving a sequential execution would produce.  Barriers do not
    help: a workload whose threads read, after a barrier, values other
    threads computed before it cannot be captured.  Radix is one: its
    permutation phase indexes the destination array with offsets built
    from histograms that the later threads have not yet filled.  Such a
    generator failure is re-raised as a ``ValueError`` naming the
    workload and the thread.  Workloads whose threads share no computed
    values, such as ``synth_private``, capture faithfully.
    """
    ops: list[np.ndarray] = []
    args: list[np.ndarray] = []
    for tid in range(workload.n_threads):
        o: list[int] = []
        a: list[int] = []
        try:
            for ev in workload.thread(tid):
                o.append(OP_CODES[ev[0]])
                a.append(int(ev[1]))
        except Exception as exc:
            raise ValueError(
                f"cannot capture {workload.name} sequentially: thread "
                f"{tid} failed with {type(exc).__name__}: {exc}") from exc
        ops.append(np.asarray(o, dtype=np.uint8))
        args.append(np.asarray(a, dtype=np.int64))
    return CapturedTrace(
        n_threads=workload.n_threads,
        ops=ops,
        args=args,
        meta={
            "workload": workload.name,
            "scale": workload.scale,
            "seed": workload.seed,
            "allocated_bytes": space.allocated_bytes,
            "n_locks": workload.n_locks,
            "n_barriers": workload.n_barriers,
        },
    )
