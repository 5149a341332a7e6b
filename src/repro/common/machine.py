"""The write-class entry points every memory system shares.

:class:`WriteFront` is the one home of ``write``, ``rmw`` and
``write_stalling``.  Each brackets the machine's own ``_write_access``
with the counter bump and the observer's ``begin``/``access`` pair, so
the COMA, hierarchical-COMA, NUMA and UMA machines differ only in what
that access does.
"""

from __future__ import annotations


class WriteFront:
    """Write-class entry points over a subclass's ``_write_access``.

    A subclass provides ``counters``, the ``obs`` slot, ``_shift`` (log2
    of the line size), the ``_bg`` posted-write flag and
    ``_write_access(proc, addr, now) -> (completion_time, level)``.
    """

    def write(self, proc: int, addr: int, now: int) -> int:
        """One write drained from ``proc``'s write buffer at ``now``.

        Returns the completion time; under release consistency the
        processor does not wait for it unless the buffer is full or a
        release is pending.
        """
        self.counters.writes += 1
        obs = self.obs
        if obs is not None:
            obs.begin(now, proc, "w", addr >> self._shift, addr)
        self._bg = True
        try:
            done, level = self._write_access(proc, addr, now)
        finally:
            self._bg = False
        if obs is not None:
            obs.access(now, proc, "w", addr >> self._shift, level,
                       done - now, addr)
        return done

    def rmw(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        """Atomic read-modify-write (synchronization accesses).

        The processor stalls for it (acquire semantics); returns
        ``(completion_time, level)`` for stall accounting.
        """
        self.counters.atomics += 1
        return self._stalling(proc, addr, now, "rmw")

    def write_stalling(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        """A write the processor waits for (sequential-consistency mode)."""
        self.counters.writes += 1
        return self._stalling(proc, addr, now, "w")

    def _stalling(self, proc: int, addr: int, now: int,
                  op: str) -> tuple[int, str]:
        """A write-class access the processor waits for, observed."""
        obs = self.obs
        if obs is not None:
            obs.begin(now, proc, op, addr >> self._shift, addr)
        done, level = self._write_access(proc, addr, now)
        if obs is not None:
            obs.access(now, proc, op, addr >> self._shift, level,
                       done - now, addr)
        return done, level
