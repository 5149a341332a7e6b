"""Write buffer under release consistency.

"A release consistency model with a 10 entry write buffer has been
assumed" (paper section 3.2).  Writes retire into the buffer without
stalling the processor; the buffer drains through the memory system in the
background.  The processor stalls only when

* the buffer is full (it waits for the oldest outstanding write), or
* it executes a release (lock release / barrier arrival), which must wait
  for every buffered write to complete.

Optionally the buffer *coalesces*: a store to a cache line that already
has an outstanding buffered write merges into that entry and never issues
a separate memory operation (``MachineConfig.write_buffer_coalescing``).
"""

from __future__ import annotations

import heapq
from typing import Optional


class WriteBuffer:
    """Tracks completion times of outstanding writes for one processor."""

    def __init__(self, capacity: int = 10, coalescing: bool = False) -> None:
        if capacity < 1:
            raise ValueError("write buffer capacity must be >= 1")
        self.capacity = capacity
        self.coalescing = coalescing
        #: Min-heap of outstanding ``(completion, line)`` entries.  The
        #: simulation kernel reads it directly to retire its common case
        #: (nothing completed, buffer not full) without a call.
        self.pending: list[tuple[int, int]] = []
        #: line -> newest completion time; kept only when coalescing
        self._lines: dict[int, int] = {}
        self.coalesced = 0

    def __len__(self) -> int:
        return len(self.pending)

    def prune(self, now: int) -> None:
        """Retire writes that completed at or before ``now``."""
        p = self.pending
        while p and p[0][0] <= now:
            completion, line = heapq.heappop(p)
            if self._lines.get(line) == completion:
                del self._lines[line]

    def try_coalesce(self, line: int, now: int) -> bool:
        """Merge a store into an outstanding entry for the same line.

        Returns True when the store was absorbed (no memory operation
        should be issued for it).
        """
        if not self.coalescing:
            return False
        self.prune(now)
        if line in self._lines:
            self.coalesced += 1
            return True
        return False

    def wait_for_slot(self, now: int) -> tuple[int, int]:
        """Ensure a free entry exists; returns ``(new_now, stall_ns)``."""
        self.prune(now)
        stall = 0
        if len(self.pending) >= self.capacity:
            target = self.pending[0][0]
            stall = target - now
            now = target
            self.prune(now)
        return now, stall

    def push(self, completion_time: int, line: int = -1) -> None:
        heapq.heappush(self.pending, (completion_time, line))
        if self.coalescing and line >= 0:
            prev = self._lines.get(line)
            if prev is None or completion_time > prev:
                self._lines[line] = completion_time

    def drain(self, now: int) -> tuple[int, int]:
        """Release: wait for all outstanding writes.

        Returns ``(new_now, stall_ns)``; the buffer is empty afterwards.
        """
        if not self.pending:
            return now, 0
        last = max(c for c, _ in self.pending)
        self.pending.clear()
        self._lines.clear()
        if last > now:
            return last, last - now
        return now, 0

    def outstanding_line(self, line: int) -> Optional[int]:
        """Completion time of the newest outstanding write to ``line``
        (tracked only when coalescing)."""
        return self._lines.get(line)
