"""Bounded ring-buffer flight recorder.

Always cheap enough to leave on: it keeps only the last ``capacity``
events in a ``deque`` and renders them only when asked.  The simulation
kernel calls :meth:`FlightRecorder.on_simulation_error` when a run dies
(deadlock, protocol invariant violation, event-budget blow-up), so the
operator sees the last thing every processor, node and bus did *before*
the crash instead of just the exception message.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.obs.events import format_event
from repro.obs.sink import EventSink


class FlightRecorder(EventSink):
    """Keep the most recent ``capacity`` events; dump on demand."""

    def __init__(self, capacity: int = 4096,
                 dump_path: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.buffer: deque = deque(maxlen=capacity)
        #: When set, :meth:`on_simulation_error` writes the dump here.
        self.dump_path = dump_path
        #: The last dump rendered by :meth:`on_simulation_error`.
        self.last_dump: Optional[str] = None
        #: Total events observed (so the dump says how many were lost).
        self.total = 0

    def emit(self, ev) -> None:
        self.total += 1
        self.buffer.append(ev)

    @property
    def dropped(self) -> int:
        return self.total - len(self.buffer)

    def dump_text(self, reason: str = "") -> str:
        """Render the buffered events, newest last."""
        head = [
            "=== flight recorder dump ===",
            f"events: {len(self.buffer)} buffered, {self.dropped} older "
            f"events discarded (capacity {self.capacity})",
        ]
        if reason:
            head.insert(1, f"reason: {reason}")
        return "\n".join(head + [format_event(e) for e in self.buffer])

    def on_simulation_error(self, exc: BaseException) -> Optional[str]:
        text = self.dump_text(reason=f"{type(exc).__name__}: {exc}")
        self.last_dump = text
        if self.dump_path is not None:
            try:
                with open(self.dump_path, "w") as f:
                    f.write(text + "\n")
            except OSError:
                pass  # the dump must never mask the original error
        return text
