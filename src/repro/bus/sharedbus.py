"""Global shared bus: a contended resource plus per-class traffic meters.

The remote-access path occupies the bus "2 times 20 ns" (request and reply
phases, paper section 3.2).  The *bus bandwidth halved* ablation of
section 4.3 doubles the per-phase occupancy while the latency contribution
stays at 20 ns per phase.
"""

from __future__ import annotations

from repro.bus.transaction import TxClass, TxKind, message_bytes
from repro.common.config import TimingConfig
from repro.timing.resource import Resource


class SharedBus:
    """Split-transaction snooping bus shared by all nodes."""

    def __init__(
        self, timing: TimingConfig, line_size: int, name: str = "bus"
    ) -> None:
        self.timing = timing
        self.line_size = line_size
        self.name = name
        self.resource = Resource(name)
        #: Per-phase occupancy and latency, interned once (the TimingConfig
        #: properties recompute the bandwidth scaling on every read).
        self._busy_ns = timing.bus_busy_ns
        self._phase_ns = timing.bus_phase_ns
        self.tx_count: dict[TxClass, int] = {c: 0 for c in TxClass}
        self.tx_bytes: dict[TxClass, int] = {c: 0 for c in TxClass}
        #: The machine's observation slot (see ``ComaMachine.obs``);
        #: None keeps :meth:`phase` and :meth:`record` allocation-free.
        self.obs = None

    def phase(self, now: int, bg: bool = False) -> int:
        """Occupy the bus for one phase starting at or after ``now``.

        Returns the time the phase *completes* (start + latency); the
        occupancy may exceed the latency when bandwidth is scaled down.
        ``bg`` routes the phase over the posted-write port (see
        :class:`repro.timing.resource.Resource`).
        """
        busy = self._busy_ns
        r = self.resource
        if bg:
            start = r.bg_next_free
            if start < now:
                start = now
            r.bg_next_free = start + busy
        else:
            start = r.next_free
            if start < now:
                start = now
            r.next_free = start + busy
        r.busy_ns += busy
        r.uses += 1
        if self.obs is not None:
            self.obs.bus_phase(self.name, start - now, busy)
        return start + self._phase_ns

    def arb_start(self, completion: int) -> int:
        """Recover when a phase won arbitration from its completion time.

        ``phase`` returns ``grant + phase_ns``; span checkpoints need the
        grant instant to split a bus step into arbitration wait and wire
        transfer without widening ``phase``'s return contract.
        """
        return completion - self._phase_ns

    def record(
        self, kind: TxKind, now: int = 0, origin: int = -1, line: int = -1
    ) -> None:
        """Meter one logical transaction of ``kind``.

        ``now``/``origin``/``line`` annotate the ``bus`` event when an
        observer is attached; metering itself needs none of them.
        """
        cls = kind.tx_class
        nbytes = message_bytes(kind, self.line_size)
        self.tx_count[cls] += 1
        self.tx_bytes[cls] += nbytes
        if self.obs is not None:
            self.obs.bus(now, self.name, kind.name, cls.value,
                         nbytes, origin, line)

    @property
    def total_bytes(self) -> int:
        return sum(self.tx_bytes.values())

    @property
    def total_transactions(self) -> int:
        return sum(self.tx_count.values())

    def traffic_breakdown(self) -> dict[str, int]:
        """Bytes per traffic class, keyed 'read'/'write'/'replace'."""
        return {c.value: self.tx_bytes[c] for c in TxClass}

    def utilization(self, elapsed_ns: int) -> float:
        return self.resource.utilization(elapsed_ns)
