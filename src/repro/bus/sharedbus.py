"""Global shared bus: a contended resource plus per-class traffic meters.

The remote-access path occupies the bus "2 times 20 ns" (request and reply
phases, paper section 3.2).  The *bus bandwidth halved* ablation of
section 4.3 doubles the per-phase occupancy while the latency contribution
stays at 20 ns per phase.
"""

from __future__ import annotations

from repro.bus.transaction import TxClass, TxKind, message_bytes
from repro.common.config import TimingConfig
from repro.timing.resource import DEMAND, Resource


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
        #: Per traffic class (in ``TxClass`` order): transactions and
        #: bytes.  Per kind (indexed by ``TxKind.slot``): its class's
        #: position and its wire bytes, fixed once the line size is known.
        classes = list(TxClass)
        self._counts = [0] * len(classes)
        self._bytes = [0] * len(classes)
        self._kind_class = [classes.index(k.tx_class) for k in TxKind]
        self._kind_bytes = [message_bytes(k, line_size) for k in TxKind]
        #: The machine's observation slot (see ``ComaMachine.obs``);
        #: None keeps :meth:`phase` and :meth:`record` allocation-free.
        self.obs = None

    def phase(self, now: int, port: int = DEMAND) -> int:
        """Occupy the bus's ``port`` for one phase starting at or after
        ``now`` (see :class:`repro.timing.resource.Resource`).

        Returns the time the phase *completes* (start + latency); the
        occupancy may exceed the latency when bandwidth is scaled down.
        """
        busy = self._busy_ns
        r = self.resource
        free = r.free
        start = free[port]
        if start < now:
            start = now
        free[port] = start + busy
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
        k = kind.slot
        c = self._kind_class[k]
        nbytes = self._kind_bytes[k]
        self._counts[c] += 1
        self._bytes[c] += nbytes
        if self.obs is not None:
            self.obs.bus(now, self.name, kind.name, kind.tx_class.value,
                         nbytes, origin, line)

    @property
    def tx_count(self) -> dict[TxClass, int]:
        """Transactions per traffic class."""
        return dict(zip(TxClass, self._counts))

    @property
    def tx_bytes(self) -> dict[TxClass, int]:
        """Wire bytes per traffic class."""
        return dict(zip(TxClass, self._bytes))

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes)

    @property
    def total_transactions(self) -> int:
        return sum(self._counts)

    def traffic_breakdown(self) -> dict[str, int]:
        """Bytes per traffic class, keyed 'read'/'write'/'replace'."""
        return {c.value: b for c, b in zip(TxClass, self._bytes)}

    def utilization(self, elapsed_ns: int) -> float:
        return self.resource.utilization(elapsed_ns)
