"""Unit tests for the shared bus and transaction taxonomy."""

from __future__ import annotations

from repro.bus.sharedbus import SharedBus
from repro.bus.transaction import HEADER_BYTES, TxClass, TxKind, message_bytes
from repro.common.config import TimingConfig
from repro.timing.resource import POSTED


class TestTransaction:
    def test_classes(self):
        assert TxKind.READ_DATA.tx_class is TxClass.READ
        assert TxKind.READ_EXCL.tx_class is TxClass.WRITE
        assert TxKind.UPGRADE.tx_class is TxClass.WRITE
        assert TxKind.REPLACE_DATA.tx_class is TxClass.REPLACE
        assert TxKind.REPLACE_PROBE.tx_class is TxClass.REPLACE

    def test_no_kind_is_an_alias(self):
        """Two kinds declared with the same value would make Enum alias
        the second to the first, hiding it from ``list(TxKind)`` and the
        per-kind tables."""
        assert len(TxKind.__members__) == len(TxKind)

    def test_message_bytes(self):
        assert message_bytes(TxKind.READ_DATA, 64) == 64 + HEADER_BYTES
        assert message_bytes(TxKind.UPGRADE, 64) == HEADER_BYTES


class TestSharedBus:
    def test_phase_timing(self):
        bus = SharedBus(TimingConfig(), 64)
        assert bus.phase(0) == 20, "one phase: 20 ns latency"
        assert bus.phase(0) == 40, "second phase queues behind the first"

    def test_halved_bandwidth_occupancy(self):
        bus = SharedBus(TimingConfig(bus_bandwidth_factor=0.5), 64)
        assert bus.phase(0) == 20, "latency unchanged"
        assert bus.phase(0) == 60, "but occupancy doubled (40 ns)"

    def test_background_phase_port(self):
        bus = SharedBus(TimingConfig(), 64)
        assert bus.phase(0, port=POSTED) == 20
        assert bus.phase(0) == 20, "demand phase unaffected by posted one"
        assert bus.phase(0, port=POSTED) == 40, "posted phases serialize"

    def test_traffic_metering(self):
        bus = SharedBus(TimingConfig(), 64)
        bus.record(TxKind.READ_DATA)
        bus.record(TxKind.UPGRADE)
        bus.record(TxKind.REPLACE_DATA)
        assert bus.tx_count[TxClass.READ] == 1
        assert bus.tx_bytes[TxClass.READ] == 72
        assert bus.tx_bytes[TxClass.WRITE] == 8
        assert bus.tx_bytes[TxClass.REPLACE] == 72
        assert bus.total_bytes == 152
        assert bus.total_transactions == 3
        assert bus.traffic_breakdown() == {"read": 72, "write": 8, "replace": 72}

    def test_utilization(self):
        bus = SharedBus(TimingConfig(), 64)
        bus.phase(0)
        assert bus.utilization(40) == 0.5
