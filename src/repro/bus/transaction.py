"""Bus transaction taxonomy and message sizing.

Figures 3 and 4 of the paper divide global bus traffic into three
segments: **read**, **write** and **replacement**.  We map our transaction
kinds onto those classes:

* read      — data fetches caused by read node misses;
* write     — write-permission traffic: upgrades/erases (control-only)
              and read-exclusive fetches caused by write misses (data);
* replace   — relocation of evicted Owner/Exclusive lines to an accepting
              node (data), including every hop of a forced cascade, plus
              the accept negotiation (control).

Data messages carry one 64-byte line plus an 8-byte header; control
messages are header-only.
"""

from __future__ import annotations

from enum import Enum

HEADER_BYTES = 8


class TxClass(str, Enum):
    READ = "read"
    WRITE = "write"
    REPLACE = "replace"


class TxKind(Enum):
    """Concrete transaction kinds, each belonging to one traffic class."""

    READ_DATA = ("read", True)          # remote read miss, line transferred
    READ_EXCL = ("write", True)         # write miss, line + ownership
    UPGRADE = ("write", False)          # write hit on shared line, erase others
    REPLACE_DATA = ("replace", True)    # relocated owner line
    REPLACE_PROBE = ("replace", False)  # accept-based receiver negotiation

    def __init__(self, tx_class: str, carries_data: bool) -> None:
        self.tx_class = TxClass(tx_class)
        self.carries_data = carries_data


#: Each kind's position in declaration order: a plain int the bus indexes
#: its per-kind tables with, since hashing an Enum runs Python code.
for _slot, _kind in enumerate(TxKind):
    _kind.slot = _slot
del _slot, _kind


def message_bytes(kind: TxKind, line_size: int) -> int:
    """Wire bytes of one transaction of ``kind``."""
    return HEADER_BYTES + (line_size if kind.carries_data else 0)
