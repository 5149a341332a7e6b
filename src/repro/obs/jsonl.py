"""Deterministic JSON-lines trace writer and reader.

One event per line, keys sorted, compact separators: the same RunSpec and
seed produce a byte-identical file (the test suite asserts this), so
traces can be diffed across code versions to localize behaviour changes.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Iterator, Union

from repro.obs.events import record_to_event
from repro.obs.sink import EventSink


class JsonlTraceSink(EventSink):
    """Stream events to a ``.jsonl`` file (or any text file object)."""

    def __init__(self, out: Union[str, Path, io.TextIOBase]) -> None:
        if isinstance(out, (str, Path)):
            self._file = open(out, "w")
            self._owns = True
        else:
            self._file = out
            self._owns = False
        self.count = 0

    def emit(self, ev) -> None:
        self._file.write(
            json.dumps(ev.to_record(), sort_keys=True,
                       separators=(",", ":")) + "\n"
        )
        self.count += 1

    def close(self) -> None:
        if self._owns:
            self._file.close()
        else:
            self._file.flush()


def iter_records(path: Union[str, Path]) -> Iterator[dict]:
    """Yield the raw dict records of a JSONL trace file."""
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                yield json.loads(line)


def read_trace(path: Union[str, Path]) -> list:
    """Load a JSONL trace back into typed event objects."""
    return [record_to_event(d) for d in iter_records(path)]
