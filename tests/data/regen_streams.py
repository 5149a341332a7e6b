#!/usr/bin/env python3
"""Regenerate tests/data/streams.json (executed-stream digests and result
fingerprints) after an intentional semantic change.

Bump ``repro.experiments.runner.CACHE_VERSION`` first: this script
refuses to overwrite pins stamped with the current version, because a
drifted pin under an unchanged version is a regression, not a new
baseline.  The specs live in tests/test_streams.py, so the two cannot
drift apart.

    PYTHONPATH=src python tests/data/regen_streams.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.experiments.runner import CACHE_VERSION  # noqa: E402
from tests.test_streams import DATA, record  # noqa: E402


def main() -> int:
    if DATA.exists():
        stamped = json.loads(DATA.read_text()).get("cache_version")
        if stamped == CACHE_VERSION:
            print(f"refusing: {DATA.name} is already stamped CACHE_VERSION "
                  f"{CACHE_VERSION}; bump it in repro/experiments/runner.py "
                  "if the change is meant to move these pins", file=sys.stderr)
            return 1
    DATA.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
