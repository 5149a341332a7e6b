#!/usr/bin/env python3
"""Regenerate tests/data/streams.json (executed-stream digests and result
fingerprints).

After an intentional semantic change, bump
``repro.experiments.runner.CACHE_VERSION`` first; the script then
rewrites every pin.  Under an unchanged version it writes only when every
pin already stored is reproduced exactly, which is how new grid points
are added: a drifted pin under an unchanged version is a regression, not
a new baseline, so the script refuses and names the drifted keys.  The
specs live in tests/test_streams.py, so the two cannot drift apart.

    PYTHONPATH=src python tests/data/regen_streams.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.experiments.runner import CACHE_VERSION  # noqa: E402
from tests.test_streams import DATA, record  # noqa: E402


def drifted(old: dict, new: dict) -> list[str]:
    """Keys of ``old``'s pins that ``new`` lost or no longer reproduces."""
    out = [k for k in ("scale",) if old.get(k) != new[k]]
    for table in ("streams", "fingerprints"):
        fresh = new[table]
        out += [f"{table}/{key}" for key, pin in sorted(old.get(table, {}).items())
                if fresh.get(key) != pin]
    return out


def main() -> int:
    table = record()
    if DATA.exists():
        old = json.loads(DATA.read_text())
        if old.get("cache_version") == CACHE_VERSION:
            bad = drifted(old, table)
            if bad:
                print(f"refusing: {DATA.name} is stamped CACHE_VERSION "
                      f"{CACHE_VERSION} and these pins drifted: "
                      f"{', '.join(bad)}; bump it in "
                      "repro/experiments/runner.py if the change is meant "
                      "to move them", file=sys.stderr)
                return 1
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
