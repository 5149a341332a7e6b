"""Run manifests: provenance sidecars for cached simulation results.

Every fresh simulation the experiment runner performs writes a
``<key>.manifest.json`` next to the cached ``<key>.json`` result, so any
number in ``results/`` can be traced to the exact RunSpec, seed, cache
version, code version and git revision that produced it.

This module is part of the deterministic core: it never reads the wall
clock.  Timestamps and wall-time measurements are taken by the callers
(the experiment runner, the benchmark harness — both outside the DET-
restricted subsystems) and passed in.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

#: Sidecar filename suffix next to ``<key>.json`` cache entries.
MANIFEST_SUFFIX = ".manifest.json"


@dataclass
class RunManifest:
    """Everything needed to reproduce (and trust) one cached result."""

    key: str                  # RunSpec.key(): sha256 over spec + version
    spec: dict                # the RunSpec, field by field
    cache_version: int        # repro.experiments.runner.CACHE_VERSION
    repro_version: str        # repro.__version__
    seed: int
    git_rev: Optional[str] = None     # workspace revision at run time
    wall_time_s: Optional[float] = None  # host seconds the simulation took
    cache: str = "miss"       # how this result was produced/served
    timestamp: Optional[str] = None   # ISO-8601, passed in by the caller
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def write(self, path: Union[str, Path]) -> None:
        """Publish the manifest atomically (write-to-temp + os.replace),
        so concurrent sweep workers never expose a torn sidecar."""
        path = Path(path)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            tmp.write_text(self.to_json() + "\n")
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return cls(**d)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


def manifest_path(cache_dir: Union[str, Path], key: str) -> Path:
    return Path(cache_dir) / f"{key}{MANIFEST_SUFFIX}"


def git_revision(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """Current git commit hash, or None outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def provenance_header(
    timestamp: Optional[str] = None,
    extra: Optional[dict] = None,
    comment: str = "# ",
) -> str:
    """Header lines identifying the code that wrote an artifact.

    ``timestamp`` must be supplied by the caller (this module never reads
    the wall clock).  Returns comment-prefixed lines ending in a newline,
    ready to prepend to any text file under ``results/``.
    """
    stamp = {} if timestamp is None else {"timestamp": timestamp}
    stamp.update(extra or {})
    body = ", ".join(f"{k}={v}" for k, v in provenance(**stamp).items())
    return f"{comment}provenance: {body}\n"


def provenance(**extra) -> dict:
    """The code identity every report, export and header carries —
    package version, cache version and git revision — followed by the
    caller's ``extra`` fields (``tool``, ``timestamp``, ``spec``,
    ``seed``...).  Like the rest of this module it never reads the wall
    clock: a ``timestamp`` is passed in."""
    # Imported here: the experiment runner imports this module.
    from repro import __version__
    from repro.experiments.runner import CACHE_VERSION

    return {
        "repro": __version__,
        "cache_version": CACHE_VERSION,
        "git_rev": git_revision() or "unknown",
        **extra,
    }
