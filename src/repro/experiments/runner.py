"""Run specification, assembly and result caching.

A :class:`RunSpec` fully determines a simulation (workload, clustering
degree, memory pressure, associativity, bandwidth factors, seed...), so
results are cached — in memory for the process, and as JSON files under
``.repro_cache/`` so the benchmark harness can regenerate figures without
re-simulating unchanged points.  Set ``REPRO_CACHE_DIR`` to relocate the
disk cache or ``REPRO_NO_DISK_CACHE=1`` to disable it.

The disk cache is safe for concurrent writers (see
:mod:`repro.experiments.parallel`): entries and their manifest sidecars
are published atomically (write-to-temp + ``os.replace``), the manifest
is written *before* the result so a result file never exists without
provenance, reads retry once on transient ``OSError`` and re-check the
disk after a miss so racing workers converge on one entry, and a reader
can never observe torn JSON.

Every simulated (cache-miss) result also gets a ``<key>.manifest.json``
sidecar recording its provenance — spec, cache version, git revision,
wall time — so a figure regenerated months later can say exactly which
code produced each point (see :mod:`repro.obs.manifest`).  Cache
hits/misses are tallied in :func:`cache_stats` and summarized by
:func:`format_cache_summary` after figure/table sweeps.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Optional

from repro.obs.manifest import RunManifest, git_revision, manifest_path

from repro.coma.machine import ComaMachine
from repro.common.config import MachineConfig, TimingConfig
from repro.mem.address import AddressSpace
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulation
from repro.sync.primitives import SyncSpace
from repro.workloads.registry import get_workload

#: Bump when simulator semantics change, invalidating old cached results.
#: v8: cache keys canonicalize memory_pressure through the same Fraction
#: the simulation consumes, so float spellings of one pressure share keys.
CACHE_VERSION = 8

_memory_cache: dict[str, SimulationResult] = {}

#: Process-wide tally of how run_spec() satisfied each request.
_cache_stats = {"memory_hits": 0, "disk_hits": 0, "misses": 0}

_STAT_KINDS = ("memory_hits", "disk_hits", "misses")


class CacheTally:
    """An isolated hit/miss tally for one sweep (or one service request).

    The module-global tally above interleaves when two in-process sweeps
    overlap (exactly what the serve layer does), so callers that need a
    truthful per-sweep summary register a tally via
    :func:`tally_cache_stats` (or ``run_specs(stats=...)``) and read it
    instead of diffing before/after snapshots of the global.
    """

    __slots__ = ("memory_hits", "disk_hits", "misses")

    def __init__(self) -> None:
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def bump(self, kind: str, n: int = 1) -> None:
        setattr(self, kind, getattr(self, kind) + n)

    def merge(self, delta: dict) -> None:
        for kind in _STAT_KINDS:
            self.bump(kind, int(delta.get(kind, 0)))

    def as_dict(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in _STAT_KINDS}

    @property
    def total(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses


#: Tallies the current thread/task has registered (innermost last).
#: A ContextVar keeps concurrent sweeps isolated whether they run in
#: separate threads or separate asyncio tasks.
_active_tallies: contextvars.ContextVar[tuple[CacheTally, ...]] = (
    contextvars.ContextVar("repro_cache_tallies", default=())
)


@contextlib.contextmanager
def tally_cache_stats(tally: Optional[CacheTally] = None) -> Iterator[CacheTally]:
    """Record this context's cache outcomes into an isolated tally.

    The process-wide tally keeps accumulating as before (the serial
    single-sweep path is byte-identical); the yielded tally additionally
    receives every outcome recorded by this thread/task while the
    context is open, uncontaminated by concurrent sweeps.
    """
    if tally is None:
        tally = CacheTally()
    token = _active_tallies.set(_active_tallies.get() + (tally,))
    try:
        yield tally
    finally:
        _active_tallies.reset(token)


def _bump_stat(kind: str, n: int = 1) -> None:
    _cache_stats[kind] += n
    for tally in _active_tallies.get():
        tally.bump(kind, n)


#: Optional :class:`repro.obs.metrics.ExperimentInstruments`; set by
#: ``coma-sim metrics`` via :func:`set_experiment_metrics`.
_metrics = None


def set_experiment_metrics(registry) -> None:
    """Route the cache tally and per-run wall times into ``registry``.

    Pass ``None`` to detach.  This is the experiment layer's half of the
    uniform observer story: the deterministic core records simulated
    quantities, while this layer records wall-clock ones into the same
    registry.
    """
    global _metrics
    if registry is None:
        _metrics = None
    else:
        from repro.obs.metrics import ExperimentInstruments

        _metrics = ExperimentInstruments(registry)


#: Optional :class:`HistoryRecorder`; installed by ``coma-sim`` commands
#: and the serve layer via :func:`set_history_recorder`.  ``None`` (the
#: default) keeps every run-path branch a single ``is not None`` test —
#: the same zero-overhead-when-detached discipline as the metrics hook.
_history = None


class HistoryRecorder:
    """Routes completed runs into a run-history archive.

    Lives on the wall-clock side of the DET fence: it stamps rows with
    the host timestamp and git revision, while the archive module itself
    (:mod:`repro.obs.history`) stays deterministic.  Recording is
    best-effort — an archive failure increments ``outcomes['errors']``
    and never fails the run.

    ``attribute=True`` additionally attaches a
    :class:`~repro.obs.spans.StallAttribution` to every cache-miss
    simulation so rows carry phase totals, latency histograms and
    witness span trees.  Attribution is observational: attaching it
    cannot change the simulated result (the test suite proves byte
    identity).
    """

    def __init__(self, archive, source: str = "run", batch: Optional[str] = None,
                 attribute: bool = True, top_spans: int = 3,
                 on_record=None) -> None:
        self.archive = archive
        self.source = source
        self.batch = batch
        self.attribute = attribute
        self.top_spans = top_spans
        #: Optional callback ``on_record(outcome)`` — the serve layer
        #: mirrors outcomes into its ``serve_history_records`` counter.
        self.on_record = on_record
        self.outcomes = {"inserted": 0, "deduped": 0, "revision": 0,
                         "skipped": 0, "errors": 0}
        self._seen: set[str] = set()
        self._git_rev = git_revision()

    def attribution(self):
        """A fresh attribution sink for one miss (None when disabled)."""
        if not self.attribute:
            return None
        from repro.obs.spans import StallAttribution

        return StallAttribution(top_spans=self.top_spans)

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    def summary(self) -> str:
        o = self.outcomes
        return (
            f"history: {self.total} recorded — {o['inserted']} inserted, "
            f"{o['deduped']} deduped, {o['revision']} revisions, "
            f"{o['skipped']} skipped, {o['errors']} errors "
            f"-> {self.archive.path}"
        )

    def record(self, spec: "RunSpec", key: str, result: SimulationResult,
               cache: str, wall_time_s: Optional[float] = None,
               attribution=None) -> str:
        """Record one completed run; returns the archive outcome."""
        if cache != "miss" and key in self._seen:
            # This process already recorded this key; re-recording a hit
            # would only re-dedup against our own row.
            self.outcomes["skipped"] += 1
            return "skipped"
        try:
            phases = histograms = top_spans = None
            if attribution is not None:
                from repro.obs.history import phase_totals

                phases = phase_totals(attribution)
                histograms = attribution.registry.snapshot()
                top_spans = [
                    [e.to_record() for e in tree]
                    for tree in attribution.slowest_spans()
                ]
            manifest = load_manifest(key)
            outcome = self.archive.record_run(
                key=key,
                spec=asdict(spec),
                result=result.to_dict(),
                recorded_at=datetime.now(timezone.utc).isoformat(
                    timespec="seconds"),
                source=self.source,
                cache=cache,
                batch=self.batch,
                cache_version=CACHE_VERSION,
                git_rev=self._git_rev,
                wall_time_s=wall_time_s,
                phases=phases,
                histograms=histograms,
                top_spans=top_spans,
                manifest=asdict(manifest) if manifest is not None else None,
            )
        except Exception:
            # Best-effort by contract: a broken archive (disk full,
            # locked beyond timeout) must never fail the simulation.
            self.outcomes["errors"] += 1
            outcome = "error"
        else:
            self.outcomes[outcome] += 1
        self._seen.add(key)
        if self.on_record is not None:
            self.on_record(outcome)
        return outcome


def set_history_recorder(recorder) -> None:
    """Install (or with ``None`` remove) the run-history recorder.

    Mirrors :func:`set_experiment_metrics`: the deterministic archive
    lives in ``repro.obs.history``; this wall-clock layer decides *when*
    rows are written and stamps their provenance.
    """
    global _history
    _history = recorder


def history_recorder():
    """The installed :class:`HistoryRecorder`, or None."""
    return _history


def cache_stats() -> dict[str, int]:
    """A copy of the process-wide cache hit/miss tally."""
    return dict(_cache_stats)


def reset_cache_stats() -> None:
    for k in _cache_stats:
        _cache_stats[k] = 0


def merge_cache_stats(delta: dict) -> None:
    """Fold another process's hit/miss tally into this one.

    The parallel sweep engine collects each worker's per-task stats delta
    and merges it here (and into any tallies registered by the calling
    context), so :func:`format_cache_summary` stays truthful when a
    sweep fans out over a process pool.
    """
    for k in _cache_stats:
        _bump_stat(k, int(delta.get(k, 0)))


def memoize_result(key: str, result: SimulationResult) -> None:
    """Seed the in-process memory cache with a result computed elsewhere
    (the parallel engine fans worker results back in through this)."""
    _memory_cache[key] = result


def format_cache_summary(stats: Optional[CacheTally] = None) -> str:
    """One-line human summary, printed after figure/table sweeps.

    With ``stats`` (a :class:`CacheTally`), summarizes that sweep alone;
    without it, the process-wide tally (the historical behavior).
    """
    s = _cache_stats if stats is None else stats.as_dict()
    total = s["memory_hits"] + s["disk_hits"] + s["misses"]
    return (
        f"cache: {total} runs — {s['memory_hits']} memory hits, "
        f"{s['disk_hits']} disk hits, {s['misses']} simulated"
    )


def _pressure_fraction(mp: float) -> Fraction:
    """Express a float memory pressure exactly enough (k/16-style values)."""
    return Fraction(mp).limit_denominator(4096)


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation run."""

    workload: str
    #: "coma" (the paper's machine), "hcoma" (hierarchical DDM-style
    #: COMA), "numa" (CC-NUMA baseline) or "uma" (central-memory SMP).
    machine: str = "coma"
    #: Group count for the hierarchical machine.
    hierarchy_groups: int = 4
    procs_per_node: int = 1
    memory_pressure: float = 0.5
    am_assoc: int = 4
    scale: float = 1.0
    n_processors: int = 16
    seed: int = 1997
    page_size: int = 2048
    dram_bandwidth_factor: float = 1.0
    nc_bandwidth_factor: float = 1.0
    bus_bandwidth_factor: float = 1.0
    inclusive: bool = True
    track_miss_classes: bool = True
    am_victim_policy: str = "shared_first"
    replacement_receiver_policy: str = "accept"
    consistency: str = "rc"
    write_buffer_coalescing: bool = False

    def key(self) -> str:
        fields = asdict(self)
        # The simulation consumes _pressure_fraction(mp), not the raw
        # float: hash the same Fraction so two float spellings of one
        # k/16 pressure (0.3 vs 0.1 + 0.2) share a single cache entry.
        fields["memory_pressure"] = str(_pressure_fraction(self.memory_pressure))
        payload = json.dumps({"v": CACHE_VERSION, **fields}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def with_(self, **kwargs) -> "RunSpec":
        return replace(self, **kwargs)


def build_simulation(spec: RunSpec) -> Simulation:
    """Assemble workload + machine + simulator for ``spec`` (uncached)."""
    wl = get_workload(
        spec.workload,
        n_threads=spec.n_processors,
        scale=spec.scale,
        seed=spec.seed,
    )
    space = AddressSpace(page_size=spec.page_size)
    wl.allocate(space)
    sync = SyncSpace(space, 64, wl.n_locks, wl.n_barriers)
    working_set = space.allocated_bytes

    timing = TimingConfig(
        dram_bandwidth_factor=spec.dram_bandwidth_factor,
        nc_bandwidth_factor=spec.nc_bandwidth_factor,
        bus_bandwidth_factor=spec.bus_bandwidth_factor,
    )
    config = MachineConfig(
        n_processors=spec.n_processors,
        procs_per_node=spec.procs_per_node,
        page_size=spec.page_size,
        am_assoc=spec.am_assoc,
        memory_pressure=_pressure_fraction(spec.memory_pressure),
        inclusive=spec.inclusive,
        track_miss_classes=spec.track_miss_classes,
        am_victim_policy=spec.am_victim_policy,
        replacement_receiver_policy=spec.replacement_receiver_policy,
        consistency=spec.consistency,
        write_buffer_coalescing=spec.write_buffer_coalescing,
        seed=spec.seed,
        timing=timing,
    ).sized_for(working_set)
    if spec.machine == "coma":
        machine = ComaMachine(config, space)
    elif spec.machine == "hcoma":
        from repro.coma.hierarchy import HierarchicalComaMachine

        machine = HierarchicalComaMachine(
            config, space, n_groups=spec.hierarchy_groups
        )
    elif spec.machine == "numa":
        from repro.numa.machine import NumaMachine

        machine = NumaMachine(config, space)
    elif spec.machine == "uma":
        from repro.uma.machine import UmaMachine

        machine = UmaMachine(config, space)
    else:
        raise ValueError(f"unknown machine kind {spec.machine!r}")
    programs = [wl.thread(t) for t in range(spec.n_processors)]
    sim = Simulation(machine, programs, sync)
    # The sanitizer reads the workload's sharing declarations off the sim.
    sim.workload = wl
    return sim


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------

#: Resolved cache directories, keyed by the env value that produced
#: them, so run_spec() doesn't re-run mkdir on every call.  The root is
#: made absolute at first use — a later ``os.chdir`` must not silently
#: move a relative cache dir mid-process — and only *successful*
#: resolutions are memoized: a transient ``mkdir`` failure warns once
#: but is retried on the next call, so one ``OSError`` never disables
#: the disk cache for the lifetime of a long-running server.
_cache_dir_memo: dict[str, Path] = {}
_cache_dir_warned: set[str] = set()


def reset_cache_dir_memo() -> None:
    """Forget resolved cache directories (tests relocate them a lot)."""
    _cache_dir_memo.clear()
    _cache_dir_warned.clear()


def _cache_dir() -> Optional[Path]:
    if os.environ.get("REPRO_NO_DISK_CACHE", ""):
        return None
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    memoized = _cache_dir_memo.get(root)
    if memoized is not None:
        return memoized
    path = Path(root).absolute()
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        if root not in _cache_dir_warned:
            _cache_dir_warned.add(root)
            warnings.warn(
                f"disk cache unavailable: cannot create {path} ({exc}); "
                "this run will not be cached on disk (will retry)",
                RuntimeWarning,
                stacklevel=3,
            )
        return None
    _cache_dir_memo[root] = path
    return path


def _atomic_write_text(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` atomically.

    The temp file lives in the same directory (``os.replace`` must not
    cross filesystems) and is named per-pid so concurrent writers never
    collide; a reader either sees the old entry or the complete new one,
    never a torn prefix.
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _publish_text(path: Path, text: str) -> bool:
    """Atomic write with one retry on transient OSError (cache writes
    are best-effort: a failed publication must never fail the run)."""
    try:
        _atomic_write_text(path, text)
        return True
    except OSError:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(path, text)
            return True
        except OSError:
            return False


def _read_disk(cache_dir: Path, key: str) -> Optional[SimulationResult]:
    """Load a cached result, retrying once on transient OSError.

    Corrupt entries (torn writes from interrupted runs predating atomic
    publication) are deleted so the caller re-simulates.
    """
    f = cache_dir / f"{key}.json"
    for attempt in (0, 1):
        try:
            text = f.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            if attempt:
                return None
            continue
        try:
            return SimulationResult.from_dict(json.loads(text))
        except (ValueError, TypeError, KeyError):
            f.unlink(missing_ok=True)  # stale/corrupt cache entry
            return None
    return None


def clear_memory_cache() -> None:
    _memory_cache.clear()


def _write_manifest(
    cache_dir: Path, key: str, spec: RunSpec, cache: str,
    wall_time_s: Optional[float],
) -> None:
    """Write the provenance sidecar next to the cached result.

    Best-effort: a manifest failure must never fail the run itself.
    """
    from repro import __version__

    manifest = RunManifest(
        key=key,
        spec=asdict(spec),
        cache_version=CACHE_VERSION,
        repro_version=__version__,
        seed=spec.seed,
        git_rev=git_revision(),
        wall_time_s=wall_time_s,
        cache=cache,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    path = manifest_path(cache_dir, key)
    try:
        manifest.write(path)
    except OSError:
        try:  # retry once: transient failures (ENOSPC races, NFS blips)
            manifest.write(path)
        except OSError:
            pass


def load_manifest(spec_or_key) -> Optional[RunManifest]:
    """The manifest sidecar for a spec (or raw key), if one exists."""
    key = spec_or_key.key() if isinstance(spec_or_key, RunSpec) else spec_or_key
    cache_dir = _cache_dir()
    if cache_dir is None:
        return None
    path = manifest_path(cache_dir, key)
    if not path.exists():
        return None
    try:
        return RunManifest.load(path)
    except (OSError, ValueError, TypeError, KeyError):
        return None


def _disk_hit(cache_dir: Path, key: str, spec: RunSpec,
              result: SimulationResult) -> SimulationResult:
    _memory_cache[key] = result
    _bump_stat("disk_hits")
    if _metrics is not None:
        _metrics.cache_requests.labels("disk_hit").inc()
    if not manifest_path(cache_dir, key).exists():
        # Entry predates manifests: backfill without wall time.
        _write_manifest(cache_dir, key, spec, "hit", None)
    return result


def run_spec(spec: RunSpec, use_cache: bool = True) -> SimulationResult:
    """Run ``spec``, consulting the memory and disk caches."""
    key = spec.key()
    if use_cache and key in _memory_cache:
        _bump_stat("memory_hits")
        if _metrics is not None:
            _metrics.cache_requests.labels("memory_hit").inc()
        result = _memory_cache[key]
        if _history is not None:
            _history.record(spec, key, result, "memory_hit")
        return result
    cache_dir = _cache_dir() if use_cache else None
    if cache_dir is not None:
        result = _read_disk(cache_dir, key)
        if result is None:
            # Double-checked read-after-miss: a concurrent worker racing
            # on this key may have published between the first look and
            # now (atomic os.replace makes the entry appear all at once).
            result = _read_disk(cache_dir, key)
        if result is not None:
            result = _disk_hit(cache_dir, key, spec, result)
            if _history is not None:
                _history.record(spec, key, result, "disk_hit")
            return result
    _bump_stat("misses")
    att = _history.attribution() if _history is not None else None
    t0 = time.perf_counter()
    sim = build_simulation(spec)
    if att is not None:
        sim.attach(att)
    result = sim.run()
    wall = time.perf_counter() - t0
    if _metrics is not None:
        _metrics.cache_requests.labels("miss").inc()
        _metrics.run_wall.observe(wall * 1e6)
    if use_cache:
        _memory_cache[key] = result
        if cache_dir is not None:
            # Manifest first: a result file must never exist without its
            # provenance sidecar, even under SIGKILL between the writes.
            _write_manifest(cache_dir, key, spec, "miss", wall)
            _publish_text(cache_dir / f"{key}.json", json.dumps(result.to_dict()))
    if _history is not None:
        _history.record(spec, key, result, "miss", wall_time_s=wall,
                        attribution=att)
    return result
