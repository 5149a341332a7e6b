"""``coma-sim serve``: the async simulation service.

An :mod:`asyncio` HTTP service that accepts :class:`RunSpec` and sweep
requests, fans them out over the existing experiment machinery, and
applies the standard serving-stack controls in front of it:

* **Admission control** (:mod:`repro.serve.admission`): a bounded
  per-tenant in-flight queue plus a token-bucket rate limit.  Over
  budget → 429 with ``Retry-After``, never an unbounded queue.
* **Single-flight dedup** (:mod:`repro.serve.singleflight`): concurrent
  identical requests — same ``RunSpec.key()`` — share one simulation.
  Correct because a spec's result is a pure function of its key and the
  disk cache's publication protocol is already multi-writer safe.
* **Backpressure-aware sweeps**: ``POST /sweep`` runs through
  :func:`~repro.experiments.parallel.run_specs` (optionally over its
  process pool) with per-sweep :class:`CacheTally` isolation, streaming
  per-point progress over Server-Sent Events.
* **Observability**: the PR 5 metrics registry is exposed at
  ``/metrics`` in OpenMetrics text; the request path adds queue-depth
  gauges, request-latency histograms and dedup counters
  (:mod:`repro.serve.instruments`).
* **Graceful drain**: shutdown stops admitting, lets in-flight work
  finish (bounded by ``drain_timeout``) and only then closes.

Endpoints::

    GET  /healthz     liveness/readiness (503 while draining)
    GET  /metrics     OpenMetrics exposition of the shared registry
    POST /run         one RunSpec -> result JSON (single-flight deduped)
    POST /sweep       {"specs": [...]} -> JSON, or SSE with ?stream=sse

See docs/SERVICE.md for the full API contract.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
import traceback
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Optional

from repro.common.errors import ReproError
from repro.experiments.parallel import run_specs
from repro.experiments.runner import (
    CacheTally,
    RunSpec,
    run_spec,
    set_experiment_metrics,
    tally_cache_stats,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import to_openmetrics
from repro.serve.admission import AdmissionController
from repro.serve.http import (
    HttpError,
    Request,
    SseWriter,
    error_response,
    json_response,
    read_request,
    render_response,
)
from repro.serve.instruments import ServiceInstruments
from repro.serve.singleflight import SingleFlight

_ALLOWED_MACHINES = ("coma", "hcoma", "numa", "uma")


@dataclass
class ServeConfig:
    """Tunables for one service instance (all exposed as CLI flags)."""

    host: str = "127.0.0.1"
    port: int = 8787
    #: Executor threads running request bodies (cache hits are cheap;
    #: misses hold the GIL for the simulation — size accordingly).
    workers: int = 4
    #: Process-pool jobs *inside* each sweep (1 = serial sweep).
    sweep_jobs: int = 1
    #: Per-tenant bounded queue: admitted-but-unfinished requests.
    max_inflight: int = 8
    #: Token-bucket rate limit per tenant (requests/second, burst cap).
    rate: float = 50.0
    burst: float = 100.0
    #: Largest accepted ``POST /sweep`` spec list.
    max_sweep_points: int = 256
    #: Seconds shutdown waits for in-flight requests before closing.
    drain_timeout: float = 10.0
    #: History archive that ``record`` appends completed runs to.
    #: ``None`` uses the default archive path.
    history_path: Optional[str] = None
    #: Record completed simulations into the history archive (opt-in:
    #: the request path stays zero-overhead when off).
    record: bool = False


def parse_spec(obj: object) -> RunSpec:
    """Validate one JSON object into a :class:`RunSpec` (400 on error)."""
    from repro.workloads.registry import workload_names

    if not isinstance(obj, dict):
        raise HttpError(400, "spec must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(RunSpec)}
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise HttpError(400, f"unknown spec field(s): {', '.join(unknown)}")
    if "workload" not in obj:
        raise HttpError(400, "spec requires a 'workload'")
    if obj["workload"] not in workload_names():
        raise HttpError(400, f"unknown workload {obj['workload']!r}")
    machine = obj.get("machine", "coma")
    if machine not in _ALLOWED_MACHINES:
        raise HttpError(
            400, f"unknown machine {machine!r} "
            f"(one of {', '.join(_ALLOWED_MACHINES)})")
    defaults = RunSpec(workload="fft")
    for name, value in obj.items():
        default = getattr(defaults, name)
        if isinstance(default, bool):
            ok = isinstance(value, bool)
        elif isinstance(default, int):
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif isinstance(default, float):
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        else:
            ok = isinstance(value, str)
        if not ok:
            raise HttpError(400, f"spec field {name!r}: expected "
                            f"{type(default).__name__}, got {value!r}")
    spec = RunSpec(**obj)
    if not 0 < spec.scale <= 4:
        raise HttpError(400, "scale must be in (0, 4]")
    if spec.n_processors < 1 or spec.procs_per_node < 1:
        raise HttpError(400, "processor counts must be positive")
    return spec


class ComaService:
    """One service instance: HTTP front, admission, dedup, metrics."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.instruments = ServiceInstruments(self.registry)
        self.flight = SingleFlight()
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            rate=self.config.rate,
            burst=self.config.burst,
            clock=clock,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="coma-serve",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._recorder = None
        self._draining = False
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        set_experiment_metrics(self.registry)
        if self.config.record:
            from repro.experiments.runner import (
                HistoryRecorder,
                set_history_recorder,
            )
            from repro.obs.history import HistoryArchive

            def on_record(outcome: str) -> None:
                self.instruments.history_records.labels(outcome).inc()

            self._recorder = HistoryRecorder(
                HistoryArchive(self.config.history_path), source="serve",
                on_record=on_record)
            set_history_recorder(self._recorder)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new work; in-flight requests keep running."""
        self._draining = True

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, wait, then close."""
        self.begin_drain()
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout)
        except asyncio.TimeoutError:
            pass  # drain deadline: close anyway
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False, cancel_futures=True)
        set_experiment_metrics(None)
        if self._recorder is not None:
            from repro.experiments.runner import set_history_recorder

            set_history_recorder(None)
            self._recorder = None

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        self._active += 1
        self._idle.clear()
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        route = "unparsed"
        status = 500
        try:
            request = await read_request(reader)
            if request is None:
                return
            route = request.route
            response, status = await self._dispatch(request, writer)
            if response is not None:  # None: an SSE handler already wrote
                writer.write(response)
                await writer.drain()
        except HttpError as exc:
            status = exc.status
            writer.write(error_response(exc))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            raise  # client went away: nothing left to answer
        except Exception:
            # A handler bug must not close the connection with no
            # reply: answer 500 and keep the trace on the server side.
            traceback.print_exc()
            status = 500
            writer.write(error_response(HttpError(500, "internal error")))
            await writer.drain()
        finally:
            self.instruments.requests.labels(route, status).inc()

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter,
    ) -> tuple[Optional[bytes], int]:
        route, method = request.route, request.method
        if route == "/healthz":
            if method != "GET":
                raise HttpError(405, "healthz is GET-only")
            return self._healthz()
        if route == "/metrics":
            if method != "GET":
                raise HttpError(405, "metrics is GET-only")
            body = to_openmetrics(self.registry).encode()
            return render_response(
                200, body,
                content_type="application/openmetrics-text; version=1.0.0;"
                " charset=utf-8",
            ), 200
        if route == "/run":
            if method != "POST":
                raise HttpError(405, "run is POST-only")
            return await self._handle_run(request)
        if route == "/sweep":
            if method != "POST":
                raise HttpError(405, "sweep is POST-only")
            return await self._handle_sweep(request, writer)
        raise HttpError(404, f"no route {route!r}")

    def _healthz(self) -> tuple[bytes, int]:
        status = 503 if self._draining else 200
        payload = {
            "status": "draining" if self._draining else "ok",
            "inflight_requests": self.admission.total_depth(),
            "inflight_keys": self.flight.inflight,
        }
        return json_response(status, payload), status

    # -- admission ------------------------------------------------------

    def _admit(self, request: Request) -> str:
        """Admission gate shared by /run and /sweep; returns the tenant."""
        tenant = request.header("x-tenant", "default")
        if self._draining:
            self.instruments.rejected.labels("draining").inc()
            raise HttpError(503, "draining: not accepting new work",
                            headers=(("Retry-After", "1"),))
        decision = self.admission.try_admit(tenant)
        if not decision.ok:
            self.instruments.rejected.labels(decision.reason).inc()
            raise HttpError(
                429, f"rejected: {decision.reason} (tenant {tenant!r})",
                headers=(("Retry-After", decision.retry_after_header),))
        self.instruments.queue_depth.labels(tenant).set(
            self.admission.depth(tenant))
        return tenant

    def _release(self, tenant: str) -> None:
        self.admission.release(tenant)
        self.instruments.queue_depth.labels(tenant).set(
            self.admission.depth(tenant))

    # -- /run -----------------------------------------------------------

    def _run_one(self, spec: RunSpec) -> tuple[dict, str]:
        """Executor-thread body: run one spec with an isolated tally."""
        with tally_cache_stats() as tally:
            result = run_spec(spec)
        if tally.misses:
            outcome = "miss"
        elif tally.disk_hits:
            outcome = "disk_hit"
        else:
            outcome = "memory_hit"
        return result.to_dict(), outcome

    async def _handle_run(self, request: Request) -> tuple[bytes, int]:
        tenant = self._admit(request)
        t0 = time.perf_counter()
        try:
            spec = parse_spec(request.json())
            key = spec.key()
            loop = asyncio.get_running_loop()

            async def work() -> tuple[dict, str]:
                return await loop.run_in_executor(
                    self._executor, partial(self._run_one, spec))

            try:
                (payload, outcome), coalesced = await self.flight.run(key, work)
            except ReproError as exc:
                raise HttpError(
                    500, f"simulation failed: {exc}") from exc
            finally:
                self.instruments.inflight_keys.set(self.flight.inflight)
            self.instruments.dedup.labels(
                "coalesced" if coalesced else "leader").inc()
            body = {
                "key": key,
                "coalesced": coalesced,
                "cache": outcome,
                "result": payload,
            }
            return json_response(200, body), 200
        finally:
            self._release(tenant)
            elapsed_us = (time.perf_counter() - t0) * 1e6
            self.instruments.latency.labels("/run").observe(elapsed_us)

    # -- /sweep ---------------------------------------------------------

    def _parse_sweep(self, request: Request) -> tuple[list[RunSpec], int, bool]:
        body = request.json()
        if not isinstance(body, dict) or not isinstance(
                body.get("specs"), list):
            raise HttpError(400, "expected {\"specs\": [...]}")
        raw_specs = body["specs"]
        if not raw_specs:
            raise HttpError(400, "empty sweep")
        if len(raw_specs) > self.config.max_sweep_points:
            raise HttpError(
                413, f"sweep exceeds {self.config.max_sweep_points} points")
        specs = [parse_spec(s) for s in raw_specs]
        jobs = body.get("jobs", self.config.sweep_jobs)
        if not isinstance(jobs, int) or isinstance(jobs, bool):
            raise HttpError(400, "jobs must be an integer")
        jobs = min(max(jobs, 1), self.config.sweep_jobs) \
            if self.config.sweep_jobs > 1 else 1
        include_results = body.get("include_results", True)
        if not isinstance(include_results, bool):
            raise HttpError(400, "include_results must be a boolean")
        return specs, jobs, include_results

    async def _handle_sweep(
        self, request: Request, writer: asyncio.StreamWriter,
    ) -> tuple[Optional[bytes], int]:
        tenant = self._admit(request)
        t0 = time.perf_counter()
        try:
            specs, jobs, include_results = self._parse_sweep(request)
            if request.wants_sse():
                status = await self._sweep_sse(
                    specs, jobs, include_results, writer)
                return None, status
            tally = CacheTally()
            loop = asyncio.get_running_loop()
            try:
                results = await loop.run_in_executor(
                    self._executor,
                    partial(run_specs, specs, jobs=jobs, progress=False,
                            stats=tally))
            except ReproError as exc:
                raise HttpError(500, f"sweep failed: {exc}") from exc
            body = {
                "total": len(specs),
                "cache": tally.as_dict(),
                "keys": [s.key() for s in specs],
                "results": [r.to_dict() for r in results]
                if include_results else None,
            }
            return json_response(200, body), 200
        finally:
            self._release(tenant)
            elapsed_us = (time.perf_counter() - t0) * 1e6
            self.instruments.latency.labels("/sweep").observe(elapsed_us)

    async def _sweep_sse(
        self,
        specs: list[RunSpec],
        jobs: int,
        include_results: bool,
        writer: asyncio.StreamWriter,
    ) -> int:
        """Stream sweep progress as SSE by bridging ``on_result`` from
        the executor thread into an async event channel."""
        loop = asyncio.get_running_loop()
        channel: asyncio.Queue = asyncio.Queue()
        tally = CacheTally()
        done_count = [0]
        t0 = time.perf_counter()

        def on_result(index: int, spec: RunSpec, result) -> None:
            # Called on the executor thread (completion order): hop onto
            # the loop thread; Queue.put_nowait is not thread-safe.
            done_count[0] += 1
            loop.call_soon_threadsafe(channel.put_nowait, ("progress", {
                "done": done_count[0],
                "total": len(specs),
                "index": index,
                "key": spec.key(),
                "elapsed_ns": result.elapsed_ns,
                "wall_ms": round((time.perf_counter() - t0) * 1e3, 3),
            }))

        def sweep_body() -> None:
            try:
                results = run_specs(specs, jobs=jobs, progress=False,
                                    on_result=on_result, stats=tally)
                loop.call_soon_threadsafe(
                    channel.put_nowait, ("done", results))
            except BaseException as exc:
                loop.call_soon_threadsafe(channel.put_nowait, ("error", exc))

        sse = SseWriter(writer)
        await sse.start()
        await sse.send("start", {"total": len(specs), "jobs": jobs})
        self.instruments.sse_events.labels("start").inc()
        future = loop.run_in_executor(self._executor, sweep_body)
        status = 200
        while True:
            kind, payload = await channel.get()
            if kind == "progress":
                await sse.send("progress", payload)
                self.instruments.sse_events.labels("progress").inc()
            elif kind == "done":
                await sse.send("done", {
                    "total": len(specs),
                    "cache": tally.as_dict(),
                    "keys": [s.key() for s in specs],
                    "results": [r.to_dict() for r in payload]
                    if include_results else None,
                })
                self.instruments.sse_events.labels("done").inc()
                break
            else:  # error
                await sse.send("error", {"error": str(payload)})
                self.instruments.sse_events.labels("error").inc()
                status = 500
                break
        await future  # surface nothing: outcome already streamed
        return status


async def serve_forever(
    config: ServeConfig,
    ready: Optional[Callable[[ComaService], None]] = None,
) -> int:
    """Run a service until SIGINT/SIGTERM, then drain gracefully."""
    import signal

    service = ComaService(config)
    await service.start()
    if ready is not None:
        ready(service)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix event loop: Ctrl-C raises instead
    try:
        await stop.wait()
    except asyncio.CancelledError:  # pragma: no cover - loop teardown
        pass
    finally:
        await service.shutdown()
    return 0


def format_listen_line(service: ComaService) -> str:
    cfg = service.config
    return (
        f"coma-sim serve: listening on http://{cfg.host}:{service.port} "
        f"(workers={cfg.workers}, sweep_jobs={cfg.sweep_jobs}, "
        f"queue={cfg.max_inflight}/tenant, rate={cfg.rate:g}/s "
        f"burst={cfg.burst:g})"
    )


__all__ = [
    "ComaService",
    "ServeConfig",
    "format_listen_line",
    "parse_spec",
    "serve_forever",
]
