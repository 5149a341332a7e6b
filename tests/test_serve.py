"""Tests for :mod:`repro.serve` — the async simulation service.

Two layers:

* Unit tests drive the admission controller with an injected clock and
  the single-flight coalescer with hand-controlled async thunks, so
  every queue-full / rate-limited / coalesced / failed-leader branch is
  exercised deterministically.
* Integration tests start a real :class:`ComaService` on an ephemeral
  port and speak actual HTTP over loopback, including the headline
  invariant: **N concurrent identical requests run exactly one
  simulation**, verified from the metrics counters rather than trusting
  the response flags.
"""

import asyncio
import contextlib
import json
import threading

import pytest

from repro.common.errors import ReproError
from repro.experiments.runner import RunSpec
from repro.obs.openmetrics import parse_openmetrics
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.app import ComaService, ServeConfig, parse_spec
from repro.serve.http import HttpError, parse_sse
from repro.serve.loadtest import http_request, percentile
from repro.serve.singleflight import SingleFlight

SPEC = {"workload": "fft", "n_processors": 4, "scale": 0.25, "seed": 41}


# ---------------------------------------------------------------------------
# admission control (unit, fake clock)
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == pytest.approx(1.0)

    def test_refill_is_rate_times_elapsed(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        bucket.acquire(), bucket.acquire()
        clock.now = 0.5  # one token refilled
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == pytest.approx(0.5)

    def test_burst_caps_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=1.0, clock=clock)
        clock.now = 100.0
        assert bucket.acquire() == 0.0
        assert bucket.acquire() > 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0, clock=FakeClock())


class TestAdmissionController:
    def test_queue_bound(self):
        ctl = AdmissionController(max_inflight=2, clock=FakeClock())
        assert ctl.try_admit("t").ok
        assert ctl.try_admit("t").ok
        verdict = ctl.try_admit("t")
        assert not verdict.ok and verdict.reason == "queue_full"
        ctl.release("t")
        assert ctl.try_admit("t").ok

    def test_tenants_are_isolated(self):
        ctl = AdmissionController(max_inflight=1, clock=FakeClock())
        assert ctl.try_admit("a").ok
        assert not ctl.try_admit("a").ok
        assert ctl.try_admit("b").ok
        assert ctl.depth("a") == 1 and ctl.total_depth() == 2

    def test_full_queue_does_not_burn_a_token(self):
        clock = FakeClock()
        ctl = AdmissionController(max_inflight=1, rate=1.0, burst=1.0,
                                  clock=clock)
        assert ctl.try_admit("t").ok          # takes the only token
        assert ctl.try_admit("t").reason == "queue_full"
        ctl.release("t")
        clock.now = 1.0                       # exactly one token back
        assert ctl.try_admit("t").ok          # queue_full didn't spend it

    def test_rate_limit_reports_wait(self):
        clock = FakeClock()
        ctl = AdmissionController(max_inflight=8, rate=2.0, burst=1.0,
                                  clock=clock)
        assert ctl.try_admit("t").ok
        verdict = ctl.try_admit("t")
        assert verdict.reason == "rate_limited"
        assert verdict.retry_after == pytest.approx(0.5)
        assert verdict.retry_after_header == "1"  # ceil'd, integral

    def test_release_never_goes_negative(self):
        ctl = AdmissionController(max_inflight=1, clock=FakeClock())
        ctl.release("ghost")
        assert ctl.depth("ghost") == 0
        assert ctl.try_admit("ghost").ok


# ---------------------------------------------------------------------------
# single-flight (unit, controlled thunks)
# ---------------------------------------------------------------------------


class TestSingleFlight:
    def test_concurrent_identical_coalesce(self):
        async def scenario():
            flight = SingleFlight()
            release = asyncio.Event()
            calls = []

            async def work():
                calls.append(1)
                await release.wait()
                return "answer"

            tasks = [asyncio.ensure_future(flight.run("k", work))
                     for _ in range(5)]
            await asyncio.sleep(0)  # all five reach run()
            assert flight.inflight == 1
            release.set()
            return await asyncio.gather(*tasks), calls

        results, calls = asyncio.run(scenario())
        assert len(calls) == 1
        assert [r for r, _ in results] == ["answer"] * 5
        assert sorted(c for _, c in results) == [False, True, True, True, True]

    def test_distinct_keys_do_not_coalesce(self):
        async def scenario():
            flight = SingleFlight()
            release = asyncio.Event()

            def make(key):
                async def work():
                    await release.wait()
                    return key

                return work

            t1 = asyncio.ensure_future(flight.run("a", make("a")))
            t2 = asyncio.ensure_future(flight.run("b", make("b")))
            await asyncio.sleep(0)
            assert flight.inflight == 2
            release.set()
            return await asyncio.gather(t1, t2)

        results = asyncio.run(scenario())
        assert results == [("a", False), ("b", False)]

    def test_failed_leader_propagates_to_all_waiters(self):
        async def scenario():
            flight = SingleFlight()
            release = asyncio.Event()

            async def work():
                await release.wait()
                raise ReproError("simulated failure")

            tasks = [asyncio.ensure_future(flight.run("k", work))
                     for _ in range(4)]
            await asyncio.sleep(0)
            release.set()
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == 4
        assert all(isinstance(o, ReproError) for o in outcomes)

    def test_failure_does_not_poison_the_key(self):
        async def scenario():
            flight = SingleFlight()

            async def fail():
                raise ReproError("boom")

            async def succeed():
                return 42

            with pytest.raises(ReproError):
                await flight.run("k", fail)
            assert not flight.is_inflight("k")
            return await flight.run("k", succeed)

        assert asyncio.run(scenario()) == (42, False)

    def test_sequential_runs_are_both_leaders(self):
        async def scenario():
            flight = SingleFlight()

            async def work():
                return "x"

            first = await flight.run("k", work)
            second = await flight.run("k", work)
            return first, second

        assert asyncio.run(scenario()) == (("x", False), ("x", False))


# ---------------------------------------------------------------------------
# spec parsing and SSE framing (unit)
# ---------------------------------------------------------------------------


class TestParseSpec:
    def test_valid_spec_round_trips(self):
        spec = parse_spec(SPEC)
        assert isinstance(spec, RunSpec)
        assert (spec.workload, spec.seed) == ("fft", 41)

    @pytest.mark.parametrize("bad", [
        [],                                        # not an object
        {},                                        # no workload
        {"workload": "nope"},                      # unknown workload
        {"workload": "fft", "machine": "vax"},     # unknown machine
        {"workload": "fft", "bogus_field": 1},     # unknown field
        {"workload": "fft", "seed": "42"},         # str for int
        {"workload": "fft", "seed": True},         # bool for int
        {"workload": "fft", "inclusive": 1},       # int for bool
        {"workload": "fft", "scale": 0.0},         # out of range
        {"workload": "fft", "scale": 100.0},       # out of range
        {"workload": "fft", "n_processors": 0},    # out of range
    ])
    def test_rejects_with_400(self, bad):
        with pytest.raises(HttpError) as err:
            parse_spec(bad)
        assert err.value.status == 400

    def test_float_field_accepts_int(self):
        assert parse_spec({"workload": "fft", "scale": 1}).scale == 1


class TestParseSse:
    def test_round_trip(self):
        text = "event: a\ndata: 1\n\nevent: b\ndata: 2\ndata: 3\n\n"
        assert parse_sse(text) == [("a", "1"), ("b", "2\n3")]

    def test_comments_are_skipped(self):
        assert parse_sse(": ping\n\nevent: a\ndata: x\n\n") == [("a", "x")]

    @pytest.mark.parametrize("bad", [
        "event: a\ndata: 1\n",       # unterminated block
        "data: orphan\n\n",          # data with no event name
        "garbage line\n\n",          # not a field line
    ])
    def test_framing_violations_raise(self, bad):
        with pytest.raises(ValueError):
            parse_sse(bad)


def test_percentile_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 0.50) in (50.0, 51.0)  # rank 49.5 rounds
    assert percentile(samples, 0.99) == 99.0
    assert percentile(samples, 1.0) == 100.0
    assert percentile([7.0], 0.99) == 7.0


# ---------------------------------------------------------------------------
# integration over real sockets
# ---------------------------------------------------------------------------


@contextlib.asynccontextmanager
async def service(**overrides):
    config = ServeConfig(port=0, workers=4, drain_timeout=5.0, **overrides)
    svc = ComaService(config)
    await svc.start()
    try:
        yield svc
    finally:
        await svc.shutdown()


async def post_run(svc, spec):
    status, headers, body = await http_request(
        "127.0.0.1", svc.port, "POST", "/run", spec)
    return status, headers, json.loads(body)


def counter_value(svc, family, *labels):
    return svc.registry.get(family).labels(*labels).value


class GatedRun:
    """Monkeypatch for ``ComaService._run_one`` that blocks every call
    (on the executor thread) until the test releases it — makes
    coalescing windows deterministic instead of racing the simulator."""

    def __init__(self, svc, fail=False):
        self.release = threading.Event()
        self.calls = []
        self._real = svc._run_one
        self._fail = fail
        svc._run_one = self

    def __call__(self, spec):
        self.calls.append(spec.key())
        if not self.release.wait(timeout=20):
            raise TimeoutError("test never released the gate")
        if self._fail:
            raise ReproError("injected simulation failure")
        return self._real(spec)


async def wait_until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.01)


class TestServiceBasics:
    def test_healthz_and_metrics(self):
        async def scenario():
            async with service() as svc:
                status, _, body = await http_request(
                    "127.0.0.1", svc.port, "GET", "/healthz")
                health = json.loads(body)
                status2, _, metrics = await http_request(
                    "127.0.0.1", svc.port, "GET", "/metrics")
                return status, health, status2, metrics.decode()

        status, health, status2, metrics = asyncio.run(scenario())
        assert status == 200 and health["status"] == "ok"
        assert status2 == 200
        families = parse_openmetrics(metrics)
        assert "serve_requests" in families
        assert "serve_dedup" in families

    def test_run_miss_then_memory_hit(self):
        async def scenario():
            async with service() as svc:
                spec = {**SPEC, "seed": 410}
                first = await post_run(svc, spec)
                second = await post_run(svc, spec)
                return first, second

        (s1, _, b1), (s2, _, b2) = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert b1["cache"] == "miss" and b2["cache"] == "memory_hit"
        assert b1["key"] == b2["key"]
        assert b1["result"] == b2["result"]

    def test_unknown_route_and_wrong_method(self):
        async def scenario():
            async with service() as svc:
                a = await http_request("127.0.0.1", svc.port, "GET", "/nope")
                b = await http_request("127.0.0.1", svc.port, "GET", "/run")
                c = await http_request("127.0.0.1", svc.port, "POST", "/run",
                                       {"workload": "nope"})
                d = await http_request(
                    "127.0.0.1", svc.port, "GET", "/history")
                return a[0], b[0], c[0], d[0]

        assert asyncio.run(scenario()) == (404, 405, 400, 404)

    def test_draining_rejects_new_work(self):
        async def scenario():
            async with service() as svc:
                svc.begin_drain()
                health = await http_request(
                    "127.0.0.1", svc.port, "GET", "/healthz")
                run = await http_request(
                    "127.0.0.1", svc.port, "POST", "/run", SPEC)
                return health, run

        (hs, _, hbody), (rs, rheaders, _) = asyncio.run(scenario())
        assert hs == 503 and json.loads(hbody)["status"] == "draining"
        assert rs == 503 and rheaders.get("retry-after") == "1"


class TestCoalescing:
    N = 5

    def test_identical_concurrent_requests_run_one_simulation(self):
        async def scenario():
            async with service(max_inflight=16) as svc:
                gate = GatedRun(svc)
                spec = {**SPEC, "seed": 420}
                tasks = [asyncio.ensure_future(post_run(svc, spec))
                         for _ in range(self.N)]
                # All admitted and registered on the flight before the
                # gate opens: coalescing is then certain, not racy.
                await wait_until(
                    lambda: svc.admission.total_depth() == self.N
                    and len(gate.calls) == 1)
                assert svc.flight.inflight == 1
                gate.release.set()
                responses = await asyncio.gather(*tasks)
                coalesced_count = counter_value(
                    svc, "serve_dedup", "coalesced")
                miss_count = counter_value(
                    svc, "experiments_cache_requests", "miss")
                return responses, gate.calls, coalesced_count, miss_count

        responses, calls, coalesced_count, miss_count = asyncio.run(scenario())
        assert [s for s, _, _ in responses] == [200] * self.N
        flags = sorted(b["coalesced"] for _, _, b in responses)
        assert flags == [False] + [True] * (self.N - 1)
        assert len(calls) == 1          # exactly one simulation ran
        assert miss_count == 1          # ...confirmed by cache metrics
        assert coalesced_count == self.N - 1
        bodies = [b["result"] for _, _, b in responses]
        assert all(b == bodies[0] for b in bodies)

    def test_distinct_specs_do_not_coalesce(self):
        async def scenario():
            async with service(max_inflight=16) as svc:
                gate = GatedRun(svc)
                specs = [{**SPEC, "seed": 100}, {**SPEC, "seed": 101}]
                tasks = [asyncio.ensure_future(post_run(svc, s))
                         for s in specs]
                await wait_until(lambda: len(gate.calls) == 2)
                assert svc.flight.inflight == 2
                gate.release.set()
                responses = await asyncio.gather(*tasks)
                return responses, gate.calls

        responses, calls = asyncio.run(scenario())
        assert len(set(calls)) == 2
        assert [b["coalesced"] for _, _, b in responses] == [False, False]
        assert responses[0][2]["key"] != responses[1][2]["key"]

    def test_failed_leader_propagates_without_poisoning(self):
        async def scenario():
            async with service(max_inflight=16) as svc:
                gate = GatedRun(svc, fail=True)
                spec = {**SPEC, "seed": 430}
                tasks = [asyncio.ensure_future(post_run(svc, spec))
                         for _ in range(3)]
                await wait_until(
                    lambda: svc.admission.total_depth() == 3
                    and len(gate.calls) == 1)
                gate.release.set()
                failures = await asyncio.gather(*tasks)
                assert not svc.flight.is_inflight(parse_spec(spec).key())
                svc._run_one = gate._real  # heal: retry must succeed
                retry = await post_run(svc, spec)
                return failures, len(gate.calls), retry

        failures, n_calls, retry = asyncio.run(scenario())
        assert [s for s, _, _ in failures] == [500] * 3
        assert all("simulation failed" in b["error"] for _, _, b in failures)
        assert n_calls == 1             # one failure, not three
        assert retry[0] == 200          # the key was not poisoned
        assert retry[2]["cache"] == "miss"


class TestBackpressure:
    def test_queue_full_gets_429_with_retry_after(self):
        async def scenario():
            async with service(max_inflight=1) as svc:
                gate = GatedRun(svc)
                blocked = asyncio.ensure_future(
                    post_run(svc, {**SPEC, "seed": 440}))
                await wait_until(lambda: svc.admission.total_depth() == 1)
                # Distinct spec: rejected by the queue bound, not dedup.
                rejected = await post_run(svc, {**SPEC, "seed": 999})
                gate.release.set()
                admitted = await blocked
                return rejected, admitted, counter_value(
                    svc, "serve_rejected", "queue_full")

        (rs, rheaders, rbody), (as_, _, _), n_rejected = asyncio.run(scenario())
        assert rs == 429
        assert "queue_full" in rbody["error"]
        assert int(rheaders["retry-after"]) >= 1
        assert as_ == 200
        assert n_rejected == 1

    def test_rate_limit_gets_429(self):
        clock = FakeClock()

        async def scenario():
            config = ServeConfig(port=0, workers=2, max_inflight=8,
                                 rate=1.0, burst=1.0)
            svc = ComaService(config, clock=clock)
            await svc.start()
            try:
                first = await post_run(svc, SPEC)
                second = await post_run(svc, {**SPEC, "seed": 7})
                clock.now = 1.0  # refill one token
                third = await post_run(svc, {**SPEC, "seed": 7})
                return first[0], second, third[0]
            finally:
                await svc.shutdown()

        s1, (s2, headers, body), s3 = asyncio.run(scenario())
        assert s1 == 200
        assert s2 == 429 and "rate_limited" in body["error"]
        assert headers["retry-after"] == "1"
        assert s3 == 200


class TestSweep:
    def test_sweep_json(self):
        async def scenario():
            async with service() as svc:
                specs = [{**SPEC, "seed": s} for s in (201, 202, 203)]
                status, _, body = await http_request(
                    "127.0.0.1", svc.port, "POST", "/sweep",
                    {"specs": specs})
                return status, json.loads(body)

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body["total"] == 3
        assert body["cache"]["misses"] == 3
        assert len(body["results"]) == 3
        assert len(body["keys"]) == 3

    def test_sweep_sse_stream_is_well_formed_and_terminates(self):
        async def scenario():
            async with service() as svc:
                specs = [{**SPEC, "seed": s} for s in (301, 302)]
                status, headers, raw = await http_request(
                    "127.0.0.1", svc.port, "POST", "/sweep?stream=sse",
                    {"specs": specs})
                return status, headers, raw.decode()

        status, headers, text = asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"] == "text/event-stream"
        events = parse_sse(text)  # raises on any framing violation
        names = [name for name, _ in events]
        assert names[0] == "start" and names[-1] == "done"
        assert names.count("progress") == 2
        start = json.loads(events[0][1])
        assert start["total"] == 2
        done = json.loads(events[-1][1])
        assert done["cache"]["misses"] == 2
        assert len(done["results"]) == 2
        seen = sorted(json.loads(d)["done"]
                      for name, d in events if name == "progress")
        assert seen == [1, 2]

    def test_sweep_limits(self):
        async def scenario():
            async with service(max_sweep_points=2) as svc:
                over = await http_request(
                    "127.0.0.1", svc.port, "POST", "/sweep",
                    {"specs": [SPEC] * 3})
                empty = await http_request(
                    "127.0.0.1", svc.port, "POST", "/sweep", {"specs": []})
                notalist = await http_request(
                    "127.0.0.1", svc.port, "POST", "/sweep", {"specs": 7})
                return over[0], empty[0], notalist[0]

        assert asyncio.run(scenario()) == (413, 400, 400)


class TestTransportLimits:
    def test_oversized_body_is_413(self):
        async def scenario():
            async with service() as svc:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", svc.port)
                writer.write(
                    b"POST /run HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 999999999\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        raw = asyncio.run(scenario())
        assert raw.startswith(b"HTTP/1.1 413 ")

    def test_chunked_bodies_are_501(self):
        async def scenario():
            async with service() as svc:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", svc.port)
                writer.write(
                    b"POST /run HTTP/1.1\r\nHost: x\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        raw = asyncio.run(scenario())
        assert raw.startswith(b"HTTP/1.1 501 ")

    def test_garbage_request_line_is_400(self):
        async def scenario():
            async with service() as svc:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", svc.port)
                writer.write(b"what even is this\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        raw = asyncio.run(scenario())
        assert raw.startswith(b"HTTP/1.1 400 ")


# ---------------------------------------------------------------------------
# history recording
# ---------------------------------------------------------------------------


class TestHistoryEndpoints:
    def test_record_and_list_history(self, tmp_path):
        from repro.obs.history import HistoryArchive

        path = str(tmp_path / "hist.sqlite")

        async def scenario():
            async with service(history_path=path, record=True) as svc:
                spec = {**SPEC, "seed": 910}
                await post_run(svc, spec)
                await post_run(svc, spec)  # memory hit: skipped re-record
                return counter_value(
                    svc, "serve_history_records", "inserted")

        recorded = asyncio.run(scenario())
        runs = HistoryArchive(path).list_runs()
        assert len(runs) == 1
        assert runs[0]["workload"] == "fft"
        assert runs[0]["source"] == "serve"
        assert recorded == 1

    def test_recorder_removed_on_shutdown(self, tmp_path):
        from repro.experiments.runner import history_recorder

        async def scenario():
            async with service(history_path=str(tmp_path / "h.sqlite"),
                               record=True):
                installed = history_recorder() is not None
            return installed, history_recorder()

        installed, after = asyncio.run(scenario())
        assert installed and after is None
