"""End-to-end tests of :class:`repro.serve.PipelineServer`.

Every test here exercises a real asyncio server on a real localhost
socket (ephemeral ports).  The async plumbing stays inside helpers --
test functions are synchronous and call ``asyncio.run`` -- because the
suite runs under plain pytest.

The load-bearing assertion is end-to-end determinism: a stream
ingested over the wire (framed TCP or HTTP) must produce detections
bit-identical to, and identically ordered with, an in-process replay
of the same pipeline.
"""

import asyncio
import json

import pytest

from repro.datasets import SoccerStreamConfig, generate_soccer_stream, split_stream
from repro.pipeline import Pipeline
from repro.queries import build_q1
from repro.runtime import serve_replay
from repro.serve import (
    MaxInFlight,
    PipelineServer,
    RequestLogMiddleware,
    ServeClient,
    ServeConfig,
    SharedSecretAuth,
    TokenBucketLimiter,
    events_to_wire,
)


@pytest.fixture(scope="module")
def soccer():
    stream = generate_soccer_stream(SoccerStreamConfig(duration_seconds=300))
    return split_stream(stream, train_fraction=0.5)


@pytest.fixture(scope="module")
def live(soccer):
    _train, live = soccer
    return live


def build_pipeline(batch_size=16, pattern_size=2):
    return (
        Pipeline.builder()
        .query(build_q1(pattern_size=pattern_size, window_seconds=15.0))
        .batch(batch_size)
        .build()
    )


def keys(events):
    return [c.key for c in events]


def run_server(coro_factory, pipeline=None, config=None, middleware=()):
    """Start a server, run ``coro_factory(server)``, always stop."""

    async def impl():
        server = PipelineServer(
            pipeline if pipeline is not None else build_pipeline(),
            config=config,
            middleware=middleware,
        )
        await server.start()
        try:
            result = await coro_factory(server)
        finally:
            if server.state != "stopped":
                await server.stop()
        return result

    return asyncio.run(impl())


async def http_exchange(port, raw: bytes) -> bytes:
    """One raw HTTP connection: send ``raw``, read until EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    writer.write_eof()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass
    return data


def http_parts(response: bytes):
    head, _, body = response.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body) if body else None


class TestFramedDeterminism:
    @pytest.mark.parametrize("client_batch", [1, 7, 64])
    def test_served_detections_equal_in_process(self, live, client_batch):
        reference = build_pipeline().run(live)
        result = serve_replay(
            build_pipeline(), live, batch_events=client_batch, connections=1
        )
        assert keys(result.complex_events) == keys(reference.complex_events)
        assert result.complex_events  # the slice actually detects things
        assert result.events_sent == len(live)

    @pytest.mark.parametrize("pipeline_batch", [1, 4, 64])
    def test_determinism_across_pipeline_batch_sizes(self, live, pipeline_batch):
        reference = build_pipeline(batch_size=pipeline_batch).run(live)
        result = serve_replay(
            build_pipeline(batch_size=pipeline_batch), live, batch_events=32
        )
        assert keys(result.complex_events) == keys(reference.complex_events)

    @pytest.mark.parametrize("seed", [3, 23])
    def test_determinism_across_streams(self, seed):
        stream = generate_soccer_stream(
            SoccerStreamConfig(duration_seconds=240, seed=seed)
        )
        _train, live = split_stream(stream, train_fraction=0.5)
        reference = build_pipeline().run(live)
        result = serve_replay(build_pipeline(), live, batch_events=16)
        assert keys(result.complex_events) == keys(reference.complex_events)

    def test_multi_connection_replay_delivers_everything(self, live):
        # >1 connection interleaves arrival order, so the determinism
        # guarantee does not apply -- but delivery accounting must:
        # every event is admitted exactly once and fed to the pipeline
        result = serve_replay(build_pipeline(), live, connections=4, batch_events=32)
        assert result.events_sent == len(live)
        assert result.connections == 4
        assert result.metrics["ingest"]["events_fed"] == len(live)
        assert result.metrics["wire"]["connections_total"] == 4


class TestFramedOps:
    def test_ping_and_metrics_round_trip(self, live):
        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                assert await client.ping() is True
                await client.ingest(live[:10])
                metrics = await client.metrics()
            return metrics

        metrics = run_server(scenario)
        assert metrics["state"] == "serving"
        assert metrics["ingest"]["events_admitted"] == 10
        assert metrics["wire"]["connections_total"] == 1

    def test_empty_ingest_acknowledged(self):
        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                return await client.ingest([])

        response = run_server(scenario)
        assert response["ok"] is True
        assert response["accepted"] == 0

    def test_unknown_op_rejected_without_closing(self):
        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                bad = await client.request({"op": "reboot"})
                ok = await client.ping()  # connection survives
            return bad, ok

        bad, ok = run_server(scenario)
        assert bad["ok"] is False
        assert bad["error"] == "unknown_op"
        assert ok is True

    def test_malformed_events_rejected_as_bad_request(self):
        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                return await client.request(
                    {"op": "ingest", "events": [{"t": "a"}]}  # missing s/ts
                )

        response = run_server(scenario)
        assert response["ok"] is False
        assert response["error"] == "bad_request"

    def test_non_array_events_is_protocol_error(self):
        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                return await client.request({"op": "ingest", "events": "nope"})

        response = run_server(scenario)
        assert response["error"] == "protocol_error"


class TestHttpSurface:
    def test_healthz(self):
        def scenario(server):
            return http_exchange(
                server.port,
                b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            )

        status, _headers, body = http_parts(run_server(scenario))
        assert status == 200
        assert body["ok"] is True
        assert body["status"] == "serving"

    def test_ingest_object_body(self, live):
        payload = json.dumps({"events": events_to_wire(live[:8])}).encode()
        request = (
            b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n%s" % (len(payload), payload)
        )
        status, _headers, body = http_parts(
            run_server(lambda server: http_exchange(server.port, request))
        )
        assert status == 200
        assert body == {"ok": True, "accepted": 8, "pending": 8}

    def test_ingest_bare_array_body(self, live):
        payload = json.dumps(events_to_wire(live[:5])).encode()
        request = (
            b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n%s" % (len(payload), payload)
        )
        status, _headers, body = http_parts(
            run_server(lambda server: http_exchange(server.port, request))
        )
        assert status == 200
        assert body["accepted"] == 5

    def test_http_ingest_detections_match_in_process(self, live):
        """The HTTP surface feeds the exact same deterministic path."""
        reference = build_pipeline().run(live)
        collected = []
        pipeline = build_pipeline()
        for chain in pipeline.chains:
            chain.emit.subscribe(collected.append)

        async def scenario(server):
            for start in range(0, len(live), 100):
                chunk = live[start : start + 100]
                payload = json.dumps({"events": events_to_wire(chunk)}).encode()
                raw = (
                    b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
                    b"Connection: close\r\n\r\n%s" % (len(payload), payload)
                )
                status, _h, body = http_parts(await http_exchange(server.port, raw))
                assert status == 200, body
            await server.stop()  # graceful drain flushes open windows

        run_server(scenario, pipeline=pipeline)
        assert keys(collected) == keys(reference.complex_events)

    def test_keep_alive_serves_multiple_requests(self):
        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            responses = []
            for i in range(3):
                closing = i == 2
                connection = b"close" if closing else b"keep-alive"
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: %s\r\n\r\n"
                    % connection
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                body = await reader.readexactly(length)
                responses.append((head, json.loads(body)))
            writer.close()
            return responses

        responses = run_server(scenario)
        assert len(responses) == 3
        assert all(body["ok"] for _head, body in responses)

    @pytest.mark.parametrize(
        "request_line, status, error",
        [
            (b"GET /nope HTTP/1.1", 404, "not_found"),
            (b"GET /ingest HTTP/1.1", 405, "method_not_allowed"),
            (b"POST /metrics HTTP/1.1", 405, "method_not_allowed"),
        ],
    )
    def test_routing_errors(self, request_line, status, error):
        raw = request_line + b"\r\nHost: x\r\nConnection: close\r\n\r\n"
        got_status, _headers, body = http_parts(
            run_server(lambda server: http_exchange(server.port, raw))
        )
        assert got_status == status
        assert body["error"] == error

    def test_invalid_json_body_is_bad_request(self):
        payload = b"{nope"
        raw = (
            b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n%s" % (len(payload), payload)
        )
        status, _headers, body = http_parts(
            run_server(lambda server: http_exchange(server.port, raw))
        )
        assert status == 400
        assert body["error"] == "bad_request"

    def test_chunked_encoding_rejected_cleanly(self):
        raw = (
            b"POST /ingest HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        status, _headers, body = http_parts(
            run_server(lambda server: http_exchange(server.port, raw))
        )
        assert status == 400
        assert "chunked" in body["detail"]


class TestBackpressure:
    def test_oversized_batch_gets_structured_overload(self, live):
        config = ServeConfig(max_pending_events=16)

        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                return await client.ingest(live[:64])

        response = run_server(scenario, config=config)
        assert response["ok"] is False
        assert response["error"] == "overloaded"
        assert response["accepted"] == 0
        assert response["batch"] == 64
        assert response["capacity"] == 16
        assert 0.0 <= response["utilization"] <= 1.0
        assert response["retry_after"] > 0
        shedding = response["shedding"]
        assert len(shedding) == 1  # one entry per deployed query
        for state in shedding.values():
            assert state == {"active": False, "drop_rate": 0.0}

    def test_pending_never_exceeds_capacity(self, live):
        config = ServeConfig(max_pending_events=32)

        async def scenario(server):
            peaks = []
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                for start in range(0, 512, 16):
                    await client.ingest(live[start : start + 16])
                    peaks.append(server.pending_events)
            return peaks

        peaks = run_server(scenario, config=config)
        assert max(peaks) <= 32

    def test_http_overload_carries_retry_after_header(self, live):
        config = ServeConfig(max_pending_events=4)
        payload = json.dumps({"events": events_to_wire(live[:32])}).encode()
        raw = (
            b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n%s" % (len(payload), payload)
        )
        status, headers, body = http_parts(
            run_server(lambda server: http_exchange(server.port, raw), config=config)
        )
        assert status == 503
        assert body["error"] == "overloaded"
        assert float(headers["retry-after"]) > 0

    def test_well_behaved_client_delivers_despite_backpressure(self, live):
        """ingest_stream honours retry_after and still delivers in order."""
        reference = build_pipeline().run(live)
        config = ServeConfig(
            max_pending_events=48, retry_after_min=0.01, retry_after_max=0.05
        )
        result = serve_replay(
            build_pipeline(), live, batch_events=48, config=config, max_retries=1000
        )
        assert result.events_sent == len(live)
        assert keys(result.complex_events) == keys(reference.complex_events)

    def test_overload_counter_in_metrics(self, live):
        config = ServeConfig(max_pending_events=4)

        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                await client.ingest(live[:32])
            return server.metrics()

        metrics = run_server(scenario, config=config)
        assert metrics["ingest"]["overloaded_responses"] == 1


class TestMiddlewareOverTheWire:
    def test_framed_auth_rejects_and_accepts(self, live):
        middleware = [SharedSecretAuth("hunter2")]

        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as anon:
                denied = await anon.ingest(live[:4])
            async with await ServeClient.connect(
                "127.0.0.1", server.port, auth="hunter2"
            ) as authed:
                allowed = await authed.ingest(live[:4])
            return denied, allowed

        denied, allowed = run_server(scenario, middleware=middleware)
        assert denied == {"ok": False, "error": "auth_failed", "op": "ingest"}
        assert allowed["ok"] is True

    def test_http_bearer_auth(self, live):
        middleware = [SharedSecretAuth("hunter2")]
        payload = json.dumps({"events": events_to_wire(live[:4])}).encode()

        def request(auth_header: bytes) -> bytes:
            return (
                b"POST /ingest HTTP/1.1\r\nHost: x\r\n%sContent-Length: %d\r\n"
                b"Connection: close\r\n\r\n%s" % (auth_header, len(payload), payload)
            )

        status, _h, body = http_parts(
            run_server(
                lambda server: http_exchange(server.port, request(b"")),
                middleware=middleware,
            )
        )
        assert (status, body["error"]) == (401, "auth_failed")
        status, _h, body = http_parts(
            run_server(
                lambda server: http_exchange(
                    server.port, request(b"Authorization: Bearer hunter2\r\n")
                ),
                middleware=middleware,
            )
        )
        assert status == 200
        assert body["ok"] is True

    def test_healthz_needs_no_auth(self):
        middleware = [SharedSecretAuth("hunter2")]
        raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        status, _h, body = http_parts(
            run_server(
                lambda server: http_exchange(server.port, raw), middleware=middleware
            )
        )
        assert status == 200
        assert body["ok"] is True

    def test_rate_limit_answers_429_with_retry_after(self, live):
        middleware = [TokenBucketLimiter(rate=0.001, burst=2)]

        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                responses = [await client.ingest(live[:2]) for _ in range(4)]
            return responses

        responses = run_server(scenario, middleware=middleware)
        assert [r["ok"] for r in responses] == [True, True, False, False]
        assert responses[2]["error"] == "rate_limited"
        assert responses[2]["retry_after"] > 0

    def test_max_in_flight_releases_after_rejection(self, live):
        # sequential requests through the full dispatch path: the slot
        # taken by an overloaded request must be released, or the gate
        # would wedge shut after the first backpressure response
        gate = MaxInFlight(1)
        config = ServeConfig(max_pending_events=4)

        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                overloaded = await client.ingest(live[:32])  # rejected by queue
                admitted = await client.ingest(live[:2])
            return overloaded, admitted

        overloaded, admitted = run_server(
            scenario, config=config, middleware=[gate]
        )
        assert overloaded["error"] == "overloaded"
        assert admitted["ok"] is True
        assert gate.in_flight == 0

    def test_middleware_metrics_surface_in_server_metrics(self, live):
        middleware = [RequestLogMiddleware(), TokenBucketLimiter(rate=100.0)]

        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                await client.ingest(live[:4])
            return server.metrics()

        metrics = run_server(scenario, middleware=middleware)
        assert metrics["middleware"]["request_log"]["requests"] == 1
        assert metrics["middleware"]["rate_limit"]["passed"] == 1


class TestLifecycle:
    def test_rejects_non_pipeline(self):
        with pytest.raises(TypeError, match="Pipeline"):
            PipelineServer(object())

    def test_port_requires_start(self):
        server = PipelineServer(build_pipeline())
        with pytest.raises(RuntimeError, match="not started"):
            server.port

    def test_graceful_stop_flushes_micro_batch_and_windows(self, live):
        """A micro-batch larger than the stream does not hold detections:
        the feeder flushes it when the queue runs dry, and stop() returns
        the still-open windows' tail."""
        stream = live[:2500]  # cut while windows holding matches are open
        reference = keys(build_pipeline(batch_size=1).run(stream).complex_events)
        per_event = build_pipeline(batch_size=1)
        per_event.feed_many(stream)
        open_tail = keys(c for found in per_event.finish().values() for c in found)
        pipeline = build_pipeline(batch_size=4096)  # never fills on this stream
        collected = []
        for chain in pipeline.chains:
            chain.emit.subscribe(collected.append)

        async def scenario(server):
            async with await ServeClient.connect("127.0.0.1", server.port) as client:
                await client.ingest_stream(stream, batch_events=256)
            await server._queue.join()
            before_stop = list(collected)
            final = await server.stop()
            return before_stop, final

        before_stop, final = run_server(scenario, pipeline=pipeline)
        tail = keys(c for found in final.values() for c in found)
        assert tail == open_tail  # the final flush carries only open windows
        assert tail
        assert keys(before_stop) == reference[: len(reference) - len(tail)]
        assert keys(before_stop) + tail == reference
        assert keys(collected) == reference

    def test_stop_is_idempotent(self):
        async def impl():
            server = PipelineServer(build_pipeline())
            await server.start()
            first = await server.stop()
            second = await server.stop()
            return server.state, first, second

        state, _first, second = asyncio.run(impl())
        assert state == "stopped"
        assert second == {}

    def test_ingest_after_drain_refused(self, live):
        async def impl():
            pipeline = build_pipeline()
            server = PipelineServer(pipeline)
            await server.start()
            port = server.port
            await server.stop()
            # the listener is closed; a fresh server on the same pipeline
            # must refuse ingest while draining
            server2 = PipelineServer(pipeline)
            server2._state = "draining"
            return server2._admit(events_to_wire(live[:2]))

        status, payload = asyncio.run(impl())
        assert status == 503
        assert payload["error"] == "draining"

    def test_stop_detaches_counting_sinks(self):
        async def impl():
            pipeline = build_pipeline()
            baseline = [len(chain.emit.sinks) for chain in pipeline.chains]
            server = PipelineServer(pipeline)
            await server.start()
            await server.stop()
            return baseline, [len(chain.emit.sinks) for chain in pipeline.chains]

        baseline, after = asyncio.run(impl())
        assert after == baseline  # the pipeline is left as found

    def test_serve_replay_validates_connections(self, live):
        with pytest.raises(ValueError, match="positive"):
            serve_replay(build_pipeline(), live, connections=0)
