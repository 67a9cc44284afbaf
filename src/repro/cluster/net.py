"""Asyncio TCP front-end: thousands of sockets, one event loop, N shards.

The cluster's compute path is thread-pools + worker processes; the I/O
path is a single ``asyncio`` event loop multiplexing every client
connection. A request is parsed off the socket, handed to
:meth:`ClusterServer.submit` (which returns a ``concurrent.futures``
future immediately — the event loop never blocks on inference), and the
response is written back whenever the shard finishes, so slow batches on
one connection never stall another.

Wire format (little endian is never used — lengths are network order):

    frame    := u32_be body_length | body
    body     := header_json | 0x0A | payload?
    payload  := ``numpy.save`` bytes (dtype + shape + C-order data)

Request headers carry the request ``id``, an ``op`` (absent = ``infer``)
and that op's fields; :data:`WIRE_OPS` below is the one list of ops —
name, accepted header fields, reply key, whether it touches workers —
that the server dispatches from, :class:`ClusterClient` builds its
requests from and the README op table mirrors. Two ops carry a payload:

    {"id": 7, "model": "lenet"}       + npy payload  -> inference
    {"id": 10, "op": "generate", "model": "gpt_nano",
     "max_new_tokens": 16, "eos_token": null,
     "sampling": {"temperature": 0.8, "top_k": 40,
                  "top_p": 0.95, "seed": 7}}
                                      + npy prompt   -> token stream
    {"id": 9, "op": "ping"}           (no payload)   -> every other op

The optional ``sampling`` field is ``SamplingConfig.to_dict()`` — omit
it (or send null) for greedy decode. Because the sampling RNG is
counter-based on ``(seed, step)``, a seeded request reproduces the same
token stream over the wire as in process.

``infer`` and ``generate`` headers may carry a ``trace`` field — a hex
trace id (or a ``{"trace": id, "span": parent}`` context) minted by the
client. The front-end adopts it for the request, ships it to the picked
worker inside the RPC tuple, and the worker force-enables its tracer
for just that request — so one id stitches client, front-end, router
decision, worker prefill and decode ticks into a single trace,
retrievable via ``op: trace`` and exportable as a Chrome trace.

Response headers echo the id: ``{"id": 7, "ok": true}`` with an npy
payload for inference hits, ``{"id": 7, "ok": false, "error": "..."}``
on failure (unknown model, shape mismatch, admission control, crash).
Requests may be pipelined; responses come back in completion order, so
clients match on ``id``.

A ``generate`` request is answered by a *sequence* of frames sharing its
id: one ``{"id": 10, "ok": true, "stream": true, "token": t, "index": j}``
per generated token as the worker's decode batch advances, terminated by
``{"id": 10, "ok": true, "done": true, "tokens": [...]}`` carrying the
full sequence (or a normal error frame). Stream frames interleave freely
with other responses on the connection; clients route by id.

:class:`ClusterClient` is the blocking counterpart for scripts and
tests; it pipelines bursts, reorders responses transparently, and
reconnects once on a broken pipe (a restarted server is transparent
between requests; a stream cut mid-generation is not replayable, since
the worker-side KV cache died with the connection's session).
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import struct
import threading
import time
from collections import namedtuple

import numpy as np

from ..gen.sampling import SamplingConfig
from ..obs.contprof import render_collapsed, to_pprof
from ..obs.metrics import DEFAULT_SIZE_BUCKETS, METRICS, render_text
from ..obs.tracer import TRACE

__all__ = [
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "WIRE_OPS",
    "ClusterTCPServer",
    "ClusterClient",
]

# One length prefix bounds everything a peer can make us buffer.
MAX_FRAME_BYTES = 64 * 1024 * 1024
_HEADER_SEP = b"\n"

# Front-end wire metrics: request/error totals per op (the error-rate
# SLO's good/bad source) and frame body sizes both directions.
_TCP_REQUESTS = METRICS.counter(
    "repro_tcp_requests_total", "Wire requests served", labels=("op",))
_TCP_ERRORS = METRICS.counter(
    "repro_tcp_errors_total", "Wire requests that failed", labels=("op",))
_FRAME_BYTES = METRICS.histogram(
    "repro_tcp_frame_bytes", "Frame body sizes (bytes)", labels=("dir",),
    buckets=DEFAULT_SIZE_BUCKETS)
_FRAME_IN = _FRAME_BYTES.labels(dir="in")
_FRAME_OUT = _FRAME_BYTES.labels(dir="out")


class ProtocolError(RuntimeError):
    """The peer sent a frame this protocol cannot parse."""


def _trace_ctx(header):
    """The request's trace context from its ``trace`` header field.

    Accepts a bare hex id (a fresh root) or a full context dict; returns
    the wire-form dict :meth:`Tracer.activated` takes, or ``None``.
    """
    raw = header.get("trace")
    if raw is None:
        return None
    if isinstance(raw, str):
        return {"trace": raw, "span": None}
    if isinstance(raw, dict) and "trace" in raw:
        return {"trace": raw["trace"], "span": raw.get("span")}
    raise ProtocolError("trace field must be a hex id or a "
                        "{trace, span} object")


# ----------------------------------------------------------------------
# Framing (shared by server and client)
# ----------------------------------------------------------------------

def encode_frame(header, array=None):
    """Serialise one frame: length prefix + JSON header [+ npy payload]."""
    body = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body += _HEADER_SEP
    if array is not None:
        buf = io.BytesIO()
        np.save(buf, np.ascontiguousarray(array), allow_pickle=False)
        body += buf.getvalue()
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError("frame of %d bytes exceeds the %d byte cap"
                            % (len(body), MAX_FRAME_BYTES))
    return struct.pack("!I", len(body)) + body


def decode_frame(body):
    """Parse one frame body into ``(header dict, array or None)``."""
    sep = body.find(_HEADER_SEP)
    if sep < 0:
        raise ProtocolError("frame has no header/payload separator")
    try:
        header = json.loads(body[:sep].decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError("frame header is not valid JSON: %s" % exc) from exc
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    payload = body[sep + 1:]
    if not payload:
        return header, None
    try:
        array = np.load(io.BytesIO(payload), allow_pickle=False)
    except ValueError as exc:
        raise ProtocolError("frame payload is not a valid npy array: %s"
                            % exc) from exc
    return header, array


async def _read_frame(reader):
    """Read one length-prefixed frame; returns None at clean EOF."""
    try:
        prefix = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    (length,) = struct.unpack("!I", prefix)
    if not 0 < length <= MAX_FRAME_BYTES:
        raise ProtocolError("frame length %d outside (0, %d]"
                            % (length, MAX_FRAME_BYTES))
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc


# ----------------------------------------------------------------------
# The wire ops
# ----------------------------------------------------------------------

def _op_flight(cluster, header):
    """Flight-recorder readout: one entry's Chrome-trace document when a
    ``trace`` id or ``worst`` is given, the retained listing otherwise."""
    flight = cluster.flight
    if header.get("trace") or header.get("worst"):
        return flight.chrome(header.get("trace"),
                             worst=bool(header.get("worst")))
    return {"enabled": flight.enabled,
            "counts": dict(flight.counts),
            "entries": flight.entries(reason=header.get("reason"),
                                      window_s=header.get("window_s"))}


def _op_obs(cluster, header):
    """Apply the observability toggles the header names; reply with the
    resulting state (``profiling``/``sampler`` are worker ack counts — a
    dead shard cannot acknowledge, a respawned one comes back off)."""
    if "tracing" in header:
        # Front-end process-global switch: traced *requests* work
        # without it (their ctx force-enables per hop), but always-on
        # span collection wants it.
        (TRACE.enable if header["tracing"] else TRACE.disable)()
    acked = None
    if "profiling" in header:
        acked = cluster.set_profiling(bool(header["profiling"]))
    if "flight" in header:
        # Tail-sampled flight recording of untraced generate requests
        # (traced ones already belong to a caller).
        cluster.flight.enabled = bool(header["flight"])
    sampled = None
    if "sampler" in header or "sampler_rate" in header:
        enabled = (None if "sampler" not in header
                   else bool(header["sampler"]))
        rate = (None if header.get("sampler_rate") is None
                else float(header["sampler_rate"]))
        sampled = cluster.set_sampling(enabled, rate)
    return {"tracing": TRACE.enabled, "profiling": acked,
            "flight": cluster.flight.enabled, "sampler": sampled}


def _op_profile(cluster, header):
    """The merged profile with its standard renderings, so a client
    needs no repro import to feed flamegraph.pl or a pprof consumer."""
    merged = cluster.profile(bool(header.get("reset")))
    reply = {"profile": merged, "collapsed": render_collapsed(merged)}
    if header.get("pprof"):
        reply["pprof"] = to_pprof(merged)
    return reply


WireOp = namedtuple("WireOp", "name handler blocking fields reply doc")

#: Every op the wire speaks, one row each — the server dispatches from
#: it, :meth:`ClusterClient._call` builds requests from it and the
#: README op table mirrors it (``tests/test_api_hygiene.py`` holds the
#: three together). Columns:
#:
#: - ``handler(cluster, header)`` computes the reply value; ``None`` for
#:   the two payload ops, whose bodies live in :class:`ClusterTCPServer`.
#: - ``blocking``: the handler waits on worker pipes, so the server runs
#:   it in the default executor, never on the event loop.
#: - ``fields``: accepted header fields and the type
#:   :meth:`ClusterClient._call` coerces a value to before sending it
#:   (the payload ops build their own headers; their ``trace`` may also
#:   be a ``{trace, span}`` context object).
#: - ``reply``: the reply-header key holding the handler's result;
#:   ``None`` when the handler returns a dict of reply keys itself.
#:
#: Adding a wire op is one row here, one :class:`ClusterClient` method
#: that returns ``self._call("<op>", ...)`` and one row in the README
#: table; nothing else names ops.
WIRE_OPS = {row.name: row for row in (
    WireOp("infer", None, True, {"model": str, "trace": str}, None,
           "run the npy payload through `model`; the reply carries the "
           "npy result"),
    WireOp("generate", None, True,
           {"model": str, "max_new_tokens": int, "eos_token": int,
            "sampling": dict, "trace": str}, None,
           "stream tokens for the npy prompt: one frame per token, then "
           "a `done` frame with `tokens` (and `telemetry`)"),
    WireOp("ping", lambda cluster, header: {}, False, {}, None,
           "liveness probe"),
    WireOp("metrics", lambda cluster, header: cluster.summary(), False,
           {}, "summary", "per-model and per-shard serving summary"),
    WireOp("stats", lambda cluster, header: cluster.stats(), True, {},
           "stats",
           "per-shard windows, merged profiler rows, token telemetry, "
           "merged metrics snapshot, router calibration / outstanding / "
           "inflight"),
    WireOp("trace",
           lambda cluster, header: cluster.trace_spans(header.get("trace")),
           True, {"trace": str}, "spans",
           "recorded spans stitched across front-end and workers (one "
           "trace id, or all)"),
    WireOp("obs", _op_obs, True,
           {"tracing": bool, "profiling": bool, "flight": bool,
            "sampler": bool, "sampler_rate": float}, "obs",
           "toggle front-end tracing, worker step profiling, the flight "
           "recorder, the wall-clock samplers (on/off, rate in Hz)"),
    WireOp("slo", lambda cluster, header: cluster.slo(), True, {}, "slo",
           "declared objectives evaluated cluster-wide, burn rate per "
           "window"),
    WireOp("health", lambda cluster, header: cluster.health(), True, {},
           "health",
           "liveness, alerting objectives, flight occupancy, advisory "
           "drift block with the repricing loop's state"),
    WireOp("flight", _op_flight, False,
           {"trace": str, "worst": bool, "reason": str, "window_s": float},
           "flight",
           "retained tail-sample entries; with `trace` or `worst`, one "
           "Chrome-trace document"),
    WireOp("scrape",
           lambda cluster, header: render_text(cluster.metrics_snapshot()),
           True, {}, "text",
           "Prometheus text exposition of the merged registry"),
    WireOp("profile", _op_profile, True, {"reset": bool, "pprof": bool},
           None,
           "cluster-merged wall-clock profile: `profile`, `collapsed` "
           "text and, on request, `pprof`"),
    WireOp("drift", lambda cluster, header: cluster.drift(), True, {},
           "drift",
           "cost-model drift report: per-layer calibration and band "
           "alerts"),
)}
_INFER = WIRE_OPS["infer"]
_GENERATE = WIRE_OPS["generate"]


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------

class ClusterTCPServer:
    """Serve a :class:`ClusterServer` over TCP.

    Use inside an existing event loop (``await server.start()``), or let
    it own a loop in a daemon thread (``start_in_thread()`` — the shape
    scripts and tests want). ``port=0`` binds an ephemeral port;
    ``address`` holds the bound ``(host, port)`` once listening.
    """

    def __init__(self, cluster, host="127.0.0.1", port=0):
        self.cluster = cluster
        self.host = host
        self.port = int(port)
        self.address = None
        self._server = None
        self._loop = None
        self._thread = None
        self._started = threading.Event()
        self._startup_error = None

    # ------------------------------------------------------------------
    async def start(self):
        """Bind and start accepting connections on the running loop."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def stop_async(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer):
        """One task per connection; one extra task per in-flight request."""
        write_lock = asyncio.Lock()
        replies = set()
        try:
            while True:
                body = await _read_frame(reader)
                if body is None:
                    break
                _FRAME_IN.observe(len(body))
                try:
                    header, array = decode_frame(body)
                except ProtocolError as exc:
                    await self._respond(writer, write_lock,
                                        {"id": None, "ok": False,
                                         "error": str(exc)})
                    break
                task = asyncio.ensure_future(
                    self._serve_one(writer, write_lock, header, array))
                replies.add(task)
                task.add_done_callback(replies.discard)
            if replies:
                await asyncio.gather(*replies, return_exceptions=True)
        except (ProtocolError, ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            # CancelledError: the server is stopping while this
            # connection is idle in a read; finishing the handler (the
            # finally still closes the writer) keeps asyncio's stream
            # callback from logging the cancellation as an error.
            pass
        finally:
            for task in replies:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # CancelledError lands here when the server stops while
                # the connection is open; finishing cleanly (rather than
                # re-raising into asyncio's connection_made callback)
                # keeps shutdown silent. The task is ending either way.
                pass

    async def _serve_one(self, writer, write_lock, header, array):
        request_id = header.get("id")
        reply = {"id": request_id, "ok": True}
        payload = None
        op = header.get("op", "infer")
        # A peer-chosen string must never become a label value (series
        # are permanent), and a non-string op cannot even be looked up.
        row = WIRE_OPS.get(op) if isinstance(op, str) else None
        label = "unknown" if row is None else row.name
        _TCP_REQUESTS.labels(op=label).inc()
        if row is _GENERATE:
            await self._serve_generate(writer, write_lock, header, array)
            return
        try:
            if row is None:
                raise ProtocolError("unknown op %r" % (op,))
            if row is _INFER:
                if array is None:
                    raise ProtocolError("inference request carries no array")
                ctx = _trace_ctx(header)
                t0 = time.monotonic()
                if ctx is None:
                    future = self.cluster.submit(header.get("model"), array)
                else:
                    # Submit under the request's context so the batcher
                    # captures it (its per-request span re-joins this
                    # trace when the batch resolves).
                    with TRACE.tracing(ctx):
                        future = self.cluster.submit(
                            header.get("model"), array)
                payload = await asyncio.wrap_future(future)
                if ctx is not None:
                    with TRACE.tracing(ctx):
                        TRACE.record_span(
                            "tcp.infer", t0, time.monotonic(), ctx=ctx,
                            cat="net", model=header.get("model"))
                elif TRACE.enabled:
                    # Globally-enabled tracing covers untraced requests
                    # too: each roots its own fresh trace.
                    TRACE.record_span("tcp.infer", t0, time.monotonic(),
                                      cat="net", model=header.get("model"))
            else:
                if row.blocking:
                    result = await asyncio.get_running_loop().run_in_executor(
                        None, row.handler, self.cluster, header)
                else:
                    result = row.handler(self.cluster, header)
                if row.reply is None:
                    reply.update(result)
                else:
                    reply[row.reply] = result
        except Exception as exc:  # noqa: BLE001 - reported to the peer
            _TCP_ERRORS.labels(op=label).inc()
            reply = {"id": request_id, "ok": False,
                     "error": "%s: %s" % (type(exc).__name__, exc)}
            payload = None
        await self._respond(writer, write_lock, reply, payload)

    async def _serve_generate(self, writer, write_lock, header, array):
        """Stream one generation session's tokens as per-id frames.

        Worker polls are blocking RPCs, so each next-token fetch hops
        through the default executor — the event loop keeps multiplexing
        every other connection (and other streams) between tokens.
        """
        request_id = header.get("id")
        loop = asyncio.get_running_loop()
        done = object()
        stream = None
        flight_ctx = None
        try:
            if array is None:
                raise ProtocolError("generation request carries no prompt")
            prompt = np.asarray(array).ravel().astype(np.int64)
            # Parse the policy before touching the cluster so a malformed
            # header fails as a protocol error, not a worker error.
            sampling = SamplingConfig.from_dict(header.get("sampling"))
            ctx = _trace_ctx(header)
            if ctx is None:
                # Tail sampling: an untraced request gets a recorder-
                # minted trace context (None while the recorder is off)
                # — cheap head tracing along its own path, with the
                # retention decision deferred to completion.
                flight_ctx = self.cluster.flight_begin()
                ctx = flight_ctx
            t0 = time.monotonic()

            def start_session():
                return self.cluster.generate(
                    header.get("model"), prompt,
                    max_new_tokens=header.get("max_new_tokens"),
                    eos_token=header.get("eos_token"),
                    sampling=sampling)

            def traced_start():
                # Executor threads inherit no context: re-activate the
                # request's (force-enabling tracing for its duration) so
                # the router pick, the gen_start RPC and the stream's
                # captured context all join this trace.
                if ctx is None:
                    return start_session()
                with TRACE.tracing(ctx):
                    return start_session()

            # Session start is a blocking worker RPC (prefill behind the
            # shard's pipe lock) — off the loop, like every poll below.
            stream = await loop.run_in_executor(None, traced_start)
            tokens = iter(stream)
            index = 0
            t_first = None
            while True:
                token = await loop.run_in_executor(None, next, tokens, done)
                if token is done:
                    break
                if t_first is None:
                    t_first = time.monotonic()
                await self._respond(
                    writer, write_lock,
                    {"id": request_id, "ok": True, "stream": True,
                     "token": int(token), "index": index})
                index += 1
            done_frame = {"id": request_id, "ok": True, "done": True,
                          "tokens": [int(t) for t in stream.tokens]}
            if stream.telemetry is not None:
                # The worker's final per-session numbers (TTFT includes
                # worker-side prefill; ITL is its decode tick pace).
                done_frame["telemetry"] = stream.telemetry
            if ctx is not None:
                with TRACE.tracing(ctx):
                    TRACE.record_span(
                        "tcp.generate", t0, time.monotonic(), ctx=ctx,
                        cat="net", model=header.get("model"),
                        tokens=len(stream.tokens))
            if flight_ctx is not None:
                # Settle the flight (breach judged on front-door TTFT)
                # *before* the done frame ships: a client that has read
                # the done frame can immediately fetch this entry via
                # ``op: flight``. Span collection is blocking worker
                # RPCs, so it hops off the loop like every poll above.
                ttft_ms = (None if t_first is None
                           else (t_first - t0) * 1e3)
                fctx = flight_ctx

                def settle_flight():
                    self.cluster.flight_finish(
                        fctx, value_ms=ttft_ms,
                        model=header.get("model"),
                        tokens=len(stream.tokens))

                await loop.run_in_executor(None, settle_flight)
            await self._respond(writer, write_lock, done_frame)
        except Exception as exc:  # noqa: BLE001 - reported to the peer
            _TCP_ERRORS.labels(op=_GENERATE.name).inc()
            if flight_ctx is not None:
                fctx, err = flight_ctx, str(exc)
                await loop.run_in_executor(
                    None, lambda: self.cluster.flight_finish(
                        fctx, error=err, model=header.get("model")))
            await self._respond(
                writer, write_lock,
                {"id": request_id, "ok": False,
                 "error": "%s: %s" % (type(exc).__name__, exc)})
        finally:
            # A client that vanished mid-stream must not pin its
            # worker-side KV cache: abandon the session (no-op if done).
            if stream is not None and not stream.done:
                await loop.run_in_executor(None, stream.close)

    async def _respond(self, writer, write_lock, header, payload=None):
        frame = encode_frame(header, payload)
        _FRAME_OUT.observe(len(frame) - 4)  # body, sans length prefix
        async with write_lock:
            writer.write(frame)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # Thread-owned event loop (scripts / tests)
    # ------------------------------------------------------------------
    def start_in_thread(self, timeout=30.0):
        """Run the server on its own event loop in a daemon thread.

        Blocks until the socket is listening and returns the bound
        ``(host, port)``; pair with :meth:`stop`.
        """
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.new_event_loop()

        def run():
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.start())
                self._started.set()
                self._loop.run_forever()
                self._loop.run_until_complete(self.stop_async())
                # Let open connection handlers unwind instead of leaking
                # "task was destroyed but it is pending" at loop close.
                pending = asyncio.all_tasks(self._loop)
                for task in pending:
                    task.cancel()
                if pending:
                    self._loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True))
            except Exception as exc:  # surface bind errors to the caller
                self._startup_error = exc
                self._started.set()
            finally:
                self._loop.close()

        self._thread = threading.Thread(target=run, name="lut-cluster-tcp",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("TCP server did not start within %.1fs"
                               % timeout)
        if self._startup_error is not None:
            raise self._startup_error
        return self.address

    def stop(self, timeout=10.0):
        """Stop a thread-owned server and join its loop thread.

        Safe after a failed ``start_in_thread`` (the loop is already
        closed then, and stopping it again would mask the bind error).
        """
        if self._thread is None:
            return
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self):
        self.start_in_thread()
        return self

    def __exit__(self, *exc):
        self.stop()


# ----------------------------------------------------------------------
# Blocking client
# ----------------------------------------------------------------------

class ClusterClient:
    """Blocking client speaking the length-prefixed frame protocol.

    Single-threaded convenience for scripts, benchmarks and tests: it
    pipelines whole bursts (all requests written before the first
    response is read) and matches responses by id, which is exactly the
    pattern the asyncio server is built to overlap. Stream frames
    (generation tokens) interleaved with other responses are routed by id
    through a small stash.

    On a broken pipe (server restarted between requests) the client
    reconnects once and replays the failed request; inference and
    telemetry requests are idempotent, so the retry is safe. A connection
    lost *mid-stream* is not replayed — the worker-side session died with
    the server — and surfaces as :class:`ConnectionError`.
    """

    _RETRIABLE = (ConnectionError, BrokenPipeError, EOFError, OSError)

    def __init__(self, host, port, timeout=60.0):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._next_id = 0
        self._sock = None
        self._file = None
        self._stash = {}
        #: The latest finished stream's per-session telemetry (TTFT and
        #: inter-token latency, from the ``done`` frame), or None.
        self.last_telemetry = None
        # Bumped per (re)connect so stale stream generators fail fast
        # instead of blocking a full socket timeout on the new socket.
        self._conn_gen = 0
        self._connect()

    def _connect(self):
        self.close()
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        self._file = self._sock.makefile("rwb")
        self._stash = {}
        self._conn_gen += 1
        # Request ids whose remaining frames should be dropped on sight
        # (abandoned generate() streams) — nothing will ever claim them.
        self._discard = set()

    def _with_retry(self, attempt):
        """Run one request round trip, reconnecting (once) on a dead
        connection and replaying the attempt.

        Socket timeouts are *not* retried: a slow server is not a dead
        one, and replaying a burst at a struggling server doubles its
        work. Note that a reconnect starts a fresh connection — frames
        of any still-open generate() stream died with the old socket.
        """
        try:
            return attempt()
        except TimeoutError:  # socket.timeout — server alive but slow
            raise
        except self._RETRIABLE:
            self._connect()
            return attempt()

    # ------------------------------------------------------------------
    def _send(self, header, array=None):
        self._next_id += 1
        header = dict(header, id=self._next_id)
        self._file.write(encode_frame(header, array))
        return self._next_id

    def _recv(self):
        prefix = self._file.read(4)
        if len(prefix) < 4:
            raise ConnectionError("server closed the connection")
        (length,) = struct.unpack("!I", prefix)
        body = self._file.read(length)
        if len(body) < length:
            raise ConnectionError("server closed the connection mid-frame")
        return decode_frame(body)

    def _recv_matching(self, wanted):
        """Next frame whose id is in ``wanted``; stash frames for other
        requests (pipelined bursts / interleaved streams) until theirs.
        Frames of abandoned streams are dropped instead of stashed."""
        for rid in wanted:
            stashed = self._stash.get(rid)
            if stashed:
                frame = stashed.pop(0)
                if not stashed:
                    del self._stash[rid]
                return frame
        while True:
            header, payload = self._recv()
            rid = header.get("id")
            if rid in wanted:
                return header, payload
            if rid in self._discard:
                # Terminal frame of an abandoned stream: forget the id.
                if header.get("done") or not header.get("ok"):
                    self._discard.discard(rid)
                continue
            self._stash.setdefault(rid, []).append((header, payload))

    def _flush(self):
        self._file.flush()

    @staticmethod
    def _check(header):
        if not header.get("ok"):
            raise RuntimeError("server error: %s"
                               % header.get("error", "unknown"))

    def _call(self, op, **fields):
        """One header-only round trip of ``op`` (a :data:`WIRE_OPS` row).

        Fields left at ``None`` are omitted, the rest coerced to the
        row's declared types. Returns the reply value under the row's
        reply key (the whole reply header when the row names none)."""
        row = WIRE_OPS[op]
        request = {"op": op}
        for name, value in fields.items():
            if value is not None:
                request[name] = row.fields[name](value)

        def attempt():
            rid = self._send(request)
            self._flush()
            header, _ = self._recv_matching({rid})
            self._check(header)
            return header if row.reply is None else header[row.reply]
        return self._with_retry(attempt)

    # ------------------------------------------------------------------
    def ping(self):
        self._call("ping")
        return True

    def metrics(self):
        """The cluster's :meth:`ClusterServer.summary` dict."""
        return self._call("metrics")

    def stats(self):
        """Cluster-wide observability snapshot (``op: stats``): per-shard
        windows plus merged profiler aggregates and token telemetry."""
        return self._call("stats")

    def trace(self, trace_id=None):
        """Spans recorded across the cluster (optionally one trace id),
        as plain dicts ready for :func:`repro.obs.export.to_chrome_trace`."""
        return self._call("trace", trace=trace_id)

    def set_obs(self, tracing=None, profiling=None, flight=None,
                sampler=None, sampler_rate=None):
        """Toggle front-end tracing, worker per-step profiling, the
        tail-sampling flight recorder, and/or the continuous wall-clock
        sampler (``sampler`` on/off, ``sampler_rate`` in Hz)."""
        return self._call("obs", tracing=tracing, profiling=profiling,
                          flight=flight, sampler=sampler,
                          sampler_rate=sampler_rate)

    def slo(self):
        """Cluster-wide SLO evaluation: declared objectives with
        per-window compliance and burn rates (``op: slo``)."""
        return self._call("slo")

    def health(self):
        """One-look health verdict (``op: health``)."""
        return self._call("health")

    def flight(self, trace=None, worst=False, reason=None, window_s=None):
        """Flight-recorder readout (``op: flight``).

        With neither ``trace`` nor ``worst``: the retained entry listing
        (spanless rows + retention counts). With a trace id or
        ``worst=True``: one entry's Chrome-trace document (``None`` when
        nothing matches)."""
        return self._call("flight", trace=trace, worst=worst or None,
                          reason=reason, window_s=window_s)

    def profile(self, reset=False, pprof=False):
        """Cluster-merged continuous wall-clock profile (``op: profile``).

        Returns the reply dict: ``profile`` is the merged folded-stack
        document (per-process totals under ``shards``), ``collapsed``
        its flamegraph.pl-ready text rendering, and — with
        ``pprof=True`` — ``pprof`` a pprof-style JSON document.
        ``reset=True`` starts a fresh window in every sampler."""
        header = self._call("profile", reset=reset or None,
                            pprof=pprof or None)
        return {key: header[key]
                for key in ("profile", "collapsed", "pprof")
                if key in header}

    def drift(self):
        """Cluster-merged cost-model drift report (``op: drift``):
        per-model calibration, per-layer EWMA ratios and band alerts."""
        return self._call("drift")

    def scrape(self):
        """The merged cluster registry in Prometheus text exposition
        format (``op: scrape``)."""
        return self._call("scrape")

    def infer(self, model, x):
        """One request, one response."""
        return self.infer_many(model, [x])[0]

    def infer_many(self, model, xs):
        """Pipeline a burst of single-sample requests; ordered results.

        All frames are written back to back, then responses (which arrive
        in completion order) are collected and re-ordered by request id.
        Every response of the burst is drained off the socket before any
        error is raised, so a failed request never desynchronises the
        connection — the client object stays usable. A dead connection
        reconnects once and replays the whole burst.
        """
        def attempt():
            ids = [self._send({"model": model}, x) for x in xs]
            self._flush()
            by_id = {}
            errors = []
            for _ in ids:
                header, payload = self._recv_matching(set(ids))
                if header.get("ok"):
                    by_id[header["id"]] = payload
                else:
                    errors.append((header.get("id"),
                                   header.get("error", "unknown")))
            if errors:
                raise RuntimeError(
                    "server error on %d of %d requests; first: %s"
                    % (len(errors), len(ids), errors[0][1]))
            missing = [i for i in ids if i not in by_id]
            if missing:
                raise ConnectionError("no response for request ids %s"
                                      % missing)
            return np.stack([by_id[i] for i in ids])
        return self._with_retry(attempt)

    # ------------------------------------------------------------------
    def generate(self, model, prompt, max_new_tokens=None, eos_token=None,
                 sampling=None, trace=None):
        """Stream one generation; yields token ids as frames arrive.

        The session is started eagerly (with the reconnect-and-replay
        guard, so a restarted server is transparent *before* the first
        token); the returned generator then reads one stream frame per
        token and finishes on the ``done`` frame. ``sampling`` (a
        :class:`~repro.gen.sampling.SamplingConfig` or its dict form)
        rides the request header; omit it for greedy decode. ``trace``
        is an optional trace id (mint one with
        :func:`repro.obs.new_trace_id`) — the whole request is traced
        end to end under it, retrievable via :meth:`trace`. When the
        stream finishes, the session's own TTFT/ITL numbers (from the
        ``done`` frame) land on :attr:`last_telemetry`.
        """
        header = {"op": "generate", "model": model}
        if max_new_tokens is not None:
            header["max_new_tokens"] = int(max_new_tokens)
        if eos_token is not None:
            header["eos_token"] = int(eos_token)
        if sampling is not None:
            header["sampling"] = SamplingConfig.from_dict(sampling).to_dict()
        if trace is not None:
            header["trace"] = trace
        prompt = np.asarray(prompt, dtype=np.int64).ravel()

        def attempt():
            rid = self._send(header, prompt)
            self._flush()
            return rid, self._recv_matching({rid})
        rid, first = self._with_retry(attempt)
        born = self._conn_gen

        def stream():
            frame = first
            finished = False
            try:
                while True:
                    head, _ = frame
                    try:
                        self._check(head)
                        if head.get("done"):
                            finished = True
                            if "telemetry" in head:
                                self.last_telemetry = head["telemetry"]
                            return
                    except RuntimeError:
                        finished = True  # error frame is terminal too
                        raise
                    yield int(head["token"])
                    if self._conn_gen != born:
                        # The client reconnected (another request's
                        # retry): this stream's session died with the
                        # old socket and its frames will never arrive.
                        finished = True
                        raise ConnectionError(
                            "generation stream lost: the connection was "
                            "re-established mid-stream")
                    frame = self._recv_matching({rid})
            finally:
                if not finished:
                    # Abandoned mid-stream: drop this id's future frames
                    # (stashed and incoming) instead of accreting them.
                    self._stash.pop(rid, None)
                    self._discard.add(rid)
        return stream()

    def generate_all(self, model, prompt, max_new_tokens=None,
                     eos_token=None, sampling=None):
        """Blocking convenience: the full generated token list."""
        return list(self.generate(model, prompt, max_new_tokens, eos_token,
                                  sampling))

    # ------------------------------------------------------------------
    def close(self):
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
