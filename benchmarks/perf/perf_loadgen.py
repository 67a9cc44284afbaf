"""Single-threaded asyncio load generator for the ``tcp_*`` workloads.

One event loop, at most two connections. Requests are pipelined on a
connection and replies routed by id, exactly as the wire protocol
documents. Two drivers:

- :func:`run_closed` keeps a fixed number of operations outstanding (a
  sliding window: each completion sends the next request at once).
  Burst-and-wait loops from several client threads phase-lock with the
  server's 2 ms batch timer; a sliding window on one connection does
  not.
- :func:`run_open` sends on a fixed-interval schedule regardless of
  completions and times every operation from when it was *due*, so a
  server stall is charged to the requests that queued behind it. It
  also reports how late the generator itself ran.
"""

import asyncio
import itertools
import json
import struct

from repro.cluster import encode_frame

from perf_stats import CLOCK, IncorrectOutput

# How long after the last send a phase waits for straggling replies
# before declaring them lost.
DRAIN_TIMEOUT_S = 20.0


class Connection:
    """One pipelined client connection; replies are routed by id to the
    handler registered at send time. A handler is called as
    ``handler(rid, header, payload, t_received)`` and returns True once
    its operation needs no further frames.

    ``payload`` is the reply's raw npy bytes: parsing an array costs
    ~45 us against ~4 us for the header, and a 32-reply batch decoded on
    arrival made the generator itself run late, so callers decode (or
    byte-compare) payloads after the phase."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._handlers = {}
        self._ids = itertools.count(1)
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    def send(self, header, array, handler):
        rid = next(self._ids)
        header = dict(header, id=rid)
        self._handlers[rid] = handler
        self._writer.write(encode_frame(header, array))
        return rid

    async def request(self, header, array=None):
        """One request, awaited: returns ``(header, payload bytes)``."""
        future = asyncio.get_running_loop().create_future()

        def handler(rid, reply, payload, t):
            future.set_result((reply, payload))
            return True

        self.send(header, array, handler)
        return await future

    async def _read_loop(self):
        reader = self._reader
        while True:
            try:
                prefix = await reader.readexactly(4)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return
            (length,) = struct.unpack("!I", prefix)
            body = await reader.readexactly(length)
            t = CLOCK()
            sep = body.index(b"\n")
            header = json.loads(body[:sep])
            rid = header.get("id")
            handler = self._handlers.get(rid)
            if handler is not None and handler(rid, header, body[sep + 1:], t):
                del self._handlers[rid]

    async def close(self):
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


class Op:
    """One operation's record: which pool input, when it was due, sent
    and finished, and what came back."""

    __slots__ = ("index", "due", "sent", "end", "ok", "reply",
                 "token_times", "tokens")

    def __init__(self, index, due, sent):
        self.index = index
        self.due = due
        self.sent = sent
        self.end = None
        self.ok = False
        self.reply = None
        self.token_times = []
        self.tokens = None


class Traffic:
    """One traffic class on one connection. ``launch(due)`` sends the
    next operation of the seeded pool (cycled in order); finished
    operations collect in ``done``."""

    span = "tcp.op"

    def __init__(self, conn, model, pool, recorder=None):
        self.conn = conn
        self.model = model
        self.pool = pool
        self.recorder = recorder
        self.inflight = {}
        self.done = []
        self.on_finish = None
        self._next = 0

    def _header(self):
        raise NotImplementedError

    def launch(self, due):
        index = self._next % len(self.pool)
        self._next += 1
        op = Op(index, due, CLOCK())
        rid = self.conn.send(self._header(), self.pool[index], self._on_frame)
        self.inflight[rid] = op
        return op

    def _finish(self, rid, t):
        op = self.inflight.pop(rid)
        op.end = t
        self.done.append(op)
        if self.recorder is not None:
            self._record(rid, op)
        if self.on_finish is not None:
            self.on_finish(op, t)
        return True

    def _record(self, rid, op):
        self.recorder.add(self.span, op.sent, op.end, rid=rid)

    def reset(self):
        """Forget finished operations (between warm-up and a measured
        phase); nothing may be in flight."""
        assert not self.inflight
        self.done = []


class InferTraffic(Traffic):
    span = "tcp.infer"

    def _header(self):
        return {"model": self.model}

    def _on_frame(self, rid, header, payload, t):
        op = self.inflight[rid]
        op.ok = bool(header.get("ok")) and bool(payload)
        op.reply = payload
        return self._finish(rid, t)


class GenTraffic(Traffic):
    span = "tcp.generate"

    def __init__(self, conn, model, pool, max_new_tokens, recorder=None):
        super().__init__(conn, model, pool, recorder)
        self.max_new_tokens = max_new_tokens

    def _header(self):
        return {"op": "generate", "model": self.model,
                "max_new_tokens": self.max_new_tokens}

    def _on_frame(self, rid, header, payload, t):
        op = self.inflight[rid]
        if header.get("stream"):
            op.token_times.append(t)
            return False
        op.ok = bool(header.get("ok")) and bool(header.get("done"))
        op.tokens = header.get("tokens")
        return self._finish(rid, t)

    def _record(self, rid, op):
        parent = self.recorder.add(self.span, op.sent, op.end, rid=rid)
        previous = op.sent
        for i, t in enumerate(op.token_times):
            self.recorder.add("tcp.first_token" if i == 0 else "tcp.token",
                              previous, t, parent=parent, rid=rid)
            previous = t


async def _drain(traffic, idle, budget_s):
    try:
        await asyncio.wait_for(idle.wait(), budget_s)
    except asyncio.TimeoutError:
        raise IncorrectOutput(
            "%d %s operation(s) never completed"
            % (len(traffic.inflight), traffic.span)) from None


async def run_closed(traffic, concurrency, seconds):
    """Hold ``concurrency`` operations outstanding for ``seconds``;
    returns ``(t_start, t_end)`` of the measured window. Operations in
    flight at ``t_end`` are allowed to finish but nothing new starts."""
    idle = asyncio.Event()
    t0 = CLOCK()
    t_end = t0 + seconds

    def on_finish(op, t):
        if t < t_end:
            traffic.launch(t)
        elif not traffic.inflight:
            idle.set()

    traffic.on_finish = on_finish
    for _ in range(concurrency):
        traffic.launch(t0)
    await _drain(traffic, idle, seconds + DRAIN_TIMEOUT_S)
    traffic.on_finish = None
    return t0, t_end


async def run_open(traffic, rate_per_s, seconds):
    """Send ``rate_per_s * seconds`` operations on a fixed-interval
    schedule; returns ``(t_start, t_end, late_ms, outstanding)`` where
    ``late_ms`` is how far behind its due time each send happened and
    ``outstanding`` the in-flight count sampled at each send."""
    interval = 1.0 / rate_per_s
    total = max(1, int(round(rate_per_s * seconds)))
    idle = asyncio.Event()
    late_ms = []
    outstanding = []
    sent_all = False

    def on_finish(op, t):
        if sent_all and not traffic.inflight:
            idle.set()

    traffic.on_finish = on_finish
    t0 = CLOCK()
    i = 0
    while i < total:
        now = CLOCK()
        due = t0 + i * interval
        if due > now:
            await asyncio.sleep(due - now)
            continue
        outstanding.append(len(traffic.inflight))
        traffic.launch(due)
        late_ms.append((now - due) * 1e3)
        i += 1
    sent_all = True
    if traffic.inflight:
        await _drain(traffic, idle, DRAIN_TIMEOUT_S)
    traffic.on_finish = None
    return t0, t0 + total * interval, late_ms, outstanding
