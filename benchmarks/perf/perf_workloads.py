"""The five perf workloads.

Each workload function takes ``(seed, plan, recorder)`` — ``plan`` is a
:class:`RunPlan` carrying the measured seconds and set-up repetitions,
``recorder`` a :class:`perf_stats.Recorder` for a traced pass or
``None`` — and returns a :class:`Result` holding the eight end-to-end
metrics every workload reports (the benchmark contract wants one metric
table for all workloads, so the names are generic and each workload
maps its own traffic onto them; the mapping is in ``README.md`` and in
every metric's ``note``), extra detail metrics, and the
attempted/failed operation counts.

Everything is driven from outside through public functions of
``repro``; the only spans are the harness's own.
"""

import asyncio
import io
import json
import os
import subprocess
import sys
import time
from statistics import geometric_mean as geomean

import numpy as np

from repro.gen import GenCore
from repro.nn.tensor import Tensor, no_grad
from repro.serving import execute_plan

import perf_loadgen as loadgen
import perf_models as models
from perf_stats import (
    CLOCK,
    IncorrectOutput,
    InvalidRun,
    Metric,
    check_open_loop,
    check_token_match,
    child_pids,
    cpu_seconds,
    mapped_shm,
    p50,
    p95,
    p99,
    pss_mb,
    shm_segments,
)

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("engine_offline", "gen_inproc", "tcp_infer_w1", "tcp_infer_w2",
             "tcp_mixed_w2")

# Engine cells: every classifier at a call-overhead-bound and an
# encode/gather/im2col-bound batch size.
ENGINE_BATCHES = (1, 64)
ENGINE_WARM_CALLS = 3
ENGINE_MIN_CALLS = 5

# gen_inproc: continuous batch of GEN_LIVE sequences over gpt_bench.
GEN_LIVE = 8
GEN_NEW_TOKENS = 32
GEN_PROMPT_RANGE = (2, 96)
GEN_PROMPT_POOL = 24
# One session joins every GEN_STAGGER ticks while the batch ramps up, so
# completions (and the prefills refilling them) spread over the steady
# state instead of arriving GEN_LIVE at a time in lockstep.
GEN_STAGGER = GEN_NEW_TOKENS // GEN_LIVE

# tcp_*: traffic constants. Open-loop rates sit at about half of this
# host's closed-loop capacity.
TCP_WARM_S = 1.5
INFER_POOL = 256
INFER_WINDOW = 64
INFER_OPEN_RATE = 1500.0
MIXED_INFER_WINDOW = 32
MIXED_STREAMS = 8
MIXED_INFER_OPEN_RATE = 700.0
MIXED_SESSION_RATE = 20.0
MIXED_PROMPT_RANGE = (2, 16)
MIXED_PROMPT_POOL = 32
MIXED_NEW_TOKENS = 16
# Shares of the measured seconds per phase.
INFER_PHASES = {"unloaded": 0.1, "closed": 0.35, "open": 0.55}
MIXED_PHASES = {"closed": 0.4, "open": 0.6}

INFER_RTOL, INFER_ATOL = 1e-4, 1e-5
# The engine is checked against the converted model's own fp64 eval
# forward (a different code path). The bound is on the *median* row's
# relative error, over at least ENGINE_CHECK_ROWS rows: a near-tie
# between two centroids resolves differently at fp32 than at fp64 in
# about one resnet20 row per 64 (moving it by ~1e-2) and, on 2 of 60
# input seeds, in one bert_mini row whose error then cascades to ~0.5;
# a broken kernel moves every row. Agreeing rows sit at ~1e-6.
ENGINE_REL_ERR = 1e-2
ENGINE_CHECK_ROWS = 9


class RunPlan:
    """How long to measure and how often to repeat set-up."""

    def __init__(self, seconds, setup_reps=3):
        self.seconds = float(seconds)
        self.setup_reps = int(setup_reps)


class Result:
    """What one pass of one workload measured."""

    def __init__(self, workload):
        self.workload = workload
        self.metrics = []      # the end-to-end metrics of BENCHMARK.json
        self.details = []      # further numbers, printed but not gated
        self.attempted = 0
        self.failed = 0
        self.digest = ""
        self.extras = {}       # raw numbers the layer probes reuse

    def add(self, name, value, unit, samples=1, note=""):
        self.metrics.append(Metric(name, value, unit, samples, note))

    def detail(self, name, value, unit, samples=1, note=""):
        self.details.append(Metric(name, value, unit, samples, note))

    def value(self, name):
        for metric in self.metrics + self.details:
            if metric.name == name:
                return metric.value
        raise KeyError(name)


def timed_setups(build, reps):
    """Run ``build()`` ``reps`` times; returns the last product and
    every duration (``setup_s`` reports their median)."""
    durations = []
    product = None
    for _ in range(reps):
        t0 = CLOCK()
        product = build()
        durations.append(CLOCK() - t0)
    return product, durations


def _setup_metric(result, durations, extra_s=0.0, note=""):
    result.add("setup_s", p50(durations) + extra_s, "s", len(durations), note)


# ----------------------------------------------------------------------
# engine_offline
# ----------------------------------------------------------------------

def build_engine_models():
    return {name: models.build_classifier(name)
            for name in models.CLASSIFIERS}


def model_forward(model, x):
    """The converted model's own eval-mode forward pass (float64; token
    ids ride as floats, as in ``compile_model``'s own verification)."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return model(Tensor(np.asarray(x, dtype=np.float64))).data
    finally:
        model.train(was_training)


def median_row_error(got, want):
    got = np.asarray(got, dtype=np.float64).reshape(len(got), -1)
    want = np.asarray(want, dtype=np.float64).reshape(len(want), -1)
    return float(np.median(np.linalg.norm(got - want, axis=1)
                           / np.linalg.norm(want, axis=1)))


def run_engine_cell(plan, x, seconds, recorder=None, rid=None):
    """Call ``execute_plan(plan, x)`` back to back for ``seconds``;
    returns ``(first output, per-call seconds, wrong outputs)``. Every
    output must equal the first bit for bit (same input, same plan)."""
    for _ in range(ENGINE_WARM_CALLS):
        first = execute_plan(plan, x)
    durations = []
    wrong = 0
    # The cell span's self time is the harness's own cost between calls
    # (output comparison, bookkeeping).
    cell = None if recorder is None else recorder.begin("engine.cell",
                                                        rid=rid)
    t_end = CLOCK() + seconds
    while CLOCK() < t_end or len(durations) < ENGINE_MIN_CALLS:
        t0 = CLOCK()
        out = execute_plan(plan, x)
        t1 = CLOCK()
        durations.append(t1 - t0)
        if recorder is not None:
            recorder.add("engine.execute", t0, t1, parent=cell, rid=rid)
        if not np.array_equal(out, first):
            wrong += 1
    if recorder is not None:
        recorder.finish(cell)
    return first, durations, wrong


def engine_offline(seed, plan, recorder=None, import_s=0.0):
    result = Result("engine_offline")
    built, setup_times = timed_setups(build_engine_models, plan.setup_reps)
    _setup_metric(result, setup_times, import_s,
                  "imports + convert/calibrate/compile of 3 classifiers")
    cells = [(name, batch) for name in models.CLASSIFIERS
             for batch in ENGINE_BATCHES]
    # A batch-1 cell times its first input; the rest only feed the check.
    inputs = {cell: models.make_inputs(cell[0], seed,
                                       max(cell[1], ENGINE_CHECK_ROWS),
                                       "engine-b%d" % cell[1])
              for cell in cells}
    result.digest = models.inputs_digest([inputs[cell] for cell in cells])
    share = plan.seconds / len(cells)
    rates = {1: [], 64: []}
    mid = {1: [], 64: []}
    tail = {1: [], 64: []}
    calls = {1: 0, 64: 0}
    for rid, cell in enumerate(cells):
        name, batch = cell
        model, kernel_plan = built[name]
        rows = inputs[cell]
        first, durations, wrong = run_engine_cell(
            kernel_plan, rows[:batch], share, recorder, rid)
        got = np.concatenate([first] + [
            execute_plan(kernel_plan, rows[i:i + batch])
            for i in range(batch, len(rows), batch)])
        want = model_forward(model, rows)
        if (got.shape != want.shape
                or median_row_error(got, want) > ENGINE_REL_ERR):
            wrong = len(durations)
        result.attempted += len(durations)
        result.failed += wrong
        ms = [d * 1e3 for d in durations]
        rate = batch * len(durations) / sum(durations)
        rates[batch].append(rate)
        mid[batch].append(p50(ms))
        tail[batch].append(p95(ms))
        calls[batch] += len(durations)
        result.detail("engine.%s.b%d.samples_per_s" % (name, batch), rate,
                      "1/s", len(durations))
    for slot, batch in (("primary", 1), ("secondary", 64)):
        tag = "samples_per_s_b%d" % batch
        result.add(slot + "_per_s", geomean(rates[batch]), "1/s",
                   calls[batch],
                   "= %s: geomean over 3 topologies of samples/s at batch %d"
                   % (tag, batch))
        result.add(slot + "_p50_ms", geomean(mid[batch]), "ms", calls[batch],
                   "geomean of per-topology p50 execute_plan call time, "
                   "batch %d" % batch)
        result.add(slot + "_p95_ms", geomean(tail[batch]), "ms",
                   calls[batch],
                   "geomean of per-topology p95 execute_plan call time, "
                   "batch %d" % batch)
    result.add("rss_mb", pss_mb([os.getpid()]), "MB", 1,
               "PSS of the bench process")
    return result


# ----------------------------------------------------------------------
# gen_inproc
# ----------------------------------------------------------------------

def solo_reference(gen_plan, prompt, max_new_tokens):
    """Greedy tokens of ``prompt`` decoded alone in a fresh GenCore."""
    core = GenCore(gen_plan)
    _, token, done = core.start(prompt, max_new_tokens)
    tokens = [token]
    while not done:
        for _, token, done in core.step():
            tokens.append(token)
    return tokens


def run_continuous_batch(core, prompts, live, max_new_tokens, seconds,
                         recorder=None, stagger=GEN_STAGGER):
    """Drive ``core`` as a continuous batch of ``live`` sequences.

    A finished slot is refilled by ``start()`` before the next
    ``step()``; a session's due time is the moment its slot came free.
    Returns ``(finished sessions, t_start, t_end, seconds inside
    start())`` where the window opens once the batch has ramped up.
    """
    sessions = {}
    finished = []
    due_slots = []
    next_index = 0
    start_spans = []
    batch = None if recorder is None else recorder.begin("gen.batch")

    def start_one(due):
        nonlocal next_index
        index = next_index % len(prompts)
        next_index += 1
        t0 = CLOCK()
        sid, token, done = core.start(prompts[index], max_new_tokens)
        t1 = CLOCK()
        session = loadgen.Op(index, due, t0)
        session.tokens = [token]
        session.token_times.append(t1)
        start_spans.append((t0, t1))
        if recorder is not None:
            recorder.add("gen.start", t0, t1, parent=batch, rid=sid)
        if done:
            finished.append(session)
            due_slots.append(t1)
        else:
            sessions[sid] = session

    def tick():
        t0 = CLOCK()
        events = core.step()
        t1 = CLOCK()
        if recorder is not None:
            recorder.add("gen.step", t0, t1, parent=batch)
        for sid, token, done in events:
            session = sessions[sid]
            session.tokens.append(token)
            session.token_times.append(t1)
            if done:
                finished.append(sessions.pop(sid))
                due_slots.append(t1)

    for _ in range(live):
        start_one(CLOCK())
        for _ in range(stagger):
            tick()
            while due_slots:
                start_one(due_slots.pop(0))
    t_start = CLOCK()
    t_end = t_start + seconds
    while CLOCK() < t_end:
        tick()
        while due_slots:
            start_one(due_slots.pop(0))
    t_end = CLOCK()  # the window closes with the tick that overran it
    if recorder is not None:
        recorder.finish(batch)
    for sid in list(sessions):
        core.drop(sid)
    in_start = sum(min(t1, t_end) - max(t0, t_start)
                   for t0, t1 in start_spans
                   if t1 > t_start and t0 < t_end)
    return finished, t_start, t_end, in_start


def stream_stats(sessions, t_start, t_end):
    """``(tokens in window, ttft ms, itl ms)`` of ``sessions`` (finished
    :class:`perf_loadgen.Op` records) restricted to the window."""
    tokens = 0
    ttft = []
    itl = []
    for session in sessions:
        times = session.token_times
        tokens += sum(1 for t in times if t_start <= t <= t_end)
        if times and session.due >= t_start and times[0] <= t_end:
            ttft.append((times[0] - session.due) * 1e3)
        for before, after in zip(times, times[1:]):
            if before >= t_start and after <= t_end:
                itl.append((after - before) * 1e3)
    return tokens, ttft, itl


def gen_inproc(seed, plan, recorder=None, import_s=0.0):
    result = Result("gen_inproc")
    (_, gen_plan), setup_times = timed_setups(
        lambda: models.build_decoder("gpt_bench"), plan.setup_reps)
    _setup_metric(result, setup_times, import_s,
                  "imports + convert/calibrate/compile_generation of "
                  "gpt_bench")
    prompts = models.make_prompts("gpt_bench", seed, GEN_PROMPT_POOL,
                                  *GEN_PROMPT_RANGE)
    result.digest = models.inputs_digest(prompts)
    core = GenCore(gen_plan)
    finished, t_start, t_end, in_start = run_continuous_batch(
        core, prompts, GEN_LIVE, GEN_NEW_TOKENS, plan.seconds, recorder)
    window = t_end - t_start
    tokens, ttft, itl = stream_stats(finished, t_start, t_end)
    references = {}
    for session in finished:
        if session.index not in references:
            references[session.index] = solo_reference(
                gen_plan, prompts[session.index], GEN_NEW_TOKENS)
    matched, total, wrong = check_token_match(
        "gen_inproc", [s.tokens for s in finished],
        [references[s.index] for s in finished])
    result.attempted = len(finished)
    result.failed = wrong
    done_in_window = sum(1 for s in finished
                         if t_start <= s.token_times[-1] <= t_end)
    result.add("primary_per_s", tokens / window, "1/s", tokens,
               "= tok_per_s: generated tokens / wall, continuous batch "
               "of %d" % GEN_LIVE)
    result.add("primary_p50_ms", p50(itl), "ms", len(itl),
               "= itl_p50_ms: gap between consecutive tokens of a session")
    result.add("primary_p95_ms", p95(itl), "ms", len(itl), "= itl_p95_ms")
    result.add("secondary_per_s", done_in_window / window, "1/s",
               done_in_window, "sessions completed / wall")
    result.add("secondary_p50_ms", p50(ttft), "ms", len(ttft),
               "= ttft_p50_ms: slot free -> first token")
    result.add("secondary_p95_ms", p95(ttft), "ms", len(ttft),
               "= ttft_p95_ms")
    result.add("rss_mb", pss_mb([os.getpid()]), "MB", 1,
               "PSS of the bench process")
    result.detail("token_match", matched / max(total, 1), "ratio", total,
                  "vs solo in-process GenCore greedy references")
    result.extras["prefill_share"] = in_start / window
    return result


# ----------------------------------------------------------------------
# tcp_* : server subprocess + asyncio load generator
# ----------------------------------------------------------------------

class ServerProcess:
    """``serve.py`` in its own process, with the teardown check."""

    def __init__(self, workers):
        # A traced run's in-process cluster probes leave this process a
        # multiprocessing resource tracker; only new children count.
        self.children_before = set(child_pids(os.getpid()))
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"),
             "--workers", str(workers)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if not line:
            self.process.wait()
            raise IncorrectOutput("serve.py exited with code %s before "
                                  "listening" % self.process.returncode)
        info = json.loads(line)
        self.host = info["host"]
        self.port = info["port"]
        self.pids = [info["server_pid"]] + info["worker_pids"]
        self.summary = None

    def shutdown(self, timeout=60.0):
        """Ask for ``shutdown(drain=True)``, then require that no child
        process survives and that every ``/dev/shm`` segment the server
        or a worker had mapped is gone (only their own segments: other
        programs on the host may create theirs at any time)."""
        owned = mapped_shm(self.pids)
        if self.process.poll() is None:
            self.process.stdin.write("shutdown\n")
            self.process.stdin.flush()
            line = self.process.stdout.readline()
            self.summary = json.loads(line)["summary"] if line else None
        self.process.wait(timeout)
        deadline = time.monotonic() + 10.0
        while True:
            survivors = sorted(set(child_pids(os.getpid()))
                               - self.children_before)
            leaked = owned & shm_segments()
            if not survivors and not leaked:
                break
            if time.monotonic() > deadline:
                raise IncorrectOutput(
                    "teardown leaked: processes %s, /dev/shm %s"
                    % (survivors, sorted(leaked)))
            time.sleep(0.05)
        if self.process.returncode != 0 or self.summary is None:
            raise IncorrectOutput("serve.py exited with code %s"
                                  % self.process.returncode)

    def kill(self):
        """Error path: nothing may outlive the run, process or segment.
        Closing stdin asks ``serve.py`` to drain and stop by itself;
        what is still alive 10 s later is killed, and the
        segments the killed processes can no longer unlink are removed."""
        owned = mapped_shm(self.pids)
        try:
            self.process.stdin.close()
            self.process.wait(10.0)
        except (OSError, subprocess.TimeoutExpired):
            pass
        for pid in set(child_pids(os.getpid())) - self.children_before:
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
        self.process.wait()
        for name in owned & shm_segments():
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except FileNotFoundError:
                pass


def bring_up(workers):
    """Spawn the server and prove it answers: returns ``(server,
    seconds from Popen to the first ping reply)``."""
    t0 = CLOCK()
    server = ServerProcess(workers)
    try:
        asyncio.run(_ping(server))
    except BaseException:
        server.kill()
        raise
    return server, CLOCK() - t0


async def _ping(server):
    conn = await loadgen.Connection.open(server.host, server.port)
    try:
        reply, _ = await conn.request({"op": "ping"})
        if not reply.get("ok"):
            raise IncorrectOutput("ping refused: %r" % (reply,))
    finally:
        await conn.close()


def timed_bring_ups(workers, reps):
    """``reps`` full server set-ups; all but the last are shut down
    again at once (teardown check included). Returns the live server
    and every bring-up duration."""
    durations = []
    server = None
    for rep in range(reps):
        server, seconds = bring_up(workers)
        durations.append(seconds)
        if rep < reps - 1:
            server.shutdown()
    return server, durations


def infer_references(seed):
    """The lenet pool, its in-process reference outputs and each
    reference row's npy bytes (a bit-equal reply is then one memcmp)."""
    _, kernel_plan = models.build_classifier("lenet")
    pool = models.make_inputs("lenet", seed, INFER_POOL)
    reference = execute_plan(kernel_plan, pool)
    encoded = []
    for row in reference:
        buf = io.BytesIO()
        np.save(buf, np.ascontiguousarray(row), allow_pickle=False)
        encoded.append(buf.getvalue())
    return pool, reference, encoded


def count_wrong_replies(ops, reference, encoded):
    wrong = 0
    for op in ops:
        if op.ok and op.reply == encoded[op.index]:
            continue
        if op.ok:
            got = np.load(io.BytesIO(op.reply), allow_pickle=False)
            want = reference[op.index]
            if got.shape == want.shape and np.allclose(
                    got, want, rtol=INFER_RTOL, atol=INFER_ATOL):
                continue
        wrong += 1
    return wrong


def closed_rate(ops, t_start, t_end):
    return sum(1 for op in ops if op.end <= t_end) / (t_end - t_start)


def open_stats(name, traffic, rate, timing):
    """Validate an open-loop phase and return ``(finished ops, due-time
    latencies in ms, generator lateness in ms)``. The achieved rate is
    judged over the span up to the last completion less one typical
    latency, so a phase that keeps up reads ~1.0 x offered however short
    it is, and a backlog reads low."""
    t_start, t_end, late_ms, outstanding = timing
    latency_ms = [(op.end - op.due) * 1e3 for op in traffic.done]
    last_end = max(op.end for op in traffic.done)
    span = max(t_end - t_start,
               last_end - t_start - p50(latency_ms) / 1e3)
    check_open_loop(name, rate, len(traffic.done), span, late_ms,
                    outstanding)
    return traffic.done, latency_ms, late_ms


async def valid_open_phase(name, classes, seconds):
    """Run the open-loop phase of ``classes`` — ``[(traffic, rate)]``,
    concurrently — and validate it; returns one :func:`open_stats` tuple
    per class. An invalid phase is repeated once before the run is
    given up: on a shared host a single scheduler stall of the generator
    (one ~40 ms freeze was seen in 25 runs) would otherwise void a run
    of a server that is keeping up, while a saturated server fails both
    attempts."""
    for attempt in (1, 2):
        for traffic, _ in classes:
            traffic.reset()
        timings = await asyncio.gather(*[
            loadgen.run_open(traffic, rate, seconds)
            for traffic, rate in classes])
        try:
            return [open_stats("%s %s" % (name, traffic.span), traffic, rate,
                               timing)
                    for (traffic, rate), timing in zip(classes, timings)]
        except InvalidRun as exc:
            if attempt == 2:
                raise
            print("open phase invalid, repeating it once: %s" % exc)


class CpuMeter:
    """CPU-seconds / wall over a phase for the three parties of a TCP
    run: which process is saturated."""

    def __init__(self, server):
        self.groups = {"frontend_cpu_frac": server.pids[:1],
                       "worker_cpu_frac": server.pids[1:],
                       "loadgen.cpu_frac": [os.getpid()]}
        self.t0 = CLOCK()
        self.cpu0 = self._cpu()

    def _cpu(self):
        return {name: sum(cpu_seconds(pid) for pid in pids)
                for name, pids in self.groups.items()}

    def fractions(self):
        wall = CLOCK() - self.t0
        return {name: (cpu - self.cpu0[name]) / wall
                for name, cpu in self._cpu().items()}


def serve_and_drive(workers, plan, drive):
    """Set the server up ``plan.setup_reps`` times, run the coroutine
    ``drive(server)`` against the last one, sample memory, shut down
    (teardown check included). Returns ``(bring-up seconds, what drive
    returned, PSS of server + workers in MB, per-shard lenet counts)``."""
    server, setup_times = timed_bring_ups(workers, plan.setup_reps)
    try:
        phases = asyncio.run(drive(server))
        rss = pss_mb(server.pids)
        server.shutdown()
    except BaseException:
        server.kill()
        raise
    return setup_times, phases, rss, server.summary["lenet"]


def tcp_details(result, phases, late_ms, shard_requests):
    result.detail("loadgen.late_p99_ms", p99(late_ms), "ms", len(late_ms))
    for name, fraction in phases["cpu"].items():
        result.detail(name, fraction, "ratio")
    result.extras["shard_requests"] = shard_requests


async def drive_infer(name, server, pool, plan, recorder):
    """Warm-up, unloaded (window 1), closed (window 64) and open
    (fixed rate) lenet phases on one connection."""
    out = {}
    conn = await loadgen.Connection.open(server.host, server.port)
    try:
        traffic = loadgen.InferTraffic(conn, "lenet", pool, recorder)
        await loadgen.run_closed(traffic, INFER_WINDOW, TCP_WARM_S)
        traffic.reset()

        window = await loadgen.run_closed(
            traffic, 1, INFER_PHASES["unloaded"] * plan.seconds)
        out["unloaded"] = (traffic.done, window)
        traffic.reset()

        meter = CpuMeter(server)
        window = await loadgen.run_closed(
            traffic, INFER_WINDOW, INFER_PHASES["closed"] * plan.seconds)
        out["cpu"] = meter.fractions()
        out["closed"] = (traffic.done, window)
        out["open"] = await valid_open_phase(
            name, [(traffic, INFER_OPEN_RATE)],
            INFER_PHASES["open"] * plan.seconds)
    finally:
        await conn.close()
    return out


def tcp_infer(workers, seed, plan, recorder=None):
    name = "tcp_infer_w%d" % workers
    result = Result(name)
    pool, reference, encoded = infer_references(seed)
    result.digest = models.inputs_digest([pool])
    setup_times, phases, rss, shard_requests = serve_and_drive(
        workers, plan,
        lambda server: drive_infer(name, server, pool, plan, recorder))
    _setup_metric(result, setup_times, 0.0,
                  "spawn serve.py -> first ping reply (imports, convert, "
                  "calibrate, compile, publish, %d worker(s), connect)"
                  % workers)

    unloaded, (u0, u1) = phases["unloaded"]
    closed, (c0, c1) = phases["closed"]
    (opened, latency_ms, late_ms), = phases["open"]
    every = unloaded + closed + opened
    result.attempted = len(every)
    result.failed = count_wrong_replies(every, reference, encoded)
    rtt_ms = [(op.end - op.sent) * 1e3 for op in unloaded]
    result.add("primary_per_s", closed_rate(closed, c0, c1), "1/s",
               len(closed), "= req_per_s: closed loop, window %d"
               % INFER_WINDOW)
    result.add("primary_p50_ms", p50(latency_ms), "ms", len(latency_ms),
               "= infer_p50_ms: open loop at %d req/s, due time -> reply"
               % INFER_OPEN_RATE)
    result.add("primary_p95_ms", p95(latency_ms), "ms", len(latency_ms),
               "= infer_p95_ms")
    result.add("secondary_per_s", closed_rate(unloaded, u0, u1), "1/s",
               len(unloaded), "closed loop, one request outstanding")
    result.add("secondary_p50_ms", p50(rtt_ms), "ms", len(rtt_ms),
               "unloaded round trip (send -> reply)")
    result.add("secondary_p95_ms", p95(rtt_ms), "ms", len(rtt_ms))
    result.add("rss_mb", rss, "MB", 1, "PSS of server + %d worker(s) after "
               "the last phase (%d requests served)" % (workers, len(every)))
    tcp_details(result, phases, late_ms, shard_requests)
    return result


def mixed_references(seed):
    _, gen_plan = models.build_decoder("gpt_nano", models.NANO_BUCKETS)
    prompts = models.make_prompts("gpt_nano", seed, MIXED_PROMPT_POOL,
                                  *MIXED_PROMPT_RANGE)
    tokens = [solo_reference(gen_plan, prompt, MIXED_NEW_TOKENS)
              for prompt in prompts]
    return prompts, tokens


async def drive_mixed(name, server, pool, prompts, plan, recorder):
    """lenet infer and gpt_nano generate streams side by side, one
    connection each, from the one loop."""
    out = {}
    infer_conn = await loadgen.Connection.open(server.host, server.port)
    gen_conn = await loadgen.Connection.open(server.host, server.port)
    try:
        infer = loadgen.InferTraffic(infer_conn, "lenet", pool, recorder)
        gen = loadgen.GenTraffic(gen_conn, "gpt_nano", prompts,
                                 MIXED_NEW_TOKENS, recorder)

        async def closed(seconds):
            return await asyncio.gather(
                loadgen.run_closed(infer, MIXED_INFER_WINDOW, seconds),
                loadgen.run_closed(gen, MIXED_STREAMS, seconds))

        await closed(TCP_WARM_S)
        infer.reset()
        gen.reset()

        meter = CpuMeter(server)
        windows = await closed(MIXED_PHASES["closed"] * plan.seconds)
        out["cpu"] = meter.fractions()
        out["closed"] = (infer.done, gen.done, windows)
        out["open"] = await valid_open_phase(
            name, [(infer, MIXED_INFER_OPEN_RATE),
                   (gen, MIXED_SESSION_RATE)],
            MIXED_PHASES["open"] * plan.seconds)
    finally:
        await infer_conn.close()
        await gen_conn.close()
    return out


def tcp_mixed(workers, seed, plan, recorder=None):
    name = "tcp_mixed_w%d" % workers
    result = Result(name)
    pool, reference, encoded = infer_references(seed)
    prompts, reference_tokens = mixed_references(seed)
    result.digest = models.inputs_digest([pool] + prompts)
    setup_times, phases, rss, shard_requests = serve_and_drive(
        workers, plan,
        lambda server: drive_mixed(name, server, pool, prompts, plan,
                                   recorder))
    _setup_metric(result, setup_times, 0.0,
                  "spawn serve.py -> first ping reply")

    closed_infer, closed_gen, ((i0, i1), (g0, g1)) = phases["closed"]
    ((open_infer, latency_ms, late_ms),
     (open_gen, _, gen_late_ms)) = phases["open"]
    streams = closed_gen + open_gen
    matched, total, wrong_streams = check_token_match(
        name, [op.tokens if op.ok else [] for op in streams],
        [reference_tokens[op.index] for op in streams])
    infers = closed_infer + open_infer
    result.attempted = len(infers) + len(streams)
    result.failed = (count_wrong_replies(infers, reference, encoded)
                     + wrong_streams)
    closed_tokens, _, _ = stream_stats(closed_gen, g0, g1)
    _, ttft, itl = stream_stats(open_gen, 0.0, float("inf"))
    result.add("primary_per_s", closed_rate(closed_infer, i0, i1), "1/s",
               len(closed_infer), "= req_per_s: closed loop, window %d, "
               "beside %d streams" % (MIXED_INFER_WINDOW, MIXED_STREAMS))
    result.add("primary_p50_ms", p50(latency_ms), "ms", len(latency_ms),
               "= infer_p50_ms: open loop at %d req/s beside %d sessions/s"
               % (MIXED_INFER_OPEN_RATE, MIXED_SESSION_RATE))
    result.add("primary_p95_ms", p95(latency_ms), "ms", len(latency_ms),
               "= infer_p95_ms")
    result.add("secondary_per_s", closed_tokens / (g1 - g0), "1/s",
               closed_tokens, "= tok_per_s: closed loop, %d concurrent "
               "streams beside the infer window" % MIXED_STREAMS)
    result.add("secondary_p50_ms", p50(ttft), "ms", len(ttft),
               "= ttft_p50_ms: open loop, scheduled send -> first token")
    result.add("secondary_p95_ms", p95(ttft), "ms", len(ttft),
               "= ttft_p95_ms")
    result.add("rss_mb", rss, "MB", 1, "PSS of server + %d worker(s) after "
               "the last phase" % workers)
    result.detail("itl_p50_ms", p50(itl), "ms", len(itl),
                  "open loop, gap between token frames of a session")
    result.detail("itl_p95_ms", p95(itl), "ms", len(itl))
    result.detail("token_match", matched / max(total, 1), "ratio", total,
                  "vs solo in-process GenCore greedy references")
    tcp_details(result, phases, late_ms + gen_late_ms, shard_requests)
    return result


def run_workload(name, seed, plan, recorder=None, import_s=0.0):
    if name == "engine_offline":
        return engine_offline(seed, plan, recorder, import_s)
    if name == "gen_inproc":
        return gen_inproc(seed, plan, recorder, import_s)
    if name == "tcp_infer_w1":
        return tcp_infer(1, seed, plan, recorder)
    if name == "tcp_infer_w2":
        return tcp_infer(2, seed, plan, recorder)
    if name == "tcp_mixed_w2":
        return tcp_mixed(2, seed, plan, recorder)
    raise KeyError("unknown workload %r (have: %s)"
                   % (name, ", ".join(WORKLOADS)))
