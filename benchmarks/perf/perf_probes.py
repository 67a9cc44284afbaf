"""Layer probes: the per-layer metrics of a ``--trace 1`` run.

Every probe calls public functions of one layer directly, from outside,
and records a span per call into the run's :class:`Recorder`; timings
are the p50 of those spans. Counts marked *computed* (``encode_flop``,
``gather_bytes``, ``kv_bytes_per_session``, ``cycles_b32``) are derived
from tensor sizes or the deterministic simulator and repeat exactly.

The benchmark contract wants every traced run to report every
per-layer metric, so the whole suite runs whatever the workload; the
numbers a probe would share with the traced workload itself (the TCP
pass of ``tcp_infer_w1``/``_w2``) are taken from that pass instead of
being measured twice.
"""

import collections
import threading

import numpy as np

from repro.cluster import (
    ClusterServer,
    LeastWorkRouter,
    SharedPlanStore,
    decode_frame,
    encode_frame,
)
from repro.gen import GenCore, compile_generation
from repro.serving import (
    CyclePredictor,
    LUTServer,
    ServingConfig,
    compile_model,
    execute_plan,
)
from repro.vq import (
    batched_nearest_centroid,
    gather_accumulate,
    layer_norm,
    split_subspaces,
)
from repro.vq.kernels import cached_attention, gelu, kv_append

import perf_models as models
import perf_workloads as workloads
from perf_stats import CLOCK, Metric, p50

ENGINE_PROBE_S = 0.35
SERVER_PROBE_S = 1.0
TCP_PROBE_S = 4.0
DECODE_BATCH = 8


def timed(recorder, name, fn, reps=0, seconds=0.0, warm=1):
    """Call ``fn`` ``warm`` times untimed, then at least ``reps`` times
    and for at least ``seconds``, a span per timed call; returns every
    duration."""
    for _ in range(warm):
        fn()
    durations = []
    t_end = CLOCK() + seconds
    while len(durations) < reps or CLOCK() < t_end:
        t0 = CLOCK()
        fn()
        t1 = CLOCK()
        recorder.add(name, t0, t1)
        durations.append(t1 - t0)
    return durations


class Probes:
    """Collects per-layer metrics by fixed name."""

    def __init__(self, seed, recorder):
        self.seed = seed
        self.recorder = recorder
        self.metrics = {}

    def put(self, name, value, unit, samples=1, note=""):
        self.metrics[name] = Metric(name, value, unit, samples, note)

    def get(self, name):
        return self.metrics[name].value


# ----------------------------------------------------------------------
# lutboost / serving.compiler / sim
# ----------------------------------------------------------------------

def probe_build(probes):
    """Build every model once, timing conversion and compilation apart
    (``setup_s`` is their sum plus imports; work hoisted out of the hot
    path into compile time must show here)."""
    rec = probes.recorder
    built = {}
    for name in models.CLASSIFIERS:
        t0 = CLOCK()
        model, sample = models.convert_classifier(name)
        t1 = CLOCK()
        plan = compile_model(model, models.input_shape(name),
                             precision=models.PRECISION,
                             sample_input=sample, name=name)
        t2 = CLOCK()
        rec.add("lutboost.convert", t0, t1)
        rec.add("compiler.compile", t1, t2)
        built[name] = (model, plan)
        probes.put("lutboost.%s.convert_s" % name, t1 - t0, "s", 1,
                   "convert_model + calibrate_model")
        probes.put("compiler.%s.compile_s" % name, t2 - t1, "s")
        probes.put("compiler.%s.plan_bytes" % name, plan.storage_bytes(),
                   "B", 1, "packed codebooks + PSum LUTs")
        probes.put("compiler.%s.lut_layers" % name, plan.num_lut_layers,
                   "count")
    for name, buckets in (("gpt_bench", None),
                          ("gpt_nano", models.NANO_BUCKETS)):
        t0 = CLOCK()
        model = models.convert_decoder(name)
        t1 = CLOCK()
        gen_plan = compile_generation(model, buckets=buckets,
                                      precision=models.PRECISION, name=name)
        t2 = CLOCK()
        rec.add("lutboost.convert", t0, t1)
        rec.add("gencompiler.compile", t1, t2)
        built[name] = (model, gen_plan)
        if name == "gpt_bench":
            probes.put("lutboost.gpt_bench.convert_s", t1 - t0, "s")
        probes.put("gencompiler.%s.compile_s" % name, t2 - t1, "s")
    gen_plan = built["gpt_bench"][1]
    probes.put("gencompiler.gpt_bench.plan_bytes", gen_plan.storage_bytes(),
               "B", 1, "all buckets + decode, shared blocks counted once")
    probes.put("gencompiler.gpt_bench.unshared_ratio",
               gen_plan.unshared_storage_bytes() / gen_plan.storage_bytes(),
               "ratio", 1, "per-bucket copies / shared block table")
    return built


def probe_sim(probes, built):
    durations = []
    for name in models.CLASSIFIERS:
        predictor = CyclePredictor(built[name][1])
        t0 = CLOCK()
        cycles = predictor.cycles(32)
        t1 = CLOCK()
        probes.recorder.add("sim.predict", t0, t1)
        durations.append(t1 - t0)
        probes.put("sim.%s.cycles_b32" % name, cycles, "cycles", 1,
                   "exact CyclePredictor.cycles(32); a simulator speed-up "
                   "must leave it identical")
    probes.put("sim.predict_ms", sum(durations) * 1e3, "ms", len(durations),
               "simulating batch 32 of all three classifiers, uncached")


# ----------------------------------------------------------------------
# vq
# ----------------------------------------------------------------------

def lut_steps(plan):
    return [step for step in plan.steps if step.kind == "lut_gemm"]


def lut_counts(plan):
    """``(encode flop, table bytes gathered)`` per sample, computed from
    tensor sizes: the encode is one (v+1) x c augmented GEMM row per
    input row and subspace; the gather reads one ``n_out``-wide table
    row per input row and subspace."""
    flop = 0
    gathered = 0
    for layer in plan.layers:
        rows = layer["rows_per_sample"]
        flop += rows * layer["num_subspaces"] * plan.c * 2 * (plan.v + 1)
        gathered += (rows * layer["num_subspaces"] * layer["n_out"]
                     * plan.tables.dtype.itemsize)
    return flop, gathered


def probe_vq_plan(probes, name, plan, batch, reps):
    """Encode and gather of every ``lut_gemm`` step of one plan pass,
    on that step's own centroids/table and real input shape; returns
    ``(encode seconds, gather seconds)`` per pass (p50 over ``reps``)."""
    rng = models.rng_for(probes.seed, name, "vq", batch)
    cases = []
    for step in lut_steps(plan):
        params = step.params
        layer = plan.layers[params["layer"]]
        flat = rng.normal(size=(batch * layer["rows_per_sample"],
                                layer["k"])).astype(plan.centroids.dtype)
        cases.append((flat, params["centroids"], params["table"],
                      params["metric"]))
    encode = []
    gather = []
    rec = probes.recorder
    for rep in range(reps + 1):
        t_encode = t_gather = 0.0
        for flat, centroids, table, metric in cases:
            t0 = CLOCK()
            subspaces, _ = split_subspaces(flat, centroids.shape[2])
            indices = batched_nearest_centroid(subspaces, centroids, metric)
            t1 = CLOCK()
            gather_accumulate(table, indices)
            t2 = CLOCK()
            if rep:
                rec.add("vq.encode", t0, t1)
                rec.add("vq.gather", t1, t2)
            t_encode += t1 - t0
            t_gather += t2 - t1
        if rep:
            encode.append(t_encode)
            gather.append(t_gather)
    return p50(encode), p50(gather)


def probe_vq(probes, built):
    lut_seconds = {}
    for name in models.CLASSIFIERS:
        plan = built[name][1]
        for batch, reps in ((1, 20), (64, 3)):
            encode, gather = probe_vq_plan(probes, name, plan, batch, reps)
            probes.put("vq.%s.encode_us.b%d" % (name, batch), encode * 1e6,
                       "us", reps, "split_subspaces + "
                       "batched_nearest_centroid over one plan pass")
            probes.put("vq.%s.gather_us.b%d" % (name, batch), gather * 1e6,
                       "us", reps, "gather_accumulate over one plan pass")
            lut_seconds[(name, batch)] = encode + gather
    for name in models.CLASSIFIERS + ("gpt_bench",):
        plan = built[name][1]
        plan = plan.decode if name == "gpt_bench" else plan
        flop, gathered = lut_counts(plan)
        probes.put("vq.%s.encode_flop" % name, flop, "flop", 1,
                   "per sample (per decoded token for gpt_bench), computed "
                   "from tensor sizes")
        probes.put("vq.%s.gather_bytes" % name, gathered, "B", 1,
                   "table bytes gathered per sample, computed from tensor "
                   "sizes")
    return lut_seconds


def probe_decode_glue(probes, gen_plan):
    """Non-LUT decode kernels at gpt_bench decode shapes, batch 8."""
    meta = gen_plan.meta
    rng = models.rng_for(probes.seed, "glue")
    dtype = gen_plan.dtype
    dim, heads, head_dim = meta["dim"], meta["num_heads"], meta["head_dim"]
    x = rng.normal(size=(DECODE_BATCH, dim)).astype(dtype)
    hidden = rng.normal(size=(DECODE_BATCH, 4 * dim)).astype(dtype)
    weight = np.ones(dim, dtype=dtype)
    bias = np.zeros(dim, dtype=dtype)
    cache = rng.normal(size=(DECODE_BATCH, heads, meta["max_len"],
                             head_dim)).astype(dtype)
    new = rng.normal(size=(DECODE_BATCH, heads, head_dim)).astype(dtype)
    lengths = np.full(DECODE_BATCH, meta["max_len"] // 2, dtype=np.int64)
    scale = 1.0 / np.sqrt(head_dim)
    rec = probes.recorder
    for name, fn in (
            ("layernorm", lambda: layer_norm(x, weight, bias)),
            ("gelu", lambda: gelu(hidden)),
            ("cached_attention",
             lambda: cached_attention(new, cache, cache, lengths + 1, scale)),
            ("kv_append", lambda: kv_append(cache, new, lengths))):
        seconds = p50(timed(rec, "vq." + name, fn, 200, warm=5))
        probes.put("vq.%s_us" % name, seconds * 1e6, "us", 200,
                   "gpt_bench decode shapes, batch %d" % DECODE_BATCH)


# ----------------------------------------------------------------------
# serving.engine / serving.batcher
# ----------------------------------------------------------------------

def probe_engine(probes, built, lut_seconds):
    seed = probes.seed
    rec = probes.recorder

    def cell_ms(name, plan, batch, seconds=ENGINE_PROBE_S):
        x = models.make_inputs(name, seed, batch, "probe-b%d" % batch)
        durations = timed(rec, "engine.execute",
                          lambda: execute_plan(plan, x), 3, seconds)
        return p50(durations) * 1e3, len(durations)

    for name in models.CLASSIFIERS:
        plan = built[name][1]
        ms = {}
        for batch in (1, 32, 64):
            ms[batch], calls = cell_ms(name, plan, batch)
            if batch != 32 or name == "lenet":
                probes.put("engine.%s.b%d.ms" % (name, batch), ms[batch],
                           "ms", calls, "p50 execute_plan call")
        probes.put("engine.%s.lut_frac.b64" % name,
                   lut_seconds[(name, 64)] * 1e3 / ms[64], "ratio", 1,
                   "(vq encode + gather) / execute time at batch 64")
        mcycles = probes.get("sim.%s.cycles_b32" % name) / 1e6
        probes.put("engine.%s.ms_per_mcycle" % name, ms[32] / mcycles,
                   "ms/Mcycle", 1, "measured batch-32 ms / predicted Mcycles")
    model = built["lenet"][0]
    deployed = compile_model(model, models.input_shape("lenet"),
                             precision="bf16+int8", name="lenet")
    value, calls = cell_ms("lenet", deployed, 64)
    probes.put("engine.lenet.bf16int8.b64.ms", value, "ms", calls,
               "the paper's deployment precision")


def window_submit(submit, pool, window, seconds):
    """Closed loop over futures: hold ``window`` outstanding for
    ``seconds``; returns completed requests per second."""
    pending = collections.deque()
    index = 0
    for _ in range(window):
        pending.append(submit(pool[index % len(pool)]))
        index += 1
    done = 0
    t0 = CLOCK()
    t_end = t0 + seconds
    while CLOCK() < t_end:
        pending.popleft().result(60)
        done += 1
        pending.append(submit(pool[index % len(pool)]))
        index += 1
    elapsed = CLOCK() - t0
    for future in pending:
        future.result(60)
    return done / elapsed


def probe_batcher(probes, built):
    pool = models.make_inputs("lenet", probes.seed, workloads.INFER_POOL)
    config = ServingConfig(max_batch_size=32, max_wait_ms=2.0,
                           max_pending=4096)
    with LUTServer(built["lenet"][0], models.input_shape("lenet"), config,
                   name="lenet") as server:
        window_submit(server.submit, pool, workloads.INFER_WINDOW, 0.3)
        server.metrics.reset()
        t0 = CLOCK()
        rate = window_submit(server.submit, pool, workloads.INFER_WINDOW,
                             SERVER_PROBE_S)
        probes.recorder.add("batcher.window", t0, CLOCK())
        summary = server.metrics.summary()
    probes.put("batcher.lenet.req_per_s", rate, "1/s",
               int(rate * SERVER_PROBE_S), "in-process LUTServer, window %d"
               % workloads.INFER_WINDOW)
    probes.put("batcher.lenet.mean_batch",
               summary["requests"] / max(summary["batches"], 1), "count",
               summary["batches"])
    engine_rate = 32 * 1e3 / probes.get("engine.lenet.b32.ms")
    probes.put("batcher.efficiency", rate / engine_rate, "ratio", 1,
               "batcher req/s / engine batch-32 samples/s")


# ----------------------------------------------------------------------
# gen.session
# ----------------------------------------------------------------------

def probe_gen(probes, gen_plan, workload_result):
    seed = probes.seed
    rec = probes.recorder
    vocab = models.VOCAB["gpt_bench"]
    rng = models.rng_for(seed, "gen-probe")

    def prompt(length):
        return rng.integers(0, vocab, size=length)

    # Prefill: p50 of GenCore.start per bucket (prompts fill the bucket;
    # bucket 128 leaves room for one new token).
    for bucket, length in ((8, 8), (32, 32), (128, 120)):
        core = GenCore(gen_plan)

        def start():
            sid, _, done = core.start(prompt(length), 2)
            if not done:
                core.drop(sid)

        seconds = p50(timed(rec, "gen.start", start, 7))
        probes.put("gen.prefill_ms.bucket%d" % bucket, seconds * 1e3, "ms",
                   7, "p50 of GenCore.start, %d-token prompt" % length)

    def tick_ms(live, record=True, ticks=30):
        core = GenCore(gen_plan, record=record)
        for _ in range(live):
            core.start(prompt(16), ticks + 8)
        return p50(timed(rec, "gen.step", core.step, ticks, warm=3)) * 1e3

    for live in (1, 8, 16):
        probes.put("gen.tick_ms.live%d" % live, tick_ms(live), "ms", 30,
                   "p50 of GenCore.step, %d live sequences" % live)
    interpreted = tick_ms(8, record=False)
    probes.put("gen.tick_ms.live8.interpreted", interpreted, "ms", 30,
               "GenCore(plan, record=False)")
    probes.put("gen.recorded_speedup",
               interpreted / probes.get("gen.tick_ms.live8"), "ratio", 1,
               "interpreted / recorded tick at 8 live sequences")

    if workload_result is not None:
        share = workload_result.extras["prefill_share"]
    else:
        prompts = models.make_prompts("gpt_bench", seed,
                                      workloads.GEN_PROMPT_POOL,
                                      *workloads.GEN_PROMPT_RANGE)
        _, t0, t1, in_start = workloads.run_continuous_batch(
            GenCore(gen_plan), prompts, workloads.GEN_LIVE,
            workloads.GEN_NEW_TOKENS, 1.0, rec)
        share = in_start / (t1 - t0)
    probes.put("gen.prefill_share", share, "ratio", 1,
               "share of continuous-batch wall time inside GenCore.start")
    meta = gen_plan.meta
    kv_bytes = (2 * meta["num_layers"] * meta["num_heads"] * meta["head_dim"]
                * meta["max_len"] * np.dtype(gen_plan.dtype).itemsize)
    probes.put("gen.kv_bytes_per_session", kv_bytes, "B", 1,
               "K and V at max_len, computed from tensor sizes")


# ----------------------------------------------------------------------
# cluster.planstore / cluster.router / cluster.net codec
# ----------------------------------------------------------------------

def probe_planstore(probes, nano_plan):
    rec = probes.recorder
    plans = {"gpt_nano@%d" % i: plan
             for i, plan in enumerate(nano_plan.plans())}
    publish = []
    load = []
    size = 0
    for _ in range(5):
        with SharedPlanStore() as store:
            t0 = CLOCK()
            handles = store.publish_group(plans)
            t1 = CLOCK()
            segments = {}
            loaded = [handle.load(segments) for handle in handles.values()]
            t2 = CLOCK()
            rec.add("planstore.publish", t0, t1)
            rec.add("planstore.load", t1, t2)
            publish.append(t1 - t0)
            load.append(t2 - t1)
            size = store.storage_bytes()
            del loaded, segments
    probes.put("planstore.publish_ms", p50(publish) * 1e3, "ms", 5,
               "publish_group of gpt_nano's %d plans" % len(plans))
    probes.put("planstore.load_ms", p50(load) * 1e3, "ms", 5,
               "PlanHandle.load of every plan through one segment cache")
    probes.put("planstore.segment_bytes", size, "B")


def probe_router(probes):
    router = LeastWorkRouter({"lenet": 1000.0})
    router.add_shard(0)
    router.add_shard(1)
    loops = 20000
    t0 = CLOCK()
    for _ in range(loops):
        index = router.pick("lenet")
        router.started(index, "lenet")
        router.finished(index, "lenet")
    t1 = CLOCK()
    probes.recorder.add("router.pick", t0, t1)
    probes.put("router.pick_us", (t1 - t0) / loops * 1e6, "us", loops,
               "pick + started + finished on two shards")


def probe_codec(probes):
    x = models.make_inputs("lenet", probes.seed, 1)[0]
    header = {"id": 1, "model": "lenet"}
    frame = encode_frame(header, x)
    rec = probes.recorder
    probes.put("net.encode_us",
               p50(timed(rec, "net.encode", lambda: encode_frame(header, x),
                         2000, warm=50)) * 1e6, "us", 2000,
               "encode_frame of one lenet request")
    probes.put("net.decode_us",
               p50(timed(rec, "net.decode", lambda: decode_frame(frame[4:]),
                         2000, warm=50)) * 1e6, "us", 2000)
    probes.put("net.frame_bytes", len(frame), "B")


# ----------------------------------------------------------------------
# cluster.server / cluster.worker, in process (no socket)
# ----------------------------------------------------------------------

def probe_cluster(probes, built, workers):
    tag = ".w%d" % workers
    rec = probes.recorder
    pool = models.make_inputs("lenet", probes.seed, workloads.INFER_POOL)
    prompts = models.make_prompts("gpt_nano", probes.seed,
                                  workloads.MIXED_PROMPT_POOL,
                                  *workloads.MIXED_PROMPT_RANGE)
    specs = models.cluster_specs(built["lenet"][0], built["gpt_nano"][0])
    t0 = CLOCK()
    cluster = ClusterServer(specs, models.cluster_config(workers))
    t1 = CLOCK()
    rec.add("cluster.spawn", t0, t1)
    try:
        probes.put("cluster.spawn_s" + tag, t1 - t0, "s", 1,
                   "ClusterServer(lenet + gpt_nano): compile, publish, "
                   "spawn %d worker(s)" % workers)

        def submit(x):
            return cluster.submit("lenet", x)

        window_submit(submit, pool, workloads.INFER_WINDOW, 0.3)
        before = cluster.summary()["models"]["lenet"]
        t0 = CLOCK()
        rate = window_submit(submit, pool, workloads.INFER_WINDOW,
                             SERVER_PROBE_S)
        rec.add("cluster.submit_window", t0, CLOCK())
        after = cluster.summary()["models"]["lenet"]
        probes.put("cluster.submit_req_per_s" + tag, rate, "1/s",
                   int(rate * SERVER_PROBE_S),
                   "in-process submit futures, window %d"
                   % workloads.INFER_WINDOW)
        probes.put("cluster.mean_batch" + tag,
                   (after["requests"] - before["requests"])
                   / max(after["batches"] - before["batches"], 1), "count",
                   after["batches"] - before["batches"])
        if workers == 1:
            seconds = p50(timed(rec, "cluster.rtt",
                                lambda: submit(pool[0]).result(60), 100,
                                warm=5))
            probes.put("cluster.rtt_ms.w1", seconds * 1e3, "ms", 100,
                       "one request outstanding")
        else:
            probes.put("cluster.gen_tok_per_s.w2",
                       cluster_gen_rate(cluster, prompts), "1/s", 1,
                       "%d concurrent generate streams"
                       % workloads.MIXED_STREAMS)
    finally:
        cluster.shutdown(drain=True)


def cluster_gen_rate(cluster, prompts):
    """Tokens per second of concurrent blocking ``generate`` streams,
    one thread each (the stream API is a blocking iterator)."""
    counts = [0] * workloads.MIXED_STREAMS
    t0 = CLOCK()
    t_end = t0 + SERVER_PROBE_S

    def drive(slot):
        index = slot
        while CLOCK() < t_end:
            stream = cluster.generate("gpt_nano",
                                      prompts[index % len(prompts)],
                                      workloads.MIXED_NEW_TOKENS)
            counts[slot] += sum(1 for _ in stream)
            index += workloads.MIXED_STREAMS

    threads = [threading.Thread(target=drive, args=(slot,))
               for slot in range(workloads.MIXED_STREAMS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(counts) / (CLOCK() - t0)


# ----------------------------------------------------------------------
# cluster.net over the wire
# ----------------------------------------------------------------------

async def _ping_rtt(server, recorder, count=300):
    conn = await workloads.loadgen.Connection.open(server.host, server.port)
    try:
        durations = []
        for _ in range(count):
            t0 = CLOCK()
            await conn.request({"op": "ping"})
            t1 = CLOCK()
            recorder.add("net.ping", t0, t1)
            durations.append(t1 - t0)
    finally:
        await conn.close()
    return p50(durations[20:]), count - 20


def probe_tcp(probes, workers, workload_result):
    """Wire-level numbers at ``workers`` workers from a short
    ``tcp_infer`` pass (or the traced workload's own untraced pass)."""
    tag = ".w%d" % workers
    result = workload_result
    if result is None:
        result = workloads.tcp_infer(
            workers, probes.seed,
            workloads.RunPlan(TCP_PROBE_S, setup_reps=1),
            probes.recorder)
    wire = result.value("primary_per_s")
    probes.put("net.tcp_over_submit" + tag,
               wire / probes.get("cluster.submit_req_per_s" + tag), "ratio",
               1, "wire req/s / in-process submit req/s")
    probes.put("cluster.frontend_cpu_frac" + tag,
               result.value("frontend_cpu_frac"), "ratio", 1,
               "server process CPU-seconds / wall, closed phase")
    probes.put("cluster.worker_cpu_frac" + tag,
               result.value("worker_cpu_frac"), "ratio", 1,
               "worker processes CPU-seconds / wall, closed phase")
    if workers == 2:
        shards = result.extras["shard_requests"]
        probes.put("router.shard_share_max.w2", max(shards) / sum(shards),
                   "ratio", sum(shards),
                   "largest shard's share of lenet requests")
    return result


def probe_ping(probes):
    _, (rtt, count), _, _ = workloads.serve_and_drive(
        1, workloads.RunPlan(0, setup_reps=1),
        lambda server: _ping_rtt(server, probes.recorder))
    probes.put("net.ping_rtt_us", rtt * 1e6, "us", count,
               "op: ping round trip: socket + event-loop floor")


def run_all(seed, recorder, workload, untraced, traced):
    """The whole suite; ``untraced``/``traced`` are the traced run's two
    passes of ``workload``."""
    probes = Probes(seed, recorder)
    built = probe_build(probes)
    probe_sim(probes, built)
    lut_seconds = probe_vq(probes, built)
    probe_decode_glue(probes, built["gpt_bench"][1])
    probe_engine(probes, built, lut_seconds)
    probe_batcher(probes, built)
    probe_gen(probes, built["gpt_bench"][1],
              untraced if workload == "gen_inproc" else None)
    probe_planstore(probes, built["gpt_nano"][1])
    probe_router(probes)
    probe_codec(probes)
    harness = None
    for workers in (1, 2):
        probe_cluster(probes, built, workers)
        own = untraced if workload == "tcp_infer_w%d" % workers else None
        harness = probe_tcp(probes, workers, own)
    probe_ping(probes)
    # Harness self-measurement: of the traced workload when it has a
    # load generator, else of the last TCP probe pass.
    source = untraced if workload.startswith("tcp_") else harness
    probes.put("loadgen.late_p99_ms", source.value("loadgen.late_p99_ms"),
               "ms", 1, "how late the open-loop generator sent, p99")
    probes.put("loadgen.cpu_frac", source.value("loadgen.cpu_frac"), "ratio",
               1, "bench process CPU-seconds / wall, closed phase")
    base = untraced.value("primary_per_s")
    probes.put("trace.overhead_frac",
               (base - traced.value("primary_per_s")) / base, "ratio", 1,
               "%s primary throughput, untraced vs traced" % workload)
    return list(probes.metrics.values())

