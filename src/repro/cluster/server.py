"""Multi-process sharded serving: one host, N engines, one front door.

``LUTServer`` saturates one process; the GIL caps what its thread pool
can extract from a multi-core host. :class:`ClusterServer` goes wide:

1. compile every model's :class:`KernelPlan` once, in the parent;
2. publish the packed codebook/PSum-LUT blocks into shared memory
   (:class:`~repro.cluster.planstore.SharedPlanStore`) — N workers, one
   copy of every table;
3. spawn N worker processes (:class:`~repro.cluster.worker.ShardProcess`,
   spawn-safe), each mapping all plans read-only;
4. front each shard with per-topology micro-batchers, routed by
   pace-weighted least outstanding predicted cycles
   (:class:`~repro.cluster.router.LeastWorkRouter`, costs from the cycle
   simulator).

A worker crash is survivable by construction: the shard raises
:class:`ShardCrashed` into its in-flight batches, the server marks the
shard down and re-dispatches every affected request to a healthy shard —
the caller's future just resolves a little later. ``shutdown(drain=True)``
flushes every queued request before joining the workers.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future

import numpy as np

from ..gen.sampling import SamplingConfig
from ..obs.contprof import SAMPLER, configure_sampler, merge_profiles, tagged
from ..obs.drift import DriftDetector, RepricingPolicy
from ..obs.flight import FlightRecorder
from ..obs.metrics import METRICS, merge_snapshots
from ..obs.profiler import StepProfiler
from ..obs.slo import SLOMonitor, Objective
from ..obs.telemetry import TokenTelemetry
from ..obs.tracer import TRACE
from ..serving.autotune import Autotuner
from ..serving.batcher import AdmissionError, MicroBatcher
from ..serving.compiler import compile_model
from ..serving.metrics import CyclePredictor, MetricsWindow, ServingMetrics
from .planstore import SharedPlanStore
from .router import LeastWorkRouter, NoShardAvailable
from .worker import ShardCrashed, ShardProcess

__all__ = ["ModelSpec", "GenModelSpec", "GenerationError", "ClusterConfig",
           "Shard", "ClusterGenStream", "ClusterServer"]


class ModelSpec:
    """One model the cluster should serve, pre-compilation.

    ``sample_input`` follows the same contract as
    :func:`~repro.serving.compiler.compile_model`: token models pass a
    batch of real ids so tracing and verification see representative
    indices.
    """

    def __init__(self, model, input_shape, sample_input=None, precision=None):
        self.model = model
        self.input_shape = tuple(int(d) for d in input_shape)
        self.sample_input = sample_input
        self.precision = precision  # None -> the cluster config's default


class GenModelSpec:
    """One decoder model the cluster should serve *autoregressively*.

    Compiles through :func:`repro.gen.compiler.compile_generation` into
    bucketed prefill plans plus a decode-step plan, all published through
    the shared plan store like any other plan. Generation sessions pin to
    one shard (their KV caches live in that worker process) and stream
    tokens back through :meth:`ClusterServer.generate`.
    """

    def __init__(self, model, buckets=None, sample_prompts=None,
                 precision=None, record=True):
        self.model = model
        self.buckets = buckets
        self.sample_prompts = sample_prompts
        self.precision = precision
        # Publish recorded (fused) plan variants alongside the
        # interpreted ones; workers replay them on the decode hot path.
        self.record = bool(record)


class GenerationError(RuntimeError):
    """A generation session failed (its shard crashed mid-stream)."""


# Tokens a ``generate`` without ``max_new_tokens`` produces.
DEFAULT_MAX_NEW_TOKENS = 16


class ClusterConfig:
    """Tunables of one :class:`ClusterServer` deployment.

    ``workers`` is the number of *processes* (shards). The batching knobs
    apply per (shard, topology) queue; with ``autotune=True`` each queue
    hill-climbs its own ``max_batch_size`` / ``max_wait_ms`` from its
    recent throughput, so differently-loaded shards settle differently.
    """

    def __init__(self, workers=2, max_batch_size=32, max_wait_ms=2.0,
                 max_pending=1024, precision="fp32", autotune=False,
                 autotune_interval=24, start_timeout=120.0, respawn=True,
                 objectives=None, flight=False, flight_capacity=64,
                 sampler=True, reprice=True, reprice_interval_s=5.0,
                 reprice_min_calls=3):
        self.workers = int(workers)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.max_pending = int(max_pending)
        self.precision = precision
        self.autotune = bool(autotune)
        self.autotune_interval = int(autotune_interval)
        self.start_timeout = float(start_timeout)
        # Resurrect crashed workers from the shared plan store (in-flight
        # work still re-routes; the replacement rejoins the router once
        # it maps the plans). Disable for pure re-route semantics.
        self.respawn = bool(respawn)
        # Declared SLOs evaluated by ``op: slo`` (None -> the stock
        # serving objectives); Objective instances or plain dicts.
        self.objectives = objectives
        # Tail-sampling flight recorder on the TCP generate path.
        self.flight = bool(flight)
        self.flight_capacity = int(flight_capacity)
        # Continuous wall-clock sampling profiler: on by default in every
        # process (front-end + workers) at each sampler's built-in rate;
        # ``op: obs`` ``sampler_rate`` retunes it at runtime.
        self.sampler = bool(sampler)
        # Drift→pricing control loop: a front-end timer calls
        # ``apply_drift_pricing()`` every ``reprice_interval_s`` seconds,
        # gated by the :class:`~repro.obs.drift.RepricingPolicy`
        # hysteresis (its ``threshold`` / ``empty_clears`` defaults: new
        # factors install only on a sustained fractional change, and
        # last-good factors survive a few consecutive empty drift
        # reports), and a model needs ``reprice_min_calls`` measured
        # layer calls before its calibration is trusted at all.
        self.reprice = bool(reprice)
        self.reprice_interval_s = float(reprice_interval_s)
        self.reprice_min_calls = int(reprice_min_calls)

    def __repr__(self):
        return ("ClusterConfig(workers=%d, max_batch=%d, max_wait=%.1fms, "
                "precision=%r%s)" % (
                    self.workers, self.max_batch_size, self.max_wait_ms,
                    self.precision, ", autotune" if self.autotune else ""))


class Shard:
    """Parent-side shard: worker process + per-topology batch queues.

    Each topology gets its own :class:`MicroBatcher` (requests of
    different plans cannot stack into one batch); all of them funnel into
    the shard's single worker pipe. ``window`` aggregates every batch the
    shard completes — the router's pace signal; ``metrics[key]`` keeps
    the per-topology books.
    """

    def __init__(self, index, handles, plan_keys, config, predictors,
                 gen_meta=None, objectives=None):
        self.index = index
        self.process = ShardProcess(index, handles, gen_meta=gen_meta,
                                    start_timeout=config.start_timeout,
                                    objectives=objectives,
                                    sampler={"enabled": config.sampler})
        self.window = MetricsWindow()
        self.metrics = {}
        self.batchers = {}
        self.autotuners = {}
        for key in plan_keys:
            metrics = ServingMetrics(predictors.get(key))
            batcher = MicroBatcher(
                self._executor(key),
                max_batch_size=config.max_batch_size,
                max_wait_s=config.max_wait_ms / 1e3,
                workers=1,
                max_pending=config.max_pending,
                on_batch=self._observer(key, metrics),
                name="%s/shard%d" % (key, index),
            )
            self.metrics[key] = metrics
            self.batchers[key] = batcher
            if config.autotune:
                self.autotuners[key] = Autotuner(
                    batcher, interval_batches=config.autotune_interval,
                    max_batch=max(config.max_batch_size, config.max_pending))

    def _executor(self, key):
        def run_batch(stacked):
            return self.process.execute(key, stacked)
        return run_batch

    def _observer(self, key, metrics):
        def on_batch(batch_size, batch_seconds, latencies):
            metrics.record_batch(batch_size, batch_seconds, latencies)
            self.window.record(batch_size, batch_seconds, latencies)
            tuner = self.autotuners.get(key)
            if tuner is not None:
                tuner.on_batch(batch_size, batch_seconds, latencies)
        return on_batch

    @property
    def alive(self):
        return self.process.alive

    def submit(self, key, x):
        return self.batchers[key].submit(x)

    def pending(self):
        return sum(b.pending() for b in self.batchers.values())

    def close(self, drain, timeout):
        for batcher in self.batchers.values():
            batcher.close(timeout, drain=drain)
        self.process.stop(timeout)

    def __repr__(self):
        return "Shard(%d, %s, %d topologies)" % (
            self.index, "alive" if self.alive else "down",
            len(self.batchers))


class ClusterGenStream:
    """Pull-based token stream for one cluster generation session.

    Iterating (or calling :meth:`result`) polls the pinned worker; a poll
    with no queued tokens advances that worker's shared decode batch one
    tick, so polling *is* the decode scheduler — concurrent sessions on a
    shard advance together regardless of which client polls. ``tokens``
    accumulates everything received.
    """

    def __init__(self, cluster, key, shard, sid, first_tokens, done,
                 telemetry=None):
        self._cluster = cluster
        self._key = key
        self._shard = shard
        self._sid = sid
        self.tokens = list(first_tokens)
        self._buffer = deque(first_tokens)
        self._done = bool(done)
        self._error = None
        self._settled = False
        # The worker's per-session TTFT/ITL snapshot, refreshed by every
        # poll reply that carries one (final numbers land with `done`).
        self.telemetry = telemetry
        # Polls happen on whatever thread iterates the stream; the trace
        # context active at session start is captured so every poll RPC
        # (and the worker's decode ticks behind it) joins the same trace.
        self._ctx = TRACE.context() if TRACE.enabled else None

    def _settle(self):
        if not self._settled:
            self._settled = True
            self._cluster._gen_finished(self._shard.index, self._key)

    @property
    def done(self):
        return self._done

    def _request(self, op):
        if self._ctx is None:
            return self._shard.process.request(op, self._key, self._sid)
        with TRACE.tracing(self._ctx):
            return self._shard.process.request(op, self._key, self._sid)

    def _poll(self):
        try:
            reply = self._request("gen_poll")
        except ShardCrashed as exc:
            self._done = True
            self._settle()
            self._cluster._shard_down(self._shard.index)
            self._error = GenerationError(
                "shard %d crashed mid-generation (its KV caches are "
                "gone); restart the session" % self._shard.index)
            raise self._error from exc
        except RuntimeError as exc:
            # A worker-side error reply (the worker itself is healthy):
            # the session is unusable — settle the router's credit and
            # free its worker-side state instead of leaking both.
            self._done = True
            self._settle()
            try:
                self._request("gen_drop")
            except (ShardCrashed, RuntimeError):
                pass
            self._error = GenerationError(
                "generation failed on shard %d: %s"
                % (self._shard.index, exc))
            raise self._error from exc
        new = [int(t) for t in reply["tokens"]]
        self.tokens.extend(new)
        self._buffer.extend(new)
        if "telemetry" in reply:
            self.telemetry = reply["telemetry"]
        self._cluster._gen_stats[self._key]["tokens"] += len(new)
        if reply["done"]:
            self._done = True
            self._settle()
        return bool(new)

    def __iter__(self):
        if self._error is not None:
            raise self._error
        while True:
            while self._buffer:
                yield self._buffer.popleft()
            if self._done:
                return
            if not self._poll() and not self._done:
                time.sleep(0.001)

    def result(self, timeout=120.0):
        """Block until the session completes; returns the token list."""
        if self._error is not None:
            raise self._error
        deadline = time.monotonic() + timeout
        while not self._done:
            if time.monotonic() > deadline:
                raise TimeoutError("generation did not finish within %.1fs"
                                   % timeout)
            if not self._poll() and not self._done:
                time.sleep(0.001)
        return list(self.tokens)

    def close(self):
        """Abandon the session (frees its worker-side KV cache)."""
        if self._done:
            return
        self._done = True
        self._settle()
        try:
            self._request("gen_drop")
        except (ShardCrashed, RuntimeError):
            pass

    def __repr__(self):
        return "ClusterGenStream(%r@shard%d, %d tokens%s)" % (
            self._key, self._shard.index, len(self.tokens),
            ", done" if self._done else "")


def _reprice_loop(cluster_ref, stop, interval_s):
    """Cadence thread closing the drift→pricing loop.

    Every ``interval_s`` seconds it runs one
    :meth:`ClusterServer.apply_drift_pricing` cycle; the hysteresis
    policy inside decides whether anything actually installs. Holds the
    cluster only through a weakref so a cluster that is dropped without
    ``shutdown()`` can still be collected (the thread then exits on its
    next tick); a clean shutdown sets ``stop`` and joins. A failed cycle
    (e.g. every shard raced on a crash) is skipped — the next tick
    retries, and the policy's empty-streak grace keeps the last-good
    factors in place meanwhile.
    """
    while not stop.wait(interval_s):
        cluster = cluster_ref()
        if cluster is None or not cluster._accepting:
            return
        try:
            cluster.apply_drift_pricing()
        except Exception:
            pass
        del cluster


class ClusterServer:
    """Serve a dict of converted models across worker processes.

    Typical use::

        specs = {
            "lenet": ModelSpec(lenet_model, (1, 16, 16)),
            "bert_mini": ModelSpec(bert, (16,), sample_input=tokens[:3]),
        }
        with ClusterServer(specs, ClusterConfig(workers=4)) as cluster:
            future = cluster.submit("lenet", image)
            print(future.result())
    """

    def __init__(self, specs, config=None):
        self.config = config or ClusterConfig()
        if self.config.workers < 1:
            raise ValueError("a cluster needs at least one worker process")
        # Normalised before shard spawn: each worker builds its own SLO
        # monitor from these (shipped as plain dicts over the spawn args)
        # and the front-end monitors the same declarations over its own
        # registry — ``op: slo`` merges the rings.
        raw_objectives = self.config.objectives
        self.objectives = (None if raw_objectives is None
                           else [Objective.from_dict(o)
                                 for o in raw_objectives])
        self.slo_monitor = SLOMonitor(METRICS, objectives=self.objectives)
        self.flight = FlightRecorder(capacity=self.config.flight_capacity)
        self.flight.enabled = bool(self.config.flight)
        # The breach line the TCP generate path measures against: the
        # declared TTFT objective, when there is one.
        self._flight_threshold = next(
            (o.threshold_ms for o in self.slo_monitor.objectives
             if o.kind == "latency" and o.metric == "repro_gen_ttft_ms"),
            None)
        # Front-end continuous profiler: the parent samples its own
        # threads (router picks, batcher flushes, stream polls) under the
        # ``frontend`` label; each worker samples as ``shard<i>``. The
        # singleton is shared process-wide, so a sampler=False cluster
        # explicitly stops it (a prior cluster may have left it running).
        SAMPLER.label = "frontend"
        if self.config.sampler:
            SAMPLER.start()
        else:
            SAMPLER.stop()
        self.store = SharedPlanStore()
        self.plans = {}
        self.gen_plans = {}
        self.predictors = {}
        self.shards = []
        self._gen_meta = {}
        self._gen_stats = {}
        started = False
        try:
            for key, spec in specs.items():
                precision = spec.precision or self.config.precision
                if isinstance(spec, GenModelSpec):
                    self._compile_gen(key, spec, precision)
                    continue
                plan = compile_model(
                    spec.model, spec.input_shape, precision=precision,
                    sample_input=spec.sample_input, name=key)
                self.plans[key] = plan
                self.store.publish(key, plan)
                self.predictors[key] = CyclePredictor(plan)
            self._handles = self.store.handles()
            self._plan_keys = list(self.plans)
            # Append as each shard comes up so a mid-construction failure
            # can tear down the shards (and their worker processes) that
            # already started instead of leaking them.
            for i in range(self.config.workers):
                self.shards.append(self._spawn_shard(i))
            started = True
        finally:
            if not started:
                self._teardown(drain=False, timeout=5.0)
        request_cycles = {key: predictor.cycles(1)
                          for key, predictor in self.predictors.items()}
        self.router = LeastWorkRouter(
            request_cycles,
            windows={shard.index: shard.window for shard in self.shards})
        for shard in self.shards:
            self.router.add_shard(shard.index)
        self._by_index = {shard.index: shard for shard in self.shards}
        self._lock = threading.Lock()
        self._respawning = set()
        self._respawn_threads = []
        self._accepting = True
        # Registry exports: the per-plan predicted cost next to the
        # engine's measured execute histogram, the routing decision
        # counters, and each shard's outstanding predicted cycles as a
        # callback gauge (read from the live router at scrape time; the
        # weakref lets a shut-down cluster fall off the registry).
        cycles_gauge = METRICS.gauge(
            "repro_plan_predicted_cycles",
            "Predicted cycles per single-request execution",
            labels=("model",))
        for key, cycles in request_cycles.items():
            cycles_gauge.labels(model=key).set(float(cycles))
        self._m_pick_ms = METRICS.histogram(
            "repro_router_pick_ms", "Router shard selection (ms)").labels()
        self._m_picks = METRICS.counter(
            "repro_router_picks_total", "Routing decisions",
            labels=("model", "shard"))
        ref = weakref.ref(self)
        outstanding_gauge = METRICS.gauge(
            "repro_router_outstanding_cycles",
            "Outstanding predicted cycles per shard", labels=("shard",))

        def _outstanding(index):
            def read():
                cluster = ref()
                if cluster is None:
                    return 0.0
                return float(cluster.router.outstanding(index))
            return read

        for shard in self.shards:
            outstanding_gauge.labels(shard=str(shard.index)).set_function(
                _outstanding(shard.index))
        # Drift→pricing control loop: hysteresis state, the installed
        # factor per model as a gauge (1.0 = raw predicted cycles), and
        # the cadence thread that closes the loop. The thread holds only
        # a weakref so an abandoned cluster can still be collected; it
        # exits on the shutdown event, on a dead ref, or once admission
        # stops.
        self._reprice_policy = RepricingPolicy()
        self._m_calibration = METRICS.gauge(
            "repro_router_calibration",
            "Installed drift-corrected pricing factor per model "
            "(1.0 = raw predicted cycles)", labels=("model",))
        for key in self.predictors:
            self._m_calibration.labels(model=key).set(1.0)
        self._reprice_stop = threading.Event()
        self._reprice_thread = None
        if self.config.reprice and self.config.reprice_interval_s > 0:
            self._reprice_thread = threading.Thread(
                target=_reprice_loop, name="cluster-reprice", daemon=True,
                args=(ref, self._reprice_stop,
                      self.config.reprice_interval_s))
            self._reprice_thread.start()

    def _compile_gen(self, key, spec, precision):
        from ..gen.compiler import compile_generation

        gen_plan = compile_generation(
            spec.model, buckets=spec.buckets, precision=precision,
            sample_prompts=spec.sample_prompts, name=key,
            record=getattr(spec, "record", True))
        self.gen_plans[key] = gen_plan
        # One group publish: the compiler bound all plans to one shared
        # block table, and publish_group writes it into the segment once
        # — shard memory for a gen model scales with the model, not the
        # bucket count. Recorded (fused) variants ride in the same group:
        # their composite steps nest the interpreted plans' arrays by
        # identity, so the table dedup makes them nearly free to publish.
        group = {}
        prefill_keys = []
        recorded_prefill_keys = []
        for bucket, plan in sorted(gen_plan.prefill.items()):
            store_key = "%s::prefill%d" % (key, bucket)
            group[store_key] = plan
            prefill_keys.append((bucket, store_key))
        decode_key = "%s::decode" % key
        group[decode_key] = gen_plan.decode
        recorded_decode_key = None
        if gen_plan.recorded_decode is not None:
            for bucket, plan in sorted(gen_plan.recorded_prefill.items()):
                store_key = "%s::rprefill%d" % (key, bucket)
                group[store_key] = plan
                recorded_prefill_keys.append((bucket, store_key))
            recorded_decode_key = "%s::rdecode" % key
            group[recorded_decode_key] = gen_plan.recorded_decode
        self.store.publish_group(group)
        self._gen_meta[key] = {
            "prefill_keys": prefill_keys,
            "decode_key": decode_key,
            "recorded_prefill_keys": recorded_prefill_keys,
            "recorded_decode_key": recorded_decode_key,
            "geometry": dict(gen_plan.meta),
        }
        self._gen_stats[key] = {"sessions": 0, "tokens": 0}
        # Sessions are priced at one decode step; the router only needs a
        # relative weight to balance generation against batch traffic.
        self.predictors[key] = CyclePredictor(gen_plan.decode)

    def _spawn_shard(self, index):
        return Shard(index, self._handles, self._plan_keys, self.config,
                     self.predictors, gen_meta=self._gen_meta,
                     objectives=self.objectives)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, key, x):
        """Route one request; returns a Future resolving to its output.

        The future survives worker crashes: if the chosen shard dies
        before the batch completes, the request is transparently
        re-dispatched to a healthy shard (each shard is tried at most
        once). It fails only when every shard is gone or the plan itself
        raises.
        """
        if key not in self.plans:
            raise KeyError("unknown model %r (serving: %s)"
                           % (key, sorted(self.plans)))
        if not self._accepting:
            raise AdmissionError("cluster is shut down")
        x = np.asarray(x)
        plan = self.plans[key]
        if x.shape != plan.input_shape:
            raise ValueError("request shape %r does not match plan input "
                             "shape %r" % (x.shape, plan.input_shape))
        outer = Future()
        self._dispatch(key, x, outer, tried=set())
        return outer

    def _dispatch(self, key, x, outer, tried, refused=0):
        """Pick a shard and chain its inner future onto ``outer``."""
        while True:
            t_pick = time.perf_counter()
            try:
                with tagged("router"):
                    index = self.router.pick(key, exclude=tried)
            except NoShardAvailable as exc:
                if refused:
                    # Shards are alive but their queues are full: surface
                    # the documented backpressure signal, not a dead
                    # fleet.
                    outer.set_exception(AdmissionError(
                        "%d shard(s) refused admission (queues at "
                        "max_pending)" % refused))
                else:
                    outer.set_exception(exc)
                return
            shard = self._by_index[index]
            tried.add(index)
            self._m_pick_ms.observe((time.perf_counter() - t_pick) * 1e3)
            self._m_picks.labels(model=key, shard=str(index)).inc()
            # Zero-duration event marking the routing decision (a traced
            # re-route shows up as several picks on one trace).
            TRACE.instant("router.pick", cat="router", shard=index,
                          model=key)
            try:
                inner = shard.submit(key, x)
            except AdmissionError:
                # Queue full (or shard closing): spill to the next shard.
                refused += 1
                continue
            except ShardCrashed:
                self._shard_down(index)
                continue
            self.router.started(index, key)
            inner.add_done_callback(
                lambda f: self._settle(f, key, x, outer, index, tried))
            return

    def _settle(self, inner, key, x, outer, index, tried):
        """Inner-future completion: resolve, or re-route after a crash."""
        self.router.finished(index, key)
        try:
            exc = inner.exception()
            if exc is None:
                outer.set_result(inner.result())
            elif isinstance(exc, ShardCrashed):
                self._shard_down(index)
                self._dispatch(key, x, outer, tried)
            else:
                outer.set_exception(exc)
        except BaseException as unexpected:  # never lose a future
            if not outer.done():
                outer.set_exception(unexpected)

    def _shard_down(self, index):
        self.router.mark_down(index)
        if not (self.config.respawn and self._accepting):
            return
        with self._lock:
            if index in self._respawning or not self._accepting:
                return
            self._respawning.add(index)
            thread = threading.Thread(
                target=self._respawn, args=(index,),
                name="lut-cluster-respawn-%d" % index, daemon=True)
            # Start before the thread is visible to shutdown()'s join
            # loop — joining a never-started Thread raises. Prune the
            # finished entries here so a crash-prone fleet's bookkeeping
            # stays bounded.
            thread.start()
            self._respawn_threads[:] = [
                t for t in self._respawn_threads if t.is_alive()]
            self._respawn_threads.append(thread)

    def _respawn(self, index):
        """Resurrect a crashed worker from the shared plan store.

        The dead shard's queues are torn down (their in-flight requests
        already re-routed), a fresh worker process maps the same shared
        segments, and the shard rejoins the router — generation sessions
        that lived on the dead worker are lost (their KV caches died with
        it), but capacity recovers without any recompilation.
        """
        try:
            old = self._by_index[index]
            try:
                old.close(drain=False, timeout=2.0)
            except Exception:
                old.process.kill()
            shard = self._spawn_shard(index)
        except Exception:
            # Spawn failed (e.g. mid-shutdown unlink); stay routed-around.
            with self._lock:
                self._respawning.discard(index)
            return
        with self._lock:
            if not self._accepting:
                self._respawning.discard(index)
                shard.close(drain=False, timeout=2.0)
                return
            self._by_index[index] = shard
            self.shards[self.shards.index(old)] = shard
            self.router.revive(index, window=shard.window)
            self._respawning.discard(index)

    # ------------------------------------------------------------------
    # Generation path
    # ------------------------------------------------------------------
    def generate(self, key, prompt, max_new_tokens=None, eos_token=None,
                 sampling=None):
        """Start one generation session; returns a token stream.

        The session pins to one shard (picked by the router) and its KV
        cache lives in that worker process; the returned
        :class:`ClusterGenStream` pulls tokens as the worker's shared
        decode batch advances. A crash of the pinned shard fails the
        stream with :class:`GenerationError` (cached state cannot be
        re-routed) — with ``respawn`` enabled the worker itself comes
        back for subsequent sessions, and because the sampling RNG is a
        pure function of ``(seed, step)``, re-running the same
        ``(sampling.seed, prompt)`` on the respawned fleet reproduces
        the identical stream.

        ``sampling`` is the session's
        :class:`~repro.gen.sampling.SamplingConfig` (``None`` = greedy);
        it ships to the pinned worker on the ``gen_start`` RPC in its
        plain-dict wire form.
        """
        if key not in self.gen_plans:
            raise KeyError("unknown generation model %r (serving: %s)"
                           % (key, sorted(self.gen_plans)))
        if not self._accepting:
            raise AdmissionError("cluster is shut down")
        max_new = (DEFAULT_MAX_NEW_TOKENS
                   if max_new_tokens is None else int(max_new_tokens))
        if max_new < 1:
            raise ValueError("max_new_tokens must be >= 1")
        policy = SamplingConfig.from_dict(sampling).to_dict()
        prompt = np.asarray(prompt, dtype=np.int64).ravel()
        tried = set()
        while True:
            t_pick = time.perf_counter()
            with tagged("router"):
                index = self.router.pick(key, exclude=tried)
            shard = self._by_index[index]
            tried.add(index)
            self._m_pick_ms.observe((time.perf_counter() - t_pick) * 1e3)
            self._m_picks.labels(model=key, shard=str(index)).inc()
            TRACE.instant("router.pick", cat="router", shard=index,
                          model=key)
            try:
                reply = shard.process.request("gen_start", key, prompt,
                                              max_new, eos_token, policy)
            except ShardCrashed:
                self._shard_down(index)
                continue
            self.router.started(index, key)
            stats = self._gen_stats[key]
            stats["sessions"] += 1
            stats["tokens"] += len(reply["tokens"])
            return ClusterGenStream(self, key, shard, reply["sid"],
                                    reply["tokens"], reply["done"],
                                    telemetry=reply.get("telemetry"))

    def generate_all(self, key, prompt, max_new_tokens=None, eos_token=None,
                     sampling=None, timeout=120.0):
        """Blocking convenience: the full generated token list."""
        return self.generate(key, prompt, max_new_tokens, eos_token,
                             sampling).result(timeout)

    def _gen_finished(self, index, key):
        self.router.finished(index, key)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    def infer(self, key, x, timeout=None):
        return self.submit(key, x).result(timeout)

    def infer_many(self, key, xs, timeout=None):
        futures = [self.submit(key, x) for x in xs]
        return np.stack([f.result(timeout) for f in futures])

    def pending(self):
        return sum(shard.pending() for shard in self.shards)

    def alive_workers(self):
        return sum(1 for shard in self.shards if shard.alive)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def summary(self):
        """Cluster-wide view: per-model aggregates + per-shard snapshots.

        ``models[key]`` sums served requests over all shards and adds the
        per-shard recent req/s (concurrent windows, so the sum is the
        aggregate service rate); its ``per_shard`` rows are each shard's
        own recent window *for this model*, which is where per-model
        imbalance shows (the shard-level windows below mix every model's
        traffic together). ``shards`` carries each shard's recent window
        snapshot for dashboards.
        """
        models = {}
        for key in self.plans:
            per_shard = [{"shard": s.index,
                          **s.metrics[key].window.snapshot()}
                         for s in self.shards]
            models[key] = {
                "requests": sum(s.metrics[key].request_count
                                for s in self.shards),
                "batches": sum(s.metrics[key].batch_count
                               for s in self.shards),
                "requests_per_s": sum(row["requests_per_s"]
                                      for row in per_shard),
                "per_shard": per_shard,
            }
        summary = {
            "workers": len(self.shards),
            "alive_workers": self.alive_workers(),
            "requests": sum(m["requests"] for m in models.values()),
            "models": models,
            "shards": [{"index": s.index, "alive": s.alive,
                        "outstanding_cycles":
                            self.router.outstanding(s.index),
                        **s.window.snapshot()}
                       for s in self.shards],
        }
        if self._gen_stats:
            summary["generation"] = {
                key: dict(stats) for key, stats in self._gen_stats.items()}
        return summary

    def _fanout(self, worker_op, *args):
        """One obs/control RPC to every alive shard: ``{index: reply}``.

        The only loop that issues such RPCs. A shard that is down, dies
        mid-call or answers with an error is skipped — observability
        must keep answering while the fleet is degraded — so callers
        merge whatever came back.
        """
        replies = {}
        for shard in self.shards:
            if not shard.alive:
                continue
            try:
                replies[shard.index] = shard.process.request(worker_op, *args)
            except (ShardCrashed, RuntimeError):
                continue
        return replies

    def _collect_stats(self):
        """One ``stats`` fan-out, shared by :meth:`stats` and
        :meth:`metrics_snapshot`: the worker replies by shard index and
        the registry snapshot merged over front-end and workers."""
        snaps = [METRICS.snapshot()]
        workers = self._fanout("stats")
        snaps.extend(worker["metrics"] for worker in workers.values()
                     if worker.get("metrics"))
        return workers, merge_snapshots(snaps)

    def stats(self):
        """Cluster-wide observability snapshot (the ``op: stats`` body).

        Per shard: the recent traffic window plus the worker's own
        numbers — per-step profiler aggregates and per-model token
        telemetry — fetched over the pipe (dead shards report window
        only). Cluster-wide: profiler aggregates merged across workers,
        telemetry merged per model (merged percentiles are token-count
        weighted means of the shard percentiles — each shard's own row
        stays exact).
        """
        rows = [{"index": shard.index, "alive": shard.alive,
                 "window": shard.window.snapshot()}
                for shard in self.shards]
        workers, metrics = self._collect_stats()
        telemetry = {}
        for row in rows:
            worker = workers.get(row["index"])
            if worker:
                row["worker"] = worker
                for key, snap in (worker.get("telemetry") or {}).items():
                    telemetry.setdefault(key, []).append(snap)
        return {
            "shards": rows,
            "profiler": StepProfiler.merge(
                [worker.get("profiler") or {}
                 for worker in workers.values()]),
            "telemetry": {key: TokenTelemetry.merge(snaps)
                          for key, snaps in telemetry.items()},
            "metrics": metrics,
            "router": {
                "calibration": self.router.calibration(),
                "outstanding": {str(s.index):
                                self.router.outstanding(s.index)
                                for s in self.shards},
                "inflight": {str(s.index): self.router.inflight(s.index)
                             for s in self.shards},
            },
        }

    def metrics_snapshot(self):
        """Cluster-wide metrics registry snapshot: the front-end process's
        own series merged with every alive worker's (worker series stay
        distinct through their ``shard`` constant label; front-end series
        carry none). This is the body ``op: scrape`` renders to text."""
        return self._collect_stats()[1]

    def slo(self):
        """Evaluate the declared objectives cluster-wide.

        Ticks the front-end monitor and every alive worker's (the
        ``slo`` RPC), merges their per-second rings by addition — slots
        key on the shared wall clock — and evaluates burn rates over the
        merged series. Tick-on-demand: no background thread is needed
        for correctness, because each tick folds everything since the
        previous one into the current slot.
        """
        self.slo_monitor.tick()
        snaps = [self.slo_monitor.snapshot(), *self._fanout("slo").values()]
        merged = SLOMonitor.merge(snaps)
        return {
            "objectives": SLOMonitor.evaluate(merged),
            "window_s": merged["window_s"],
            "windows": merged["windows"],
            "alert_burn": merged["alert_burn"],
            "sources": len(snaps),
        }

    def health(self):
        """One-look health verdict: worker liveness, admission state,
        which declared objectives are currently burning hot, and whether
        any layer's measured cost has drifted out of the tolerance band.

        Drift is advisory — a drifted layer means the router's pricing is
        off (capacity planning, not availability) — so it never flips
        ``ok``; it rides along under ``drift`` with the offending layers
        named per model.
        """
        slo = self.slo()
        alerting = [row["name"] for row in slo["objectives"]
                    if row["alerting"]]
        alive = self.alive_workers()
        drift = self.drift()
        drift_alerts = {name: row["alerts"]
                        for name, row in drift.get("models", {}).items()
                        if row.get("alerts")}
        # The pricing side of the loop: what the hysteresis policy holds
        # active (``factors`` + ``last_repriced_unix``) and whether the
        # cadence thread is driving it.
        pricing = self._reprice_policy.snapshot()
        pricing["enabled"] = self._reprice_thread is not None
        pricing["interval_s"] = self.config.reprice_interval_s
        pricing["min_calls"] = self.config.reprice_min_calls
        return {
            "ok": bool(self._accepting and alive and not alerting),
            "accepting": bool(self._accepting),
            "workers": len(self.shards),
            "alive_workers": alive,
            "pending": self.pending(),
            "alerting": alerting,
            "flight": {"enabled": self.flight.enabled,
                       "retained": len(self.flight),
                       "counts": dict(self.flight.counts)},
            "drift": {"alerting": bool(drift_alerts),
                      "alerts": drift_alerts,
                      "models": len(drift.get("models", {})),
                      "pricing": pricing},
        }

    def flight_begin(self):
        """A flight-recorder trace context for one front-door request
        (``None`` while the recorder is off)."""
        return self.flight.begin()

    def flight_finish(self, ctx, value_ms=None, error=None, **meta):
        """Settle one flight: breach is judged against the declared TTFT
        objective, and a retained entry pulls its stitched cross-process
        spans via :meth:`trace_spans`."""
        return self.flight.finish(
            ctx, value_ms=value_ms, error=error,
            threshold_ms=self._flight_threshold,
            fetch_spans=self.trace_spans, **meta)

    def trace_spans(self, trace_id=None):
        """Recorded spans — front-end process plus every alive worker —
        as plain dicts sorted by start time (``None`` fetches all).

        One stitched list is possible because every process records on
        the same boot-relative monotonic clock and traced RPCs carry the
        trace id across the pipe; feed the result to
        :func:`repro.obs.export.to_chrome_trace` / ``span_tree``.
        """
        spans = [s.to_dict() for s in TRACE.spans(trace_id)]
        for worker_spans in self._fanout("trace", trace_id).values():
            spans.extend(worker_spans)
        spans.sort(key=lambda d: (d["ts_us"], d["span"]))
        return spans

    def set_profiling(self, enabled=True):
        """Toggle per-step profiling in every alive worker; returns how
        many acknowledged (a respawned worker comes back unprofiled)."""
        return len(self._fanout("obs", bool(enabled)))

    def set_sampling(self, enabled=None, rate_hz=None):
        """Reconfigure the wall-clock sampler everywhere — front-end and
        every alive worker — without touching step profiling; returns how
        many workers acknowledged. ``None`` leaves that knob as-is.

        Front-end and workers apply the identical
        :func:`~repro.obs.contprof.configure_sampler` semantics: the
        rate is stored first, unconditionally — a ``rate_hz`` sent while
        a sampler is stopped is remembered for its next start, never
        silently dropped — and a running sampler retunes in place.
        """
        sampler = {}
        if enabled is not None:
            sampler["enabled"] = bool(enabled)
        if rate_hz is not None:
            sampler["rate_hz"] = float(rate_hz)
        configure_sampler(SAMPLER, enabled=sampler.get("enabled"),
                          rate_hz=sampler.get("rate_hz"))
        return len(self._fanout("obs", None, sampler))

    def profile(self, reset=False):
        """Cluster-merged continuous profile (the ``op: profile`` body).

        The front-end sampler's snapshot plus every alive worker's
        (``op: profile`` over the pipe), merged by folded stack — a
        hotspot shared by every shard sums cluster-wide while each
        process's totals survive under ``shards``. Feed the result to
        :func:`repro.obs.contprof.render_collapsed` (flamegraph.pl /
        speedscope input), :func:`~repro.obs.contprof.to_pprof`, or
        :func:`~repro.obs.contprof.diff_profiles`. ``reset=True`` clears
        every sampler after reading, making consecutive calls windowed.
        """
        return merge_profiles(
            [SAMPLER.snapshot(reset=reset),
             *self._fanout("profile", bool(reset)).values()])

    def drift(self):
        """Cluster-merged cost-model drift report (the ``op: drift``
        body): per-model calibration (measured ms per predicted cycle),
        per-layer EWMA drift ratios and band alerts, with each shard's
        own calibrations preserved under ``shards`` so a single slow
        shard stays visible after the merge."""
        return DriftDetector.merge(self._fanout("drift").values())

    def apply_drift_pricing(self, force=False):
        """One drift→pricing control cycle; returns the active factors.

        Maps the merged drift report's per-model calibrations onto
        router keys through each key's predictor plan, drops models with
        fewer than ``reprice_min_calls`` measured layer calls (a
        calibration built on two samples is noise, not signal), and
        normalises by the fleet mean — so relative weights move only
        where models genuinely diverge from each other, not with the
        global host/simulator gap. The result feeds the
        :class:`~repro.obs.drift.RepricingPolicy` hysteresis: factors
        reach :meth:`~repro.cluster.router.LeastWorkRouter
        .set_calibration` only on a sustained >``threshold``
        change, and a transient empty ``drift()`` fan-out keeps the
        last-good factors (cleared only after ``empty_clears``
        consecutive empties). The cadence thread runs this every
        ``reprice_interval_s`` seconds; manual calls are fine too, and
        ``force=True`` bypasses the hysteresis — install exactly what
        was measured, or clear when nothing was.
        """
        models = self.drift().get("models", {})
        raw = {}
        for key, predictor in self.predictors.items():
            row = models.get(predictor.plan.model_name)
            if not row or not row.get("calibration_ms_per_cycle"):
                continue
            calls = sum(layer.get("calls", 0)
                        for layer in row.get("layers", {}).values())
            if calls < self.config.reprice_min_calls:
                continue
            raw[key] = float(row["calibration_ms_per_cycle"])
        if raw:
            mean = sum(raw.values()) / len(raw)
            raw = {key: value / mean for key, value in raw.items()}
        changed, factors = self._reprice_policy.decide(raw, force=force)
        if changed:
            self.router.set_calibration(factors)
            for key in self.predictors:
                self._m_calibration.labels(model=key).set(
                    float(factors.get(key, 1.0)))
        return factors

    def report(self, title="cluster metrics"):
        from ..evaluation.report import format_table

        summary = self.summary()
        rows = [{"model": key,
                 **{k: v for k, v in stats.items() if k != "per_shard"}}
                for key, stats in sorted(summary["models"].items())]
        header = "%s — %d/%d workers alive, %d requests served" % (
            title, summary["alive_workers"], summary["workers"],
            summary["requests"])
        return header + "\n" + format_table(rows, floatfmt="%.4g")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _teardown(self, drain, timeout):
        for shard in getattr(self, "shards", []):
            try:
                shard.close(drain, timeout)
            except Exception:
                shard.process.kill()
        self.store.close()

    def shutdown(self, drain=True, timeout=30.0):
        """Stop the cluster; ``drain=True`` flushes every queued request.

        Admission stops first (cluster-level and per-batcher), queued
        work is executed to completion, then workers get a polite stop
        and are joined; the shared memory segments are unlinked last, so
        no worker ever sees its tables disappear mid-batch.
        """
        if not self._accepting:
            return
        self._accepting = False
        deadline = time.monotonic() + timeout
        reprice_thread = getattr(self, "_reprice_thread", None)
        if reprice_thread is not None:
            self._reprice_stop.set()
            reprice_thread.join(max(0.0, deadline - time.monotonic()))
        for thread in list(getattr(self, "_respawn_threads", [])):
            thread.join(max(0.0, deadline - time.monotonic()))
        self._teardown(drain, timeout)

    def close(self, timeout=10.0):
        self.shutdown(drain=False, timeout=timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def __repr__(self):
        return "ClusterServer(%d models, %d/%d workers alive)" % (
            len(self.plans), self.alive_workers(), len(self.shards))
