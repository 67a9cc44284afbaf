"""Serving telemetry: throughput, latency percentiles, predicted cycles.

:class:`ServingMetrics` aggregates per-batch observations from the
micro-batcher. Beyond the usual p50/p90/p99 request latencies it can carry
a :class:`CyclePredictor`, which replays each served batch size through the
cycle-accurate LUT-DLA simulator (:mod:`repro.sim`) — the Eq. (5) cost
model — so every summary reports the measured host latency next to what
the paper's accelerator would have spent on the identical workload.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from ..obs.telemetry import percentile
from ..sim.engine import SimConfig, simulate_workloads

__all__ = ["CyclePredictor", "MetricsWindow", "ServingMetrics", "percentile"]


class CyclePredictor:
    """Predicted LUT-DLA cycles/latency per served batch size.

    Wraps ``simulate_workloads`` over a plan's GEMM workloads; results are
    memoised per batch size since the simulator is deterministic.
    """

    def __init__(self, plan, sim_config=None):
        self.sim_config = sim_config or SimConfig()
        self._cache = {}
        self._lock = threading.Lock()
        self._plan = plan

    @property
    def plan(self):
        return self._plan

    @plan.setter
    def plan(self, plan):
        """Swap the predicted plan; the memo cache dies with the old one.

        A hot plan swap (new co-design point, recalibrated codebook)
        changes the workloads behind every cached batch size — keeping
        the memos would keep reporting the *old* plan's cycles forever
        (``ServingMetrics.reset()`` never cleared them). Clearing here
        ties cache validity to plan identity instead of metrics resets.
        """
        with self._lock:
            self._plan = plan
            self._cache.clear()

    def clear(self):
        """Drop the memoised cycle counts (they recompute on demand)."""
        with self._lock:
            self._cache.clear()

    def cycles(self, batch_size):
        """Total predicted LUT-DLA cycles for one batch of ``batch_size``."""
        batch_size = int(batch_size)
        with self._lock:
            if batch_size not in self._cache:
                _, total = simulate_workloads(
                    self._plan.workloads(batch_size), self.sim_config)
                self._cache[batch_size] = int(total)
            return self._cache[batch_size]

    def seconds(self, batch_size):
        """Predicted wall-clock seconds at the simulated clock frequency."""
        return self.cycles(batch_size) / self.sim_config.frequency_hz

    def breakdown(self, batch_size):
        """Per-LUT-layer predicted cycles for one batch: {layer: cycles}.

        Layer keys are the converted module's qualified name (e.g.
        ``blocks.0.attn.q_proj``), so the profile doubles as an AIWC-style
        workload characterization of the served topology — the per-layer
        rows the benchmark artifact records per commit.
        """
        workloads = self.plan.workloads(int(batch_size))
        results, _ = simulate_workloads(workloads, self.sim_config)
        return {w.name: int(r.total_cycles)
                for w, r in zip(workloads, results)}


class MetricsWindow:
    """Sliding window over the last ``maxlen`` completed batches.

    The cumulative :class:`ServingMetrics` answers "how did this
    deployment do overall"; the window answers "how is it doing *right
    now*" — the signal the cluster router and the autotuner act on.
    ``snapshot()`` is cheap, picklable, and self-contained, so per-shard
    windows can be compared across processes without sharing state.
    """

    def __init__(self, maxlen=64):
        self.maxlen = int(maxlen)
        self._rows = deque(maxlen=self.maxlen)  # (done_at, size, secs, lat)
        self._lock = threading.Lock()

    def record(self, batch_size, batch_seconds, latencies):
        mean_latency = (float(np.mean(latencies)) if len(latencies) else 0.0)
        with self._lock:
            self._rows.append((time.monotonic(), int(batch_size),
                               float(batch_seconds), mean_latency))

    def __len__(self):
        with self._lock:
            return len(self._rows)

    def clear(self):
        with self._lock:
            self._rows.clear()

    def snapshot(self):
        """Recent-traffic view: req/s, batch shape and pace over the window.

        ``requests_per_s`` divides the window's request count by its time
        span (first batch start to last batch end). ``seconds_per_request``
        is the measured service pace — the router's scale factor from
        predicted work to expected wall time on this shard.
        """
        with self._lock:
            rows = list(self._rows)
        if not rows:
            return {"batches": 0, "requests": 0, "requests_per_s": 0.0,
                    "mean_batch_size": 0.0, "mean_batch_seconds": 0.0,
                    "mean_latency_s": 0.0, "seconds_per_request": 0.0,
                    "span_s": 0.0}
        requests = sum(size for _, size, _, _ in rows)
        busy = sum(secs for _, _, secs, _ in rows)
        first_start = rows[0][0] - rows[0][2]
        span = max(rows[-1][0] - first_start, 1e-9)
        return {
            "batches": len(rows),
            "requests": requests,
            "requests_per_s": requests / span,
            "mean_batch_size": requests / len(rows),
            "mean_batch_seconds": busy / len(rows),
            "mean_latency_s": float(np.mean([lat for _, _, _, lat in rows])),
            "seconds_per_request": busy / max(requests, 1),
            "span_s": span,
        }


class ServingMetrics:
    """Threadsafe accumulator for the serving runtime's observations."""

    def __init__(self, predictor=None, window=64):
        self.predictor = predictor
        self.window = MetricsWindow(window)
        self._lock = threading.Lock()
        self._latencies = []
        self._batch_sizes = []
        self._batch_seconds = []
        self._started_at = time.monotonic()
        self._last_done_at = self._started_at

    # ------------------------------------------------------------------
    def record_batch(self, batch_size, batch_seconds, latencies):
        """Record one completed batch (the batcher's ``on_batch`` hook).

        Only appends observations — cycle prediction (which runs the tile
        simulator on first sight of a batch size) is deferred to
        :meth:`summary` so the serving hot path never waits on it.
        """
        with self._lock:
            now = time.monotonic()
            if not self._batch_sizes:
                # Start the throughput window at the first batch's start,
                # not at construction — idle warm-up time is not traffic.
                self._started_at = now - float(batch_seconds)
            self._batch_sizes.append(int(batch_size))
            self._batch_seconds.append(float(batch_seconds))
            self._latencies.extend(float(lat) for lat in latencies)
            self._last_done_at = now
        self.window.record(batch_size, batch_seconds, latencies)

    def reset(self):
        with self._lock:
            self._latencies = []
            self._batch_sizes = []
            self._batch_seconds = []
            self._started_at = time.monotonic()
            self._last_done_at = self._started_at
        self.window.clear()

    # ------------------------------------------------------------------
    @property
    def request_count(self):
        with self._lock:
            return len(self._latencies)

    @property
    def batch_count(self):
        with self._lock:
            return len(self._batch_sizes)

    def summary(self):
        """One dict with the numbers a dashboard would want.

        Latencies are reported in milliseconds; ``requests_per_s`` uses the
        window from construction/reset to the last completed batch.
        ``predicted_*`` keys appear when a :class:`CyclePredictor` is
        attached — ``predicted_ms`` is the simulator's per-batch latency
        and ``measured_over_predicted`` the measured/predicted ratio, the
        serving-time form of the paper's predicted-vs-measured comparison.
        """
        with self._lock:
            latencies = list(self._latencies)
            sizes = list(self._batch_sizes)
            seconds = list(self._batch_seconds)
            window = max(self._last_done_at - self._started_at, 1e-12)
        predicted = ([self.predictor.cycles(size) for size in sizes]
                     if self.predictor is not None else [])
        count = len(latencies)
        out = {
            "requests": count,
            "batches": len(sizes),
            "mean_batch_size": float(np.mean(sizes)) if sizes else 0.0,
            "requests_per_s": count / window if count else 0.0,
            "mean_ms": float(np.mean(latencies)) * 1e3 if count else 0.0,
            "p50_ms": percentile(latencies, 50) * 1e3,
            "p90_ms": percentile(latencies, 90) * 1e3,
            "p99_ms": percentile(latencies, 99) * 1e3,
            "mean_batch_ms": float(np.mean(seconds)) * 1e3 if seconds else 0.0,
        }
        if predicted:
            freq = self.predictor.sim_config.frequency_hz
            mean_cycles = float(np.mean(predicted))
            out["predicted_cycles"] = mean_cycles
            out["predicted_ms"] = mean_cycles / freq * 1e3
            if out["mean_batch_ms"] > 0:
                out["measured_over_predicted"] = (
                    out["mean_batch_ms"] / out["predicted_ms"]
                    if out["predicted_ms"] else float("inf"))
        return out

    def report(self, title="serving metrics"):
        """Render :meth:`summary` as an aligned text table."""
        from ..evaluation.report import format_serving_summary

        return format_serving_summary(self.summary(), title=title)
