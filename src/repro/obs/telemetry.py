"""Generation token telemetry: TTFT and inter-token latency percentiles.

:class:`TokenTelemetry` tracks two signals per generation session — time
to first token (TTFT: request admission to the first sampled token, so
prefill queueing and execution are inside it) and inter-token latency
(ITL: the gap between consecutive emitted tokens, the decode tick pace a
streaming client actually feels). Sessions report their own numbers while
live; completed observations pool into bounded reservoirs whose p50/p99
feed the ``GeneratorServer`` metrics and the cluster's ``op: stats``
snapshots. Snapshots are plain dicts: picklable over the worker pipe,
mergeable across shards, JSON-clean on the wire.
"""

from __future__ import annotations

import threading
import time

import numpy as np

__all__ = ["TokenTelemetry", "latency_stats", "percentile"]


def percentile(values, p):
    """Nearest-rank percentile (p in [0, 100]) of a list of floats."""
    if not len(values):
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = min(len(ordered) - 1,
               max(0, int(np.ceil(p / 100.0 * len(ordered))) - 1))
    return float(ordered[rank])


def latency_stats(seconds):
    """``{count, mean_ms, p50_ms, p99_ms, max_ms}`` for a sample list."""
    values = list(seconds)
    if not values:
        return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
                "max_ms": 0.0}
    return {
        "count": len(values),
        "mean_ms": float(np.mean(values)) * 1e3,
        "p50_ms": percentile(values, 50) * 1e3,
        "p99_ms": percentile(values, 99) * 1e3,
        "max_ms": float(np.max(values)) * 1e3,
    }


class _Live:
    __slots__ = ("opened_at", "first_at", "last_at", "itls")

    def __init__(self, opened_at):
        self.opened_at = opened_at
        self.first_at = None
        self.last_at = None
        self.itls = []


class TokenTelemetry:
    """Per-session TTFT/ITL tracking with pooled percentile reservoirs.

    ``open(sid)`` marks admission, ``token(sid)`` each emitted token,
    ``close(sid)`` retirement (idempotent; unknown sids are ignored so
    crash/drop paths need no bookkeeping). ``maxlen`` bounds the pooled
    reservoirs — old observations age out instead of growing the arrays
    under sustained traffic — and ``closed_keep`` bounds the
    recently-closed stash the same way (FIFO eviction: a session that
    finishes but is never polled again ages out instead of living
    forever). ``label`` additionally mirrors every TTFT/ITL observation
    into the process metrics registry (``repro_gen_ttft_ms`` /
    ``repro_gen_itl_ms`` histograms and the ``repro_gen_tokens_total``
    counter, labelled ``model=label``) — the SLO monitor's data source.
    """

    #: Default final-snapshot stash bound for recently-closed sessions,
    #: so the poll that *observes* a session finish can still report its
    #: numbers (override per instance with ``closed_keep``).
    CLOSED_KEEP = 64

    def __init__(self, maxlen=4096, closed_keep=None, label=None):
        self.maxlen = int(maxlen)
        self.closed_keep = int(self.CLOSED_KEEP if closed_keep is None
                               else closed_keep)
        self._lock = threading.Lock()
        self._live = {}
        self._closed = {}
        self._ttfts = []
        self._itls = []
        self._sessions = 0
        self._tokens = 0
        self.clock = time.monotonic
        self.label = label
        self._m_tokens = self._m_ttft = self._m_itl = None
        if label is not None:
            from .metrics import METRICS
            self._m_tokens = METRICS.counter(
                "repro_gen_tokens_total", "Generated tokens",
                labels=("model",)).labels(model=label)
            self._m_ttft = METRICS.histogram(
                "repro_gen_ttft_ms", "Time to first token (ms)",
                labels=("model",)).labels(model=label)
            self._m_itl = METRICS.histogram(
                "repro_gen_itl_ms", "Inter-token latency (ms)",
                labels=("model",)).labels(model=label)

    # ------------------------------------------------------------------
    def open(self, sid, opened_at=None):
        """Admit one session; ``opened_at`` backdates to the moment the
        request entered the system (queueing belongs in TTFT)."""
        now = self.clock()
        with self._lock:
            self._live[sid] = _Live(now if opened_at is None else opened_at)
            self._sessions += 1

    def token(self, sid):
        """Record one emitted token for ``sid`` (first token sets TTFT)."""
        now = self.clock()
        ttft = itl = None
        with self._lock:
            live = self._live.get(sid)
            if live is None:
                return
            self._tokens += 1
            if live.first_at is None:
                live.first_at = now
                ttft = now - live.opened_at
                self._ttfts.append(ttft)
                del self._ttfts[:-self.maxlen]
            else:
                itl = now - live.last_at
                live.itls.append(itl)
            live.last_at = now
        if self._m_tokens is not None:
            # Registry mirror outside the lock (the cells are per-thread
            # and lock-free); telemetry clocks are monotonic seconds.
            self._m_tokens.inc()
            if ttft is not None:
                self._m_ttft.observe(ttft * 1e3)
            elif itl is not None:
                self._m_itl.observe(itl * 1e3)

    def close(self, sid):
        """Retire a session, pooling its inter-token gaps."""
        with self._lock:
            live = self._live.pop(sid, None)
            if live is None:
                return
            self._itls.extend(live.itls)
            del self._itls[:-self.maxlen]
            self._closed[sid] = self._session_dict(live, done=True)
            while len(self._closed) > self.closed_keep:
                self._closed.pop(next(iter(self._closed)))

    # ------------------------------------------------------------------
    @staticmethod
    def _session_dict(live, done):
        ttft = (live.first_at - live.opened_at
                if live.first_at is not None else None)
        return {"tokens": len(live.itls) + (ttft is not None),
                "ttft_ms": None if ttft is None else ttft * 1e3,
                "itl_ms": latency_stats(live.itls),
                "done": done}

    def session_snapshot(self, sid):
        """This session's own numbers (``None`` for unknown sids).

        Recently-closed sessions still answer (``done: true``), so the
        poll that delivers a session's last token can carry its final
        TTFT/ITL back to the client."""
        with self._lock:
            live = self._live.get(sid)
            if live is None:
                return self._closed.get(sid)
            return self._session_dict(live, done=False)

    def snapshot(self):
        """Aggregate view: session/token counts + TTFT/ITL percentiles.

        Live sessions' inter-token gaps are included (a long-running
        stream should show up in the pace percentiles before it ends).
        """
        with self._lock:
            ttfts = list(self._ttfts)
            itls = list(self._itls)
            for live in self._live.values():
                itls.extend(live.itls)
            sessions = self._sessions
            tokens = self._tokens
            active = len(self._live)
        return {
            "sessions": sessions,
            "active_sessions": active,
            "tokens": tokens,
            "ttft_ms": latency_stats(ttfts),
            "itl_ms": latency_stats(itls),
        }

    @staticmethod
    def merge(snapshots):
        """Combine aggregate snapshots from many shards.

        Counts add; percentiles cannot be recovered from percentiles, so
        the merged p50/p99 are token-count-weighted means of the shard
        values — the standard dashboard approximation, labelled as such
        by construction (each shard's own snapshot stays exact).
        """
        snapshots = [s for s in snapshots if s]
        if not snapshots:
            return {"sessions": 0, "active_sessions": 0, "tokens": 0,
                    "ttft_ms": latency_stats([]), "itl_ms": latency_stats([])}
        out = {"sessions": 0, "active_sessions": 0, "tokens": 0}
        for key in ("sessions", "active_sessions", "tokens"):
            out[key] = sum(s[key] for s in snapshots)
        for field in ("ttft_ms", "itl_ms"):
            rows = [s[field] for s in snapshots if s[field]["count"]]
            total = sum(r["count"] for r in rows)
            if not total:
                out[field] = latency_stats([])
                continue
            out[field] = {
                "count": total,
                "mean_ms": sum(r["mean_ms"] * r["count"]
                               for r in rows) / total,
                "p50_ms": sum(r["p50_ms"] * r["count"] for r in rows) / total,
                "p99_ms": sum(r["p99_ms"] * r["count"] for r in rows) / total,
                "max_ms": max(r["max_ms"] for r in rows),
            }
        return out

    def __repr__(self):
        with self._lock:
            return "TokenTelemetry(%d sessions, %d live, %d tokens)" % (
                self._sessions, len(self._live), self._tokens)
