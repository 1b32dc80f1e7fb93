"""Live service metrics: counters, gauges, and latency histograms.

Everything the ``/metrics`` endpoint reports lives here. The snapshot
is a plain JSON-serialisable dict with **sorted, stable keys** so it is
diffable in tests and pollable by dashboards; cumulative counters only
ever increase, gauges (queue depth, in-flight) are sampled at snapshot
time from the server.

Histograms use fixed log-spaced latency buckets (seconds); each bucket
counts observations ``<=`` its upper bound, cumulative-style, plus a
total count and sum so callers can derive rates and means.
"""

from __future__ import annotations

import time
from collections import Counter

#: Upper bounds (seconds) of the latency buckets; +inf is implicit.
LATENCY_BUCKETS = (0.01, 0.05, 0.25, 1.0, 5.0, 15.0, 60.0, 300.0)


class LatencyHistogram:
    __slots__ = ("counts", "total", "sum")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKETS) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, seconds: float) -> None:
        self.total += 1
        self.sum += seconds
        for i, bound in enumerate(LATENCY_BUCKETS):
            if seconds <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def to_dict(self) -> dict:
        buckets = {
            f"le_{bound:g}s": count
            for bound, count in zip(LATENCY_BUCKETS, self.counts)
        }
        buckets["le_inf"] = self.counts[-1]
        return {
            "count": self.total,
            "sum_s": round(self.sum, 6),
            "buckets": buckets,
        }


class ServiceMetrics:
    """Cumulative counters for one server process."""

    def __init__(self) -> None:
        self.started_at = time.time()
        self.counters: Counter[str] = Counter()
        # job kind -> execution latency (start -> finish)
        self.exec_latency: dict[str, LatencyHistogram] = {}
        # queue wait (submit -> start), all kinds pooled
        self.queue_wait = LatencyHistogram()

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def observe_exec(self, kind: str, seconds: float) -> None:
        hist = self.exec_latency.get(kind)
        if hist is None:
            hist = self.exec_latency[kind] = LatencyHistogram()
        hist.observe(seconds)

    @property
    def dedup_hits(self) -> int:
        return (
            self.counters["deduped_in_flight"] + self.counters["deduped_cached"]
        )

    def snapshot(self, queue_depth: int, in_flight: int, workers: int) -> dict:
        """The ``/metrics`` payload."""
        submitted = self.counters["submitted"]
        hits = self.dedup_hits
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "queue_depth": queue_depth,
            "in_flight": in_flight,
            "workers": workers,
            "worker_restarts": self.counters["worker_restarts"],
            "stale_endpoint_replaced": self.counters["stale_endpoint_replaced"],
            "replay_skipped": self.counters["replay_skipped"],
            "jobs": {
                "submitted": submitted,
                "accepted": self.counters["accepted"],
                "rejected_backpressure": self.counters["rejected_backpressure"],
                "deduped_in_flight": self.counters["deduped_in_flight"],
                "deduped_cached": self.counters["deduped_cached"],
                "readopted": self.counters["readopted"],
                "completed": self.counters["completed"],
                "failed": self.counters["failed"],
                "cancelled": self.counters["cancelled"],
                "timeout": self.counters["timeout"],
                "retries": self.counters["retries"],
            },
            "dedup": {
                "hits": hits,
                "hit_ratio": round(hits / submitted, 4) if submitted else 0.0,
            },
            "latency": {
                "queue_wait": self.queue_wait.to_dict(),
                "exec": {
                    kind: hist.to_dict()
                    for kind, hist in sorted(self.exec_latency.items())
                },
            },
        }
