"""Opt-in stderr heartbeat for long campaigns (``--progress``).

One line per completed week: weeks done / total, cumulative domain
throughput and exchange-cache hit rate.
Writes to *stderr* only — report output on stdout stays clean — and is
throttled so scale-1M campaigns don't drown the terminal.
"""

from __future__ import annotations

import sys
from time import perf_counter

from repro.obs.metrics import safe_ratio

__all__ = ["CampaignProgress"]


class CampaignProgress:
    """Per-week heartbeat writer.

    ``min_interval`` throttles output: intermediate weeks inside the
    window are skipped, but the final week always prints so the last
    line is the campaign total.
    """

    __slots__ = ("total_weeks", "stream", "min_interval", "_started", "_last_emit", "_weeks_done")

    def __init__(self, total_weeks: int, *, stream=None, min_interval: float = 0.0):
        self.total_weeks = total_weeks
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._started = perf_counter()
        self._last_emit = 0.0
        self._weeks_done = 0

    def week_done(
        self,
        *,
        domains: int,
        cache_hits: int,
        cache_misses: int,
    ) -> None:
        self._weeks_done += 1
        now = perf_counter()
        is_last = self._weeks_done >= self.total_weeks
        if not is_last and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        elapsed = now - self._started
        rate = safe_ratio(domains, elapsed)
        hit_rate = safe_ratio(cache_hits, cache_hits + cache_misses)
        print(
            f"[progress] week {self._weeks_done}/{self.total_weeks}"
            f"  {rate:,.0f} dom/s  cache {hit_rate:.2f}",
            file=self.stream,
            flush=True,
        )
