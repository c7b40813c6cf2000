"""Partitioned site-phase execution: inline shards.

:class:`ShardedScanEngine` partitions the ordered site phase of a weekly
run into ``shards`` groups and executes each group independently,
in-process, one after another.  Attribution, tracebox and analysis stay
central: shards only ever produce per-site scan records.

Determinism is the whole design.  Every site event draws from an RNG
substream seeded by (world seed, week, vantage, family, site, kind) —
:meth:`ScanEngine.event_stream` — and runs against a private virtual
clock, so no exchange can observe another's draws or timing.  As a
consequence the merged output is *identical* for any shard count and
any execution order, and equals the serial
:class:`~repro.pipeline.engine.ScanEngine` run in ``site_rng="per-site"``
mode (golden-tested in ``tests/test_pipeline_sharding.py``).  Relative
to the default ``"shared"`` mode the per-site substreams realise a
different (equally valid) sequence of stochastic loss draws;
epoch-level behaviour — what the paper's tables and figures aggregate
— is the same.

The per-site substreams are also what makes a campaign checkpointable:
a week's ``(site, kind, result, elapsed)`` entries replay through the
same validated central merge (:meth:`ScanEngine._apply_replay`) that
joins the shards, raising the typed
:class:`~repro.pipeline.engine.ShardResultMissing` on a coverage gap
instead of a bare ``KeyError``.
"""

from __future__ import annotations

from typing import Sequence

from repro.pipeline.engine import (
    QUIC_EVENT,
    TCP_EVENT,
    ScanEngine,
    SiteEvent,
)
from repro.scanner.quic_scan import QuicScanConfig
from repro.scanner.tcp_scan import TcpScanConfig
from repro.util.weeks import Week


class ShardedScanEngine(ScanEngine):
    """A :class:`ScanEngine` whose site phase runs in partitioned shards.

    Drop-in for ``ScanEngine``: ``run_week`` / ``site_events`` keep
    their signatures, and scan plans are shared with the world's serial
    engine so campaigns pay planning once no matter which engine
    executes them.  ``site_rng`` defaults to ``"per-site"``
    (:attr:`default_site_rng`) — shared-stream semantics cannot be
    partitioned.  Shards execute in-process, one after another.
    """

    default_site_rng = "per-site"

    def __init__(
        self,
        world,
        *,
        shards: int,
        shard_order: Sequence[int] | None = None,
        exchange_cache: bool = True,
    ):
        super().__init__(world, exchange_cache=exchange_cache)
        self.shards = shards
        if shards < 1:
            raise ValueError("shards must be >= 1")
        #: Test seam: the order shards are *executed* in.  Results are
        #: order-independent; the golden tests permute this.
        self.shard_order = shard_order
        self._plans = world.scan_engine()._plans  # share plan cache

    # ------------------------------------------------------------------
    def partition(self, events: list[SiteEvent]) -> list[list[SiteEvent]]:
        """Stable partition of the site phase: shard = site_index mod N.

        Keeping a site's QUIC and TCP events on one shard preserves any
        per-site locality (server construction, policy memos) a shard
        builds up, and the assignment never depends on event order.
        """
        groups: list[list[SiteEvent]] = [[] for _ in range(self.shards)]
        for event in events:
            groups[event.site_index % self.shards].append(event)
        return groups

    def _shard_of(self, site_index: int) -> int:
        return site_index % self.shards

    def _execute_site_phase(
        self,
        events,
        week,
        vantage_id,
        ip_version,
        quic_config,
        tcp_config,
        records,
        site_rng,
        entry_sink=None,
        replay=None,
        plugin_rows=None,
    ) -> None:
        if site_rng == "shared":
            raise ValueError(
                "ShardedScanEngine cannot execute shared-stream site phases; "
                "use site_rng='per-site' (the default here) or the serial "
                "ScanEngine"
            )
        if replay is not None:
            self._apply_replay(
                events, replay, records, entry_sink=entry_sink,
                shard_of=self._shard_of, plugin_rows=plugin_rows,
            )
            return
        shards = self.partition(events)
        order = self.shard_order if self.shard_order is not None else range(len(shards))
        merged: dict[tuple[int, int], tuple[object, float]] = {}
        telemetry = self.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        for shard_index in order:
            span = (
                tracer.begin(
                    "shard", "shard",
                    shard=shard_index, week=str(week),
                    events=len(shards[shard_index]),
                )
                if tracer is not None
                else None
            )
            for site_index, kind, result, elapsed in _execute_entries(
                self, shards[shard_index], week, vantage_id, ip_version,
                quic_config, tcp_config,
            ):
                merged[(site_index, kind)] = (result, elapsed)
            if tracer is not None:
                tracer.end(span)
        # Merge centrally, in the serial event order: records fill in the
        # same sequence and the clock sums the same floats in the same
        # order as the serial per-site engine.  Coverage is validated
        # first — a gap raises ShardResultMissing naming the absent
        # (site, kind) pairs and their shard, and leaves records intact.
        self._apply_replay(
            events, merged, records, entry_sink=entry_sink,
            source=f"sharded merge ({self.shards} shards)",
            shard_of=self._shard_of, plugin_rows=plugin_rows,
        )


def _execute_entries(
    engine: ScanEngine,
    events: list[SiteEvent],
    week: Week,
    vantage_id: str,
    ip_version: int,
    quic_config: QuicScanConfig,
    tcp_config: TcpScanConfig,
) -> list[tuple[int, int, object, float]]:
    """Run events on their per-site substreams; returns checkpoint entries.

    The one definition of shard execution, built on the same
    :meth:`ScanEngine._run_event_per_site` as the serial per-site mode,
    which is what keeps every partition bit-identical to it.
    """
    out: list[tuple[int, int, object, float]] = []
    records: dict = {}
    plugin_rows: dict[tuple[int, int], tuple] = {}
    for event in events:
        elapsed = engine._run_event_per_site(
            event, week, vantage_id, ip_version, quic_config, tcp_config,
            records, plugin_rows=plugin_rows,
        )
        if event.kind == QUIC_EVENT:
            result = records[event.site_index].quic
        elif event.kind == TCP_EVENT:
            result = records[event.site_index].tcp
        else:
            result = plugin_rows[(event.site_index, event.kind)]
        out.append((event.site_index, event.kind, result, elapsed))
    return out
