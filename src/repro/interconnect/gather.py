"""In-fabric parameter all-gather for ZeRO-3-style sharded training.

ZeRO stage 3 partitions the *parameters themselves* across data-parallel
ranks: before a layer's compute every rank must temporarily materialize
the full layer by collecting the other ranks' shards.  Over a switched
CXL fabric (:class:`~repro.interconnect.fabric.CXLFabric`) that
collective does not need a software ring: every rank pushes its shard
through its port uplink into the switch, and the switch — which already
sees all ``R`` shards — multicasts the *peer* shards back down each
subscriber's port link.  This module models that stage as
:class:`FabricGather`, the mirror image of
:class:`~repro.interconnect.aggregation.FabricReducer`: it shares the
reducer's rank uplink and per-cell barrier, then **multicasts** instead
of reducing.  Each rank's port link carries the ``R - 1`` peer cells it
lacks back down (the rank's own shard never re-crosses its link), so
per-rank downlink traffic per gather is ``shard_bytes * (R - 1)`` — the
all-gather volume — while per-rank *uplink* traffic is only the ``1/R``
shard.  A single-rank "gather" is a no-op that completes immediately:
the rank already holds every shard.
"""

from __future__ import annotations

from repro.interconnect.fabric import _check_amount, _RankUnit, _stage
from repro.sim import SimEvent

__all__ = ["FabricGather"]


class FabricGather(_RankUnit):
    """Discrete-event in-fabric all-gather stage on a CXL fabric.

    One gather unit serves one tenant's ZeRO-3 job on a
    :class:`~repro.interconnect.fabric.CXLFabric`: ``ranks`` names the
    fabric port each parameter shard enters (and leaves) through.
    Several ranks may share a port — GPUs behind one node attachment —
    in which case their cells serialize on it.

    :meth:`gather` runs one all-gather of ``shard_bytes`` per rank; the
    returned event fires when the last peer cell has been delivered down
    the last rank's port link.  The uplink and the per-cell rank barrier
    are the skeleton it shares with
    :class:`~repro.interconnect.aggregation.FabricReducer`.
    """

    kind = "gather"
    feeds_pool = False

    def gather(self, shard_bytes: float, extra_delay: float = 0.0) -> SimEvent:
        """All-gather one ``shard_bytes`` shard from every rank.

        Returns the delivery event (fires when every rank holds all
        ``n_ranks`` shards).  ``extra_delay`` is charged once per rank
        ahead of its first uplink cell (DMA setup / encode front-end).
        A one-rank gather completes at the current sim time with no
        traffic.
        """
        _check_amount("shard_bytes", shard_bytes)
        _check_amount("extra_delay", extra_delay)
        if self.n_ranks == 1 or shard_bytes == 0.0:
            done = self.fabric.sim.event()
            done.succeed(shard_bytes)
            return done
        # One downlink delivery per (cell, rank).
        return self._collect(shard_bytes, extra_delay, per_cell=self.n_ranks)

    def _release(self, cell: float, delivered) -> None:
        """Ship each rank's missing ``R - 1`` peer cells down its port."""
        fabric = self.fabric
        sim = fabric.sim
        R = self.n_ranks
        self._account_out(cell * (R - 1) * R)
        for port in self.ranks:
            down = cell * (R - 1)
            fabric.stats._account_bytes(port, self.tenant, down)
            # Egress head-of-line blocking on a busy port downlink is
            # charged as switch-side queueing (the cells are parked in
            # the switch until the port wire frees up).
            t_down = _stage(
                fabric,
                fabric.port_links[port],
                sim.now,
                down,
                tenant=self.tenant,
                port=port,
                wait_stats=fabric.stats.tenant_switch_wait,
                span_name="gather-egress-queue",
                track=fabric.port_links[port].name,
            )
            # Each rank's downlink delivery counts once toward `done`,
            # regardless of how the peer cells pack onto the wire.
            sim.at(t_down).callbacks.append(delivered)
