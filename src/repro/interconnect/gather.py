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

The uplink cells ride the fabric's arrival merge.  The downlinks share
the port wires with uplinks booked at call time, so they are booked at
barrier time, in event order: a gather call pushes two events per cell
(its last rank cell's port exit, then its barrier) and one delivery for
the whole call.
"""

from __future__ import annotations

from repro.interconnect.fabric import (
    _INF,
    _check_amount,
    _queue_span,
    _RankUnit,
    _tail,
)
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
        sim = self.fabric.sim
        done = sim.event()
        if self.n_ranks == 1 or shard_bytes == 0.0:
            done.succeed(shard_bytes)
            return done
        col, trains = self._collect(shard_bytes, extra_delay)
        fabric = self.fabric

        def uplinked(i: int) -> None:
            # Cell ``i``'s last rank cell left its port: time its barrier.
            t_port = sim.now
            fabric._drain(t_port, col.call, col.reg)
            fabric._at_barrier(col.bar[i], lambda: barrier(i, t_port))

        def barrier(i: int, t_port: float) -> None:
            last = self._multicast(col.cell, t_port)
            if i == col.last:
                # The last downlink of the last cell is the last delivery.
                _tail(sim, (last,), done, shard_bytes)

        for i, t in enumerate(map(max, zip(*(train.times for train in trains)))):
            sim.at(t).callbacks.append(lambda _ev, i=i: uplinked(i))
        return done

    def _multicast(self, cell: float, t_port: float) -> float:
        """Ship each rank's missing ``R - 1`` peer cells down its port.

        Runs at the barrier of a cell whose last rank cell left its port
        at ``t_port``; returns the last downlink's exit.
        """
        fabric = self.fabric
        now = fabric.sim.now
        # Port cells whose per-cell events precede the barrier's queue at
        # the switch first, so their waits precede the egress waits.
        fabric._drain(now, t_port, _INF)
        R = self.n_ranks
        self._account_out(cell * (R - 1) * R)
        down = cell * (R - 1)
        last = now
        tenant = self.tenant
        waits = fabric.stats.tenant_switch_wait
        for port in self.ranks:
            fabric.stats._account_bytes(port, tenant, down)
            wire = fabric.port_links[port]
            wait = wire.free_at - now
            if wait > 0.0:
                # Egress head-of-line blocking on a busy port downlink is
                # charged as switch-side queueing (the cells are parked
                # in the switch until the port wire frees up).
                waits[tenant] = waits.get(tenant, 0.0) + wait
                _queue_span(
                    fabric.sim, now, wait, "gather-egress-queue", wire.name,
                    tenant, port, down,
                )
            # The float ``transmit`` at ``now`` would fire its delivery at.
            last = max(last, now + (wire.occupy(now, down) - now))
        return last
