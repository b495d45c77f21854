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
:class:`~repro.interconnect.aggregation.FabricReducer`:

* **uplink** — each rank streams its ``shard_bytes`` cells through its
  port link and the shared switch stage (queueing accounted per tenant);
* **barrier** — the gather unit holds each cell until the matching cell
  of every rank has arrived, emitting ``gather-wait`` spans for early
  arrivals;
* **multicast** — each rank's port link then carries the ``R - 1`` peer
  cells it lacks back down (the rank's own shard never re-crosses its
  link), so per-rank downlink traffic per gather is
  ``shard_bytes * (R - 1)`` — the all-gather volume — while per-rank
  *uplink* traffic is only the ``1/R`` shard.

Byte and wait accounting threads through
:class:`~repro.interconnect.fabric.FabricStats` (``tenant_gather_*``)
and ``sim.metrics`` (``<fabric>.gather.in/out_bytes``).  A single-rank
"gather" is a no-op that completes immediately: the rank already holds
every shard.
"""

from __future__ import annotations

from repro.interconnect.fabric import (
    CXLFabric,
    _cell_sizes,
    _check_amount,
    _stage,
)
from repro.sim import SimEvent

__all__ = ["FabricGather"]


class FabricGather:
    """Discrete-event in-fabric all-gather stage on a :class:`CXLFabric`.

    One gather unit serves one tenant's ZeRO-3 job: ``ranks`` names the
    fabric port each parameter shard enters (and leaves) through.
    Several ranks may share a port — GPUs behind one node attachment —
    in which case their cells serialize on it.

    :meth:`gather` runs one all-gather of ``shard_bytes`` per rank; the
    returned event fires when the last peer cell has been delivered down
    the last rank's port link.
    """

    def __init__(
        self,
        fabric: CXLFabric,
        ranks,
        *,
        tenant: int = 0,
        name: str | None = None,
    ):
        self.fabric = fabric
        self.ranks = [int(r) for r in ranks]
        if not self.ranks:
            raise ValueError("FabricGather needs at least one rank")
        for r in self.ranks:
            if not 0 <= r < fabric.params.n_ports:
                raise ValueError(
                    f"rank port {r} out of range (fabric has "
                    f"{fabric.params.n_ports} ports)"
                )
        if not 0 <= tenant < fabric.params.n_tenants:
            raise ValueError(
                f"tenant {tenant} out of range (fabric has "
                f"{fabric.params.n_tenants} tenants)"
            )
        self.tenant = tenant
        self.name = name or f"{fabric.name}-gather-t{tenant}"
        #: Per-rank shard bytes this unit consumed through the uplinks.
        self.bytes_in = 0.0
        #: Replicated peer-shard bytes multicast back down the ports.
        self.bytes_out = 0.0
        fabric._attach_unit(self.name, feeds_pool=False)

    @property
    def n_ranks(self) -> int:
        """Shards collected per gather."""
        return len(self.ranks)

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
        fabric = self.fabric
        sim = fabric.sim
        stats = fabric.stats
        R = self.n_ranks

        done = sim.event()
        if R == 1 or shard_bytes == 0.0:
            done.succeed(shard_bytes)
            return done

        in_bytes = shard_bytes * R
        self.bytes_in += in_bytes
        stats.tenant_gather_in_bytes[self.tenant] = (
            stats.tenant_gather_in_bytes.get(self.tenant, 0.0) + in_bytes
        )
        for port in self.ranks:
            stats._account_bytes(port, self.tenant, shard_bytes)
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.gather.in_bytes").inc(in_bytes)
            mx.counter(f"{fabric.name}.tenant{self.tenant}.bytes").inc(
                in_bytes
            )

        cell_sizes = _cell_sizes(shard_bytes, fabric.params.cells_per_transfer)
        # One downlink delivery per (cell, rank).
        remaining = len(cell_sizes) * R

        def down_done(_ev: SimEvent) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                done.succeed(shard_bytes)

        for i, cell in enumerate(cell_sizes):
            state = {"arrived": 0, "first": None}
            for port in self.ranks:
                port_ev = fabric.port_links[port].transmit(
                    cell, extra_delay=extra_delay if i == 0 else 0.0
                )
                port_ev.callbacks.append(
                    lambda _ev, c=cell, p=port, s=state: self._enter_switch(
                        c, p, s, down_done
                    )
                )
        return done

    # -- stage hand-offs (event callbacks at stage-exit times) -------------
    def _enter_switch(self, cell: float, port: int, state, down_done) -> None:
        fabric = self.fabric
        sim = fabric.sim
        t_switch = _stage(
            fabric,
            fabric.switch_link,
            sim.now,
            cell,
            tenant=self.tenant,
            port=port,
            wait_stats=fabric.stats.tenant_switch_wait,
            span_name="switch-queue",
            track=fabric.switch_link.name,
        )
        sim.at(t_switch).callbacks.append(
            lambda _ev: self._arrive_at_gather(cell, port, state, down_done)
        )

    def _arrive_at_gather(
        self, cell: float, port: int, state, down_done
    ) -> None:
        fabric = self.fabric
        sim = fabric.sim
        now = sim.now
        if state["first"] is None:
            state["first"] = now
        state["arrived"] += 1
        if state["arrived"] < self.n_ranks:
            return
        # Last rank's cell is in: early arrivals waited at the barrier.
        wait = now - state["first"]
        if wait > 0.0:
            waits = fabric.stats.tenant_gather_wait
            waits[self.tenant] = waits.get(self.tenant, 0.0) + wait
            if sim.tracer.enabled:
                sim.tracer.add_span(
                    state["first"],
                    now,
                    "gather-wait",
                    "fabric",
                    track=self.name,
                    tenant=self.tenant,
                    bytes=cell,
                )
        self._multicast(cell, down_done)

    def _multicast(self, cell: float, down_done) -> None:
        """Ship each rank's missing ``R - 1`` peer cells down its port."""
        fabric = self.fabric
        sim = fabric.sim
        stats = fabric.stats
        R = self.n_ranks
        out = cell * (R - 1) * R
        self.bytes_out += out
        stats.tenant_gather_out_bytes[self.tenant] = (
            stats.tenant_gather_out_bytes.get(self.tenant, 0.0) + out
        )
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.gather.out_bytes").inc(out)
        for port in self.ranks:
            down = cell * (R - 1)
            stats._account_bytes(port, self.tenant, down)
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
            sim.at(t_down).callbacks.append(down_done)
