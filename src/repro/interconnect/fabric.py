"""Multi-host CXL memory-pool fabric: port links, switch, partitioned pool.

The paper evaluates one host with one CXL attachment, but its motivation
(Section II-A) is the large-scale data-parallel regime — many trainer
nodes contending for shared disaggregated memory.  This module models
that cluster topology in the style of CXL-ClusterSim / CXLRAMSim
(PAPERS.md): ``N`` host ports, each a private :class:`~repro.sim.SerialLink`,
feed a shared switch stage with its own serialization, which feeds a
memory pool whose bandwidth is partitioned across tenants.

Topology of one transfer (store-and-forward per stage, pipelined in
cells so a large transfer approaches the fluid cut-through limit)::

    host i ──port link i──▶ [ switch ] ──▶ [ pool partition(tenant) ]

Pool partitioning (:class:`PartitionPolicy`):

``SHARED``
    One FCFS pool link at full pool bandwidth — tenants contend freely
    (no isolation; a greedy tenant can starve others).
``FAIR_SHARE``
    The pool bandwidth is statically divided ``1/M`` per tenant — full
    isolation, but idle tenants' shares go unused.
``WEIGHTED``
    Static QoS split proportional to ``tenant_weights``.

Every stage is a real :class:`~repro.sim.SerialLink`, so per-link wire
spans land in Chrome traces for free; the fabric additionally emits
``switch-queue`` / ``pool-queue`` spans (category ``fabric``) whenever a
cell waits behind other tenants' traffic, and threads per-port /
per-tenant byte and wait accounting through :class:`FabricStats` and
``sim.metrics``.
"""

from __future__ import annotations

import enum
import heapq
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields

from repro.interconnect.cxl import CXLLinkModel
from repro.sim import SerialLink, SimEvent, Simulator
from repro.sim.resources import _check_amount
from repro.utils.checks import check_bandwidth, check_int
from repro.utils.units import NS, Bandwidth

__all__ = [
    "PartitionPolicy",
    "FabricParams",
    "FabricStats",
    "FabricPort",
    "CXLFabric",
]

#: One switch hop (arbitration + crossbar traversal) — a CXL 2.0 switch
#: adds on the order of 100-250 ns per direction.
DEFAULT_SWITCH_LATENCY = 250 * NS

#: Fixed access latency of the pooled memory device behind the switch.
DEFAULT_POOL_LATENCY = 150 * NS

#: Cells a transfer is split into for store-and-forward pipelining.
#: Residual pipelining error vs the fluid cut-through limit is about
#: ``(n_stages - 1) / cells`` of one stage traverse time.
DEFAULT_CELLS_PER_TRANSFER = 32

#: Transfers at or below this size cross the fabric as a single cell
#: (splitting a few hundred bytes would only multiply event count).
MIN_CELL_BYTES = 4096


_INF = float("inf")


def _check_index(what: str, value, n: int, noun: str) -> int:
    """``value`` as an index below ``n``; ``ValueError`` if it is not one.

    Integer types of any kind (numpy's included) pass; a float is
    rejected rather than truncated to some other port or tenant, and a
    ``bool`` rather than read as port or tenant 0 or 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} {value!r} is not an integer index")
    if not 0 <= value < n:
        raise ValueError(f"{what} {value} out of range (fabric has {n} {noun})")
    return int(value)


def _cell_sizes(n_bytes: float, cells_per_transfer: int) -> tuple[int, float]:
    """``(n_cells, cell)``: the equal pipelining cells of one transfer."""
    if n_bytes <= MIN_CELL_BYTES or cells_per_transfer == 1:
        return 1, n_bytes
    return cells_per_transfer, n_bytes / cells_per_transfer


def _queue_span(
    sim: Simulator,
    t: float,
    wait: float,
    span_name: str,
    track: str,
    tenant: int,
    port: int,
    cell: float,
) -> None:
    """Trace a cell that arrived at ``t`` and queued a positive ``wait``.

    Emitted, when tracing, as a ``span_name`` span in category
    ``fabric``; each caller adds the wait to its stats itself.
    """
    tracer = sim.tracer
    if tracer.enabled:
        tracer.add_span(
            t,
            t + wait,
            span_name,
            "fabric",
            track=track,
            tenant=tenant,
            port=port,
            bytes=cell,
        )


def _tail(sim: Simulator, exits, done: SimEvent, value: float) -> None:
    """Trigger ``done`` after a chain of events at the times in ``exits``.

    Each event is pushed when the one before it fires, and ``done`` when
    the last one fires: the pushes an all-event pipeline makes for a
    transfer's last cell, so ``done`` keeps its place in ``(time, seq)``
    order even when the stages themselves were booked ahead.
    """
    pending = iter(exits)

    def hop(_ev: SimEvent | None = None) -> None:
        t = next(pending, None)
        if t is None:
            done.succeed(value)
        else:
            sim.at(t).callbacks.append(hop)

    hop()


class PartitionPolicy(enum.Enum):
    """How pool bandwidth is divided across tenants."""

    SHARED = "shared"
    FAIR_SHARE = "fair"
    WEIGHTED = "weighted"

    @classmethod
    def parse(cls, value: "PartitionPolicy | str") -> "PartitionPolicy":
        """Accept an enum member or its string value (CLI/registry use)."""
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise ValueError(
            f"unknown partition policy {value!r}; "
            f"known: {[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class FabricParams:
    """Static description of one multi-host fabric.

    Parameters
    ----------
    n_ports
        Host ports (one per trainer node).
    n_tenants
        Concurrent training jobs sharing the pool.  Tenants map onto
        ports by the caller (round-robin in
        :class:`repro.offload.cluster.ClusterEngine`); several tenants
        may share one port.
    port_bandwidth
        Per-port link bandwidth.  Defaults to the paper's CXL effective
        bandwidth (94.3% of PCIe 3.0 x16).
    port_latency
        Propagation latency of one port link.
    switch_bandwidth
        Aggregate switch serialization bandwidth.  ``None`` (default)
        sizes a non-blocking switch: ``n_ports x port_bandwidth``.
    switch_latency
        Per-cell switch hop latency.
    pool_bandwidth
        Memory-pool device bandwidth shared by all tenants.  ``None``
        (default) provisions ``2 x port_bandwidth`` — bandwidth-rich for
        one node, contended once aggregate demand exceeds it.
    pool_latency
        Pool device access latency.
    policy
        Pool partitioning mode.
    tenant_weights
        QoS weights, required (length ``n_tenants``) for ``WEIGHTED``.
    cells_per_transfer
        Pipelining granularity of :meth:`FabricPort.transmit`.
    """

    n_ports: int = 2
    n_tenants: int = 1
    port_bandwidth: Bandwidth = field(
        default_factory=lambda: CXLLinkModel.paper_default().effective_bandwidth
    )
    port_latency: float = CXLLinkModel.paper_default().latency
    switch_bandwidth: Bandwidth | None = None
    switch_latency: float = DEFAULT_SWITCH_LATENCY
    pool_bandwidth: Bandwidth | None = None
    pool_latency: float = DEFAULT_POOL_LATENCY
    policy: PartitionPolicy = PartitionPolicy.FAIR_SHARE
    tenant_weights: tuple[float, ...] | None = None
    cells_per_transfer: int = DEFAULT_CELLS_PER_TRANSFER

    def __post_init__(self) -> None:
        for count in ("n_ports", "n_tenants", "cells_per_transfer"):
            value = check_int(count, getattr(self, count), 1)
            object.__setattr__(self, count, value)  # NumPy ints as int
        for bw in ("port_bandwidth", "switch_bandwidth", "pool_bandwidth"):
            value = getattr(self, bw)
            if value is None and bw != "port_bandwidth":
                continue  # sized from the ports (``resolved_*``)
            check_bandwidth(bw, value)
        for lat in ("port_latency", "switch_latency", "pool_latency"):
            _check_amount(lat, getattr(self, lat))
        object.__setattr__(self, "policy", PartitionPolicy.parse(self.policy))
        if self.policy is PartitionPolicy.WEIGHTED:
            w = self.tenant_weights
            if w is None or len(w) != self.n_tenants:
                raise ValueError(
                    "WEIGHTED policy needs tenant_weights of length n_tenants"
                )
            if not all(0.0 < x < _INF for x in w):
                raise ValueError(
                    f"tenant_weights must be finite and positive, got {w}"
                )

    @property
    def resolved_switch_bandwidth(self) -> Bandwidth:
        """Switch bandwidth with the non-blocking default applied."""
        if self.switch_bandwidth is not None:
            return self.switch_bandwidth
        return self.port_bandwidth.scaled(self.n_ports)

    @property
    def resolved_pool_bandwidth(self) -> Bandwidth:
        """Pool bandwidth with the 2x-port default applied."""
        if self.pool_bandwidth is not None:
            return self.pool_bandwidth
        return self.port_bandwidth.scaled(2.0)

    def tenant_share(self, tenant: int) -> float:
        """Fraction of pool bandwidth guaranteed to ``tenant``."""
        tenant = _check_index("tenant", tenant, self.n_tenants, "tenants")
        if self.policy is PartitionPolicy.SHARED:
            return 1.0
        if self.policy is PartitionPolicy.FAIR_SHARE:
            return 1.0 / self.n_tenants
        weights = self.tenant_weights or ()
        return weights[tenant] / sum(weights)


@dataclass
class FabricStats:
    """Per-port / per-tenant traffic and contention accounting.

    ``*_wait`` totals are queueing seconds accumulated by cells that
    found the stage wire busy on arrival — the fabric's contention
    breakdown (zero on an unloaded fabric).

    The ``reduce_*`` fields account the in-fabric aggregation stage
    (:class:`repro.interconnect.aggregation.FabricReducer`): per-rank
    encoded bytes entering the reducer, reduced bytes leaving it across
    the pool boundary, and seconds rank streams spent waiting for their
    peers' matching cells to arrive.  All stay zero when no reducer is
    attached.

    The ``gather_*`` fields account the in-fabric all-gather stage
    (:class:`repro.interconnect.gather.FabricGather`): per-rank shard
    bytes entering the gather unit through the port uplinks, replicated
    peer-shard bytes leaving it down the port links, and seconds shard
    streams spent waiting at the per-cell rank barrier.  All stay zero
    when no gather unit is attached.
    """

    port_bytes: dict[int, float] = field(default_factory=dict)
    tenant_bytes: dict[int, float] = field(default_factory=dict)
    tenant_switch_wait: dict[int, float] = field(default_factory=dict)
    tenant_pool_wait: dict[int, float] = field(default_factory=dict)
    tenant_reduce_in_bytes: dict[int, float] = field(default_factory=dict)
    tenant_reduce_out_bytes: dict[int, float] = field(default_factory=dict)
    tenant_reduce_wait: dict[int, float] = field(default_factory=dict)
    tenant_gather_in_bytes: dict[int, float] = field(default_factory=dict)
    tenant_gather_out_bytes: dict[int, float] = field(default_factory=dict)
    tenant_gather_wait: dict[int, float] = field(default_factory=dict)

    def _account_bytes(self, port: int, tenant: int, n_bytes: float) -> None:
        self.port_bytes[port] = self.port_bytes.get(port, 0.0) + n_bytes
        self.tenant_bytes[tenant] = self.tenant_bytes.get(tenant, 0.0) + n_bytes

    @property
    def total_bytes(self) -> float:
        """All payload bytes that entered the fabric."""
        return sum(self.tenant_bytes.values())

    @property
    def switch_wait(self) -> float:
        """Total switch queueing seconds across tenants."""
        return sum(self.tenant_switch_wait.values())

    @property
    def pool_wait(self) -> float:
        """Total pool queueing seconds across tenants."""
        return sum(self.tenant_pool_wait.values())

    @property
    def reduce_in_bytes(self) -> float:
        """Per-rank encoded bytes that entered the reduce stage."""
        return sum(self.tenant_reduce_in_bytes.values())

    @property
    def reduce_out_bytes(self) -> float:
        """Reduced bytes that crossed the pool boundary."""
        return sum(self.tenant_reduce_out_bytes.values())

    @property
    def reduce_wait(self) -> float:
        """Seconds rank streams waited for peer cells at the reducer."""
        return sum(self.tenant_reduce_wait.values())

    @property
    def gather_in_bytes(self) -> float:
        """Per-rank shard bytes that entered the gather stage."""
        return sum(self.tenant_gather_in_bytes.values())

    @property
    def gather_out_bytes(self) -> float:
        """Replicated peer-shard bytes multicast back down the ports."""
        return sum(self.tenant_gather_out_bytes.values())

    @property
    def gather_wait(self) -> float:
        """Seconds shard streams waited for peer cells at the gather."""
        return sum(self.tenant_gather_wait.values())

    def snapshot(self) -> dict:
        """JSON-ready copy (row material for experiments)."""
        names = [f.name for f in fields(self)]
        snap = {
            name: {str(k): v for k, v in sorted(getattr(self, name).items())}
            for name in names
        }
        # Each field after ``tenant_bytes`` has a total property named
        # without its ``tenant_`` prefix; ``total_bytes`` comes last.
        for name in names[2:]:
            total = name.removeprefix("tenant_")
            snap[total] = getattr(self, total)
        snap["total_bytes"] = self.total_bytes
        return snap


class FabricPort:
    """One tenant's attachment to a fabric port.

    Implements the :class:`~repro.sim.SerialLink`-shaped surface the
    offload engines and :class:`~repro.interconnect.cxl.CXLController`
    drive — ``transmit()``, ``free_at``, ``bytes_sent``, ``name`` — so a
    private host link can be swapped for a fabric attachment without
    touching engine code.  Several attachments may share the underlying
    port wire (multiple jobs on one node).
    """

    def __init__(self, fabric: "CXLFabric", port_index: int, tenant: int):
        self.fabric = fabric
        self.port_index = port_index
        self.tenant = tenant
        self.name = f"{fabric.name}-p{port_index}-t{tenant}"
        #: Payload bytes this attachment pushed into the fabric.
        self.bytes_sent = 0.0
        self._pool_link = fabric.pool_link_for(tenant)

    @property
    def sim(self) -> Simulator:
        """The simulator the fabric lives in."""
        return self.fabric.sim

    @property
    def _wire(self) -> SerialLink:
        return self.fabric.port_links[self.port_index]

    @property
    def free_at(self) -> float:
        """When the underlying port wire next idles (pipelining hint)."""
        return self._wire.free_at

    def transmit(self, n_bytes: float, extra_delay: float = 0.0) -> SimEvent:
        """Send ``n_bytes`` through port -> switch -> pool.

        Returns the end-to-end delivery event (fires when the last cell
        leaves the pool stage).  ``extra_delay`` is charged once, ahead
        of the first cell (DMA setup / aggregation front-end).

        The whole port train is booked now.  The fabric's arrival merge
        (see :class:`CXLFabric`) books its switch and pool stages from
        one event at the last cell's port exit, and ``done`` fires at
        its all-event place in ``(time, seq)`` order.
        """
        _check_amount("n_bytes", n_bytes)
        _check_amount("extra_delay", extra_delay)
        fabric = self.fabric
        sim = fabric.sim
        self.bytes_sent += n_bytes
        fabric.stats._account_bytes(self.port_index, self.tenant, n_bytes)
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.tenant{self.tenant}.bytes").inc(n_bytes)
            mx.counter(f"{fabric.name}.port{self.port_index}.bytes").inc(n_bytes)

        n_cells, cell = _cell_sizes(n_bytes, fabric.params.cells_per_transfer)
        now = sim.now
        exits = self._wire.burst(now, n_cells, cell, extra_delay)
        train = _Train(
            self.tenant, self.port_index, cell, exits, now, self._pool_link
        )
        fabric._register((train,))
        done = sim.event()

        def settle(_ev: SimEvent) -> None:
            fabric._drain(sim.now, now, train.reg)
            _tail(sim, train.last_exits, done, n_bytes)

        sim.at(exits[-1]).callbacks.append(settle)
        return done


class _Train:
    """One stream of equal cells through one port wire.

    ``times`` are the cells' port exits (= switch arrivals), in cell
    order and non-decreasing, booked by a call at sim time ``call``.  A
    :class:`FabricPort` transfer is one train that goes on to its
    tenant's ``pool`` link.  A unit call is one train per rank, all under
    the call's registration and :class:`_Collect`; cell ``i`` at rank
    position ``pos`` was the call's ``i * stride + pos``-th port cell.
    """

    __slots__ = (
        "tenant", "port_index", "cell", "times", "call", "pool", "collect",
        "pos", "stride", "reg", "next", "last_exits",
    )

    def __init__(
        self,
        tenant: int,
        port_index: int,
        cell: float,
        times: list[float],
        call: float,
        pool: SerialLink | None = None,
        collect: "_Collect | None" = None,
        pos: int = 0,
        stride: int = 1,
    ):
        self.tenant = tenant
        self.port_index = port_index
        self.cell = cell
        self.times = times
        self.call = call
        self.pool = pool
        self.collect = collect
        self.pos = pos
        self.stride = stride
        self.reg = 0
        #: Index of the first cell not yet booked into the switch.
        self.next = 0
        #: The last cell's ``(switch exit, pool exit)`` once booked.
        self.last_exits: tuple[float, ...] = ()


class _Collect:
    """One unit call's per-cell rank barriers.

    ``arrived[i]`` counts the ranks whose cell ``i`` the switch has
    booked, ``first[i]`` is the earliest of their switch exits and
    ``bar[i]`` the barrier once all are in.  A reducer's reduced cells
    enter its tenant's ``pool`` link from no port (``port_index`` -1);
    its last cell's pool-arrival ``key`` and ``(ALU exit, pool exit)``
    are kept for the call's events.
    """

    __slots__ = (
        "unit", "tenant", "port_index", "pool", "cell", "call", "reg",
        "arrived", "first", "bar", "last", "key", "last_exits",
    )

    def __init__(self, unit: "_RankUnit", cell: float, n_cells: int):
        self.unit = unit
        self.tenant = unit.tenant
        self.cell = cell
        self.port_index = -1
        self.pool = unit.fabric.pool_link_for(unit.tenant)
        self.call = unit.fabric.sim.now
        self.reg = 0
        self.arrived = [0] * n_cells
        self.first = [0.0] * n_cells
        self.bar = [0.0] * n_cells
        self.last = n_cells - 1
        self.key: tuple = ()
        self.last_exits: tuple[float, ...] = ()


class CXLFabric:
    """The discrete-event fabric: port wires, switch stage, pool stage.

    Build one per :class:`~repro.sim.Simulator`, then hand out tenant
    attachments with :meth:`port`::

        fabric = CXLFabric(sim, FabricParams(n_ports=4, n_tenants=8))
        link = fabric.port(port_index=3, tenant=6)
        yield link.transmit(chunk_bytes)

    **Booking rule.**  Every stage is booked in the order an all-event
    pipeline -- one event per cell per stage, each stage booked when
    that event fires -- would book it, but only events whose effects are
    visible outside the fabric are pushed.  An event's place in that
    pipeline is its ``(time, seq)``; ``seq`` grows with push order, so
    it is the place of the event that pushed it, back to the call that
    pushed the cell onto its port.

    *Switch.*  A :class:`FabricPort` transfer, or each rank of a reducer
    or gather call, books its port train when called and registers it.
    A cell's switch arrival is its port exit, keyed ``(port exit,
    registration, push number)``: the cell index, or ``i * R + rank
    position`` for a unit call, which pushes its cells cell-major.  A
    *drain* books the switch for every registered cell due by ``now``,
    in key order.  Drains run from the events standing for a port exit
    (a transfer's last cell, a reducer call's and each gather cell's
    last rank cell), from a gather barrier and from a reducer's last ALU
    exit.  A cell registered later exits its port no earlier than its
    call, so never before a drain's time, and on a tie its later
    registration sorts it after everything drained: the switch sees one
    order however the drains fall, and its exits are non-decreasing in
    that order.  While a gather barrier is due at ``now``, a drain takes
    the cells exiting their port at ``now`` only from calls made before
    its own event's place, because the barrier's egress waits add into
    ``tenant_switch_wait`` between those cells' switch waits.

    *Barrier and ALU.*  A unit cell's barrier is the switch exit of its
    last rank cell in switch order, so barriers complete in switch
    order, fabric-wide.  The drain that books that rank cell charges
    ``tenant_<kind>_wait`` (last minus first switch exit) and books a
    reducer's private ALU at the barrier, the floats ``alu.transmit``
    gives there.

    *Pool.*  The pool has two feeds: switch exits of port cells and ALU
    exits of reduced cells.  A port cell's pool arrival is keyed
    ``(switch exit, port exit, call)`` and a reduced cell's ``(ALU exit,
    barrier, port exit of its last rank cell, registration, push
    number)``: the ``(time, seq)`` chains of the per-cell events that
    booked the pool.  Where the third entries tie, that order rests on
    events outside the fabric, and the port cell goes first.  Reduced
    cells wait in a heap.  A drain books each port cell at once, after
    every waiting reduced cell keyed before it, and a reducer's last ALU
    exit books the waiting cells up to its own.  This is safe because a
    reduced cell not yet waiting has its last rank cell after, in switch
    order, every port cell already drained, so its ALU exit is no
    earlier than their switch exits; and a waiting one is booked only
    when a port cell keyed after it is drained or the clock reaches it.

    *Drain.*  A drain merges its due cells into key order and books them
    in two passes, each one loop over the cells with the link state in
    locals, written back once (per run of cells on one pool link).  The
    switch pass books the switch, charges its waits and counts and
    releases barriers, so every release comes before any pool booking,
    as in the event pipeline; the pool pass merges in waiting reduced
    cells and books each cell into its pool link.  Traced or not, every
    cell takes these passes: with a tracer or metrics active each pass
    also records the cell on its link, as ``occupy`` would, and traces
    its wait, so spans and samples are per cell.

    Each surviving event is pushed at the same point, relative to all
    other pushes, as its per-cell counterpart and fires at the same
    float, so ``done`` and every other event keep their ``(time, seq)``
    order: 4 pushes per :class:`FabricPort` transfer, 5 per reducer call
    and ``2 * cells + 2`` per gather call.  Stage exits are ``t +
    (done_at - t)`` from the arrival ``t``, as ``transmit`` gives.  A
    zero-byte cell's exit can round one ulp below that of the cell
    ahead of it on the same wire; the booked stages keep it in FIFO
    order where the per-cell events let it overtake (a test in
    ``tests/test_fabric.py`` pins the case), and the monotone orders
    above assume cells of at least one byte.  Stage state and wait stats
    settle at each drain, so a read after ``sim.run(until=t)`` may lag
    cells still between port and switch.
    """

    def __init__(
        self,
        sim: Simulator,
        params: FabricParams | None = None,
        name: str = "fabric",
    ):
        self.sim = sim
        self.params = params or FabricParams()
        self.name = name
        p = self.params
        self.port_links = [
            SerialLink(
                sim,
                p.port_bandwidth,
                latency=p.port_latency,
                name=f"{name}-port{i}",
            )
            for i in range(p.n_ports)
        ]
        self.switch_link = SerialLink(
            sim,
            p.resolved_switch_bandwidth,
            latency=p.switch_latency,
            name=f"{name}-switch",
        )
        pool_bw = p.resolved_pool_bandwidth
        if p.policy is PartitionPolicy.SHARED:
            self._pool_links = [
                SerialLink(
                    sim, pool_bw, latency=p.pool_latency, name=f"{name}-pool"
                )
            ]
        else:
            self._pool_links = [
                SerialLink(
                    sim,
                    pool_bw.scaled(p.tenant_share(t)),
                    latency=p.pool_latency,
                    name=f"{name}-pool-t{t}",
                )
                for t in range(p.n_tenants)
            ]
        self.stats = FabricStats()
        #: Trains with cells not yet booked into the switch, keyed
        #: ``(next cell's port exit, registration, rank position, train)``.
        self._arrivals: list[tuple[float, int, int, _Train]] = []
        self._registered = 0
        #: Reduced cells not yet booked into the pool, keyed as in the
        #: class docstring, then ``(collect, cell index)``.
        self._pool_pending: list[tuple] = []
        #: Gather barrier events pushed and not yet fired, by time.
        self._barriers_due: dict[float, int] = {}

    def _register(self, trains) -> int:
        """Queue one call's booked port trains; returns its registration."""
        self._registered += 1
        reg = self._registered
        for train in trains:
            train.reg = reg
            heapq.heappush(self._arrivals, (train.times[0], reg, train.pos, train))
        return reg

    def _drain(self, now: float, call_limit: float, reg_limit: float) -> None:
        """Book the switch for every registered cell due by ``now``.

        In key order, as :class:`CXLFabric` describes: one pass books the
        switch, charges its waits and releases barriers, then
        :meth:`_to_pool` books the port cells into the pool.  While a gather
        barrier is due at ``now``, a cell exiting its port exactly at
        ``now`` is due only if its call's ``(call time, registration)``
        is at most ``(call_limit, reg_limit)``, the calls made before the
        draining event's place; nothing else at ``now`` sees what a drain
        books.
        """
        heap = self._arrivals
        runs = []
        bounded = now in self._barriers_due
        while heap and heap[0][0] <= now:
            t, reg, pos, train = heap[0]
            call = train.call
            late = bounded and (
                call > call_limit or (call == call_limit and reg > reg_limit)
            )
            if late and t == now:
                break
            heapq.heappop(heap)
            times = train.times
            lo = train.next
            train.next = hi = (bisect_left if late else bisect_right)(times, now, lo)
            runs.append((reg, pos, train, lo, hi))
            if hi < len(times):
                heapq.heappush(heap, (times[hi], reg, pos, train))
        if not runs:
            return
        runs.sort()  # by (registration, rank position), which is unique
        times, trains = [], []
        tied = units = False
        prev = 0
        for reg, _, train, lo, hi in runs:
            times += train.times[lo:hi]
            trains += [train] * (hi - lo)
            tied = tied or reg == prev
            units = units or train.collect is not None
            prev = reg
        merged = range(len(times))
        if tied:
            # Several ranks of one call: order by push number first.
            span = max(train.stride * len(train.times) for _, _, train, _, _ in runs)
            push = []
            for reg, pos, train, lo, hi in runs:
                base = reg * span + pos
                step = train.stride
                push += range(base + lo * step, base + hi * step, step)
            merged = sorted(merged, key=push.__getitem__)
        # Stable on time alone: ties keep (registration, push number) order.
        merged = sorted(merged, key=times.__getitem__)
        index: list[int] = []
        if units:
            for _, _, _, lo, hi in runs:
                index += range(lo, hi)
        sim = self.sim
        traced = sim.tracer.enabled or sim.metrics.enabled
        switch = self.switch_link
        bps = switch.bandwidth.bytes_per_second
        latency = switch.latency
        free_at, busy, sent = switch.free_at, switch.busy_time, switch.bytes_sent
        waits = self.stats.tenant_switch_wait
        pooled = []  # port cells' (switch exit, port exit, train)
        for k in merged:
            t = times[k]
            train = trains[k]
            cell = train.cell
            # ``occupy(t, cell)`` on the locals, float for float.
            wait = free_at - t
            if wait > 0.0:
                waits[train.tenant] = waits.get(train.tenant, 0.0) + wait
            else:
                free_at = t
            start = free_at
            duration = cell / bps
            free_at += duration
            busy += duration
            sent += cell
            t_switch = t + ((free_at + latency) - t)
            if traced:
                switch._record(t, start, free_at, cell, busy)
                if wait > 0.0:
                    _queue_span(
                        sim, t, wait, "switch-queue", switch.name,
                        train.tenant, train.port_index, cell,
                    )
            col = train.collect
            if col is None:
                pooled.append((t_switch, t, train))
                continue
            i = index[k]
            arrived = col.arrived[i] = col.arrived[i] + 1
            if arrived == 1:
                col.first[i] = t_switch
            if arrived == train.stride:  # every rank's cell ``i`` is in
                col.unit._release(
                    col, i, t_switch, t, i * train.stride + train.pos
                )
        switch._wire_free_at = free_at
        switch.busy_time = busy
        switch.bytes_sent = sent
        switch.transfers += len(times)
        if pooled:
            self._to_pool(pooled)

    def _queue_reduced(
        self, col: _Collect, i: int, t_alu: float, t_bar: float, t_port: float,
        push: int,
    ) -> None:
        """Queue reduced cell ``i`` of ``col`` for the pool at ``t_alu``.

        Its barrier was ``t_bar``, released by the rank cell with port
        exit ``t_port`` and push number ``push``.
        """
        entry = (t_alu, t_bar, t_port, col.reg, push, col, i)
        heapq.heappush(self._pool_pending, entry)
        if i == col.last:
            col.key = entry[:5]

    def _at_barrier(self, t_bar: float, release) -> None:
        """Call ``release()`` from a gather barrier event at ``t_bar``.

        Drains bound themselves while such an event is due (see
        :meth:`_drain`).
        """
        due = self._barriers_due
        due[t_bar] = due.get(t_bar, 0) + 1

        def fire(_ev: SimEvent) -> None:
            release()
            due[t_bar] -= 1
            if not due[t_bar]:
                del due[t_bar]

        self.sim.at(t_bar).callbacks.append(fire)

    def _to_pool(self, cells, until: tuple = ()) -> None:
        """Book the pool for port cells and waiting reduced cells, in key order.

        ``cells`` are port cells' ``(switch exit, port exit, train)`` in
        switch order.  Each enters after every waiting reduced cell keyed
        before it, and every waiting reduced cell keyed at or before
        ``until`` enters after them.  Each link sees its cells in that
        order, and waits are charged in it.  A run of cells on one link
        is booked from locals, written back when the link changes.  Each
        booking sets its owner's ``last_exits``; an owner's cells enter
        in index order, so the last one set is its last cell's.
        """
        pending = self._pool_pending
        if pending and (until or pending[0][0] <= cells[-1][0]):
            merged = []
            for entry in cells:
                # On a tie of the three entries the port cell goes first.
                key = (entry[0], entry[1], entry[2].call)
                while pending and pending[0][:3] < key:
                    merged.append(self._pop_pending())
                merged.append(entry)
            while pending and pending[0][:5] <= until:
                merged.append(self._pop_pending())
            cells = merged
        sim = self.sim
        traced = sim.tracer.enabled or sim.metrics.enabled
        waits = self.stats.tenant_pool_wait
        link = None
        first = 0
        for j, (t, _, owner) in enumerate(cells):
            pool = owner.pool
            if pool is not link:
                if link is not None:
                    link._wire_free_at = free_at
                    link.busy_time = busy
                    link.bytes_sent = sent
                    link.transfers += j - first
                link = pool
                first = j
                bps = link.bandwidth.bytes_per_second
                latency = link.latency
                free_at, busy, sent = link.free_at, link.busy_time, link.bytes_sent
            cell = owner.cell
            # ``occupy(t, cell)`` on the locals, float for float.
            wait = free_at - t
            if wait > 0.0:
                waits[owner.tenant] = waits.get(owner.tenant, 0.0) + wait
            else:
                free_at = t
            start = free_at
            duration = cell / bps
            free_at += duration
            busy += duration
            sent += cell
            t_pool = t + ((free_at + latency) - t)
            owner.last_exits = (t, t_pool)
            if traced:
                link._record(t, start, free_at, cell, busy)
                if wait > 0.0:
                    _queue_span(
                        sim, t, wait, "pool-queue", link.name,
                        owner.tenant, owner.port_index, cell,
                    )
        if link is not None:
            link._wire_free_at = free_at
            link.busy_time = busy
            link.bytes_sent = sent
            link.transfers += len(cells) - first

    def _pop_pending(self) -> tuple:
        """Take the first waiting reduced cell as ``(ALU exit, barrier,
        collect)``, shaped like a port cell's entry for :meth:`_to_pool`."""
        t_alu, t_bar, _, _, _, col, _ = heapq.heappop(self._pool_pending)
        col.unit._account_out(col.cell)
        return t_alu, t_bar, col

    def port(self, port_index: int, tenant: int = 0) -> FabricPort:
        """An attachment for ``tenant`` on host port ``port_index``."""
        p = self.params
        return FabricPort(
            self,
            _check_index("port", port_index, p.n_ports, "ports"),
            _check_index("tenant", tenant, p.n_tenants, "tenants"),
        )

    def pool_link_for(self, tenant: int) -> SerialLink:
        """The pool-stage link serving ``tenant`` under the policy."""
        if self.params.policy is PartitionPolicy.SHARED:
            return self._pool_links[0]
        return self._pool_links[tenant]

    @property
    def pool_links(self) -> list[SerialLink]:
        """All pool-stage links (one, or one per tenant)."""
        return list(self._pool_links)

    def reducer(self, ranks, tenant: int = 0, **kwargs):
        """An in-fabric reduction stage over ``ranks`` port indices.

        Convenience constructor for
        :class:`repro.interconnect.aggregation.FabricReducer` (imported
        lazily — aggregation depends on this module)::

            red = fabric.reducer(ranks=range(4), tenant=0)
            yield red.reduce(encoded_bytes_per_rank)
        """
        from repro.interconnect.aggregation import FabricReducer

        return FabricReducer(self, ranks, tenant=tenant, **kwargs)

    def gather_unit(self, ranks, tenant: int = 0, **kwargs):
        """An in-fabric all-gather stage over ``ranks`` port indices.

        Convenience constructor for
        :class:`repro.interconnect.gather.FabricGather` (imported lazily
        — gather depends on this module)::

            gat = fabric.gather_unit(ranks=range(4), tenant=0)
            yield gat.gather(shard_bytes_per_rank)
        """
        from repro.interconnect.gather import FabricGather

        return FabricGather(self, ranks, tenant=tenant, **kwargs)


class _RankUnit:
    """Skeleton of an in-fabric unit that collects one cell from every rank.

    ``ranks`` names the fabric port each rank's stream enters through
    (several ranks may share a port, serializing their cells on it).
    Every cell crosses its rank's port link and the shared switch stage;
    the unit then holds it at a per-cell barrier until the matching cell
    of every rank has arrived, charging early arrivals' wait to
    ``FabricStats.tenant_<kind>_wait`` and a ``<kind>-wait`` span.

    A call books every rank's port train at once and registers them with
    the fabric's arrival merge (see :class:`CXLFabric`), whose drains
    book the switch and release each barrier in switch order.  A
    subclass sets :attr:`kind` (which names its stats fields, metrics and
    spans) and supplies its public method, which pushes the call's
    events, and may override :meth:`_forward`.
    """

    #: ``"reduce"`` or ``"gather"``.
    kind: str

    def __init__(
        self,
        fabric: "CXLFabric",
        ranks,
        *,
        tenant: int = 0,
        name: str | None = None,
    ):
        p = fabric.params
        self.fabric = fabric
        self.ranks = [
            _check_index("rank port", r, p.n_ports, "ports") for r in ranks
        ]
        if not self.ranks:
            raise ValueError(f"{type(self).__name__} needs at least one rank")
        self.tenant = _check_index("tenant", tenant, p.n_tenants, "tenants")
        self.name = name or f"{fabric.name}-{self.kind}-t{self.tenant}"
        #: Per-rank bytes this unit consumed through the port uplinks.
        self.bytes_in = 0.0
        #: Bytes sent on past the barrier: reduced cells into the pool,
        #: or peer cells multicast back down the ports.
        self.bytes_out = 0.0

    @property
    def n_ranks(self) -> int:
        """Rank streams collected per operation."""
        return len(self.ranks)

    def _add(self, field_name: str, n: float) -> None:
        """Add ``n`` to this tenant's entry of ``FabricStats.<field_name>``."""
        per_tenant = getattr(self.fabric.stats, field_name)
        per_tenant[self.tenant] = per_tenant.get(self.tenant, 0.0) + n

    def _collect(
        self, n_bytes: float, extra_delay: float
    ) -> tuple[_Collect, list[_Train]]:
        """Uplink one ``n_bytes`` stream from every rank.

        Books each port wire for its ranks' cells, cell-major as one
        port transmit per (cell, rank) would, with ``extra_delay`` ahead
        of each rank's first cell, and registers one train per rank.
        Returns the call's barrier state and its trains.
        """
        fabric = self.fabric
        sim = fabric.sim
        in_bytes = n_bytes * self.n_ranks
        self.bytes_in += in_bytes
        self._add(f"tenant_{self.kind}_in_bytes", in_bytes)
        for port in self.ranks:
            fabric.stats._account_bytes(port, self.tenant, n_bytes)
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.{self.kind}.in_bytes").inc(in_bytes)
            mx.counter(f"{fabric.name}.tenant{self.tenant}.bytes").inc(
                in_bytes
            )

        n_cells, cell = _cell_sizes(n_bytes, fabric.params.cells_per_transfer)
        col = _Collect(self, cell, n_cells)
        now = sim.now
        n_ranks = self.n_ranks
        on_port: dict[int, list[int]] = {}
        for pos, port in enumerate(self.ranks):
            on_port.setdefault(port, []).append(pos)
        trains: list[_Train] = [None] * n_ranks  # type: ignore[list-item]
        for port, positions in on_port.items():
            # A second rank's first cell starts behind the first rank's,
            # so ``extra_delay`` on the wire's first cell is the same.
            m = len(positions)
            exits = fabric.port_links[port].burst(
                now, n_cells * m, cell, extra_delay
            )
            for q, pos in enumerate(positions):
                trains[pos] = _Train(
                    self.tenant, port, cell, exits[q::m], now,
                    collect=col, pos=pos, stride=n_ranks,
                )
        col.reg = fabric._register(trains)
        return col, trains

    def _release(
        self, col: _Collect, i: int, t_bar: float, t_port: float, push: int
    ) -> None:
        """Cell ``i``'s barrier completed at ``t_bar``.

        Called by the drain that booked its last rank cell into the
        switch (port exit ``t_port``, push number ``push``).
        """
        first = col.first[i]
        wait = t_bar - first
        if wait > 0.0:
            self._add(f"tenant_{self.kind}_wait", wait)
            tracer = self.fabric.sim.tracer
            if tracer.enabled:
                tracer.add_span(
                    first,
                    t_bar,
                    f"{self.kind}-wait",
                    "fabric",
                    track=self.name,
                    tenant=self.tenant,
                    bytes=col.cell,
                )
        col.bar[i] = t_bar
        self._forward(col, i, t_bar, t_port, push)

    def _forward(
        self, col: _Collect, i: int, t_bar: float, t_port: float, push: int
    ) -> None:
        """Send released cell ``i`` on at drain time (arguments as
        :meth:`_release`); a gather waits for its barrier event instead."""

    def _account_out(self, n_bytes: float) -> None:
        """Charge ``n_bytes`` leaving the unit to its out-byte accounting."""
        fabric = self.fabric
        self.bytes_out += n_bytes
        self._add(f"tenant_{self.kind}_out_bytes", n_bytes)
        mx = fabric.sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.{self.kind}.out_bytes").inc(n_bytes)
