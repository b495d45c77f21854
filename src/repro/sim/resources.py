"""Simulation resources: semaphores, bounded FIFO stores, serial links.

``SerialLink`` is the workhorse: CXL/PCIe are serial buses, so cache lines
"go through the link one after another in a stream manner" (Section VIII-A).
A transfer request occupies the link for ``size / bandwidth`` seconds after
the preceding request completes; the completion event additionally waits for
the propagation latency.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import SimEvent, Simulator
from repro.utils.checks import check_bandwidth
from repro.utils.units import Bandwidth

__all__ = ["Resource", "Store", "SerialLink"]

_INF = float("inf")


def _check_amount(name: str, value: float) -> None:
    """Reject a byte count or delay that is a bool, negative, NaN or infinite."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= value < _INF:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


class Resource:
    """Counting semaphore with FIFO fairness.

    ``request()`` returns an event that fires when a slot is granted;
    ``release()`` hands the slot to the next waiter.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[SimEvent] = deque()

    def _sample(self) -> None:
        mx = self.sim.metrics
        if mx.enabled:
            mx.sample(f"{self.name}.in_use", self.sim.now, self.in_use)

    def request(self) -> SimEvent:
        """Request a slot; the event fires when granted."""
        ev = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed(self)
            self._sample()
        else:
            self._waiters.append(ev)
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    self.sim.now, "request-blocked", "resource", track=self.name
                )
        return ev

    def release(self) -> None:
        """Free a slot, waking the next waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError("release without matching request")
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self.in_use -= 1
            self._sample()


class Store:
    """Bounded FIFO channel of items (producer/consumer coupling).

    Models structures like the CXL root port's 128-entry pending queue:
    producers block (their ``put`` event stays pending) while the queue is
    full, which is how queue back-pressure reaches the CPU pipeline.
    """

    def __init__(
        self, sim: Simulator, capacity: int | None = None, name: str = "store"
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._getters: deque[SimEvent] = deque()
        self._putters: deque[tuple[SimEvent, Any]] = deque()

    def _sample_depth(self) -> None:
        mx = self.sim.metrics
        if mx.enabled:
            mx.sample(f"{self.name}.depth", self.sim.now, len(self.items))

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        """Whether the channel is at capacity."""
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> SimEvent:
        """Offer an item; the event fires on acceptance."""
        ev = self.sim.event()
        if self._getters:
            # Hand directly to a waiting consumer.
            self._getters.popleft().succeed(item)
            ev.succeed(None)
        elif not self.is_full:
            self.items.append(item)
            ev.succeed(None)
            self._sample_depth()
        else:
            self._putters.append((ev, item))
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    self.sim.now, "put-blocked", "queue", track=self.name
                )
        return ev

    def get(self) -> SimEvent:
        """Take an item; the event fires with it when available."""
        ev = self.sim.event()
        if self.items:
            ev.succeed(self.items.popleft())
            if self._putters:
                put_ev, item = self._putters.popleft()
                self.items.append(item)
                put_ev.succeed(None)
            self._sample_depth()
        else:
            self._getters.append(ev)
        return ev


class SerialLink:
    """A serialized transmission medium with bandwidth and latency.

    Transfers are granted link occupancy in request order; a transfer of
    ``n`` bytes holds the wire for ``n / bandwidth`` and its completion
    event fires ``latency`` later (cut-through, not store-and-forward:
    latency does not occupy the wire).

    Attributes
    ----------
    busy_time
        Total wire-occupancy seconds (for utilization accounting).
    bytes_sent
        Total payload bytes transferred.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: Bandwidth,
        latency: float = 0.0,
        name: str = "link",
    ):
        check_bandwidth("bandwidth", bandwidth)
        # A bool is an int, but ``latency=True`` is a typo, not 1 s.
        if isinstance(latency, bool) or not 0.0 <= latency < _INF:
            raise ValueError(
                f"latency must be finite and non-negative, got {latency!r}"
            )
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self._wire_free_at = 0.0
        self.busy_time = 0.0
        self.bytes_sent = 0
        self.transfers = 0

    def occupy(
        self, now: float, n_bytes: float, extra_delay: float = 0.0
    ) -> float:
        """Book the wire for a transfer arriving at ``now``; return ``done_at``.

        The transfer starts at ``max(now + extra_delay, free_at)``, holds
        the wire for ``n_bytes / bandwidth`` and is delivered ``latency``
        later.  No event is scheduled: callers that can compute when the
        next stage sees the transfer book it directly, everyone else uses
        :meth:`transmit`.  ``now`` may lie ahead of ``sim.now`` but must
        not precede the arrival of any transfer booked earlier.  Invalid
        input raises before any state changes.
        """
        _check_amount("n_bytes", n_bytes)
        _check_amount("extra_delay", extra_delay)
        start = now + extra_delay
        if start < self._wire_free_at:
            start = self._wire_free_at
        duration = n_bytes / self.bandwidth.bytes_per_second
        self._wire_free_at = free_at = start + duration
        self.busy_time += duration
        self.bytes_sent += n_bytes
        self.transfers += 1
        sim = self.sim
        if sim.tracer.enabled or sim.metrics.enabled:
            self._record(now, start, free_at, n_bytes, self.busy_time)
        return free_at + self.latency

    def _record(
        self, now: float, start: float, free_at: float, n_bytes: float, busy: float
    ) -> None:
        """Trace and count one transfer booked at ``now`` on ``[start, free_at)``.

        ``busy`` is the link's busy time with the transfer included.  Every
        booking loop calls this per transfer while a tracer or metrics is
        active, so spans and samples are the per-transfer ones.
        """
        sim = self.sim
        if sim.tracer.enabled:
            sim.tracer.add_span(
                start, free_at, "xfer", "link", track=self.name, bytes=n_bytes
            )
        metrics = sim.metrics
        if metrics.enabled:
            metrics.counter(f"{self.name}.bytes").inc(n_bytes)
            metrics.counter(f"{self.name}.transfers").inc()
            if free_at > 0:
                # Honest cumulative occupancy up to the wire-busy horizon:
                # by construction <= 1; a larger value is an accounting bug.
                metrics.sample(f"{self.name}.utilization", now, busy / free_at)

    def burst(
        self, now: float, n_cells: int, cell: float, extra_first: float = 0.0
    ) -> list[float]:
        """Book ``n_cells`` cells of ``cell`` bytes, all arriving at ``now``.

        The same float operations, in the same order, as ``n_cells``
        calls ``occupy(now, cell, extra_first if i == 0 else 0.0)``, with
        the link state built up cell by cell in one loop and written back
        once.  Returns each cell's exit ``now + (done_at - now)``, the
        float :meth:`transmit` called at ``now`` would fire at.  Traced or
        not, the cells take that loop; with a tracer or metrics active it
        records each cell as ``occupy`` would.  Invalid input raises
        before any state changes.
        """
        if isinstance(n_cells, bool) or not isinstance(n_cells, int) or n_cells < 1:
            raise ValueError(f"n_cells must be an int >= 1, got {n_cells!r}")
        _check_amount("cell", cell)
        _check_amount("extra_first", extra_first)
        sim = self.sim
        traced = sim.tracer.enabled or sim.metrics.enabled
        free_at = now + extra_first
        if free_at < self._wire_free_at:
            free_at = self._wire_free_at
        duration = cell / self.bandwidth.bytes_per_second
        latency = self.latency
        busy = self.busy_time
        sent = self.bytes_sent
        exits = []
        for _ in range(n_cells):
            # Every cell after the first starts where the one ahead ends.
            start = free_at
            free_at += duration
            busy += duration
            sent += cell
            exits.append(now + ((free_at + latency) - now))
            if traced:
                self._record(now, start, free_at, cell, busy)
        self._wire_free_at = free_at
        self.busy_time = busy
        self.bytes_sent = sent
        self.transfers += n_cells
        return exits

    def transmit(self, n_bytes: float, extra_delay: float = 0.0) -> SimEvent:
        """Schedule a transfer; returns the delivery-complete event.

        ``extra_delay`` models per-transfer processing (e.g. the 1 ns
        Aggregator latency) added before the payload reaches the wire.
        """
        sim = self.sim
        now = sim.now
        done_at = self.occupy(now, n_bytes, extra_delay)
        ev = SimEvent(sim)
        ev.succeed(n_bytes, delay=done_at - now)
        return ev

    @property
    def free_at(self) -> float:
        """Virtual time at which the wire next becomes idle."""
        return self._wire_free_at

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` during which the wire was occupied.

        Returns the *true* ratio.  A value above 1.0 means busy time was
        over-accounted somewhere — earlier versions clamped with
        ``min(1.0, ...)``, which silently masked exactly that class of
        bug; callers and tests should assert ``<= 1`` instead.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return self.busy_time / horizon
