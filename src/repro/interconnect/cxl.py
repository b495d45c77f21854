"""CXL link layer and controller.

The paper emulates CXL over PCIe 3.0 x16 assuming CXL protocol traffic
achieves 94.3% of the underlying PCIe bandwidth, controlled by "a CXL
controller with a pending queue of 128 entries" (Section VIII-A), with
cache lines streaming serially ("one after another in a stream manner").

:class:`CXLLinkModel` gives closed-form transfer times; :class:`CXLController`
is the discrete-event component: producers enqueue cache-line payloads (with
back-pressure when the pending queue fills) and a drain process streams them
over a :class:`~repro.sim.SerialLink`.  ``fence()`` reproduces ``CXLFENCE()``:
an event that fires once all previously enqueued coherence traffic has been
delivered.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field

from repro.interconnect.packets import (
    CACHE_LINE_BYTES,
    CacheLinePayload,
    packet_wire_bytes,
)
from repro.interconnect.pcie import PCIeLinkModel
from repro.sim import SerialLink, SimEvent, Simulator, Store
from repro.utils.units import NS, Bandwidth

__all__ = ["CXL_EFFICIENCY", "CXLLinkModel", "CXLController"]

#: Fraction of PCIe bandwidth available to CXL protocol traffic
#: (Section VIII-A, citing the CXL specification).
CXL_EFFICIENCY = 0.943

#: Propagation latency of one CXL hop (order of a PCIe round trip share).
DEFAULT_LINK_LATENCY = 600 * NS

#: Depth of the CXL root port's pending (transmission) queue.
DEFAULT_QUEUE_DEPTH = 128


@dataclass(frozen=True)
class CXLLinkModel:
    """Closed-form CXL timing derived from a PCIe physical link."""

    pcie: PCIeLinkModel = field(default_factory=PCIeLinkModel.paper_default)
    efficiency: float = CXL_EFFICIENCY
    latency: float = DEFAULT_LINK_LATENCY

    def __post_init__(self) -> None:
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    @property
    def effective_bandwidth(self) -> Bandwidth:
        """Payload bandwidth of CXL traffic (94.3% of PCIe raw)."""
        return self.pcie.raw_bandwidth.scaled(self.efficiency)

    def line_transfer_time(self, dirty_bytes: int = 4) -> float:
        """Wire time of one cache line (possibly DBA-aggregated)."""
        payload = CACHE_LINE_BYTES * dirty_bytes // 4
        return self.effective_bandwidth.time_for(packet_wire_bytes(payload))

    def stream_transfer_time(self, n_lines: int, dirty_bytes: int = 4) -> float:
        """Wire time of ``n_lines`` cache lines streamed back-to-back."""
        if n_lines < 0:
            raise ValueError("n_lines must be non-negative")
        return n_lines * self.line_transfer_time(dirty_bytes)

    @classmethod
    def paper_default(cls) -> "CXLLinkModel":
        """The paper's evaluation link (PCIe 3.0 x16, 94.3%)."""
        return cls()


class CXLController:
    """Discrete-event CXL root port: pending queue + serial drain.

    Fed a write-back trace one line at its timestamp and then fenced, it
    fires exactly one link latency after
    :func:`~repro.trace.replay.replay_trace`'s ``finish_time``, with the
    same wire bytes and line count: it is the test oracle that pins the
    closed-form replay.

    Parameters
    ----------
    sim
        The simulation the controller lives in.
    model
        Link timing parameters.
    queue_depth
        Pending-queue entries (128 in the paper's emulation).
    per_line_delay
        Extra processing latency added per line before it reaches the wire
        (e.g. the 1 ns Aggregator delay of TECO-Reduction).
    link
        Optional pre-built transmission medium.  By default the controller
        owns a private :class:`~repro.sim.SerialLink` derived from
        ``model``; pass a :class:`~repro.interconnect.fabric.FabricPort`
        (or any object with ``transmit``/``free_at``/``bytes_sent``) to
        drive a shared multi-host fabric port instead — deliveries then
        complete only when lines clear the switch and pool stages.
    name
        Label used in statistics.
    """

    def __init__(
        self,
        sim: Simulator,
        model: CXLLinkModel | None = None,
        *,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        per_line_delay: float = 0.0,
        link=None,
        name: str = "cxl",
    ):
        if (
            isinstance(queue_depth, bool)
            or not isinstance(queue_depth, numbers.Integral)
            or queue_depth < 1
        ):
            raise ValueError(
                f"queue_depth must be an integer >= 1, got {queue_depth!r}"
            )
        if isinstance(per_line_delay, bool) or not (
            math.isfinite(per_line_delay) and per_line_delay >= 0
        ):
            raise ValueError(
                "per_line_delay must be finite and non-negative, "
                f"got {per_line_delay!r}"
            )
        self.sim = sim
        self.model = model or CXLLinkModel.paper_default()
        self.per_line_delay = per_line_delay
        self.name = name
        self.link = link if link is not None else SerialLink(
            sim,
            self.model.effective_bandwidth,
            latency=self.model.latency,
            name=f"{name}-wire",
        )
        self._queue: Store = Store(
            sim, capacity=queue_depth, name=f"{name}-pending"
        )
        self._outstanding = 0
        self._fence_waiters: list[SimEvent] = []
        self.lines_delivered = 0
        self.payload_bytes_delivered = 0
        #: Simulated time of the most recent delivery, or ``None`` before
        #: the first one (0.0 would be indistinguishable from a real
        #: delivery at t=0).
        self.last_delivery_time: float | None = None
        #: Enqueue timestamps for pending-queue residency spans (FIFO,
        #: tracer-enabled runs only).
        self._enqueue_times: deque[float] = deque()
        sim.process(self._drain(), name=f"{name}-drain")

    # -- producer side ----------------------------------------------------
    def send_line(self, payload: CacheLinePayload) -> SimEvent:
        """Enqueue one cache line; the returned event fires on *acceptance*
        into the pending queue (back-pressure point), not delivery."""
        self._outstanding += 1
        if self.sim.tracer.enabled:
            self._enqueue_times.append(self.sim.now)
        mx = self.sim.metrics
        if mx.enabled:
            mx.sample(f"{self.name}.outstanding", self.sim.now, self._outstanding)
        return self._queue.put(payload)

    def send_lines(self, payloads: list[CacheLinePayload]):
        """Process generator enqueuing a batch with back-pressure."""
        for p in payloads:
            yield self.send_line(p)

    def fence(self) -> SimEvent:
        """``CXLFENCE()``: fires when all in-flight traffic is delivered."""
        ev = self.sim.event()
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                self.sim.now,
                "fence",
                "cxl",
                track=self.name,
                outstanding=self._outstanding,
            )
        if self._outstanding == 0:
            ev.succeed(self.sim.now)
        else:
            self._fence_waiters.append(ev)
        return ev

    # -- drain process ------------------------------------------------------
    def _drain(self):
        while True:
            payload: CacheLinePayload = yield self._queue.get()
            tracer = self.sim.tracer
            if tracer.enabled and self._enqueue_times:
                tracer.add_span(
                    self._enqueue_times.popleft(),
                    self.sim.now,
                    "pending",
                    "queue",
                    track=self._queue.name,
                    addr=payload.address,
                )
            wire = packet_wire_bytes(payload.size_bytes)
            delivery = self.link.transmit(wire, extra_delay=self.per_line_delay)
            delivery.callbacks.append(
                lambda _ev, p=payload: self._on_delivered(p)
            )
            # Lines pipeline: the next line may enter the wire as soon as
            # this one leaves it; propagation latency overlaps.  The
            # per-line front-end (Aggregator) is itself pipelined, so its
            # delay is exposed only at the head of a stream: pop the next
            # line ``per_line_delay`` *before* the wire frees, and its
            # ``now + delay`` start lands exactly when the wire is idle.
            # (Waiting the full gap would re-expose the delay per line and
            # serialize an N-line stream to N * (delay + wire).)
            gap = self.link.free_at - self.sim.now - self.per_line_delay
            if gap > 0:
                yield self.sim.timeout(gap)

    def _on_delivered(self, payload: CacheLinePayload) -> None:
        self.lines_delivered += 1
        self.payload_bytes_delivered += payload.size_bytes
        self.last_delivery_time = self.sim.now
        self._outstanding -= 1
        mx = self.sim.metrics
        if mx.enabled:
            mx.counter(f"{self.name}.lines_delivered").inc()
            mx.counter(f"{self.name}.payload_bytes").inc(payload.size_bytes)
            mx.sample(f"{self.name}.outstanding", self.sim.now, self._outstanding)
        if self._outstanding == 0 and self._fence_waiters:
            waiters, self._fence_waiters = self._fence_waiters, []
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    self.sim.now, "fence-release", "cxl", track=self.name
                )
            for w in waiters:
                w.succeed(self.sim.now)

    # -- accounting ---------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Lines accepted but not yet delivered."""
        return self._outstanding

    @property
    def wire_bytes_sent(self) -> float:
        """Total bytes placed on the wire (payload + headers)."""
        return self.link.bytes_sent
