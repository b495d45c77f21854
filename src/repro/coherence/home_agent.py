"""The CXL home agent: MESI transitions in invalidation or update mode.

Models the protocol of Figures 4-5 between two peer caches — the CPU cache
(``cpu``) and the accelerator's giant cache (``device``) — with full message
and byte accounting, so invalidation- and update-based coherence can be
compared on identical access patterns (the Section IV-A2 ablation: on-demand
transfers raise training time by 56.6% on average).

Semantics
---------
Stores are two-phase, matching the paper's emulation ("our simulation
transfers a cache line when multiple parameters in the cache line are
updated using a vectorized instruction and the cache line is written back"):

* ``cpu_write``/``device_write`` — the store itself; acquires ownership
  (ReadOwn if needed) and moves the writer's line to Modified.
* ``cpu_writeback``/``device_writeback`` — the line leaves the writer's
  cache.  In **update** mode on a giant-cache line this is the
  ``Go_Flush``/``FlushData`` push: data travels with coherence traffic and
  the writer transitions M -> S (the red arrow in Figure 4).  In
  **invalidation** mode the peer was already invalidated at write time and
  the data is fetched later, on demand, by the consumer's read.

Consumer reads (``device_read``/``cpu_read``) are hits in update mode and
on-demand misses (ReadShared + Data, counted as ``on_demand_fetches``) in
invalidation mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.coherence.giant_cache import AddressMap
from repro.coherence.mesi import MESIState, PeerCache
from repro.coherence.snoop_filter import SnoopFilter
from repro.dba.registers import check_dirty_bytes
from repro.interconnect.packets import (
    CACHE_LINE_BYTES,
    MessageType,
    packet_wire_bytes,
)
from repro.obs.profile import active_profile

__all__ = ["CoherenceMode", "TrafficStats", "HomeAgent"]

M, E, S, I = (
    MESIState.MODIFIED,
    MESIState.EXCLUSIVE,
    MESIState.SHARED,
    MESIState.INVALID,
)


class CoherenceMode(enum.Enum):
    """Protocol flavor: stock CXL MESI vs TECO's extension."""

    INVALIDATION = "invalidation"
    UPDATE = "update"


@dataclass
class TrafficStats:
    """CXL message/byte accounting."""

    messages: dict[MessageType, int] = field(default_factory=dict)
    control_bytes: int = 0
    data_bytes: int = 0
    #: Data transfers that landed on the consumer's critical path
    #: (invalidation-mode on-demand fetches).
    on_demand_fetches: int = 0
    #: The active :mod:`repro.obs` metrics at build time; each recorded
    #: message also bumps ``coherence.msg.<NAME>`` / byte counters there.
    _metrics: object = field(
        default_factory=lambda: active_profile().metrics,
        init=False, repr=False, compare=False,
    )

    def record(self, msg: MessageType, payload_bytes: int = 0) -> None:
        """Count one message and its wire bytes."""
        self.messages[msg] = self.messages.get(msg, 0) + 1
        wire = packet_wire_bytes(payload_bytes)
        if payload_bytes:
            self.data_bytes += wire
        else:
            self.control_bytes += wire
        mx = self._metrics
        if mx.enabled:
            mx.counter(f"coherence.msg.{msg.name}").inc()
            if payload_bytes:
                mx.counter("coherence.data_bytes").inc(wire)
            else:
                mx.counter("coherence.control_bytes").inc(wire)

    @property
    def total_bytes(self) -> int:
        """Control plus data bytes on the wire."""
        return self.control_bytes + self.data_bytes

    def count(self, msg: MessageType) -> int:
        """Occurrences of one message type."""
        return self.messages.get(msg, 0)


class HomeAgent:
    """Coherence mediator between the CPU cache and the giant cache.

    In update mode it is the test oracle for the TECO engines' byte
    accounting: one step's gradient lines (``device_write`` +
    ``device_writeback``) and parameter lines (``cpu_write`` +
    ``cpu_writeback(line, d)``) record exactly
    ``offload.engines._cxl_wire_volume`` in ``stats.data_bytes``.  The
    engines leave out the per-line ``READ_OWN`` and ``GO_FLUSH`` control
    packets that it records in ``stats.control_bytes``.
    """

    def __init__(
        self,
        address_map: AddressMap,
        mode: CoherenceMode = CoherenceMode.UPDATE,
        snoop_filter: SnoopFilter | None = None,
    ):
        self.address_map = address_map
        self.mode = mode
        self.cpu = PeerCache("cpu")
        self.device = PeerCache("giant-cache")
        self.stats = TrafficStats()
        if mode is CoherenceMode.INVALIDATION and snoop_filter is None:
            snoop_filter = SnoopFilter()
        self.snoop_filter = snoop_filter

    # -- helpers -----------------------------------------------------------
    def _check_line(self, line: int) -> bool:
        if line < 0 or line % CACHE_LINE_BYTES:
            raise ValueError(f"{line:#x} is not a valid line address")
        return self.address_map.is_giant_cached(line)

    def _track(self, line: int) -> None:
        if self.snoop_filter is not None:
            sharers = []
            if self.cpu.state(line) is not I:
                sharers.append("cpu")
            if self.device.state(line) is not I:
                sharers.append("device")
            self.snoop_filter.set_sharers(line, sharers)

    def seed_device_copy(self, line: int) -> None:
        """Pre-training state: the giant cache holds the parameters
        Exclusive (Figure 5's initial condition)."""
        self._check_line(line)
        self.device.set_state(line, E)
        self._track(line)

    def seed_cpu_copy(self, line: int) -> None:
        """CPU-side tensors resident before training (gradients on CPU)."""
        self._check_line(line)
        self.cpu.set_state(line, E)
        self._track(line)

    # -- CPU as producer (parameters) ---------------------------------------
    def cpu_write(self, line: int) -> list[MessageType]:
        """CPU stores into a line (ADAM writing updated parameters)."""
        if not self._check_line(line):
            return []  # plain memory write, outside the coherence domain
        msgs: list[MessageType] = []
        cs = self.cpu.state(line)
        if cs is I:
            self.stats.record(MessageType.READ_OWN)
            msgs.append(MessageType.READ_OWN)
            if self.mode is CoherenceMode.INVALIDATION:
                if self.device.state(line) is not I:
                    self.stats.record(MessageType.INVALIDATE)
                    msgs.append(MessageType.INVALIDATE)
                    self.device.set_state(line, I)
            else:
                # Update protocol: peer keeps a stale copy in Shared; the
                # flush will refresh it.
                if self.device.state(line) in (E, M):
                    self.device.set_state(line, S)
        elif cs is S:
            # Upgrade to ownership.
            self.stats.record(MessageType.READ_OWN)
            msgs.append(MessageType.READ_OWN)
            if self.mode is CoherenceMode.INVALIDATION:
                if self.device.state(line) is not I:
                    self.stats.record(MessageType.INVALIDATE)
                    msgs.append(MessageType.INVALIDATE)
                    self.device.set_state(line, I)
        self.cpu.set_state(line, M)
        self._track(line)
        return msgs

    def cpu_writeback(self, line: int, dirty_bytes: int = 4) -> list[MessageType]:
        """The Modified line leaves the CPU LLC (flush or eviction)."""
        check_dirty_bytes(dirty_bytes)
        giant = self._check_line(line)
        cs = self.cpu.state(line)
        if cs is not M:
            # Clean lines just drop (S/E -> I), nothing on the wire.
            if cs is not I:
                self.cpu.set_state(line, I)
                if self.device.state(line) is S:
                    self.device.set_state(line, E)
                self._track(line)
            return []
        if not giant:
            self.cpu.set_state(line, I)
            return []
        msgs: list[MessageType] = []
        if self.mode is CoherenceMode.UPDATE:
            payload = CACHE_LINE_BYTES * dirty_bytes // 4
            self.stats.record(MessageType.GO_FLUSH)
            self.stats.record(MessageType.FLUSH_DATA, payload)
            msgs += [MessageType.GO_FLUSH, MessageType.FLUSH_DATA]
            # Figure 5: M -> S on Go_Flush approval; both peers share.
            self.cpu.set_state(line, S)
            self.device.set_state(line, S)
        else:
            # Invalidation mode: dirty data goes home, device copy stays I.
            payload = CACHE_LINE_BYTES
            self.stats.record(MessageType.WRITEBACK, payload)
            msgs.append(MessageType.WRITEBACK)
            self.cpu.set_state(line, I)
        self._track(line)
        return msgs

    def cpu_evict(self, line: int) -> list[MessageType]:
        """Eviction = write-back if dirty, then drop to Invalid.

        Figure 5: on CPU evict/flush, Cs S -> I and Gs S -> E.
        """
        msgs = self.cpu_writeback(line)
        if self.cpu.state(line) is not I:
            self.cpu.set_state(line, I)
            if self.device.state(line) is S:
                self.device.set_state(line, E)
            self._track(line)
        return msgs

    def cpu_flush_all(self) -> int:
        """Per-iteration flush: every CPU-held giant-cache line is evicted.

        Returns the number of lines that carried data on the flush.
        """
        pushed = 0
        for line in list(self.cpu.lines_in_state(M)):
            if self.address_map.is_giant_cached(line):
                self.cpu_evict(line)
                pushed += 1
        for state in (S, E):
            for line in list(self.cpu.lines_in_state(state)):
                self.cpu_evict(line)
        return pushed

    # -- device as consumer (parameters) ------------------------------------
    def device_read(self, line: int) -> list[MessageType]:
        """Accelerator loads a parameter line during forward/backward."""
        if not self._check_line(line):
            return []
        gs = self.device.state(line)
        if gs.can_read:
            return []  # giant-cache hit — the update protocol's payoff
        # Invalidation-mode miss: fetch on demand over the link.
        msgs = [MessageType.READ_SHARED, MessageType.DATA]
        self.stats.record(MessageType.READ_SHARED)
        self.stats.record(MessageType.DATA, CACHE_LINE_BYTES)
        self.stats.on_demand_fetches += 1
        if self.cpu.state(line) is M:
            self.cpu.set_state(line, S)
        self.device.set_state(line, S)
        self._track(line)
        return msgs

    # -- device as producer (gradients) --------------------------------------
    def device_write(self, line: int) -> list[MessageType]:
        """Accelerator stores into a giant-cache line (gradient buffer)."""
        if not self._check_line(line):
            return []
        msgs: list[MessageType] = []
        gs = self.device.state(line)
        if gs in (I, S):
            self.stats.record(MessageType.READ_OWN)
            msgs.append(MessageType.READ_OWN)
            if self.mode is CoherenceMode.INVALIDATION:
                if self.cpu.state(line) is not I:
                    self.stats.record(MessageType.INVALIDATE)
                    msgs.append(MessageType.INVALIDATE)
                    self.cpu.set_state(line, I)
            else:
                if self.cpu.state(line) in (E, M):
                    self.cpu.set_state(line, S)
        self.device.set_state(line, M)
        self._track(line)
        return msgs

    def device_writeback(self, line: int, dirty_bytes: int = 4) -> list[MessageType]:
        """Gradient line written back to the giant-cache region: in update
        mode it streams to CPU memory immediately (Figure 6 step 3)."""
        check_dirty_bytes(dirty_bytes)
        giant = self._check_line(line)
        gs = self.device.state(line)
        if gs is not M:
            return []
        if not giant:
            self.device.set_state(line, I)
            return []
        msgs: list[MessageType] = []
        if self.mode is CoherenceMode.UPDATE:
            payload = CACHE_LINE_BYTES * dirty_bytes // 4
            self.stats.record(MessageType.GO_FLUSH)
            self.stats.record(MessageType.FLUSH_DATA, payload)
            msgs += [MessageType.GO_FLUSH, MessageType.FLUSH_DATA]
            self.device.set_state(line, S)
            if self.cpu.state(line) is I:
                # Line not resident in the (small) CPU cache: the update
                # lands in CPU memory; the CPU cache ignores it.
                pass
            else:
                self.cpu.set_state(line, S)
        else:
            self.stats.record(MessageType.WRITEBACK, CACHE_LINE_BYTES)
            msgs.append(MessageType.WRITEBACK)
            self.device.set_state(line, I)
        self._track(line)
        return msgs

    def cpu_read(self, line: int) -> list[MessageType]:
        """CPU loads a gradient line for the optimizer step."""
        if not self._check_line(line):
            return []
        if self.cpu.state(line).can_read:
            return []
        if self.mode is CoherenceMode.UPDATE and self.device.state(line) in (
            S,
            E,
        ):
            # Data already pushed to CPU memory by the update protocol:
            # plain local memory read, no CXL traffic.
            self.cpu.set_state(line, S)
            self._track(line)
            return []
        msgs = [MessageType.READ_SHARED, MessageType.DATA]
        self.stats.record(MessageType.READ_SHARED)
        self.stats.record(MessageType.DATA, CACHE_LINE_BYTES)
        self.stats.on_demand_fetches += 1
        if self.device.state(line) is M:
            self.device.set_state(line, S)
        self.cpu.set_state(line, S)
        self._track(line)
        return msgs
