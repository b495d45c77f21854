"""Discrete-event step simulation for ZeRO-Offload and TECO.

Both engines simulate one training step of a full-size Table III model
against the calibrated :class:`~repro.offload.timing.HardwareParams`,
producing a :class:`~repro.offload.breakdown.StepBreakdown`.

ZeRO-Offload (baseline)
    Coarse-grained explicit DMA transfers.  Gradient-buffer flushes during
    backward are *synchronous* copies (the backward stream stalls while a
    full buffer drains — "the CPU computation must wait for the gradient
    transfers to finish"), and the parameter copy-back runs after the full
    ADAM sweep in double-buffer chunks whose filling "is much faster than
    the parameter transfer", leaving the transfer largely exposed
    (Section II-A).  This reproduces the Table I exposed-communication
    fractions.  ``dpu=True`` applies one-step delayed parameter update:
    the CPU-side tail overlaps the next step's GPU window.

TECO
    Cache-line streaming over CXL with the update protocol: gradient lines
    stream continuously *during* backward (Figure 6 step 3), parameter
    lines stream while the blocked ADAM sweep writes them back, and a
    ``CXLFENCE`` at each producer's end exposes only the undrained tail.
    TECO-Reduction additionally halves parameter payloads via DBA.
    Setting ``coherence=CoherenceMode.INVALIDATION`` reproduces stock-CXL
    behaviour for the Section IV-A2 ablation: data is fetched on demand
    after the producer finishes, so nothing overlaps.

Streaming is simulated fluidly in sub-chunks (default 64 per phase), which
converges to the exact producer/link fluid limit while keeping event counts
small for billion-parameter models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.coherence.home_agent import CoherenceMode
from repro.dba.registers import check_dirty_bytes
from repro.interconnect.packets import CACHE_LINE_BYTES, packet_wire_bytes
from repro.models.specs import ModelSpec
from repro.offload.breakdown import StepBreakdown
from repro.offload.timing import HardwareParams
from repro.sim import SerialLink, Simulator
from repro.utils.checks import check_int
from repro.utils.units import NS

__all__ = ["SystemKind", "ZeROOffloadEngine", "TECOEngine", "simulate_system"]

#: Sub-chunks per streaming phase (fluid-approximation granularity).
STREAM_CHUNKS = 64

#: Conservative pipelined DBA-unit delay charged per streamed chunk
#: (Section VIII-D charges 1 ns; it amortizes through pipelining).
DBA_PIPELINE_DELAY = 1 * NS


def _line_wire_bytes(dirty_bytes: int) -> int:
    """On-wire bytes of one cache line at the given DBA setting."""
    return packet_wire_bytes(CACHE_LINE_BYTES * dirty_bytes // 4)


def _cxl_wire_volume(tensor_bytes: float, dirty_bytes: int) -> float:
    """Update-mode data bytes of streaming a tensor line by line (its test
    oracle is :class:`~repro.coherence.home_agent.HomeAgent`)."""
    n_lines = -(-int(tensor_bytes) // CACHE_LINE_BYTES)
    return n_lines * _line_wire_bytes(dirty_bytes)


class SystemKind(enum.Enum):
    """The three systems of Figure 11 / Table IV."""

    ZERO_OFFLOAD = "zero-offload"
    TECO_CXL = "teco-cxl"
    TECO_REDUCTION = "teco-reduction"


def _trace_phase_marks(sim: Simulator, marks: dict, system: str) -> None:
    """Emit trainer-phase spans from a finished step's time marks.

    Runs once after ``sim.run()`` (zero in-loop overhead): GPU phases on
    the ``gpu`` track, CPU phases on ``cpu``, exposed transfer windows on
    ``transfer`` — all category ``trainer``, on the sim timeline.  The
    per-transfer wire spans come live from the instrumented
    :class:`~repro.sim.SerialLink`.
    """
    tracer = sim.tracer
    if not tracer.enabled:
        return
    phases = (
        ("forward", "gpu", None, "fwd_end"),
        ("backward", "gpu", "fwd_end", "bwd_end"),
        ("grad-transfer-exposed", "transfer", "bwd_end", "grads_on_cpu"),
        ("clip", "cpu", "grads_on_cpu", "clip_end"),
        ("adam", "cpu", "clip_end", "adam_end"),
        ("param-transfer-exposed", "transfer", "adam_end", "params_on_gpu"),
    )
    for name, track, a, b in phases:
        begin = 0.0 if a is None else marks.get(a)
        end = marks.get(b)
        if begin is None or end is None:
            continue
        tracer.add_span(begin, end, name, "trainer", track=track, system=system)
    end = marks.get("params_on_gpu")
    if end is not None:
        tracer.add_span(
            0.0, end, "step", "trainer", track="step", system=system
        )


@dataclass(frozen=True)
class _Phases:
    """Pre-computed phase durations shared by both engines."""

    forward: float
    backward: float
    clip: float
    adam: float

    @classmethod
    def of(cls, spec: ModelSpec, batch: int, hw: HardwareParams) -> "_Phases":
        return cls(
            forward=hw.forward_time(spec, batch),
            backward=hw.backward_time(spec, batch),
            clip=hw.grad_clip_time(spec),
            adam=hw.adam_time(spec),
        )


class ZeROOffloadEngine:
    """Baseline: DeepSpeed ZeRO-Offload over plain PCIe."""

    def __init__(
        self,
        spec: ModelSpec,
        batch: int,
        hw: HardwareParams | None = None,
        dpu: bool = False,
    ):
        self.spec = spec
        self.batch = check_int("batch", batch, 1)
        self.hw = hw or HardwareParams.paper_default()
        self.dpu = dpu

    def simulate_step(self) -> StepBreakdown:
        """Simulate one baseline training step."""
        spec, hw = self.spec, self.hw
        sim = Simulator()
        link = SerialLink(sim, hw.pcie.effective_bandwidth, name="pcie")
        phases = _Phases.of(spec, self.batch, hw)
        marks: dict[str, float] = {}

        def step(sim: Simulator):
            # Phase 1-2: forward + backward on GPU.
            yield sim.timeout(phases.forward)
            marks["fwd_end"] = sim.now
            # Phase 3: the gradient buffer flushes during backward; each
            # flush is a synchronous copy that stalls the backward stream.
            n_layers = max(spec.n_layers, 1)
            per_layer_time = phases.backward / n_layers
            per_layer_bytes = spec.gradient_bytes / n_layers
            buffered = 0.0
            stalled = 0.0
            for _ in range(n_layers):
                yield sim.timeout(per_layer_time)
                buffered += per_layer_bytes
                while buffered >= hw.gradient_buffer_bytes:
                    t0 = sim.now
                    yield link.transmit(
                        hw.gradient_buffer_bytes,
                        extra_delay=hw.pcie.dma_setup_latency,
                    )
                    stalled += sim.now - t0
                    buffered -= hw.gradient_buffer_bytes
            if buffered:
                t0 = sim.now
                yield link.transmit(
                    buffered, extra_delay=hw.pcie.dma_setup_latency
                )
                stalled += sim.now - t0
            marks["grad_stall"] = stalled
            marks["bwd_end"] = sim.now
            marks["grads_on_cpu"] = sim.now
            # Phase 4: clip on CPU.
            yield sim.timeout(phases.clip)
            marks["clip_end"] = sim.now
            # Phase 5: the full ADAM sweep, then the parameter copy-back in
            # double-buffer chunks.  Buffer filling (a CPU memcpy into the
            # pinned staging buffer) is much faster than the PCIe transfer,
            # so the transfers dominate and sit on the critical path.
            yield sim.timeout(phases.adam)
            marks["adam_end"] = sim.now
            chunk = hw.param_chunk_bytes
            remaining = spec.param_bytes
            while remaining > 0:
                this = min(chunk, remaining)
                remaining -= this
                yield link.transmit(
                    this, extra_delay=hw.pcie.dma_setup_latency
                )
            marks["params_on_gpu"] = sim.now

        sim.process(step(sim))
        sim.run()
        _trace_phase_marks(sim, marks, system="zero-offload")

        # The synchronous flush stalls are gradient-transfer time exposed
        # to the critical path even though they occur inside backward.
        grad_exposed = marks["grad_stall"]
        param_exposed = marks["params_on_gpu"] - marks["adam_end"]
        if self.dpu:
            # One-step delayed parameter update: the CPU-side tail
            # (clip + ADAM + exposed transfers) overlaps the *next* step's
            # GPU window.  Hide communication first, then optimizer —
            # effective only when the GPU window is large (big batch).
            hide = phases.forward + phases.backward
            hidden_param = min(param_exposed, hide)
            hide -= hidden_param
            hidden_grad = min(grad_exposed, hide)
            param_exposed -= hidden_param
            grad_exposed -= hidden_grad
        return StepBreakdown(
            forward=phases.forward,
            backward=marks["bwd_end"] - marks["fwd_end"] - marks["grad_stall"],
            grad_transfer_exposed=grad_exposed,
            grad_clip=phases.clip,
            optimizer=marks["adam_end"] - marks["clip_end"],
            param_transfer_exposed=param_exposed,
            wire_bytes=link.bytes_sent,
            wire_bytes_per_link=link.bytes_sent,
            grad_transfer_raw=hw.pcie.effective_bandwidth.time_for(
                spec.gradient_bytes
            ),
            param_transfer_raw=hw.pcie.effective_bandwidth.time_for(
                spec.param_bytes
            ),
        )


class TECOEngine:
    """TECO: update-coherent CXL streaming, optionally with DBA."""

    def __init__(
        self,
        spec: ModelSpec,
        batch: int,
        hw: HardwareParams | None = None,
        dba: bool = False,
        dirty_bytes: int = 2,
        coherence: CoherenceMode = CoherenceMode.UPDATE,
    ):
        check_dirty_bytes(dirty_bytes)
        self.spec = spec
        self.batch = check_int("batch", batch, 1)
        self.hw = hw or HardwareParams.paper_default()
        self.dba = dba
        self.dirty_bytes = dirty_bytes if dba else 4
        self.coherence = coherence

    def simulate_step(self) -> StepBreakdown:
        """Simulate one TECO training step."""
        spec, hw = self.spec, self.hw
        sim = Simulator()
        # CXL is full duplex per direction over the same PHY; gradients and
        # parameters never stream simultaneously within a step, so one
        # serialized wire models the shared bandwidth faithfully.
        wire = SerialLink(sim, hw.cxl.effective_bandwidth, name="cxl")
        phases = _Phases.of(spec, self.batch, hw)
        marks: dict[str, float] = {}
        update_mode = self.coherence is CoherenceMode.UPDATE

        grad_wire = _cxl_wire_volume(spec.gradient_bytes, 4)  # no DBA on grads
        param_wire = _cxl_wire_volume(spec.param_bytes, self.dirty_bytes)

        def step(sim: Simulator):
            yield sim.timeout(phases.forward)
            marks["fwd_end"] = sim.now
            transfers = []
            if update_mode:
                # Gradient lines stream continuously during backward:
                # fluid approximation in STREAM_CHUNKS pieces.
                per = phases.backward / STREAM_CHUNKS
                per_bytes = grad_wire / STREAM_CHUNKS
                for _ in range(STREAM_CHUNKS):
                    yield sim.timeout(per)
                    transfers.append(wire.transmit(per_bytes))
                marks["bwd_end"] = sim.now
                yield sim.all_of(transfers)  # CXLFENCE after backward
            else:
                # Invalidation mode: lines were invalidated during backward;
                # CPU fetches all gradients on demand afterwards, plus the
                # invalidation-message overhead on the wire.
                yield sim.timeout(phases.backward)
                marks["bwd_end"] = sim.now
                inv_overhead = (
                    spec.gradient_bytes / CACHE_LINE_BYTES
                ) * packet_wire_bytes(0)
                yield wire.transmit(grad_wire + inv_overhead)
            marks["grads_on_cpu"] = sim.now
            yield sim.timeout(phases.clip)
            marks["clip_end"] = sim.now
            if update_mode:
                # Parameter lines stream as the blocked ADAM writes them
                # back (MESI-update); the Aggregator adds a pipelined delay.
                per = phases.adam / STREAM_CHUNKS
                per_bytes = param_wire / STREAM_CHUNKS
                extra = DBA_PIPELINE_DELAY if self.dba else 0.0
                param_transfers = []
                for _ in range(STREAM_CHUNKS):
                    yield sim.timeout(per)
                    param_transfers.append(
                        wire.transmit(per_bytes, extra_delay=extra)
                    )
                marks["adam_end"] = sim.now
                yield sim.all_of(param_transfers)  # CXLFENCE in step()
            else:
                yield sim.timeout(phases.adam)
                marks["adam_end"] = sim.now
                inv_overhead = (
                    spec.param_bytes / CACHE_LINE_BYTES
                ) * packet_wire_bytes(0)
                yield wire.transmit(param_wire + inv_overhead)
            marks["params_on_gpu"] = sim.now

        sim.process(step(sim))
        sim.run()
        _trace_phase_marks(
            sim,
            marks,
            system="teco-reduction" if self.dba else "teco-cxl",
        )

        return StepBreakdown(
            forward=phases.forward,
            backward=marks["bwd_end"] - marks["fwd_end"],
            grad_transfer_exposed=marks["grads_on_cpu"] - marks["bwd_end"],
            grad_clip=phases.clip,
            optimizer=marks["adam_end"] - marks["clip_end"],
            param_transfer_exposed=marks["params_on_gpu"] - marks["adam_end"],
            wire_bytes=wire.bytes_sent,
            wire_bytes_per_link=wire.bytes_sent,
            grad_transfer_raw=hw.cxl.effective_bandwidth.time_for(grad_wire),
            param_transfer_raw=hw.cxl.effective_bandwidth.time_for(param_wire),
        )


def simulate_system(
    kind: SystemKind,
    spec: ModelSpec,
    batch: int,
    hw: HardwareParams | None = None,
    **kwargs,
) -> StepBreakdown:
    """Simulate one step of the named system configuration."""
    if kind is SystemKind.ZERO_OFFLOAD:
        return ZeROOffloadEngine(spec, batch, hw, **kwargs).simulate_step()
    if kind is SystemKind.TECO_CXL:
        return TECOEngine(spec, batch, hw, dba=False, **kwargs).simulate_step()
    if kind is SystemKind.TECO_REDUCTION:
        return TECOEngine(spec, batch, hw, dba=True, **kwargs).simulate_step()
    raise ValueError(f"unknown system kind {kind}")
