"""Group-prefetch activation offloading over the CXL memory tier.

The paper offloads *optimizer state*; the same CXL-attached memory is
just as suited to activation spilling — the NeMo ``cpu_offload``
``GroupOffloadHandler`` pattern: layers are partitioned into *offload
groups*, each group's activations are evicted to far memory as its
forward compute finishes, and the backward pass prefetches groups ahead
of need so the fetch overlaps the previous group's backward compute.

:class:`GroupOffloadPolicy` is the per-layer policy (group size, how
many groups offload, per-layer skips, prefetch depth);
:class:`ActivationOffloadEngine` runs one training step of a Table III
model with that policy layered on top of the TECO streaming step:

* **forward** — each group's layers compute in sequence; an offloaded
  group's activations leave on the GPU→CXL wire as soon as the group
  finishes, and a ``CXLFENCE`` at forward end exposes only the
  undrained eviction tail (``act_evict_exposed``);
* **backward** — groups run in reverse; an offloaded group's
  activations must be back before its backward compute starts.  The
  engine keeps up to ``prefetch_groups`` fetches in flight ahead of the
  group being computed; any residual stall is ``act_fetch_exposed``.
  Gradient lines stream on the GPU→CXL wire during backward exactly as
  in :class:`~repro.offload.engines.TECOEngine`;
* **optimizer** — clip + ADAM with parameter write-back streaming on
  the CXL→GPU wire.

CXL is full duplex, so the two directions are separate
:class:`~repro.sim.SerialLink` wires: evictions + gradients share the
upstream wire, fetches + parameters the downstream wire — eviction
drain contends with gradient streaming, and prefetches contend with
nothing during backward until parameters start (which they never do
before backward ends).  All contention is emergent from the
discrete-event timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dba.registers import check_dirty_bytes
from repro.models.specs import ModelSpec
from repro.offload.breakdown import StepBreakdown
from repro.offload.engines import (
    STREAM_CHUNKS,
    _cxl_wire_volume,
    _trace_phase_marks,
    _Phases,
)
from repro.offload.memory import MemoryModel
from repro.offload.timing import HardwareParams
from repro.sim import SerialLink, Simulator

__all__ = ["GroupOffloadPolicy", "ActivationStepResult", "ActivationOffloadEngine"]


@dataclass(frozen=True)
class GroupOffloadPolicy:
    """Which activations offload, in what granularity, prefetched how far.

    Parameters
    ----------
    n_layers
        Model depth the policy partitions.
    group_size
        Layers per offload group (NeMo's ``offload_num_layer`` grain).
    offload_groups
        How many groups — counted from layer 0, the groups whose
        activations sit longest before backward needs them — spill to
        CXL.  ``None`` offloads every group.
    prefetch_groups
        Fetches kept in flight ahead of the backward group being
        computed.  ``0`` is pure on-demand (the fetch starts when the
        group's backward is about to — fully exposed).
    skip_layers
        Layers whose activations never offload regardless of their
        group (e.g. layers whose tensors a filter pins on-GPU, the
        ``tensor_need_offloading_checker`` hook).
    """

    n_layers: int
    group_size: int = 1
    offload_groups: int | None = None
    prefetch_groups: int = 1
    skip_layers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.prefetch_groups < 0:
            raise ValueError("prefetch_groups must be >= 0")
        if self.offload_groups is not None and not (
            0 <= self.offload_groups <= self.n_groups
        ):
            raise ValueError(
                f"offload_groups must be in [0, {self.n_groups}]"
            )
        for layer in self.skip_layers:
            if not 0 <= layer < self.n_layers:
                raise ValueError(f"skip layer {layer} out of range")

    @classmethod
    def from_fraction(
        cls,
        n_layers: int,
        offload_fraction: float,
        group_size: int = 1,
        prefetch_groups: int = 1,
        skip_layers: tuple[int, ...] = (),
    ) -> "GroupOffloadPolicy":
        """Policy offloading the first ``offload_fraction`` of groups."""
        if not 0.0 <= offload_fraction <= 1.0:
            raise ValueError("offload_fraction must be in [0, 1]")
        n_groups = -(-n_layers // group_size)
        return cls(
            n_layers=n_layers,
            group_size=group_size,
            offload_groups=round(offload_fraction * n_groups),
            prefetch_groups=prefetch_groups,
            skip_layers=skip_layers,
        )

    @property
    def n_groups(self) -> int:
        """Total layer groups (last one may be short)."""
        return -(-self.n_layers // self.group_size)

    def group_layers(self, group: int) -> tuple[int, ...]:
        """The layer indices of ``group``."""
        if not 0 <= group < self.n_groups:
            raise ValueError(f"group {group} out of range")
        lo = group * self.group_size
        hi = min(lo + self.group_size, self.n_layers)
        return tuple(range(lo, hi))

    def offloaded_layers(self, group: int) -> tuple[int, ...]:
        """The layers of ``group`` whose activations actually spill."""
        if group >= self.resolved_offload_groups:
            return ()
        skip = set(self.skip_layers)
        return tuple(
            layer for layer in self.group_layers(group) if layer not in skip
        )

    @property
    def resolved_offload_groups(self) -> int:
        """``offload_groups`` with the all-groups default applied."""
        if self.offload_groups is None:
            return self.n_groups
        return self.offload_groups

    @property
    def total_offloaded_layers(self) -> int:
        """Layers whose activations spill to CXL under this policy."""
        return sum(
            len(self.offloaded_layers(g)) for g in range(self.n_groups)
        )


@dataclass(frozen=True)
class ActivationStepResult:
    """One activation-offload step: breakdown + activation traffic."""

    breakdown: StepBreakdown
    #: Activation bytes resident in the step (model-level footprint).
    act_bytes: float
    #: Wire bytes activation traffic cost, per direction (evict == fetch).
    act_wire_bytes: float
    #: Layers whose activations spilled.
    offloaded_layers: int
    #: GPU memory freed at forward end (offloaded activation bytes).
    freed_bytes: float
    #: Per-group fetch stalls, reverse-group order (diagnostics).
    group_stalls: tuple[float, ...] = field(default=())

    @property
    def total(self) -> float:
        """Critical-path step time."""
        return self.breakdown.total


class ActivationOffloadEngine:
    """One training step with group-prefetch activation offloading."""

    def __init__(
        self,
        spec: ModelSpec,
        batch: int,
        policy: GroupOffloadPolicy | None = None,
        hw: HardwareParams | None = None,
        memory: MemoryModel | None = None,
        dba: bool = False,
        dirty_bytes: int = 2,
    ):
        if batch <= 0:
            raise ValueError("batch must be positive")
        self.spec = spec
        self.batch = batch
        self.hw = hw or HardwareParams.paper_default()
        self.memory = memory or MemoryModel()
        self.policy = policy or GroupOffloadPolicy(n_layers=spec.n_layers)
        if self.policy.n_layers != spec.n_layers:
            raise ValueError(
                f"policy covers {self.policy.n_layers} layers but "
                f"{spec.name} has {spec.n_layers}"
            )
        check_dirty_bytes(dirty_bytes)
        self.dba = dba
        self.dirty_bytes = dirty_bytes if dba else 4

    def simulate_step(self) -> ActivationStepResult:
        """Simulate one step under the group-offload policy."""
        spec, hw, policy = self.spec, self.hw, self.policy
        sim = Simulator()
        # Full-duplex CXL: one wire per direction.
        up = SerialLink(sim, hw.cxl.effective_bandwidth, name="cxl-up")
        down = SerialLink(sim, hw.cxl.effective_bandwidth, name="cxl-down")
        phases = _Phases.of(spec, self.batch, hw)
        marks: dict[str, float] = {}

        n_layers = spec.n_layers
        per_fwd = phases.forward / n_layers
        per_bwd = phases.backward / n_layers
        act_total = self.memory.activation_bytes(spec, self.batch)
        per_layer_act = act_total / n_layers
        grad_wire = _cxl_wire_volume(spec.gradient_bytes, 4)
        param_wire = _cxl_wire_volume(spec.param_bytes, self.dirty_bytes)

        n_groups = policy.n_groups
        group_wire = [
            _cxl_wire_volume(
                per_layer_act * len(policy.offloaded_layers(g)), 4
            )
            if policy.offloaded_layers(g)
            else 0.0
            for g in range(n_groups)
        ]
        freed_bytes = per_layer_act * policy.total_offloaded_layers
        group_stalls: list[float] = []

        def step(sim: Simulator):
            # ---- forward: compute group-by-group, evict as groups end.
            evictions = []
            for g in range(n_groups):
                yield sim.timeout(per_fwd * len(policy.group_layers(g)))
                if group_wire[g]:
                    evictions.append(up.transmit(group_wire[g]))
            marks["fwd_end"] = sim.now
            yield sim.all_of(evictions)  # CXLFENCE: evictions must land
            marks["evict_done"] = sim.now

            # ---- backward: reverse groups, prefetch window ahead.
            rev = list(range(n_groups - 1, -1, -1))
            fetches: dict[int, object] = {}
            issued = 0

            def issue_through(k: int) -> None:
                nonlocal issued
                while issued <= min(k, n_groups - 1):
                    g = rev[issued]
                    if group_wire[g]:
                        fetches[g] = down.transmit(group_wire[g])
                    issued += 1

            grad_transfers = []
            per_grad = grad_wire / STREAM_CHUNKS
            chunks_done = 0
            layers_done = 0
            for k, g in enumerate(rev):
                issue_through(k + policy.prefetch_groups)
                stall = 0.0
                if g in fetches:
                    t0 = sim.now
                    yield fetches[g]
                    stall = sim.now - t0
                    if stall > 0.0 and sim.tracer.enabled:
                        sim.tracer.add_span(
                            t0,
                            sim.now,
                            "act-fetch-stall",
                            "offload",
                            track="transfer",
                            group=g,
                            bytes=group_wire[g],
                        )
                group_stalls.append(stall)
                # Gradient lines stream during this group's compute
                # (TECO update protocol), interleaved layer-by-layer.
                for _ in policy.group_layers(g):
                    yield sim.timeout(per_bwd)
                    layers_done += 1
                    target = (layers_done * STREAM_CHUNKS) // n_layers
                    while chunks_done < target:
                        grad_transfers.append(up.transmit(per_grad))
                        chunks_done += 1
            while chunks_done < STREAM_CHUNKS:
                grad_transfers.append(up.transmit(per_grad))
                chunks_done += 1
            marks["bwd_end"] = sim.now
            yield sim.all_of(grad_transfers)  # CXLFENCE after backward
            marks["grads_on_cpu"] = sim.now

            # ---- optimizer: clip, then ADAM with param streaming.
            yield sim.timeout(phases.clip)
            marks["clip_end"] = sim.now
            per = phases.adam / STREAM_CHUNKS
            per_param = param_wire / STREAM_CHUNKS
            param_transfers = []
            for _ in range(STREAM_CHUNKS):
                yield sim.timeout(per)
                param_transfers.append(down.transmit(per_param))
            marks["adam_end"] = sim.now
            yield sim.all_of(param_transfers)
            marks["params_on_gpu"] = sim.now

        sim.process(step(sim))
        sim.run()
        _trace_phase_marks(sim, marks, system="activation-offload")

        evict_exposed = marks["evict_done"] - marks["fwd_end"]
        fetch_exposed = sum(group_stalls)
        backward_span = marks["bwd_end"] - marks["evict_done"]
        breakdown = StepBreakdown(
            forward=phases.forward,
            backward=backward_span - fetch_exposed,
            grad_transfer_exposed=marks["grads_on_cpu"] - marks["bwd_end"],
            grad_clip=phases.clip,
            optimizer=marks["adam_end"] - marks["clip_end"],
            param_transfer_exposed=marks["params_on_gpu"] - marks["adam_end"],
            wire_bytes=up.bytes_sent + down.bytes_sent,
            wire_bytes_per_link=up.bytes_sent + down.bytes_sent,
            act_evict_exposed=evict_exposed,
            act_fetch_exposed=fetch_exposed,
            grad_transfer_raw=hw.cxl.effective_bandwidth.time_for(grad_wire),
            param_transfer_raw=hw.cxl.effective_bandwidth.time_for(param_wire),
        )
        return ActivationStepResult(
            breakdown=breakdown,
            act_bytes=act_total,
            act_wire_bytes=sum(group_wire),
            offloaded_layers=policy.total_offloaded_layers,
            freed_bytes=freed_bytes,
            group_stalls=tuple(group_stalls),
        )
