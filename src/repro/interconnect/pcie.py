"""PCIe physical-layer model.

Captures what the timing simulation needs from PCIe: per-lane signalling
rate, line-code efficiency, lane count, and a DMA bulk-transfer time model
(setup latency + payload streaming) used by the ZeRO-Offload baseline's
explicit ``cudaMemcpy``-style transfers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.utils.units import US, Bandwidth

__all__ = ["PCIeGen", "PCIeLinkModel"]


class PCIeGen(enum.Enum):
    """PCIe generations with (GT/s per lane, line-code efficiency)."""

    GEN3 = (8.0, 128 / 130)
    GEN4 = (16.0, 128 / 130)
    GEN5 = (32.0, 128 / 130)

    @property
    def gt_per_s(self) -> float:
        """Signalling rate per lane, in GT/s."""
        return self.value[0]

    @property
    def encoding_efficiency(self) -> float:
        """Line-code efficiency (128b/130b for gen 3+)."""
        return self.value[1]

    @property
    def lane_bytes_per_s(self) -> float:
        """Effective payload bytes/s per lane after line coding."""
        return self.gt_per_s * 1e9 / 8 * self.encoding_efficiency


@dataclass(frozen=True)
class PCIeLinkModel:
    """A PCIe link: generation x lane count.

    Parameters
    ----------
    gen
        PCIe generation.
    lanes
        Lane count (x1..x16).
    dma_setup_latency
        Fixed per-transfer cost of programming the DMA copy engine and
        ringing the doorbell; dominates small explicit copies.
    payload_efficiency
        Fraction of raw link bandwidth available to payload after TLP
        framing (headers/CRC) for large DMA bursts.  The dataclass
        default of 1.0 is the *ideal* link (kept for closed-form unit
        math); every timing comparison against the CXL path must charge
        real framing, because the CXL side always pays its per-line
        packet headers (``packet_wire_bytes``) — a 1.0 here would let
        the ZeRO-Offload baseline ship header-free bytes while TECO
        pays protocol overhead, flattering the baseline.
        :meth:`repro.offload.timing.HardwareParams.paper_default`
        therefore calibrates this to 0.85 (typical 256-byte-MPS TLP
        efficiency); see ``tests/test_interconnect.py``
        (``TestHeaderAccountingParity``) for the cross-path check.
    """

    gen: PCIeGen = PCIeGen.GEN3
    lanes: int = 16
    dma_setup_latency: float = 10 * US
    payload_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.lanes not in (1, 2, 4, 8, 16):
            raise ValueError(f"invalid lane count {self.lanes}")
        if not 0 < self.payload_efficiency <= 1:
            raise ValueError("payload_efficiency must be in (0, 1]")
        if self.dma_setup_latency < 0:
            raise ValueError("dma_setup_latency must be non-negative")

    @property
    def raw_bandwidth(self) -> Bandwidth:
        """Link bandwidth before TLP overhead (the paper's ``16 GB/s``)."""
        return Bandwidth(self.gen.lane_bytes_per_s * self.lanes)

    @property
    def effective_bandwidth(self) -> Bandwidth:
        """Payload bandwidth for large DMA transfers."""
        return self.raw_bandwidth.scaled(self.payload_efficiency)

    def dma_transfer_time(self, n_bytes: float) -> float:
        """Wall time for one explicit DMA copy of ``n_bytes``.

        This is the transfer primitive the ZeRO-Offload baseline uses
        (coarse-grained tensor copies).  A zero-byte transfer still pays
        ``dma_setup_latency``: the descriptor is programmed and the
        doorbell rung before the engine discovers there is no payload.
        (An earlier version returned 0.0 here, silently exempting
        degenerate copies from the setup cost every real copy pays.)
        """
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        return self.dma_setup_latency + self.effective_bandwidth.time_for(n_bytes)

    @classmethod
    def paper_default(cls) -> "PCIeLinkModel":
        """PCIe 3.0 x16 at ~16 GB/s, the paper's evaluation link."""
        return cls(gen=PCIeGen.GEN3, lanes=16)
