"""In-fabric gradient aggregation with low-bit wire formats.

The paper's DBA module already places compute inside the CXL path;
*NEURON-Fabric* (PAPERS.md) pushes this further: a reduction engine in
the CXL fabric sums gradient streams from multiple data-parallel ranks
*before* they reach the CPU, so reduced — not per-rank — bytes cross the
memory-pool boundary, and the streams travel in low-bit wire formats.

Two coupled layers live here:

**Numerics** — :class:`WireFormat` and the :func:`encode_tensor` /
:func:`decode_tensor` codec pair.  Every format round-trips through a
real encode/decode (FP16 via IEEE half, BF16 by mantissa truncation,
FP8-E4M3 through an exact 256-entry OCP codebook with round-to-nearest-
even, INT8 through :func:`repro.compression.quant.quantize_int8` routed
over the :class:`repro.dba.Aggregator` dirty-byte pack path), so the
trainable proxies see the genuine rounding error of each wire format,
not an idealized byte count.

**Timing** — :class:`FabricReducer`, a discrete-event reduction stage
attached to a :class:`~repro.interconnect.fabric.CXLFabric`.  It shares
the rank uplink and per-cell barrier with the fabric's other in-switch
unit; once every rank's cell is in, it charges the reduce ALU (a
:class:`~repro.sim.SerialLink` processing the summed inputs) and ships
**one** reduced cell through the pool stage.  Its cells ride the
fabric's arrival merge: the drain that completes a barrier books the
ALU, the reduced cell joins the pool merge keyed by its ALU exit, and a
call pushes five events however many cells and ranks it has.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.interconnect.fabric import (
    _INF,
    CXLFabric,
    _check_amount,
    _Collect,
    _RankUnit,
    _tail,
)
from repro.sim import SerialLink, SimEvent
from repro.utils.units import NS, Bandwidth

__all__ = [
    "WireFormat",
    "EncodedTensor",
    "encode_tensor",
    "decode_tensor",
    "wire_roundtrip",
    "wire_bytes_for",
    "aggregate_streams",
    "FabricReducer",
]

#: Near-memory reduce-engine throughput over its *summed inputs* (an
#: R-rank reduction of C cell bytes occupies the ALU for R*C bytes).
DEFAULT_REDUCE_BANDWIDTH = 100e9

#: Fixed per-cell latency of the reduce engine front-end.
DEFAULT_REDUCE_LATENCY = 200 * NS

#: FP8-E4M3 saturation bound (OCP spec: S.1111.110 = 448).
FP8_E4M3_MAX = 448.0


class WireFormat(enum.Enum):
    """Gradient wire formats selectable per transfer.

    ``FP32`` is lossless passthrough; ``FP16`` converts through IEEE
    half precision (round-to-nearest-even); ``BF16`` truncates the FP32
    mantissa to 7 bits; ``FP8_E4M3`` is the OCP 8-bit format (4 exponent
    / 3 mantissa bits, saturating at ±448, NaN preserved); ``INT8_DBA``
    is symmetric per-tensor INT8 quantization whose byte lanes ride the
    DBA Aggregator's dirty-byte pack path (1 byte per word + one FP32
    scale on the wire).
    """

    FP32 = "fp32"
    FP16 = "fp16"
    BF16 = "bf16"
    FP8_E4M3 = "fp8-e4m3"
    INT8_DBA = "int8-dba"

    @classmethod
    def parse(cls, value: "WireFormat | str") -> "WireFormat":
        """Accept an enum member or its string value (CLI/registry use)."""
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise ValueError(
            f"unknown wire format {value!r}; known: {[m.value for m in cls]}"
        )

    @property
    def bytes_per_value(self) -> int:
        """Payload bytes each FP32 value occupies on the wire."""
        return _BYTES_PER_VALUE[self]

    @property
    def overhead_bytes(self) -> int:
        """Per-tensor side-channel bytes (the INT8 FP32 scale)."""
        return 4 if self is WireFormat.INT8_DBA else 0

    def wire_bytes(self, n_values: int) -> int:
        """Total wire bytes for an ``n_values`` FP32 tensor."""
        if n_values < 0:
            raise ValueError("n_values must be non-negative")
        return n_values * self.bytes_per_value + self.overhead_bytes


_BYTES_PER_VALUE = {
    WireFormat.FP32: 4,
    WireFormat.FP16: 2,
    WireFormat.BF16: 2,
    WireFormat.FP8_E4M3: 1,
    WireFormat.INT8_DBA: 1,
}


def wire_bytes_for(n_fp32_bytes: float, fmt: "WireFormat | str") -> float:
    """Wire bytes for a tensor given its FP32 byte size (timing models)."""
    fmt = WireFormat.parse(fmt)
    if n_fp32_bytes < 0:
        raise ValueError("n_fp32_bytes must be non-negative")
    return n_fp32_bytes * (fmt.bytes_per_value / 4.0) + fmt.overhead_bytes


# --- FP8-E4M3 codebook ----------------------------------------------------
def _fp8_e4m3_decode_table() -> np.ndarray:
    """FP32 value of every E4M3 code 0..255 (0x7F/0xFF decode to NaN)."""
    codes = np.arange(256, dtype=np.uint32)
    sign = np.where(codes >> 7, -1.0, 1.0).astype(np.float64)
    e = ((codes >> 3) & 0xF).astype(np.int64)
    m = (codes & 0x7).astype(np.float64)
    vals = np.where(
        e == 0,
        m / 8.0 * 2.0**-6,  # subnormals (and ±0)
        (1.0 + m / 8.0) * 2.0 ** (e - 7.0),
    )
    vals = sign * vals
    vals[(codes & 0x7F) == 0x7F] = np.nan  # S.1111.111 is NaN
    return vals.astype(np.float32)


_FP8_TABLE = _fp8_e4m3_decode_table()
#: Positive magnitudes of codes 0x00..0x7E, ascending (code == index).
_FP8_POSITIVE = _FP8_TABLE[:127].astype(np.float64)


def _fp8_encode(x: np.ndarray) -> np.ndarray:
    """Vectorized FP32 -> E4M3 codes: round-to-nearest-even, saturating."""
    x = np.asarray(x, dtype=np.float32)
    flat = x.reshape(-1).astype(np.float64)
    nan_mask = np.isnan(flat)
    mag = np.clip(np.abs(np.where(nan_mask, 0.0, flat)), 0.0, FP8_E4M3_MAX)
    # Bracket |x| between adjacent codebook magnitudes and pick the
    # nearer one; exact midpoints go to the code with an even LSB.
    hi = np.searchsorted(_FP8_POSITIVE, mag, side="left")
    hi = np.clip(hi, 0, 126)
    lo = np.maximum(hi - 1, 0)
    d_lo = mag - _FP8_POSITIVE[lo]
    d_hi = _FP8_POSITIVE[hi] - mag
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (hi % 2 == 0))
    code = np.where(pick_hi, hi, lo).astype(np.uint8)
    code = np.where(mag >= _FP8_POSITIVE[126], np.uint8(126), code)
    sign_bit = (np.signbit(flat)).astype(np.uint8) << 7
    code = code | sign_bit
    code = np.where(nan_mask, np.uint8(0x7F), code)
    return code.reshape(x.shape)


@dataclass(frozen=True)
class EncodedTensor:
    """One tensor encoded for the wire.

    ``payload`` is the exact byte-level wire image (dtype varies by
    format); ``scale`` is the INT8 side channel; ``n_values`` the FP32
    element count (needed to strip DBA line padding on decode).
    """

    fmt: WireFormat
    payload: np.ndarray
    n_values: int
    shape: tuple[int, ...]
    scale: float | None = None

    @property
    def wire_bytes(self) -> int:
        """Bytes this tensor occupies on the wire (padding excluded)."""
        return self.fmt.wire_bytes(self.n_values)

    def decode(self) -> np.ndarray:
        """Reconstruct the FP32 tensor (lossy except FP32)."""
        return decode_tensor(self)


def encode_tensor(x: np.ndarray, fmt: "WireFormat | str") -> EncodedTensor:
    """Encode an FP32 tensor into ``fmt``'s wire representation.

    The encoding is numerically honest: decoding the returned payload
    reproduces exactly the values the receiving end would see, rounding
    error included.  ``INT8_DBA`` rejects non-finite input (the
    quantizer's scale would be poisoned); the float formats handle
    NaN/Inf natively (FP8 saturates infinities at ±448).
    """
    fmt = WireFormat.parse(fmt)
    x = np.asarray(x, dtype=np.float32)
    n = x.size
    if fmt is WireFormat.FP32:
        payload = x.copy().reshape(-1)
    elif fmt is WireFormat.FP16:
        payload = x.astype(np.float16).reshape(-1)
    elif fmt is WireFormat.BF16:
        # Truncate to the high 16 bits of the FP32 pattern (the classic
        # chop-rounding BF16 cast); keep them as uint16 wire words.
        payload = (
            (np.ascontiguousarray(x).view(np.uint32) >> np.uint32(16))
            .astype(np.uint16)
            .reshape(-1)
        )
    elif fmt is WireFormat.FP8_E4M3:
        payload = _fp8_encode(x).reshape(-1)
    else:  # INT8_DBA
        # Lazy imports: quant/dba sit above offload in the package DAG,
        # and this module is re-exported from repro.interconnect, which
        # they (indirectly) import at package-init time.
        from repro.compression.quant import quantize_int8
        from repro.dba.aggregator import Aggregator
        from repro.dba.registers import DBARegister

        q = quantize_int8(x.reshape(-1))
        # Ride the Aggregator's dirty-byte path: widen each INT8 byte
        # pattern into a word's low byte and pack with dirty_bytes=1 —
        # the payload is exactly the INT8 byte lanes, produced by (and
        # accounted through) the DBA pack hardware model.
        agg = Aggregator(DBARegister(enabled=True, dirty_bytes=1))
        words = q.values.view(np.uint8).astype(np.uint32).view(np.float32)
        payload = agg.pack_tensor(words).reshape(-1)
        return EncodedTensor(
            fmt=fmt,
            payload=payload,
            n_values=n,
            shape=x.shape,
            scale=q.scale,
        )
    return EncodedTensor(fmt=fmt, payload=payload, n_values=n, shape=x.shape)


def decode_tensor(enc: EncodedTensor) -> np.ndarray:
    """Decode a wire payload back to FP32 (the receiver's view)."""
    fmt = enc.fmt
    if fmt is WireFormat.FP32:
        out = enc.payload.astype(np.float32)
    elif fmt is WireFormat.FP16:
        out = enc.payload.astype(np.float32)
    elif fmt is WireFormat.BF16:
        out = (enc.payload.astype(np.uint32) << np.uint32(16)).view(np.float32)
    elif fmt is WireFormat.FP8_E4M3:
        out = _FP8_TABLE[enc.payload]
    else:  # INT8_DBA — strip the DBA line padding, then dequantize.
        from repro.compression.quant import (
            QuantizationResult,
            dequantize_int8,
        )

        raw = enc.payload.reshape(-1)[: enc.n_values].view(np.int8)
        out = dequantize_int8(
            QuantizationResult(values=raw, scale=float(enc.scale))
        )
    return out.reshape(enc.shape).astype(np.float32, copy=False)


def wire_roundtrip(x: np.ndarray, fmt: "WireFormat | str") -> np.ndarray:
    """``decode(encode(x))`` — the rounding a tensor suffers on the wire."""
    return decode_tensor(encode_tensor(x, fmt))


def aggregate_streams(
    streams: list[np.ndarray], fmt: "WireFormat | str"
) -> tuple[np.ndarray, dict]:
    """Sum per-rank gradient streams as the in-fabric reducer would.

    Each rank's stream is encoded into ``fmt``, decoded at the reducer
    (so each carries its own rounding error), and summed in FP32.
    Returns the reduced tensor and a wire accounting dict:
    ``in_bytes`` (sum of per-rank encoded bytes entering the fabric) and
    ``out_bytes`` (the single reduced stream crossing the pool boundary,
    re-encoded in the same format).
    """
    if not streams:
        raise ValueError("aggregate_streams needs at least one stream")
    fmt = WireFormat.parse(fmt)
    shape = np.asarray(streams[0]).shape
    total = np.zeros(shape, dtype=np.float32)
    in_bytes = 0
    for s in streams:
        s = np.asarray(s, dtype=np.float32)
        if s.shape != shape:
            raise ValueError("all streams must share one shape")
        enc = encode_tensor(s, fmt)
        in_bytes += enc.wire_bytes
        total += enc.decode()
    out_bytes = fmt.wire_bytes(int(np.prod(shape, dtype=np.int64)))
    return total, {
        "format": fmt.value,
        "n_streams": len(streams),
        "in_bytes": in_bytes,
        "out_bytes": out_bytes,
    }


class FabricReducer(_RankUnit):
    """Discrete-event in-fabric reduction stage on a :class:`CXLFabric`.

    One reducer represents the aggregation engine serving one tenant's
    data-parallel job: ``ranks`` names the fabric port each gradient
    stream enters through (several ranks may share a port — GPUs behind
    one node attachment — in which case their cells serialize on it).

    :meth:`reduce` runs one reduction.  The uplink and the per-cell rank
    barrier are the skeleton it shares with
    :class:`~repro.interconnect.gather.FabricGather`; once a cell's
    barrier completes the reducer occupies the reduce ALU for the summed
    input bytes and transmits a single reduced cell through the tenant's
    pool link — so the pool boundary carries ``n_bytes_per_rank`` total
    instead of ``len(ranks) * n_bytes_per_rank``.
    """

    kind = "reduce"

    def __init__(
        self,
        fabric: CXLFabric,
        ranks,
        *,
        tenant: int = 0,
        reduce_bandwidth: float = DEFAULT_REDUCE_BANDWIDTH,
        reduce_latency: float = DEFAULT_REDUCE_LATENCY,
        name: str | None = None,
    ):
        alu_bandwidth = Bandwidth(reduce_bandwidth)
        super().__init__(fabric, ranks, tenant=tenant, name=name)
        #: The reduce ALU: a serialized engine whose occupancy per cell
        #: is the *summed* input bytes of all ranks.
        self.alu = SerialLink(
            fabric.sim,
            alu_bandwidth,
            latency=reduce_latency,
            name=f"{self.name}-alu",
        )

    def reduce(
        self, n_bytes_per_rank: float, extra_delay: float = 0.0
    ) -> SimEvent:
        """Reduce one ``n_bytes_per_rank`` stream from every rank.

        Returns the delivery event: it fires when the last reduced cell
        leaves the pool stage.  ``extra_delay`` is charged once per rank
        ahead of its first cell (DMA setup / encode front-end).

        The call pushes the events of its last cell only: its last rank
        cell's port exit, its barrier, its ALU exit and its pool exit.
        """
        _check_amount("n_bytes_per_rank", n_bytes_per_rank)
        _check_amount("extra_delay", extra_delay)
        col, trains = self._collect(n_bytes_per_rank, extra_delay)
        fabric = self.fabric
        sim = fabric.sim
        done = sim.event()

        def settle(_ev: SimEvent) -> None:
            fabric._drain(sim.now, col.call, col.reg)
            sim.at(col.bar[-1]).callbacks.append(barrier)

        def barrier(_ev: SimEvent) -> None:
            sim.at(col.key[0]).callbacks.append(alu_exit)

        def alu_exit(_ev: SimEvent) -> None:
            fabric._drain(sim.now, col.bar[-1], _INF)
            fabric._to_pool([], col.key)
            _tail(sim, col.last_exits[1:], done, n_bytes_per_rank)

        sim.at(max(train.times[-1] for train in trains)).callbacks.append(
            settle
        )
        return done

    def _forward(
        self, col: _Collect, i: int, t_bar: float, t_port: float, push: int
    ) -> None:
        """Book the ALU over the summed inputs and queue the reduced cell."""
        summed = col.cell * self.n_ranks
        alu = self.alu
        t_alu = t_bar + (alu.occupy(t_bar, summed) - t_bar)
        tracer = self.fabric.sim.tracer
        if tracer.enabled:
            tracer.add_span(
                t_bar,
                t_bar + alu.bandwidth.time_for(summed),
                "fabric-reduce",
                "fabric",
                track=self.name,
                tenant=self.tenant,
                bytes=col.cell,
                ranks=self.n_ranks,
            )
        self.fabric._queue_reduced(col, i, t_alu, t_bar, t_port, push)
