"""Ablation — transfer granularity (the paper's first core insight).

"The coarse-grained tensor transfer ... leads to long transfer time per
transfer, which is difficult to be overlapped with computation."  This
ablation quantifies that directly:

* baseline side: sweep ZeRO-Offload's gradient-buffer size from fine to
  coarse and measure exposed gradient-transfer time (coarser buffers stall
  longer per flush and leave a bigger unoverlapped tail);
* TECO side: sweep the streaming chunkiness of the write-back stream toward
  coarse chunks and watch the overlap benefit of cache-line streaming
  collapse back to baseline behaviour.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.registry import register, renderer
from repro.interconnect.cxl import CXLLinkModel
from repro.models import get_model
from repro.offload import HardwareParams
from repro.offload.engines import ZeROOffloadEngine
from repro.trace import adam_writeback_chunks, replay_trace
from repro.utils.tables import format_table
from repro.utils.units import MIB, bytes_human

__all__ = [
    "run_buffer_granularity",
    "run_stream_granularity",
    "run_granularity",
    "render_granularity",
]


def run_buffer_granularity(
    model: str = "bert-large-cased",
    batch: int = 4,
    buffer_sizes: tuple[int, ...] = (
        2 * MIB,
        8 * MIB,
        32 * MIB,
        128 * MIB,
        512 * MIB,
    ),
) -> list[dict]:
    """Exposed gradient time vs ZeRO-Offload buffer size."""
    spec = get_model(model)
    rows = []
    for size in buffer_sizes:
        hw = dataclasses.replace(
            HardwareParams.paper_default(), gradient_buffer_bytes=size
        )
        bd = ZeROOffloadEngine(spec, batch, hw).simulate_step()
        rows.append(
            {
                "buffer_bytes": size,
                "grad_exposed": bd.grad_transfer_exposed,
                "total": bd.total,
            }
        )
    return rows


def run_stream_granularity(
    model: str = "bert-large-cased",
    chunk_lines: tuple[int, ...] = (1, 64, 4096, 262144, 0),
) -> list[dict]:
    """Exposed parameter-transfer time vs streaming granularity.

    Replays the ADAM write-back stream with timestamps quantized to chunk
    boundaries — chunk 1 is TECO's per-line streaming; chunk 0 means "one
    transfer at sweep end" (the coarse-grained baseline behaviour).
    :func:`~repro.trace.replay.replay_trace` replays each sweep's stream
    in closed form, so no line of the trace is ever built.
    """
    spec = get_model(model)
    adam_time = HardwareParams.paper_default().adam_time(spec)
    # Built up front: the sources check ``chunk_lines`` before any replay.
    streams = [
        adam_writeback_chunks(spec.param_bytes, adam_time, chunk_lines=chunk)
        for chunk in chunk_lines
    ]
    link = CXLLinkModel.paper_default()
    rows = []
    for chunk, stream in zip(chunk_lines, streams):
        result = replay_trace(stream, link)
        if chunk == 0:
            label = "whole tensor"  # everything waits for sweep end
        elif chunk == 1:
            label = "per line (TECO)"
        else:
            label = f"{chunk} lines"  # a line shows when its chunk completes
        rows.append(
            {
                "granularity": label,
                "chunk_lines": chunk,
                "exposed": result.exposed_time,
                "overlap": result.overlap_fraction,
            }
        )
    return rows


@register(
    "granularity",
    "Ablation — transfer granularity (buffer + stream)",
    tags=("ablation", "timing"),
)
def run_granularity(
    model: str = "bert-large-cased", batch: int = 4
) -> list[dict]:
    """Both sweeps as one row list, each row tagged with its ``side``."""
    rows = [
        {"side": "buffer", **r} for r in run_buffer_granularity(model, batch)
    ]
    rows += [
        {"side": "stream", **r} for r in run_stream_granularity(model)
    ]
    return rows


@renderer("granularity")
def render_granularity(rows: list[dict]) -> str:
    """Render the rows of :func:`run_granularity` as two tables."""
    a = format_table(
        ["gradient buffer", "exposed grad transfer", "step total"],
        [
            (
                bytes_human(r["buffer_bytes"]),
                f"{r['grad_exposed'] * 1e3:.1f} ms",
                f"{r['total'] * 1e3:.1f} ms",
            )
            for r in rows
            if r["side"] == "buffer"
        ],
        title="Ablation — ZeRO-Offload gradient-buffer granularity",
    )
    b = format_table(
        ["stream granularity", "exposed param transfer", "overlap"],
        [
            (
                r["granularity"],
                f"{r['exposed'] * 1e3:.1f} ms",
                f"{r['overlap']:.0%}",
            )
            for r in rows
            if r["side"] == "stream"
        ],
        title="Ablation — parameter-stream granularity over CXL",
    )
    return a + "\n\n" + b
