"""CXL trace replay (the artifact's ``process.py`` stand-in).

Replays a write-back trace over the serial CXL link: each line enters the
wire no earlier than its write-back timestamp and no earlier than the
previous line's wire departure (cache lines stream "one after another").
The replayer reports the transfer time *not overlapped* with the producing
computation — exactly what the paper adds to the gem5 simulation time.

The queueing recursion ``depart[i] = max(arrive[i], depart[i-1]) + t_line``
is vectorized via the standard transformation
``depart[i] = t_line*(i+1) + max_{j<=i}(arrive[j] - t_line*j)``
(a running maximum), so multi-million-line traces replay in milliseconds.
The maximum folds across chunks, so a trace can also arrive as a stream
of time arrays and replay in bounded memory.

The analytic ADAM sweep needs no fold at all: given its
:class:`~repro.trace.generator.SweepChunks`, :func:`replay_trace` takes
the running maximum at the few line indices where it can lie, and the
fold of the same blocks is its oracle.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.dba.registers import check_dirty_bytes
from repro.interconnect.cxl import CXLLinkModel
from repro.interconnect.packets import CACHE_LINE_BYTES, packet_wire_bytes
from repro.memsim.trace import WritebackTrace
from repro.obs.profile import active_profile
from repro.trace.generator import SweepChunks

__all__ = [
    "ReplayResult",
    "replay_trace",
    "replay_trace_scalar",
]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one trace over the link."""

    #: Time the last line finished crossing the link.
    finish_time: float
    #: Producer-side compute end (last write-back timestamp).
    compute_end: float
    #: Link time exposed beyond the compute window.
    exposed_time: float
    #: Total wire occupancy.
    wire_time: float
    #: Payload+header bytes on the wire.
    wire_bytes: int
    n_lines: int

    @property
    def overlap_fraction(self) -> float:
        """Fraction of wire time hidden under the producer's compute."""
        if self.wire_time == 0:
            return 1.0
        return 1.0 - self.exposed_time / self.wire_time


def _check_replay_args(dirty_bytes, start_time) -> None:
    """Reject inputs that would replay to a silently wrong result (a
    fractional or out-of-range ``dirty_bytes`` skews the wire bytes, a
    NaN ``start_time`` hides every exposed second).  Trace times are
    checked by :func:`_time_chunks`."""
    check_dirty_bytes(dirty_bytes)
    if not math.isfinite(start_time):
        raise ValueError(f"start_time must be finite, got {start_time!r}")


def _observe_replay(result: ReplayResult, first_arrival) -> None:
    """Record a replay's summary into the active :mod:`repro.obs` profile.

    A multi-million-line trace cannot afford per-line events, so the
    replay contributes aggregates: one ``stream`` span covering the wire
    activity window, an ``exposed`` span for the tail beyond compute, a
    ``compute-end`` instant, and counters for lines/bytes.
    """
    profile = active_profile()
    tracer, metrics = profile.tracer, profile.metrics
    if tracer.enabled:
        tracer.add_span(
            first_arrival,
            result.finish_time,
            "stream",
            "link",
            track="replay",
            n_lines=result.n_lines,
            wire_bytes=result.wire_bytes,
        )
        tracer.instant(
            result.compute_end, "compute-end", "link", track="replay"
        )
        if result.exposed_time > 0:
            tracer.add_span(
                result.compute_end,
                result.finish_time,
                "exposed",
                "link",
                track="replay-exposed",
            )
    if metrics.enabled:
        metrics.counter("replay.lines").inc(result.n_lines)
        metrics.counter("replay.wire_bytes").inc(result.wire_bytes)
        metrics.sample(
            "replay.exposed_time", result.finish_time, result.exposed_time
        )


def _time_chunks(trace) -> Iterator[np.ndarray]:
    """The non-empty 1-D time arrays of ``trace``, checked if a stream.

    A :class:`WritebackTrace` is one chunk and already sorted and finite.
    A chunk stream cannot be sorted after the fact, so each chunk must be
    1-D, finite, and non-decreasing within and across chunk boundaries.
    """
    if isinstance(trace, WritebackTrace):
        if len(trace):
            yield trace.times
        return
    last = -math.inf
    for k, times in enumerate(trace):
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError(f"chunk {k} must be 1-D, got shape {times.shape}")
        if not times.size:
            continue
        # min/max reduce without a temporary, unlike np.isfinite(times).
        if not (math.isfinite(times.min()) and math.isfinite(times.max())):
            raise ValueError(f"chunk {k} holds a non-finite time")
        if times[0] < last or (times[1:] < times[:-1]).any():
            raise ValueError(f"chunk {k} decreases in time; sort the stream")
        last = times[-1]
        yield times


def replay_trace(
    trace: WritebackTrace | Iterable[np.ndarray],
    link: CXLLinkModel | None = None,
    dirty_bytes: int = 4,
    start_time: float = 0.0,
) -> ReplayResult:
    """Replay ``trace`` over ``link``; returns exposure accounting.

    Parameters
    ----------
    trace
        Write-back events: a :class:`WritebackTrace`, or an iterable of
        1-D time arrays (e.g.
        :func:`~repro.trace.generator.adam_writeback_chunks`) that
        together are non-decreasing.  The running maximum closing the
        queueing recursion folds across chunks, so a stream replays in
        one chunk's memory and gives bit for bit the result of its
        concatenation.  The analytic sweep's stream, a
        :class:`~repro.trace.generator.SweepChunks`, replays in closed
        form (:func:`_sweep_fold`) with that same result.
    link
        CXL link model (paper default if omitted).
    dirty_bytes
        DBA setting: 4 = full lines, 2 = aggregated payloads.
    start_time
        Wire availability time (e.g. end of earlier traffic).

    Under an active :mod:`repro.obs` profile the replay records summary
    spans/counters (never per-line events — traces can be huge).
    """
    _check_replay_args(dirty_bytes, start_time)
    link = link or CXLLinkModel.paper_default()
    t_line = link.line_transfer_time(dirty_bytes)
    fold = None
    # Sweep times are never negative, so a wire free from ``start_time
    # <= 0`` delays no line, and the closed form needs no clamp.
    if isinstance(trace, SweepChunks) and start_time <= 0:
        fold = _sweep_fold(trace, t_line)
    if fold is None:
        fold = _fold(_time_chunks(trace), t_line, start_time)
    n, head_start, first_arrival, compute_end = fold
    if n == 0:
        return ReplayResult(
            finish_time=start_time,
            compute_end=start_time,
            exposed_time=0.0,
            wire_time=0.0,
            wire_bytes=0,
            n_lines=0,
        )
    depart_last = float(t_line * n + head_start)
    per_line_bytes = packet_wire_bytes(CACHE_LINE_BYTES * dirty_bytes // 4)
    result = ReplayResult(
        finish_time=depart_last,
        compute_end=compute_end,
        exposed_time=max(0.0, depart_last - compute_end),
        wire_time=t_line * n,
        wire_bytes=per_line_bytes * n,
        n_lines=n,
    )
    _observe_replay(result, first_arrival)
    return result


def _fold(chunks, t_line, start_time):
    """``(n, head_start, first_arrival, compute_end)`` of a replay, by
    folding the running maximum ``max_i(arrive_i - i * t_line)`` over
    the time chunks."""
    n = 0
    head_start = -np.inf
    first_arrival = compute_end = start_time
    for times in chunks:
        arrive = np.maximum(times, start_time)
        if n == 0:
            first_arrival = float(arrive[0])
        compute_end = float(arrive[-1])
        idx = np.arange(n, n + times.size, dtype=np.float64)
        head_start = max(head_start, float(np.max(arrive - idx * t_line)))
        n += times.size
    return n, head_start, first_arrival, compute_end


#: The closed form trusts a piece's monotonicity only when its per-chunk
#: slope exceeds this many ULPs of the largest term.  Rounding moves each
#: term by at most 1.5 ULP, so two neighbours by at most 3.
SLOPE_GUARD_ULPS = 64


def _sweep_fold(sweep: SweepChunks, t_line: float):
    """:func:`_fold` of ``sweep`` from a few of its lines, or ``None``
    when rounding could hide which line holds the maximum.

    Each term ``arrive_i - i * t_line`` is rounded as the fold rounds
    it.  Inside a chunk the arrival is constant, so the chunk's first
    line holds its maximum.  Across chunks the arrival rises linearly up
    to chunk ``b`` (found by bisection), and from there it is the sweep
    end, where the terms fall.  Along the rise the terms are monotone,
    with slope ``chunk_lines * (tpl - t_line)`` per chunk: falling, they
    peak at chunk 0; rising, at chunk ``b - 1``, or ``b - 2`` if the
    rise reaches a ragged last chunk.  So chunks 0 and ``b - 2 .. b``
    are the only candidates, unless the slope is within rounding noise
    and some chunk is not a candidate.  DESIGN.md gives the bounds.
    """
    n, end = sweep.n_lines, sweep.sweep_duration
    # ``chunk_lines`` 0 (every line at sweep end) is one constant chunk.
    chunk = sweep.chunk_lines or n
    n_chunks = -(-n // chunk)
    at_end = bisect.bisect_left(
        range(n_chunks),
        True,
        key=lambda k: bool(sweep.times(np.array([k * chunk]))[0] >= end),
    )
    ks = sorted({0, *range(max(at_end - 2, 0), min(at_end + 1, n_chunks))})
    noise = math.ulp(max(end, n * t_line))
    slope = chunk * (sweep.time_per_line - t_line)
    if len(ks) < n_chunks and abs(slope) <= SLOPE_GUARD_ULPS * noise:
        return None
    # The last line rides along: it is a term of the maximum too, and
    # its arrival is the compute end.
    idx = np.array([k * chunk for k in ks] + [n - 1], dtype=np.int64)
    arrive = sweep.times(idx)
    head_start = float(np.max(arrive - idx.astype(np.float64) * t_line))
    return n, head_start, float(arrive[0]), float(arrive[-1])


def replay_trace_scalar(
    trace: WritebackTrace,
    link: CXLLinkModel | None = None,
    dirty_bytes: int = 4,
    start_time: float = 0.0,
) -> ReplayResult:
    """Reference replay: the queueing recursion written out per event.

    ``depart[i] = max(arrive[i], depart[i-1]) + t_line`` — the semantic
    definition the vectorized :func:`replay_trace` transforms into a
    running maximum.  The two agree to float round-off (the differential
    test uses a tight relative tolerance, not bit equality, because the
    algebraic rearrangement rounds differently).
    """
    _check_replay_args(dirty_bytes, start_time)
    link = link or CXLLinkModel.paper_default()
    n = len(trace)
    if n == 0:
        return replay_trace(trace, link, dirty_bytes, start_time)
    t_line = link.line_transfer_time(dirty_bytes)
    depart = -np.inf
    compute_end = start_time
    for t in trace.times:
        arrive = max(float(t), start_time)
        depart = max(arrive, depart) + t_line
        compute_end = arrive
    per_line_bytes = packet_wire_bytes(CACHE_LINE_BYTES * dirty_bytes // 4)
    return ReplayResult(
        finish_time=float(depart),
        compute_end=compute_end,
        exposed_time=max(0.0, float(depart) - compute_end),
        wire_time=t_line * n,
        wire_bytes=per_line_bytes * n,
        n_lines=n,
    )
