"""Sim-time span/instant tracer with Chrome trace-event export.

The :class:`Tracer` records *spans* (named intervals with a category and
free-form args) and *instant* events, each stamped with an explicit
timestamp in seconds.  Timestamps are caller-supplied on purpose: the
discrete-event components stamp events with ``sim.now`` (virtual seconds),
while the functional trainer stamps its phases with a wall-clock origin
(:meth:`Tracer.wall_ts`).  The two timelines live under different Chrome
*process* ids (``pid``) so they never get conflated in a viewer.

Export targets the Chrome trace-event JSON format (the ``traceEvents``
array form), which loads directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``:

* spans become ``"ph": "X"`` complete events (``ts`` + ``dur``),
* instants become ``"ph": "i"`` thread-scoped events,
* :class:`~repro.obs.metrics.Metrics` time series, when passed to the
  exporter, become ``"ph": "C"`` counter tracks.

The disabled path is the null object :class:`NullTracer` (singleton
:data:`NULL_TRACER`): every recording method is a no-op and its
``enabled`` flag lets hot paths skip argument construction entirely, so
an un-traced simulation pays nothing but one attribute test.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import NULL_METRICS

__all__ = [
    "SpanRecord",
    "InstantRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "validate_chrome_trace",
]

#: Chrome trace timestamps are microseconds; internal times are seconds.
_US = 1e6


@dataclass
class SpanRecord:
    """One recorded interval (closed or still open)."""

    name: str
    cat: str
    begin: float
    end: float | None
    track: str
    pid: str
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.begin


@dataclass
class InstantRecord:
    """One recorded point event."""

    name: str
    cat: str
    ts: float
    track: str
    pid: str
    args: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Records spans and instant events keyed by (simulated) time.

    Parameters
    ----------
    default_pid
        Chrome process label events fall under when none is given
        (``"sim"`` for the discrete-event timeline by convention;
        the functional trainer records under ``"host"``).
    """

    enabled = True

    def __init__(self, default_pid: str = "sim"):
        self.default_pid = default_pid
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self._wall_epoch: float | None = None

    # -- recording ---------------------------------------------------------
    def begin(
        self,
        ts: float,
        name: str,
        cat: str = "",
        track: str | None = None,
        pid: str | None = None,
        **args: Any,
    ) -> int:
        """Open a span at ``ts``; returns a handle for :meth:`end`."""
        self.spans.append(
            SpanRecord(
                name=name,
                cat=cat,
                begin=ts,
                end=None,
                track=track or cat or "main",
                pid=pid or self.default_pid,
                args=dict(args),
            )
        )
        return len(self.spans) - 1

    def end(self, handle: int, ts: float, **args: Any) -> None:
        """Close the span opened by :meth:`begin`."""
        span = self.spans[handle]
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already closed")
        if ts < span.begin:
            raise ValueError("span cannot end before it begins")
        span.end = ts
        if args:
            span.args.update(args)

    def add_span(
        self,
        begin: float,
        end: float,
        name: str,
        cat: str = "",
        track: str | None = None,
        pid: str | None = None,
        **args: Any,
    ) -> None:
        """Record a complete span in one call."""
        handle = self.begin(begin, name, cat, track=track, pid=pid, **args)
        self.end(handle, end)

    def instant(
        self,
        ts: float,
        name: str,
        cat: str = "",
        track: str | None = None,
        pid: str | None = None,
        **args: Any,
    ) -> None:
        """Record a point event at ``ts``."""
        self.instants.append(
            InstantRecord(
                name=name,
                cat=cat,
                ts=ts,
                track=track or cat or "main",
                pid=pid or self.default_pid,
                args=dict(args),
            )
        )

    def wall_ts(self) -> float:
        """Wall-clock seconds since this tracer's first wall event.

        The epoch latches on first call, so host-side (functional trainer)
        timelines start near 0 like the simulated ones.
        """
        t = time.perf_counter()
        if self._wall_epoch is None:
            self._wall_epoch = t
        return t - self._wall_epoch

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)

    def spans_in(self, cat: str) -> list[SpanRecord]:
        """All spans recorded under ``cat``."""
        return [s for s in self.spans if s.cat == cat]

    def categories(self) -> set[str]:
        """Every category that appears in the recorded events."""
        return {s.cat for s in self.spans} | {i.cat for i in self.instants}

    # -- export ------------------------------------------------------------
    def _ids(self) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        """Stable pid/tid integer assignment for every process/track."""
        pids: dict[str, int] = {}
        tids: dict[tuple[str, str], int] = {}
        for rec in [*self.spans, *self.instants]:
            pids.setdefault(rec.pid, len(pids) + 1)
            tids.setdefault((rec.pid, rec.track), len(tids) + 1)
        return pids, tids

    def chrome_events(self, metrics=NULL_METRICS) -> list[dict[str, Any]]:
        """The trace as a list of Chrome trace-event dicts.

        ``metrics`` (a :class:`~repro.obs.metrics.Metrics`) contributes
        its sampled time series as counter (``"C"``) tracks under a
        dedicated ``metrics`` process.  Events are sorted by timestamp
        (metadata first), so ``ts`` is monotonic non-decreasing.
        """
        pids, tids = self._ids()
        metrics_pid = None
        if metrics.all_series():
            metrics_pid = pids.setdefault("metrics", len(pids) + 1)
        events: list[dict[str, Any]] = []
        for rec in self.spans:
            end = rec.end if rec.end is not None else rec.begin
            events.append(
                {
                    "name": rec.name,
                    "cat": rec.cat or "default",
                    "ph": "X",
                    "ts": rec.begin * _US,
                    "dur": (end - rec.begin) * _US,
                    "pid": pids[rec.pid],
                    "tid": tids[(rec.pid, rec.track)],
                    "args": rec.args,
                }
            )
        for rec in self.instants:
            events.append(
                {
                    "name": rec.name,
                    "cat": rec.cat or "default",
                    "ph": "i",
                    "s": "t",
                    "ts": rec.ts * _US,
                    "pid": pids[rec.pid],
                    "tid": tids[(rec.pid, rec.track)],
                    "args": rec.args,
                }
            )
        if metrics_pid is not None:
            for name, samples in metrics.all_series().items():
                for ts, value in samples:
                    events.append(
                        {
                            "name": name,
                            "cat": "metrics",
                            "ph": "C",
                            "ts": ts * _US,
                            "pid": metrics_pid,
                            "tid": 0,
                            "args": {"value": value},
                        }
                    )
        events.sort(key=lambda e: e["ts"])
        meta: list[dict[str, Any]] = []
        for label, pid in pids.items():
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        for (_pid_label, track), tid in tids.items():
            meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": pids[_pid_label],
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return meta + events

    def chrome_trace(self, metrics=NULL_METRICS) -> dict[str, Any]:
        """The full Chrome trace object (``{"traceEvents": [...]}``)."""
        return {
            "traceEvents": self.chrome_events(metrics=metrics),
            "displayTimeUnit": "ms",
        }

    def write_chrome(self, path, metrics=NULL_METRICS) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(metrics=metrics), fh)
            fh.write("\n")

    def summary(self) -> str:
        """Plain-text per-category roll-up of the recorded events."""
        from repro.utils.tables import format_table

        cats = sorted(self.categories())
        rows = []
        for cat in cats:
            spans = self.spans_in(cat)
            total = sum(s.duration for s in spans)
            n_inst = sum(1 for i in self.instants if i.cat == cat)
            rows.append(
                (cat or "(none)", len(spans), n_inst, f"{total * 1e3:.6g} ms")
            )
        return format_table(
            ["category", "spans", "instants", "total span time"],
            rows,
            title=f"trace summary — {len(self)} events",
        )


class NullTracer:
    """Disabled tracer: the default, zero-overhead null object.

    Hot paths test ``tracer.enabled`` before building event arguments;
    every recording method here is also a no-op so untested call sites
    stay correct.
    """

    enabled = False
    spans: list = []
    instants: list = []

    def begin(self, *args, **kwargs) -> int:
        """No-op; returns a dummy handle."""
        return 0

    def end(self, *args, **kwargs) -> None:
        """No-op."""

    def add_span(self, *args, **kwargs) -> None:
        """No-op."""

    def instant(self, *args, **kwargs) -> None:
        """No-op."""

    def wall_ts(self) -> float:
        """Always 0.0 (no wall epoch is latched)."""
        return 0.0

    def __len__(self) -> int:
        return 0


#: Shared disabled-tracer instance (it is stateless).
NULL_TRACER = NullTracer()


def validate_chrome_trace(obj: Any) -> list[str]:
    """Validate a Chrome trace object; returns a list of problems.

    Checks the contract the exporter promises (and tests/CI gate on):
    the ``traceEvents`` array form, required ``name``/``ph``/``ts``/
    ``pid``/``tid`` fields, ``dur >= 0`` on complete events, and
    monotonically non-decreasing timestamps.  An empty list means the
    trace is valid.
    """
    errors: list[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' array"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    last_ts = None
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                errors.append(f"event {i}: missing {key!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if ev.get("ph") == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i}: 'X' event needs dur >= 0")
        if ev.get("ph") == "M":
            continue  # metadata carries ts 0 before real events
        if last_ts is not None and ts < last_ts:
            errors.append(f"event {i}: ts {ts} < previous {last_ts}")
        last_ts = ts
    return errors
