"""Sim-time observability: spans, counters, and Chrome-trace export.

The layer has two halves — the event half (:class:`Tracer`: named spans
and instants keyed by simulated or wall time, exported as Chrome
trace-event JSON loadable in Perfetto) and the quantitative half
(:class:`Metrics`: counters, gauges, and sampled time series).  A
:class:`Profile` bundles the two, and ``with profile.activate():`` is the
one switch that observes everything built inside it (see
:mod:`repro.obs.profile`); :func:`trace_experiment` is the engine behind
``python -m repro trace fig10 --out trace.json``.
"""

from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Metrics,
    NullMetrics,
)
from repro.obs.profile import (
    NULL_PROFILE,
    Profile,
    active_profile,
    trace_experiment,
)
from repro.obs.tracer import (
    NULL_TRACER,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "InstantRecord",
    "validate_chrome_trace",
    "Counter",
    "Gauge",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "Profile",
    "NULL_PROFILE",
    "active_profile",
    "trace_experiment",
]
