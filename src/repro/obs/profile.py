"""The active profile: one switch that decides whether a run is observed.

``with profile.activate():`` makes a :class:`Profile` (a live tracer +
metrics pair) the active one in the current context.  The instrumented
components — :class:`~repro.sim.Simulator`,
:class:`~repro.offload.OffloadTrainer`, :class:`~repro.coherence.HomeAgent`
and :func:`~repro.trace.replay.replay_trace` — bind
:func:`active_profile` when built (or called).  Outside any activation
it is :data:`NULL_PROFILE`, whose null objects keep the un-profiled hot
path down to one ``enabled`` test.

:func:`trace_experiment` runs any registered experiment under a fresh
profile and exports the combined Chrome trace, with up to three Chrome
processes:

* ``host`` — the functional trainer's phases, in wall-clock seconds;
* ``sim`` — every discrete-event simulation the run built, plus a
  :class:`~repro.interconnect.cxl.CXLController` replaying the trainer's
  recorded write-back payloads, in virtual seconds;
* ``metrics`` — counter tracks sampled by either side.

The experiment imports happen inside the functions on purpose:
``repro.obs`` is imported by the simulation core and must stay cheap.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.obs.metrics import NULL_METRICS, Metrics
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["Profile", "NULL_PROFILE", "active_profile", "trace_experiment"]

#: Cap on simulated cache lines per stream (keeps traces viewer-sized).
MAX_STREAM_LINES = 1024


@dataclass
class Profile:
    """A live tracer+metrics pair that observes whatever runs under it."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: Metrics = field(default_factory=Metrics)

    @classmethod
    def new(cls) -> "Profile":
        """A fresh profile: a new tracer and metrics registry."""
        return cls()

    @contextlib.contextmanager
    def activate(self) -> Iterator["Profile"]:
        """Make this the active profile for the duration of the block.

        Components built inside the block record into it; activations
        nest, and the previous profile is restored on exit.
        """
        token = _ACTIVE.set(self)
        try:
            yield self
        finally:
            _ACTIVE.reset(token)

    def chrome_trace(self) -> dict:
        """The combined Chrome trace object (spans + counter tracks)."""
        return self.tracer.chrome_trace(metrics=self.metrics)

    def write_chrome(self, path) -> None:
        """Write the combined Chrome trace JSON to ``path``."""
        self.tracer.write_chrome(path, metrics=self.metrics)

    def summary(self) -> str:
        """Plain-text roll-up: trace categories plus the metrics table."""
        return self.tracer.summary() + "\n\n" + self.metrics.summary()


#: The disabled profile: what :func:`active_profile` returns outside any
#: :meth:`Profile.activate` block.
NULL_PROFILE = Profile(tracer=NULL_TRACER, metrics=NULL_METRICS)

_ACTIVE: contextvars.ContextVar[Profile] = contextvars.ContextVar(
    "repro_active_profile", default=NULL_PROFILE
)


def active_profile() -> Profile:
    """The profile components built now should record into."""
    return _ACTIVE.get()


def _trace_cxl_stream(
    profile: Profile,
    payload_bytes: float,
    dirty_bytes: int,
    name: str,
    per_line_delay: float = 1e-9,
) -> None:
    """Replay one write-back stream through a traced :class:`CXLController`.

    The functional trainer never touches the discrete-event CXL model, so
    the profile replays a payload volume the trainer recorded through a
    real controller (pending queue, serial wire, 1 ns Aggregator delay)
    to get the link/queue timeline the paper reasons about.  Line count
    is capped at :data:`MAX_STREAM_LINES`; back-pressure against the
    128-entry pending queue shows up as ``put-blocked`` instants.
    """
    from repro.interconnect.cxl import CXLController
    from repro.interconnect.packets import CACHE_LINE_BYTES, CacheLinePayload
    from repro.sim import Simulator

    with profile.activate():
        sim = Simulator()
    ctrl = CXLController(sim, per_line_delay=per_line_delay, name=name)
    line_payload = CACHE_LINE_BYTES * dirty_bytes // 4
    n_lines = max(1, math.ceil(payload_bytes / line_payload))
    n_lines = min(n_lines, MAX_STREAM_LINES)
    payloads = [
        CacheLinePayload(address=i * CACHE_LINE_BYTES, dirty_bytes=dirty_bytes)
        for i in range(n_lines)
    ]

    def producer():
        """Enqueue the stream with back-pressure, then fence."""
        yield from ctrl.send_lines(payloads)
        yield ctrl.fence()

    sim.process(producer(), name=f"{name}-producer")
    sim.run()


#: Trainer payload series -> (dirty bytes, stream name) of its replay.
_PAYLOAD_STREAMS = {
    "trainer.grad_payload_bytes": (4, "cxl-grads"),
    "trainer.param_payload_bytes": (2, "cxl-params"),
}


def trace_experiment(
    name: str, params=None, seed: int = 0, out=None
) -> Profile:
    """Run a registered experiment under a fresh profile; return it.

    Parameters
    ----------
    name
        Any registered experiment (``repro list``).
    params
        Overrides merged over the spec's defaults (use them to trace a
        reduced run).
    seed
        Experiment seed.
    out
        Optional path: write the combined Chrome trace JSON there.

    The run goes through :func:`~repro.experiments.registry.run_experiment`
    (cache off).  When a trainer recorded gradient or parameter payload
    volumes, the last step's volume of each is replayed through a traced
    :class:`~repro.interconnect.cxl.CXLController`, so the trace carries
    CXL wire spans and pending-queue residency alongside the trainer
    phases; a run that recorded none gets no replay.
    """
    from repro.experiments.registry import RunContext, get_spec, run_experiment

    try:
        get_spec(name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    profile = Profile.new()
    run_experiment(name, params, seed, ctx=RunContext(profile=profile))
    for series, (dirty_bytes, stream) in _PAYLOAD_STREAMS.items():
        samples = profile.metrics.series(series)
        if samples:
            _trace_cxl_stream(profile, samples[-1][1], dirty_bytes, stream)
    if out is not None:
        profile.write_chrome(out)
    return profile
