"""Outside-in layer tracing for the end-to-end benchmark.

:func:`install` wraps the public entry points of each ``repro`` layer —
after the package is imported, in the benchmark child only — so that
every call records a wall-clock span (name, start, end, parent span,
repetition id) in a :class:`repro.obs.Tracer`, or bumps a counter where a
span per call would cost too much.  Nothing under ``src/`` changes: a
wrapper replaces the function on its class, or on every ``repro.*``
module that bound it by name (``from x import f``), so call sites pick it
up unmodified.

Per-event and per-cell calls (``Simulator.step``, ``SerialLink.transmit``)
are never wrapped; the DES event count is read from outside as the
simulator's sequence-counter delta across ``Simulator.run``.

The analysis half (:func:`summarize`, :func:`layer_metrics`) works on the
Chrome trace files the tracer writes, so the per-cell traces of a
parallel sweep and the single trace of an in-process run share one path.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict

#: Layer names, in stack order (the ``repro.*`` module each wraps).
LAYERS = (
    "experiments",
    "offload",
    "tensor",
    "optim",
    "dba",
    "sim",
    "interconnect",
    "trace",
    "compression",
)

#: The span every workload's work runs under; per-layer shares use the
#: summed duration of these spans as their base.
ROOT = "experiments.run"

#: span name -> functions it wraps, as "module:attr" or "module:Class.attr".
SPANS = {
    ROOT: ["repro.experiments.registry:run_experiment"],
    "experiments.pretrain": [
        "repro.experiments.runner:pretrained_lm",
        "repro.experiments.runner:pretrained_classifier",
    ],
    "experiments.finetune": ["repro.experiments.runner:finetune"],
    "offload.trainer_step": ["repro.offload.trainer:OffloadTrainer.step"],
    "offload.cluster_step": ["repro.offload.cluster:ClusterEngine.simulate_step"],
    "offload.zero3_step": ["repro.offload.zero3:Zero3Engine.simulate_step"],
    "tensor.forward": [],  # every model class's own ``loss``; see install()
    "tensor.backward": ["repro.tensor.tensor:Tensor.backward"],
    "tensor.gelu": ["repro.tensor.functional:gelu"],
    "tensor.eval": ["repro.tensor.transformer:TinyTransformerLM.perplexity"],
    "optim.adam": ["repro.optim.adam:FlatAdam.step"],
    "optim.clip": ["repro.optim.clip:clip_flat_gradients"],
    "dba.pack": ["repro.dba.aggregator:Aggregator.pack_tensor"],
    "dba.unpack": ["repro.dba.disaggregator:Disaggregator.unpack"],
    "sim.run": ["repro.sim.engine:Simulator.run"],
    "interconnect.wire_roundtrip": ["repro.interconnect.aggregation:wire_roundtrip"],
    "trace.replay": ["repro.trace.replay:replay_trace"],
    "trace.generate": ["repro.trace.generator:adam_writeback_trace"],
    "compression.lz4": [
        "repro.compression.lz4:lz4_compress",
        "repro.compression.lz4:lz4_decompress",
    ],
}

#: counter name -> functions whose calls it counts (no span: too frequent).
COUNTS = {
    "tensor.tensors_created": ["repro.tensor.tensor:Tensor.__init__"],
    "sim.simulators": ["repro.sim.engine:Simulator.__init__"],
    "interconnect.port_transmits": ["repro.interconnect.fabric:FabricPort.transmit"],
    "interconnect.reduces": ["repro.interconnect.aggregation:FabricReducer.reduce"],
    "interconnect.gathers": ["repro.interconnect.gather:FabricGather.gather"],
}


class LayerTracer:
    """Span stack and counters of one process (one repetition or cell)."""

    def __init__(self, rep: int, spans_dir: str | None = None):
        self.rep = rep
        self.spans_dir = spans_dir
        self._cells = 0
        self.reset()

    def reset(self) -> None:
        """Start an empty trace (a forked sweep worker does, per cell)."""
        from repro.obs import Tracer

        self.tracer = Tracer(default_pid="host")
        self.counters: dict[str, float] = defaultdict(float)
        self.fabric_stats: list = []
        self._stack: list[int] = []

    # -- wrappers ------------------------------------------------------------
    def span(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = self.tracer
            sid = len(tracer.spans)
            parent = self._stack[-1] if self._stack else -1
            tracer.begin(
                tracer.wall_ts(), name, layer, track="host",
                id=sid, parent=parent, rep=self.rep,
            )
            self._stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                tracer.end(sid, tracer.wall_ts())

        return wrapper

    def count(self, key: str, fn):
        """``fn`` adding one to counter ``key`` per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def sim_run(self, fn):
        """``Simulator.run``: span plus the events it scheduled."""
        spanned = self.span("sim.run", fn)

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            before = sim._seq
            try:
                return spanned(sim, *args, **kwargs)
            finally:
                self.counters["sim.events"] += sim._seq - before

        return wrapper

    def pack_tensor(self, fn):
        """``Aggregator.pack_tensor``: span plus input and payload bytes."""
        spanned = self.span("dba.pack", fn)

        @functools.wraps(fn)
        def wrapper(agg, tensor, *args, **kwargs):
            before = agg.payload_bytes_produced
            out = spanned(agg, tensor, *args, **kwargs)
            self.counters["dba.input_bytes"] += 4 * tensor.size
            self.counters["dba.payload_bytes"] += agg.payload_bytes_produced - before
            return out

        return wrapper

    def replay(self, fn):
        """``replay_trace``: span plus the lines it replayed."""
        spanned = self.span("trace.replay", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = spanned(*args, **kwargs)
            self.counters["trace.replay_events"] += result.n_lines
            return result

        return wrapper

    def fabric_init(self, fn):
        """``CXLFabric.__init__``: keep the stats object for fabric bytes."""

        @functools.wraps(fn)
        def wrapper(fabric, *args, **kwargs):
            fn(fabric, *args, **kwargs)
            self.fabric_stats.append(fabric.stats)

        return wrapper

    def cell(self, fn):
        """The sweep executor's worker body: one trace file per cell."""

        @functools.wraps(fn)
        def wrapper(args):
            self.reset()
            try:
                return fn(args)
            finally:
                self._cells += 1
                name, seed = args[0], args[2]
                self.dump(os.path.join(
                    self.spans_dir,
                    f"cell-{name}-s{seed}-{os.getpid()}-{self._cells}.json",
                ))

        return wrapper

    # -- output --------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans and counters as one Chrome trace file."""
        counters = dict(self.counters)
        counters["interconnect.fabric_bytes"] = sum(
            s.total_bytes for s in self.fabric_stats
        )
        self.tracer.instant(
            self.tracer.wall_ts(), "counters", "bench", track="host", **counters
        )
        self.tracer.write_chrome(path)


def _resolve(target: str):
    """``"module:attr"`` / ``"module:Class.attr"`` -> (owner, attr, value)."""
    mod_name, _, path = target.partition(":")
    owner = importlib.import_module(mod_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, vars(owner)[attr]


def _replace(owner, attr: str, original, wrapped) -> None:
    """Install ``wrapped``; module functions are rebound everywhere."""
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(rep: int, spans_dir: str) -> LayerTracer:
    """Wrap every layer entry point; returns the process's tracer.

    Call once per process, after ``repro`` is imported.  The sweep
    executor's worker body is wrapped too, so a pool forked afterwards
    writes one trace file per cell into ``spans_dir``.
    """
    lt = LayerTracer(rep, spans_dir)
    special = {
        "sim.run": lt.sim_run,
        "dba.pack": lt.pack_tensor,
        "trace.replay": lt.replay,
    }
    for name, targets in SPANS.items():
        for target in targets:
            owner, attr, fn = _resolve(target)
            wrap = special.get(name) or functools.partial(lt.span, name)
            _replace(owner, attr, fn, wrap(fn))
    for key, targets in COUNTS.items():
        for target in targets:
            owner, attr, fn = _resolve(target)
            _replace(owner, attr, fn, lt.count(key, fn))
    owner, attr, fn = _resolve("repro.interconnect.fabric:CXLFabric.__init__")
    _replace(owner, attr, fn, lt.fabric_init(fn))

    from repro.tensor.nn import Module

    pending = list(Module.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "loss" in vars(cls):
            cls.loss = lt.span("tensor.forward", vars(cls)["loss"])
    owner, attr, fn = _resolve("repro.experiments.executor:_run_cell")
    _replace(owner, attr, fn, lt.cell(fn))
    return lt


# -- analysis ------------------------------------------------------------------
def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    ``spans`` are dicts with ``id``, ``parent``, ``ts`` and ``dur``; a
    parent id not among them marks a root.
    """
    children = defaultdict(list)
    ids = {s["id"] for s in spans}
    for s in spans:
        if s["parent"] in ids:
            children[s["parent"]].append((s["ts"], s["ts"] + s["dur"]))
    return [
        s["dur"] - covered(children[s["id"]], s["ts"], s["ts"] + s["dur"])
        for s in spans
    ]


def summarize(traces: list[list[dict]]) -> dict:
    """Per-span-name calls/total/self seconds plus counters of traces.

    Each trace is the event list of one file written by
    :meth:`LayerTracer.dump` (a repetition, or one sweep cell); span ids
    are local to a file and process.
    """
    by_pid = defaultdict(list)
    counters: dict[str, float] = defaultdict(float)
    for i, events in enumerate(traces):
        for ev in events:
            if ev.get("ph") == "X" and "id" in ev.get("args", {}):
                by_pid[i, ev["pid"]].append(
                    {
                        "id": ev["args"]["id"],
                        "parent": ev["args"]["parent"],
                        "name": ev["name"],
                        "ts": ev["ts"] / 1e6,
                        "dur": ev["dur"] / 1e6,
                    }
                )
            elif ev.get("ph") == "i" and ev.get("name") == "counters":
                for key, value in ev["args"].items():
                    counters[key] += value
    spans: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for group in by_pid.values():
        for s, own in zip(group, self_times(group)):
            row = spans[s["name"]]
            row["calls"] += 1
            row["total_s"] += s["dur"]
            row["self_s"] += own
    return {"spans": dict(spans), "counters": dict(counters)}


def layer_seconds(summary: dict) -> dict[str, float]:
    """Self seconds per layer (sum over the layer's spans)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, row in summary["spans"].items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return out


def layer_metrics(summary: dict) -> dict[str, float]:
    """The benchmark's per-layer metrics from one repetition's summary.

    Times are reported as shares of the root spans' summed duration, so
    a layer a workload never enters reads 0 as a share, and counts are
    exact call or event tallies.
    """
    spans, c = summary["spans"], summary["counters"]

    def row(name):
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    root = row(ROOT)["total_s"]

    def frac(seconds):
        return seconds / root if root > 0 else 0.0

    m = {f"{layer}.self_frac": frac(s) for layer, s in layer_seconds(summary).items()}
    run_s = row("sim.run")["total_s"]
    events = c.get("sim.events", 0.0)
    in_bytes = c.get("dba.input_bytes", 0.0)
    m.update(
        {
            "layers.coverage_frac": frac(root - row(ROOT)["self_s"]),
            "experiments.pretrain_frac": frac(row("experiments.pretrain")["total_s"]),
            "experiments.finetune_calls": row("experiments.finetune")["calls"],
            "experiments.finetune_self_frac": frac(row("experiments.finetune")["self_s"]),
            "offload.trainer_steps": row("offload.trainer_step")["calls"],
            "offload.trainer_self_frac": frac(row("offload.trainer_step")["self_s"]),
            "offload.cluster_steps": row("offload.cluster_step")["calls"],
            "offload.cluster_self_frac": frac(row("offload.cluster_step")["self_s"]),
            "offload.zero3_steps": row("offload.zero3_step")["calls"],
            "tensor.forward_frac": frac(row("tensor.forward")["total_s"]),
            "tensor.backward_frac": frac(row("tensor.backward")["total_s"]),
            "tensor.gelu_calls": row("tensor.gelu")["calls"],
            "tensor.gelu_fwd_frac": frac(row("tensor.gelu")["total_s"]),
            "tensor.tensors_created": c.get("tensor.tensors_created", 0.0),
            "tensor.eval_frac": frac(row("tensor.eval")["total_s"]),
            "optim.adam_steps": row("optim.adam")["calls"],
            "optim.adam_frac": frac(row("optim.adam")["total_s"]),
            "optim.clip_frac": frac(row("optim.clip")["total_s"]),
            "dba.pack_calls": row("dba.pack")["calls"],
            "dba.pack_frac": frac(row("dba.pack")["total_s"]),
            "dba.unpack_frac": frac(row("dba.unpack")["total_s"]),
            "dba.input_bytes": in_bytes,
            "dba.payload_ratio": (
                c.get("dba.payload_bytes", 0.0) / in_bytes if in_bytes else 0.0
            ),
            "sim.simulators": c.get("sim.simulators", 0.0),
            "sim.run_frac": frac(run_s),
            "sim.events": events,
            "sim.events_per_s": events / run_s if run_s > 0 else 0.0,
            "sim.us_per_event": 1e6 * run_s / events if events else 0.0,
            "interconnect.port_transmits": c.get("interconnect.port_transmits", 0.0),
            "interconnect.reduces": c.get("interconnect.reduces", 0.0),
            "interconnect.gathers": c.get("interconnect.gathers", 0.0),
            "interconnect.wire_roundtrip_calls": row("interconnect.wire_roundtrip")["calls"],
            "interconnect.wire_roundtrip_frac": frac(
                row("interconnect.wire_roundtrip")["total_s"]
            ),
            "interconnect.fabric_bytes": c.get("interconnect.fabric_bytes", 0.0),
            "trace.replay_calls": row("trace.replay")["calls"],
            "trace.replay_frac": frac(row("trace.replay")["total_s"]),
            "trace.replay_events": c.get("trace.replay_events", 0.0),
            "trace.generate_frac": frac(row("trace.generate")["total_s"]),
            "compression.lz4_frac": frac(row("compression.lz4")["total_s"]),
        }
    )
    return m


def load_events(path: str) -> list[dict]:
    """The ``traceEvents`` of a Chrome trace file."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["traceEvents"]


def merge_traces(paths, out_path: str) -> list[dict]:
    """Merge trace files (one Chrome process each) into one valid trace.

    :func:`repro.experiments.executor.merge_chrome_traces` concatenates
    the files; their timelines overlap, so events are then re-sorted by
    timestamp (metadata first) to keep ``ts`` monotonic.  Returns the
    merged events.
    """
    from repro.experiments.executor import merge_chrome_traces

    merge_chrome_traces(paths, out_path)
    events = load_events(out_path)
    events.sort(key=lambda e: (e.get("ph") != "M", e.get("ts", 0)))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return events
