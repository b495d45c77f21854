#!/usr/bin/env python
"""Traced-run smoke check (``make trace-smoke``).

Profiles five registered experiments through
:func:`repro.obs.trace_experiment`, exports each Chrome trace-event JSON,
and fails (exit 1) unless every file passes
:func:`repro.obs.validate_chrome_trace` (required fields, ``dur >= 0``,
monotonic timestamps) and carries its required span categories:

* a reduced ``fig10`` (functional fine-tuning): the CXL link (``link``),
  the controller's pending queue (``queue``) and the trainer phases
  (``trainer``), with trainer steps counted in the metrics;
* ``table6`` (timing engines only): the engines' wires (``link``) and
  their step phases (``trainer``);
* a reduced ``fig_fabric`` (two nodes, a shared pool): the fabric's
  port, switch and pool wires (``link``) and its queueing spans
  (``fabric``), recorded per cell by the same booking loops an untraced
  run takes;
* a reduced ``fig_zero3`` (two and four ranks, FP16): the in-fabric
  reducer's and gather unit's spans by name (``reduce-wait``,
  ``fabric-reduce``, ``gather-wait``, ``gather-egress-queue``), so the
  traced unit paths run end to end;
* ``granularity``: one ``stream`` span and one ``compute-end`` instant on
  the ``replay`` track per stream row, so the closed-form sweep replay
  records what the fold it replaced did.

Usage::

    PYTHONPATH=src python benchmarks/trace_smoke.py [out.json]

``out.json`` receives the fig10 trace; each other trace is written next
to it as ``<stem>-<experiment>.json``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

#: experiment -> (params, span categories its trace must contain, span
#: names it must contain).
CASES = {
    "fig10": (
        {"n_steps": 6, "act_aft_steps": 2}, {"link", "queue", "trainer"}, set()
    ),
    "table6": ({}, {"link", "trainer"}, set()),
    "fig_fabric": (
        {"nodes": (2,), "tenants": (1, 2), "policies": ("shared",)},
        {"link", "fabric"},
        set(),
    ),
    "fig_zero3": (
        {"ranks": (2, 4), "formats": ("fp16",)},
        {"link", "fabric"},
        {"reduce-wait", "fabric-reduce", "gather-wait", "gather-egress-queue"},
    ),
    "granularity": ({}, {"link"}, {"stream", "compute-end"}),
}


def check(name: str, out: Path) -> bool:
    """Trace one case into ``out``; print and return whether it passed."""
    from repro.obs import trace_experiment, validate_chrome_trace

    params, required, required_names = CASES[name]
    profile = trace_experiment(name, params=params, out=out)
    obj = json.loads(out.read_text())
    errors = validate_chrome_trace(obj)
    categories = {c for e in obj["traceEvents"] if (c := e.get("cat"))}
    missing = required - categories
    missing_names = required_names - {e.get("name") for e in obj["traceEvents"]}
    n_events = len(obj["traceEvents"])
    print(f"{name}: wrote {out}: {n_events} events, "
          f"categories {sorted(categories)}")
    if errors:
        print(f"FAIL: {len(errors)} schema error(s); first: {errors[0]}")
        return False
    if missing:
        print(f"FAIL: required categories missing from trace: {sorted(missing)}")
        return False
    if missing_names:
        print(f"FAIL: required spans missing from trace: {sorted(missing_names)}")
        return False
    if name == "granularity":
        # One replay per stream row: chunk_lines 1, 64, 4096, 262144 and 0.
        tracer = profile.tracer
        replayed = Counter(
            r.name for r in [*tracer.spans, *tracer.instants]
            if r.track == "replay"
        )
        if replayed["stream"] != 5 or replayed["compute-end"] != 5:
            print(f"FAIL: replay track holds {dict(replayed)}, want 5 "
                  "'stream' spans and 5 'compute-end' instants")
            return False
    if name == "fig10" and profile.metrics.value("trainer.steps") <= 0:
        print("FAIL: no trainer steps recorded in metrics")
        return False
    return True


def main(argv) -> int:
    """Run every traced smoke and validate the exported JSON."""
    out = Path(argv[0]) if argv else Path("results") / "trace-smoke.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in CASES:
        path = out if name == "fig10" else out.with_name(f"{out.stem}-{name}.json")
        ok = check(name, path) and ok
    if not ok:
        return 1
    print("trace smoke gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
