"""Golden regression test for the in-fabric reduce and gather units.

``tests/data/golden_fabric_units.json`` freezes one fabric that carries a
:class:`~repro.interconnect.aggregation.FabricReducer`, a
:class:`~repro.interconnect.gather.FabricGather` (and a one-rank gather)
next to plain :class:`~repro.interconnect.fabric.FabricPort` tenants,
with tracer and metrics on.  Unit ranks share ports, transfers carry an
``extra_delay`` and split into several cells, and the units' pool and
switch traffic contends with the port tenants'.  The fixture pins the
units' observable surface exactly (floats as ``float.hex``):
``stats.snapshot()``, every link's occupancy, every delivery time, the
span census per (name, track) and the metric counters.

Regenerate (only after an *intentional* semantic change) with::

    PYTHONPATH=src python tests/test_golden_fabric_units.py --regenerate
"""

import json
import math
from collections import defaultdict
from pathlib import Path

import pytest

from repro.interconnect import CXLFabric, FabricParams
from repro.obs import Metrics, Profile, Tracer
from repro.sim import Simulator
from repro.utils.units import GB, KIB, MIB, NS, US, Bandwidth

FIXTURE = Path(__file__).parent / "data" / "golden_fabric_units.json"

#: Frozen configuration: a contended switch, a weighted pool split, and
#: four cells per transfer above the single-cell threshold.
PARAMS = dict(
    n_ports=3,
    n_tenants=3,
    port_bandwidth=Bandwidth(8 * GB),
    switch_bandwidth=Bandwidth(12 * GB),
    pool_bandwidth=Bandwidth(10 * GB),
    policy="weighted",
    tenant_weights=(2.0, 1.0, 1.0),
    cells_per_transfer=4,
)

#: Per sender: (gap before send, n_bytes, extra_delay, wait for delivery).
PROGRAMS = {
    "reduce": [
        (0.0, 1 * MIB, 50 * NS, True),
        (1 * US, 3000.0, 0.0, False),
        (0.0, 512 * KIB, 0.0, True),
    ],
    "gather": [
        (0.0, 256 * KIB, 100 * NS, True),
        (0.0, 0.0, 0.0, False),
        (2 * US, 2000.0, 0.0, True),
    ],
    "solo-gather": [(0.0, 64 * KIB, 0.0, True)],
    "p0-t2": [(0.0, 2 * MIB, 20 * NS, False), (500 * NS, 64 * KIB, 0.0, True)],
    "p2-t2": [(300 * NS, 1 * MIB, 0.0, True)],
    "p1-t0": [(0.0, 768 * KIB, 0.0, True)],
}


def _hex(value):
    """JSON-stable copy of ``value`` with every float as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _hex(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value


def snapshot() -> dict:
    """Run the frozen scenario; everything the fixture pins."""
    tracer, metrics = Tracer(), Metrics()
    with Profile(tracer, metrics).activate():
        sim = Simulator()
    fabric = CXLFabric(sim, FabricParams(**PARAMS))
    red = fabric.reducer(ranks=[0, 1, 1], tenant=0)
    gat = fabric.gather_unit(ranks=[1, 2, 2], tenant=1)
    solo = fabric.gather_unit(ranks=[0], tenant=2)
    senders = {
        "reduce": red.reduce,
        "gather": gat.gather,
        "solo-gather": solo.gather,
        "p0-t2": fabric.port(0, tenant=2).transmit,
        "p2-t2": fabric.port(2, tenant=2).transmit,
        "p1-t0": fabric.port(1, tenant=0).transmit,
    }
    deliveries = []

    def program(key, ops):
        for k, (gap, n_bytes, extra, wait) in enumerate(ops):
            if gap:
                yield sim.timeout(gap)
            ev = senders[key](n_bytes, extra_delay=extra)
            ev.callbacks.append(
                lambda _ev, k=k: deliveries.append((key, k, sim.now))
            )
            if wait:
                yield ev

    for key, ops in PROGRAMS.items():
        sim.process(program(key, ops))
    sim.run()

    links = [
        *fabric.port_links,
        fabric.switch_link,
        *fabric.pool_links,
        red.alu,
    ]
    spans = defaultdict(list)
    for s in tracer.spans:
        spans[f"{s.name}|{s.track}"].append(s.duration)
    return _hex(
        {
            "stats": fabric.stats.snapshot(),
            "links": {
                link.name: [
                    link.free_at,
                    link.busy_time,
                    link.bytes_sent,
                    link.transfers,
                ]
                for link in links
            },
            "units": {
                unit.name: [unit.bytes_in, unit.bytes_out]
                for unit in (red, gat, solo)
            },
            "deliveries": deliveries,
            "end": sim.now,
            "spans": {
                key: [len(d), math.fsum(d)] for key, d in sorted(spans.items())
            },
            "counters": dict(sorted(metrics.counters().items())),
        }
    )


class TestGoldenFabricUnits:
    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        assert FIXTURE.exists(), (
            f"missing fixture {FIXTURE}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_fabric_units.py "
            "--regenerate`"
        )
        return json.loads(FIXTURE.read_text())

    def test_fixture_exercises_every_unit_surface(self, golden):
        names = {key.split("|")[0] for key in golden["spans"]}
        assert {
            "reduce-wait",
            "fabric-reduce",
            "gather-wait",
            "gather-egress-queue",
            "switch-queue",
            "pool-queue",
        } <= names
        for counter in (
            "fabric.reduce.in_bytes",
            "fabric.reduce.out_bytes",
            "fabric.gather.in_bytes",
            "fabric.gather.out_bytes",
        ):
            assert counter in golden["counters"]
        assert len(golden["deliveries"]) == sum(map(len, PROGRAMS.values()))

    def test_units_reproduce_fixture(self, golden):
        got = snapshot()
        for key in golden:
            assert got[key] == golden[key], key
        assert got == golden
        # Dict equality ignores order; snapshot() key order is pinned too.
        assert list(got["stats"]) == list(golden["stats"])


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(snapshot(), indent=2) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        sys.exit("run under pytest, or pass --regenerate")
