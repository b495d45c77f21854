"""Tests for the multi-host CXL fabric and the ClusterEngine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect import (
    CacheLinePayload,
    CXLController,
    CXLFabric,
    FabricParams,
    PartitionPolicy,
)
from repro.interconnect.fabric import MIN_CELL_BYTES
from repro.models import get_model
from repro.obs import Metrics, Profile, Tracer, validate_chrome_trace
from repro.offload import (
    ClusterEngine,
    DataParallelEngine,
    SystemKind,
)
from repro.offload.parallel import ClusterParams
from repro.sim import SimEvent, Simulator
from repro.utils.units import GB, NS, Bandwidth


def _params(**kw):
    defaults = dict(
        n_ports=2,
        n_tenants=2,
        port_bandwidth=Bandwidth(10 * GB),
        port_latency=0.0,
        switch_latency=0.0,
        pool_latency=0.0,
    )
    defaults.update(kw)
    return FabricParams(**defaults)


class TestFabricParams:
    def test_defaults_resolve(self):
        p = FabricParams(n_ports=4)
        assert p.resolved_switch_bandwidth.bytes_per_second == pytest.approx(
            4 * p.port_bandwidth.bytes_per_second
        )
        assert p.resolved_pool_bandwidth.bytes_per_second == pytest.approx(
            2 * p.port_bandwidth.bytes_per_second
        )

    def test_policy_parse_from_string(self):
        assert FabricParams(policy="shared").policy is PartitionPolicy.SHARED
        assert FabricParams(policy="fair").policy is PartitionPolicy.FAIR_SHARE
        with pytest.raises(ValueError):
            FabricParams(policy="bogus")

    def test_weighted_requires_weights(self):
        with pytest.raises(ValueError):
            FabricParams(n_tenants=2, policy="weighted")
        with pytest.raises(ValueError):
            FabricParams(
                n_tenants=2, policy="weighted", tenant_weights=(1.0,)
            )
        p = FabricParams(
            n_tenants=2, policy="weighted", tenant_weights=(1.0, 3.0)
        )
        assert p.tenant_share(0) == pytest.approx(0.25)
        assert p.tenant_share(1) == pytest.approx(0.75)

    def test_fair_share_splits_evenly(self):
        p = FabricParams(n_tenants=4, policy="fair")
        assert p.tenant_share(2) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            FabricParams(n_ports=0)
        with pytest.raises(ValueError):
            FabricParams(n_tenants=0)
        with pytest.raises(ValueError):
            FabricParams(cells_per_transfer=0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(switch_latency=float("nan")),
            dict(pool_latency=float("inf")),
            dict(port_latency=-1e-9),
            dict(
                n_tenants=2,
                policy="weighted",
                tenant_weights=(1.0, float("nan")),
            ),
            dict(
                n_tenants=2,
                policy="weighted",
                tenant_weights=(1.0, float("inf")),
            ),
            dict(n_ports=2.5),
            dict(n_tenants=1.5),
            dict(cells_per_transfer=2.5),
        ],
    )
    def test_rejects_non_finite_and_non_integer(self, kw):
        # Each used to be accepted and fail late: a NaN event time at
        # the first transmit, NaN pool bandwidth, or a TypeError in range.
        with pytest.raises(ValueError):
            FabricParams(**kw)

    def test_numpy_integer_counts_accepted(self):
        p = FabricParams(n_ports=np.int64(3), cells_per_transfer=np.int32(4))
        assert len(CXLFabric(Simulator(), p).port_links) == 3


class TestCXLFabricTransfers:
    def test_single_cell_timing_through_all_stages(self):
        """A small (single-cell) transfer pays port + switch + pool in
        sequence: store-and-forward through three serial stages."""
        bw = 1 * GB
        p = _params(
            n_ports=1,
            n_tenants=1,
            port_bandwidth=Bandwidth(bw),
            switch_bandwidth=Bandwidth(2 * bw),
            pool_bandwidth=Bandwidth(4 * bw),
        )
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        port = fabric.port(0, tenant=0)
        n_bytes = 1024  # below MIN_CELL_BYTES -> one cell
        done = {}

        def go(sim):
            yield port.transmit(n_bytes)
            done["t"] = sim.now

        sim.process(go(sim))
        sim.run()
        expected = n_bytes / bw + n_bytes / (2 * bw) + n_bytes / (4 * bw)
        assert done["t"] == pytest.approx(expected, rel=1e-9)

    def test_large_transfer_pipelines_in_cells(self):
        """A multi-cell transfer approaches the bottleneck-stage fluid
        limit instead of paying every stage serially."""
        bw = 1 * GB
        p = _params(
            n_ports=1,
            n_tenants=1,
            port_bandwidth=Bandwidth(bw),
            switch_bandwidth=Bandwidth(2 * bw),
            pool_bandwidth=Bandwidth(4 * bw),
        )
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        port = fabric.port(0)
        n_bytes = 64 * 2**20
        done = {}

        def go(sim):
            yield port.transmit(n_bytes)
            done["t"] = sim.now

        sim.process(go(sim))
        sim.run()
        fluid = n_bytes / bw  # port is the bottleneck stage
        serial = n_bytes / bw + n_bytes / (2 * bw) + n_bytes / (4 * bw)
        assert done["t"] >= fluid
        assert done["t"] < serial * 0.75  # pipelining beats store-and-forward
        # within ~(stages-1)/cells of the fluid limit
        assert done["t"] == pytest.approx(fluid, rel=3 / p.cells_per_transfer)

    def test_two_tenants_one_port_serialize(self):
        """Tenants co-located on a port share its wire FCFS."""
        p = _params(n_ports=1, n_tenants=2)
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        a, b = fabric.port(0, tenant=0), fabric.port(0, tenant=1)
        n_bytes = 32 * 2**20
        ends = {}

        def go(sim, link, key):
            yield link.transmit(n_bytes)
            ends[key] = sim.now

        sim.process(go(sim, a, "a"))
        sim.process(go(sim, b, "b"))
        sim.run()
        alone = n_bytes / p.port_bandwidth.bytes_per_second
        # the later finisher saw a (roughly) halved port
        assert max(ends.values()) >= 2 * alone * 0.95

    def test_shared_pool_contention_slows_tenants(self):
        """With a SHARED pool at 1x port bandwidth, two tenants on
        separate ports contend at the pool stage."""
        bw = 10 * GB
        contended = _params(
            policy="shared", pool_bandwidth=Bandwidth(bw)
        )
        n_bytes = 32 * 2**20

        def run(params, n_tenants):
            sim = Simulator()
            fabric = CXLFabric(sim, params)
            ends = {}

            def go(sim, link, key):
                yield link.transmit(n_bytes)
                ends[key] = sim.now

            for t in range(n_tenants):
                sim.process(go(sim, fabric.port(t % params.n_ports, t), t))
            sim.run()
            return max(ends.values()), fabric

        t1, _ = run(contended, 1)
        t2, fabric = run(contended, 2)
        assert t2 > t1 * 1.5  # pool at 1x port is the shared bottleneck
        assert fabric.stats.pool_wait > 0.0

    def test_fair_partition_isolates_but_caps(self):
        """FAIR_SHARE guarantees 1/M of the pool regardless of the other
        tenant's load — and caps a lone heavy tenant at its share."""
        bw = 10 * GB
        p = _params(policy="fair", pool_bandwidth=Bandwidth(bw))
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        port = fabric.port(0, tenant=0)
        n_bytes = 32 * 2**20
        ends = {}

        def go(sim):
            yield port.transmit(n_bytes)
            ends["t"] = sim.now

        sim.process(go(sim))
        sim.run()
        # tenant 0 alone still only gets pool/2 = 5 GB/s: pool-bound
        assert ends["t"] == pytest.approx(
            n_bytes / (bw / 2), rel=0.15
        )

    def test_weighted_partition_orders_tenants(self):
        """A heavier QoS weight finishes the same load strictly sooner."""
        bw = 10 * GB
        p = _params(
            policy="weighted",
            tenant_weights=(1.0, 3.0),
            pool_bandwidth=Bandwidth(bw),
        )
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        light, heavy = fabric.port(0, 0), fabric.port(1, 1)
        n_bytes = 32 * 2**20
        ends = {}

        def go(sim, link, key):
            yield link.transmit(n_bytes)
            ends[key] = sim.now

        sim.process(go(sim, light, "light"))
        sim.process(go(sim, heavy, "heavy"))
        sim.run()
        assert ends["heavy"] < ends["light"]

    def test_stats_account_per_port_and_per_tenant(self):
        p = _params(n_ports=2, n_tenants=3)
        sim = Simulator()
        fabric = CXLFabric(sim, p)
        links = [fabric.port(t % 2, t) for t in range(3)]

        def go(sim, link, n):
            yield link.transmit(n)

        for i, link in enumerate(links):
            sim.process(go(sim, link, 1000 * (i + 1)))
        sim.run()
        stats = fabric.stats
        assert stats.tenant_bytes == {0: 1000.0, 1: 2000.0, 2: 3000.0}
        # tenants 0 and 2 share port 0
        assert stats.port_bytes == {0: 4000.0, 1: 2000.0}
        assert stats.total_bytes == 6000.0
        snap = stats.snapshot()
        assert snap["total_bytes"] == 6000.0
        assert snap["tenant_bytes"]["2"] == 3000.0

    def test_port_and_tenant_range_validation(self):
        sim = Simulator()
        fabric = CXLFabric(sim, _params(n_ports=2, n_tenants=2))
        with pytest.raises(ValueError):
            fabric.port(2, 0)
        with pytest.raises(ValueError):
            fabric.port(0, 2)

    def test_contention_emits_fabric_spans_and_tenant_accounting(self):
        """Chrome traces carry switch/pool queueing spans tagged with the
        tenant, and metrics carry per-tenant byte counters."""
        tracer, metrics = Tracer(), Metrics()
        with Profile(tracer, metrics).activate():
            sim = Simulator()
        p = _params(policy="shared", pool_bandwidth=Bandwidth(10 * GB))
        fabric = CXLFabric(sim, p)
        n_bytes = 32 * 2**20

        def go(sim, link):
            yield link.transmit(n_bytes)

        for t in range(2):
            sim.process(go(sim, fabric.port(t, t)))
        sim.run()
        cats = {s.cat for s in tracer.spans}
        assert "fabric" in cats and "link" in cats
        fabric_spans = [s for s in tracer.spans if s.cat == "fabric"]
        assert fabric_spans, "contended run recorded no queueing spans"
        assert {s.args["tenant"] for s in fabric_spans} <= {0, 1}
        trace = tracer.chrome_trace(metrics=metrics)
        assert validate_chrome_trace(trace) == []
        counters = metrics.counters()
        assert counters["fabric.tenant0.bytes"] == n_bytes
        assert counters["fabric.tenant1.bytes"] == n_bytes
        assert counters["fabric.port0.bytes"] == n_bytes


class TestClusterEngine:
    @pytest.fixture(scope="class")
    def bert(self):
        return get_model("bert-large-cased")

    @pytest.mark.parametrize(
        "kind",
        [
            SystemKind.TECO_REDUCTION,
            SystemKind.TECO_CXL,
            SystemKind.ZERO_OFFLOAD,
        ],
    )
    def test_single_tenant_matches_data_parallel_engine(self, bert, kind):
        """Acceptance: n_hosts=1, tenants=1 over the fabric reproduces
        the DataParallelEngine breakdown within tolerance."""
        dp = DataParallelEngine(
            kind, bert, 4, ClusterParams(n_gpus=1)
        ).simulate_step()
        cl = ClusterEngine(
            kind, bert, 4, ClusterParams(n_gpus=1), n_hosts=1, n_tenants=1
        ).simulate_step()
        t = cl.tenants[0]
        assert t.total == pytest.approx(dp.total, rel=0.03)
        assert t.forward == pytest.approx(dp.forward, rel=1e-9)
        assert t.backward == pytest.approx(dp.backward, rel=1e-9)
        assert t.optimizer == pytest.approx(dp.optimizer, rel=0.05)
        assert t.communication_exposed == pytest.approx(
            dp.communication_exposed, rel=0.25, abs=5e-3
        )
        assert t.wire_bytes == pytest.approx(dp.wire_bytes, rel=1e-9)
        assert t.wire_bytes_per_link == pytest.approx(
            dp.wire_bytes_per_link, rel=1e-9
        )

    def test_multi_gpu_tenant_matches_data_parallel_engine(self, bert):
        """The intra-job sharding (n_gpus=4) carries over unchanged."""
        dp = DataParallelEngine(
            SystemKind.TECO_REDUCTION, bert, 16, ClusterParams(n_gpus=4)
        ).simulate_step()
        cl = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            16,
            ClusterParams(n_gpus=4),
            n_hosts=1,
            n_tenants=1,
        ).simulate_step()
        assert cl.tenants[0].total == pytest.approx(dp.total, rel=0.03)
        assert cl.tenants[0].wire_bytes == pytest.approx(
            dp.wire_bytes, rel=1e-9
        )

    @pytest.mark.slow
    def test_pool_contention_slowdown_is_monotone(self, bert):
        """Acceptance: a tenants sweep shows monotone pool-contention
        slowdown (per-tenant mean step never improves with more load)."""
        for policy in ("fair", "shared"):
            means = []
            for m in (1, 2, 4, 8):
                weights = None
                cl = ClusterEngine(
                    SystemKind.TECO_REDUCTION,
                    bert,
                    4,
                    ClusterParams(n_gpus=1),
                    n_hosts=2,
                    n_tenants=m,
                    policy=policy,
                    tenant_weights=weights,
                ).simulate_step()
                means.append(cl.mean_step)
            for lo, hi in zip(means, means[1:]):
                assert hi >= lo * (1 - 1e-9), (policy, means)
            assert means[-1] > means[0] * 1.5, (policy, means)

    def test_contention_wait_grows_with_tenants(self, bert):
        waits = []
        for m in (2, 4, 8):
            cl = ClusterEngine(
                SystemKind.TECO_REDUCTION,
                bert,
                4,
                ClusterParams(n_gpus=1),
                n_hosts=2,
                n_tenants=m,
            ).simulate_step()
            waits.append(cl.contention_wait)
        assert waits == sorted(waits)
        assert waits[-1] > 0.0

    def test_weighted_policy_prefers_heavy_tenant(self, bert):
        cl = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            4,
            ClusterParams(n_gpus=1),
            n_hosts=4,
            n_tenants=4,
            policy="weighted",
            tenant_weights=(1.0, 1.0, 1.0, 8.0),
        ).simulate_step()
        steps = [t.total for t in cl.tenants]
        assert steps[3] == min(steps)

    def test_tenant_bytes_balanced_and_ports_round_robin(self, bert):
        cl = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            4,
            ClusterParams(n_gpus=1),
            n_hosts=2,
            n_tenants=4,
        ).simulate_step()
        assert cl.ports == (0, 1, 0, 1)
        assert len(set(round(b) for b in cl.tenant_bytes)) == 1  # equal jobs
        assert sum(cl.port_bytes) == pytest.approx(cl.fabric_bytes)

    def test_cluster_trace_accounts_per_tenant_traffic(self, bert):
        """Acceptance: the Chrome trace of a contended cluster step
        carries per-tenant traffic (fabric queueing spans tagged with
        tenants, per-tenant byte counters, per-tenant step spans)."""
        tracer, metrics = Tracer(), Metrics()
        cl = ClusterEngine(
            SystemKind.TECO_REDUCTION,
            bert,
            4,
            ClusterParams(n_gpus=1),
            n_hosts=2,
            n_tenants=4,
        )
        with Profile(tracer, metrics).activate():
            cl.simulate_step()
        trace = tracer.chrome_trace(metrics=metrics)
        assert validate_chrome_trace(trace) == []
        counters = metrics.counters()
        for t in range(4):
            assert counters[f"fabric.tenant{t}.bytes"] > 0
        systems = {
            s.args.get("system")
            for s in tracer.spans
            if s.cat == "trainer" and s.name == "step"
        }
        assert len(systems) == 4  # one step span per tenant
        queue_spans = [s for s in tracer.spans if s.cat == "fabric"]
        assert queue_spans and all("tenant" in s.args for s in queue_spans)

    def test_batch_validation(self, bert):
        with pytest.raises(ValueError):
            ClusterEngine(
                SystemKind.TECO_REDUCTION, bert, 3, ClusterParams(n_gpus=2)
            )


class TestFencePropertyOnSharedFabricPort:
    """Satellite: CXLFENCE correctness under fabric contention."""

    @given(
        producer_lines=st.lists(
            st.integers(min_value=1, max_value=12), min_size=1, max_size=4
        ),
        rival_lines=st.integers(min_value=0, max_value=30),
        per_line_delay=st.sampled_from([0.0, 1e-9]),
    )
    @settings(max_examples=40, deadline=None)
    def test_fence_fires_only_after_all_enqueued_lines_deliver(
        self, producer_lines, rival_lines, per_line_delay
    ):
        """Multiple concurrent producers share one CXLController attached
        to a fabric port, while a rival tenant hammers the shared switch
        and pool from another port: the fence must fire exactly at the
        last covered delivery — never early under contention."""
        params = FabricParams(
            n_ports=2,
            n_tenants=2,
            port_bandwidth=Bandwidth(1 * GB),
            policy="shared",
            pool_bandwidth=Bandwidth(1 * GB),  # pool == port: contended
        )
        sim = Simulator()
        fabric = CXLFabric(sim, params)
        ctrl = CXLController(
            sim,
            per_line_delay=per_line_delay,
            link=fabric.port(0, tenant=0),
            queue_depth=8,
        )
        rival = fabric.port(1, tenant=1)
        total = sum(producer_lines)
        produced = []
        fence_result = {}

        def producer(sim, k, n):
            for i in range(n):
                yield ctrl.send_line(CacheLinePayload((k * 64 + i) * 64))
                produced.append(sim.now)

        def rival_traffic(sim):
            for _ in range(rival_lines):
                yield rival.transmit(4096)

        def fencer(sim, workers):
            yield sim.all_of(workers)  # all lines accepted
            fence_result["pre_outstanding"] = ctrl.outstanding
            t = yield ctrl.fence()
            fence_result["fired"] = t
            fence_result["outstanding"] = ctrl.outstanding
            fence_result["delivered"] = ctrl.lines_delivered

        workers = [
            sim.process(producer(sim, k, n))
            for k, n in enumerate(producer_lines)
        ]
        sim.process(rival_traffic(sim))
        sim.process(fencer(sim, workers))
        sim.run()

        assert ctrl.lines_delivered == total
        # lines were still in flight when the fence was requested...
        assert fence_result["pre_outstanding"] > 0
        # ...yet the fence saw every previously enqueued line delivered...
        assert fence_result["outstanding"] == 0
        assert fence_result["delivered"] == total
        # ...and fired exactly at the last covered delivery, not later
        assert fence_result["fired"] == pytest.approx(
            ctrl.last_delivery_time, abs=1e-15
        )
        # never early: deliveries cross port AND pool serially at 1 GB/s,
        # so the fence cannot beat the uncontended pipeline lower bound
        wire_bytes = ctrl.wire_bytes_sent
        lower_bound = wire_bytes / (1 * GB)
        assert fence_result["fired"] >= lower_bound * (1 - 1e-9)


# -- reference: the per-cell, all-event FabricPort ----------------------------
def _per_cell_stage_transmit(
    fabric, link, cell, *, tenant, port, wait_stats, span_name, track
):
    sim = fabric.sim
    wait = max(0.0, link.free_at - sim.now)
    if wait > 0.0:
        wait_stats[tenant] = wait_stats.get(tenant, 0.0) + wait
        if sim.tracer.enabled:
            sim.tracer.add_span(
                sim.now,
                sim.now + wait,
                span_name,
                "fabric",
                track=track,
                tenant=tenant,
                port=port,
                bytes=cell,
            )
    return link.transmit(cell)


class PerCellPort:
    """The fabric port as first written: one event per cell per stage.

    Every stage is booked by an event at the cell's exit from the stage
    before, and ``done`` fires when a countdown over all cells' pool
    exits reaches zero.  Differential oracle for :class:`FabricPort`.
    """

    def __init__(self, fabric, port_index, tenant):
        self.fabric = fabric
        self.port_index = port_index
        self.tenant = tenant
        self.bytes_sent = 0.0

    def transmit(self, n_bytes, extra_delay=0.0):
        fabric = self.fabric
        sim = fabric.sim
        self.bytes_sent += n_bytes
        fabric.stats._account_bytes(self.port_index, self.tenant, n_bytes)
        cells = fabric.params.cells_per_transfer
        if n_bytes <= MIN_CELL_BYTES or cells == 1:
            cell_sizes = [n_bytes]
        else:
            cell_sizes = [n_bytes / cells] * cells
        done = sim.event()
        remaining = len(cell_sizes)

        def pool_done(_ev):
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                done.succeed(n_bytes)

        wire = fabric.port_links[self.port_index]
        for i, cell in enumerate(cell_sizes):
            port_ev = wire.transmit(cell, extra_delay=extra_delay if i == 0 else 0.0)
            port_ev.callbacks.append(
                lambda _ev, c=cell: self._enter_switch(c, pool_done)
            )
        return done

    def _enter_switch(self, cell, pool_done):
        fabric = self.fabric
        ev = _per_cell_stage_transmit(
            fabric,
            fabric.switch_link,
            cell,
            tenant=self.tenant,
            port=self.port_index,
            wait_stats=fabric.stats.tenant_switch_wait,
            span_name="switch-queue",
            track=f"{fabric.name}-switch",
        )
        ev.callbacks.append(lambda _ev: self._enter_pool(cell, pool_done))

    def _enter_pool(self, cell, pool_done):
        fabric = self.fabric
        pool = fabric.pool_link_for(self.tenant)
        ev = _per_cell_stage_transmit(
            fabric,
            pool,
            cell,
            tenant=self.tenant,
            port=self.port_index,
            wait_stats=fabric.stats.tenant_pool_wait,
            span_name="pool-queue",
            track=pool.name,
        )
        ev.callbacks.append(pool_done)


_SIZES = st.one_of(
    st.sampled_from(
        [1.0, 64.0, MIN_CELL_BYTES - 1.0, MIN_CELL_BYTES, MIN_CELL_BYTES + 1.0]
    ),
    st.floats(min_value=1.0, max_value=4e6),
)
#: One transfer: (gap before it, bytes, extra_delay, wait for delivery).
_OPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 50 * NS, 1e-6, 3.3e-5]),
        _SIZES,
        st.sampled_from([0.0, 0.0, 1 * NS, 7e-7]),
        st.booleans(),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def fabric_scenarios(draw):
    """Fabric shape, attached unit and per-tenant transfer programs."""
    n_ports = draw(st.integers(1, 4))
    n_tenants = draw(st.integers(1, 8))
    policy = draw(st.sampled_from(list(PartitionPolicy)))
    weights = None
    if policy is PartitionPolicy.WEIGHTED:
        weights = tuple(
            draw(st.sampled_from([0.5, 1.0, 3.0])) for _ in range(n_tenants)
        )
    bw = st.sampled_from([1 * GB, 3.3 * GB, 10 * GB])
    params = FabricParams(
        n_ports=n_ports,
        n_tenants=n_tenants,
        port_bandwidth=Bandwidth(draw(bw)),
        port_latency=draw(st.sampled_from([0.0, 100 * NS])),
        switch_bandwidth=draw(st.one_of(st.none(), bw.map(Bandwidth))),
        switch_latency=draw(st.sampled_from([0.0, 250 * NS])),
        pool_bandwidth=draw(st.one_of(st.none(), bw.map(Bandwidth))),
        pool_latency=draw(st.sampled_from([0.0, 150 * NS])),
        policy=policy,
        tenant_weights=weights,
        cells_per_transfer=draw(st.integers(1, 32)),
    )
    if draw(st.booleans()):  # symmetric tenants, all starting at t=0
        ops = draw(_OPS)
        ops[0] = (0.0, *ops[0][1:])
        programs = [ops] * n_tenants
    else:
        programs = [draw(_OPS) for _ in range(n_tenants)]
    unit = draw(st.sampled_from([None, "reducer", "gather"]))
    unit_ops = draw(_OPS) if unit else []
    ranks = draw(
        st.lists(st.integers(0, n_ports - 1), min_size=1, max_size=3)
    )
    return params, programs, unit, ranks, unit_ops


def _run_scenario(scenario, make_port):
    """Run one scenario; returns everything that must match bit for bit."""
    params, programs, unit_kind, ranks, unit_ops = scenario
    sim = Simulator()
    fabric = CXLFabric(sim, params)
    deliveries = []
    unit = None
    if unit_kind == "reducer":
        unit = fabric.reducer(ranks=ranks, tenant=0)
        send_unit = unit.reduce
    elif unit_kind == "gather":
        unit = fabric.gather_unit(ranks=ranks, tenant=0)
        send_unit = unit.gather

    def program(sim, key, send, ops):
        for k, (gap, n_bytes, extra, wait) in enumerate(ops):
            if gap:
                yield sim.timeout(gap)
            ev = send(n_bytes, extra_delay=extra)
            ev.callbacks.append(
                lambda _ev, k=k: deliveries.append((key, k, sim.now))
            )
            if wait:
                yield ev

    for t, ops in enumerate(programs):
        port = make_port(fabric, t % params.n_ports, t)
        sim.process(program(sim, t, port.transmit, ops))
    if unit is not None:
        sim.process(program(sim, "unit", send_unit, unit_ops))
    sim.run()
    links = [*fabric.port_links, fabric.switch_link, *fabric.pool_links]
    if unit_kind == "reducer":
        links.append(unit.alu)
    return {
        "stats": fabric.stats.snapshot(),
        "links": [
            (l.name, l.free_at, l.busy_time, l.bytes_sent, l.transfers)
            for l in links
        ],
        "deliveries": deliveries,
        "now": sim.now,
    }


class TestStageBookingMatchesPerCellEvents:
    """Booking a stage when its single upstream books the cell gives
    bit-identical results to one event per cell per stage."""

    @given(scenario=fabric_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_per_cell_oracle(self, scenario):
        booked = _run_scenario(
            scenario, lambda fabric, p, t: fabric.port(p, tenant=t)
        )
        oracle = _run_scenario(scenario, PerCellPort)
        assert booked == oracle

    def test_event_count_scales_with_transfers_not_cells(self):
        """Nothing attached, any port count: a 32-cell transfer costs the
        four events of its last cell, not 3 x 32 + 1."""
        for n_ports in (1, 2, 4):
            counts = {}
            for name, make_port in (
                ("booked", lambda fabric, p, t: fabric.port(p, tenant=t)),
                ("oracle", PerCellPort),
            ):
                sim = Simulator()
                fabric = CXLFabric(sim, _params(n_ports=n_ports, n_tenants=1))
                make_port(fabric, n_ports - 1, 0).transmit(1 << 20)
                sim.run()
                counts[name] = sim._seq
            assert counts == {"booked": 4, "oracle": 3 * 32 + 1}, n_ports

    def test_cross_port_ties_book_in_registration_order(self):
        """Two ports send equal transfers at the same instant, so every
        switch arrival is a tie between identical floats.  The merge books
        the tie in registration order, as the per-cell events fire, and
        waits, spans and deliveries match the oracle."""
        params = _params(
            n_ports=2,
            n_tenants=2,
            switch_bandwidth=Bandwidth(20 * GB),
            pool_bandwidth=Bandwidth(10 * GB),
            policy="shared",
            cells_per_transfer=4,
        )

        def run(make_port):
            tracer = Tracer()
            with Profile(tracer).activate():
                sim = Simulator()
            fabric = CXLFabric(sim, params)
            ends = []
            for t in (1, 0):  # tenant 1 on port 1 registers first
                ev = make_port(fabric, t, t).transmit(64 * 1024)
                ev.callbacks.append(lambda _ev, t=t: ends.append((t, sim.now)))
            sim.run()
            queued = sorted(
                (s.begin, s.end, s.name, s.args["tenant"], s.args["port"])
                for s in tracer.spans
                if s.cat == "fabric"
            )
            return fabric.stats.snapshot(), ends, queued

        booked = run(lambda fabric, p, t: fabric.port(p, tenant=t))
        assert booked == run(PerCellPort)
        stats, ends, queued = booked
        # Each tie is won by the transfer registered first (tenant 1):
        # only tenant 0's cells queue at the switch, half a port cell
        # time each, behind tenant 1's cell.
        switch = [q for q in queued if q[2] == "switch-queue"]
        assert [q[3] for q in switch] == [0] * 4
        half_cell = 16 * 1024 / (20 * GB)
        assert all(e - b == pytest.approx(half_cell) for b, e, *_ in switch)
        assert stats["tenant_switch_wait"].keys() == {"0"}
        assert [t for t, _ in ends] == [1, 0]

    def test_stage_stats_settle_at_each_drain(self):
        """Switch and pool are booked when a transfer's last cell leaves
        its port, so a read mid-train lags the cells already across."""
        sim = Simulator()
        fabric = CXLFabric(sim, _params(n_ports=2, n_tenants=1))
        fabric.port(1, tenant=0).transmit(1 << 20)
        port = fabric.port_links[1]
        sim.run(until=port.free_at / 2)
        assert port.transfers == 32
        assert fabric.switch_link.transfers == 0
        sim.run()
        assert fabric.switch_link.transfers == 32
        assert fabric.pool_link_for(0).transfers == 32

    def test_tracer_and_metrics_hooks_still_fire(self):
        """Booked-ahead stages still emit queue spans and wire samples,
        stamped with the cell's arrival time at the stage."""
        tracer, metrics = Tracer(), Metrics()
        with Profile(tracer, metrics).activate():
            sim = Simulator()
        fabric = CXLFabric(
            sim, _params(n_ports=1, policy="shared", pool_bandwidth=Bandwidth(GB))
        )
        for t in range(2):
            fabric.port(0, t).transmit(1 << 20)
        sim.run()
        names = {s.name for s in tracer.spans}
        assert {"xfer", "pool-queue"} <= names
        assert validate_chrome_trace(tracer.chrome_trace(metrics=metrics)) == []
        series = metrics.series("fabric-pool.utilization")
        assert len(series) == 64
        assert all(0.0 < ts <= sim.now and 0.0 < u <= 1.0 for ts, u in series)

    @pytest.mark.parametrize("n_ports, unit", [(1, None), (2, None), (2, "reducer")])
    def test_last_cell_events_keep_their_place_in_ties(self, n_ports, unit):
        """Events that land on the delivery time in the same order as on
        the per-cell path.  With power-of-two sizes and bandwidths the
        single cell leaves port/switch/pool at exactly 1, 2, 3 x 2**-20 s;
        an observer pushed at the port exit and again at the pool exit
        must still run before ``done`` fires.
        """
        params = _params(
            n_ports=n_ports,
            n_tenants=1,
            port_bandwidth=Bandwidth(2.0**30),
            switch_bandwidth=Bandwidth(2.0**30),
            pool_bandwidth=Bandwidth(2.0**30),
        )
        t_port, t_pool = 2.0**-20, 3 * 2.0**-20

        def run(make_port):
            sim = Simulator()
            fabric = CXLFabric(sim, params)
            if unit:
                fabric.reducer(ranks=[0])
            log = []

            def main(sim):
                ev = make_port(fabric, 0, 0).transmit(1024)
                ev.callbacks.append(lambda _ev: log.append(("done", sim.now)))
                yield sim.at(t_port)
                yield sim.at(t_pool)
                log.append(("observer", sim.now))
                yield sim.timeout(0.0)
                log.append(("observer-again", sim.now))

            sim.process(main(sim))
            sim.run()
            return log

        booked = run(lambda fabric, p, t: fabric.port(p, tenant=t))
        assert booked == run(PerCellPort)
        assert booked == [
            ("observer", t_pool),
            ("observer-again", t_pool),
            ("done", t_pool),
        ]

    def test_zero_byte_cell_keeps_fifo_order_where_rounding_reordered_it(self):
        """The one divergence from the per-cell oracle, and the reason the
        differential test draws sizes of at least one byte.

        A zero-byte cell that reaches the switch while a 1014-byte cell
        is on its wire finishes at the same ``done_at``.  Per-cell events
        fire each exit at ``now + (done_at - now)`` from its own booking
        time, and here that float is one ulp *earlier* for the zero-byte
        cell, so it overtook the cell ahead of it into the pool.  Booking
        the pool when the switch books keeps the stage FIFO instead.
        """
        params = _params(
            port_bandwidth=Bandwidth(1 * GB),
            switch_bandwidth=Bandwidth(0.25 * GB),
            policy="shared",
            cells_per_transfer=1,
        )

        def run(make_port):
            sim = Simulator()
            fabric = CXLFabric(sim, params)
            ends = {}

            def send(sim, key, port, n_bytes, start):
                yield sim.timeout(start)
                yield make_port(fabric, port, key).transmit(n_bytes)
                ends[key] = sim.now

            sim.process(send(sim, 0, 0, 1014, 0.0))
            sim.process(send(sim, 1, 1, 0.0, 1.1154e-06))
            sim.run()
            return ends, fabric.stats.pool_wait

        (booked, booked_wait), (oracle, oracle_wait) = (
            run(lambda fabric, p, t: fabric.port(p, tenant=t)),
            run(PerCellPort),
        )
        switch_exit = 1014 / (1 * GB) + 1014 / (0.25 * GB)
        assert oracle[1] < switch_exit and oracle_wait == 0.0
        assert booked[1] == booked[0] and booked_wait > 0.0


class TestConservation:
    """Bytes in = bytes out per fabric stage, per tenant and per port."""

    @staticmethod
    def _cells(n_bytes, per_transfer):
        return 1 if n_bytes <= MIN_CELL_BYTES or per_transfer == 1 else per_transfer

    @given(scenario=fabric_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_stage_bytes_and_transfers_balance(self, scenario):
        params, programs, _, ranks, unit_ops = scenario
        sim = Simulator()
        fabric = CXLFabric(sim, params)
        red = fabric.reducer(ranks=ranks, tenant=0) if unit_ops else None
        ports = [
            fabric.port(t % params.n_ports, tenant=t)
            for t in range(params.n_tenants)
        ]
        for port, ops in zip(ports, programs):
            for _, n_bytes, extra, _ in ops:
                port.transmit(n_bytes, extra_delay=extra)
        for _, n_bytes, extra, _ in unit_ops:
            red.reduce(n_bytes, extra_delay=extra)
        sim.run()

        stats = fabric.stats
        approx = lambda x: pytest.approx(x, rel=1e-12)  # noqa: E731
        plain = sum(p.bytes_sent for p in ports)
        port_sum = sum(link.bytes_sent for link in fabric.port_links)
        pool_sum = sum(link.bytes_sent for link in fabric.pool_links)
        assert port_sum == approx(stats.total_bytes)
        assert fabric.switch_link.bytes_sent == approx(port_sum)
        assert stats.reduce_in_bytes == approx(
            len(ranks) * sum(op[1] for op in unit_ops)
        )
        assert fabric.switch_link.bytes_sent == approx(plain + stats.reduce_in_bytes)
        assert pool_sum == approx(plain + stats.reduce_out_bytes)
        if red is None:
            assert pool_sum == approx(stats.total_bytes)
        for p, link in enumerate(fabric.port_links):
            assert link.bytes_sent == approx(stats.port_bytes.get(p, 0.0))
        for t in range(params.n_tenants):
            sent = sum(p.bytes_sent for p in ports if p.tenant == t)
            if red is not None and t == 0:
                sent += stats.reduce_in_bytes
            assert sent == approx(stats.tenant_bytes.get(t, 0.0))
            if params.policy is not PartitionPolicy.SHARED:
                pool_in = ports[t].bytes_sent
                if red is not None and t == 0:
                    pool_in += stats.reduce_out_bytes
                assert fabric.pool_link_for(t).bytes_sent == approx(pool_in)

        per = params.cells_per_transfer
        plain_cells = sum(
            self._cells(op[1], per) for ops in programs for op in ops
        )
        unit_cells = sum(self._cells(op[1], per) for op in unit_ops)
        port_cells = sum(link.transfers for link in fabric.port_links)
        pool_cells = sum(link.transfers for link in fabric.pool_links)
        assert port_cells == plain_cells + len(ranks) * unit_cells
        assert fabric.switch_link.transfers == port_cells
        assert pool_cells == plain_cells + unit_cells


class TestLateAttachmentAndBadInput:
    @pytest.mark.parametrize(
        "make",
        [
            lambda f: f.port(1.5),
            lambda f: f.port(0, tenant=1.0),
            lambda f: f.reducer(ranks=[1.9]),
            lambda f: f.reducer(ranks=[0, 1], tenant=0.5),
            lambda f: f.gather_unit(ranks=[0, 1.0]),
            lambda f: f.gather_unit(ranks=[0, 1], tenant=0.5),
        ],
    )
    def test_non_integer_index_rejected(self, make):
        # Used to be truncated (rank 1.9 -> port 1), booked under a
        # float tenant key, or fail only at the first transmit.
        fabric = CXLFabric(Simulator(), _params())
        with pytest.raises(ValueError, match="not an integer index"):
            make(fabric)

    def test_numpy_integer_indices_accepted(self):
        fabric = CXLFabric(Simulator(), _params())
        port = fabric.port(np.int64(1), tenant=np.int32(1))
        red = fabric.reducer(ranks=np.arange(2), tenant=np.int64(1))
        assert port.name == "fabric-p1-t1"
        assert red.ranks == [0, 1]
        assert red.name == "fabric-reduce-t1"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FabricParams(n_ports=True),
            lambda: FabricParams(n_tenants=True),
            lambda: FabricParams(cells_per_transfer=True),
            lambda: CXLFabric(Simulator(), _params()).port(True),
            lambda: CXLFabric(Simulator(), _params()).port(0, tenant=False),
            lambda: CXLFabric(Simulator(), _params()).reducer(ranks=[0, True]),
            lambda: FabricParams(n_tenants=2).tenant_share(0.5),
            lambda: FabricParams(n_tenants=2).tenant_share(True),
            lambda: FabricParams(n_tenants=2).tenant_share(2),
        ],
    )
    def test_bool_and_fractional_indices_rejected(self, make):
        # bools used to pass as 0/1 and tenant_share(0.5) returned 0.5.
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(reduce_latency=float("nan")),
            dict(reduce_bandwidth=float("nan")),
            dict(reduce_bandwidth=float("inf")),
        ],
    )
    def test_bad_reduce_alu_rejected_before_attaching(self, kw):
        fabric = CXLFabric(Simulator(), _params())
        with pytest.raises(ValueError, match="finite"):
            fabric.reducer(ranks=[0, 1], **kw)
        assert fabric._pool_books_with_switch

    @pytest.mark.parametrize("unit", ["reducer", "gather_unit"])
    def test_unit_must_attach_before_traffic(self, unit):
        sim = Simulator()
        fabric = CXLFabric(sim, _params())
        getattr(fabric, unit)(ranks=[0, 1])  # before traffic: fine
        fabric.port(0, tenant=0).transmit(1 << 20)
        with pytest.raises(ValueError, match="before it carries traffic"):
            getattr(fabric, unit)(ranks=[0, 1])
        sim.run()
        with pytest.raises(ValueError, match="before it carries traffic"):
            getattr(fabric, unit)(ranks=[0, 1])

    @pytest.mark.parametrize(
        "n_bytes, extra_delay",
        [
            (float("nan"), 0.0),
            (float("inf"), 0.0),
            (-1.0, 0.0),
            (4096.0, float("nan")),
            (4096.0, float("inf")),
            (4096.0, -1e-9),
        ],
    )
    @pytest.mark.parametrize("entry", ["port", "reducer", "gather_unit"])
    def test_bad_input_rejected_before_any_state_change(
        self, entry, n_bytes, extra_delay
    ):
        sim = Simulator()
        fabric = CXLFabric(sim, _params())
        if entry == "port":
            target = fabric.port(1, tenant=1)
            send = target.transmit
        else:
            target = getattr(fabric, entry)(ranks=[0, 1])
            send = target.reduce if entry == "reducer" else target.gather
        fabric.port(0, tenant=0).transmit(1 << 20)
        links = [*fabric.port_links, fabric.switch_link, *fabric.pool_links]

        def state():
            return (
                fabric.stats.snapshot(),
                [(l.free_at, l.busy_time, l.bytes_sent, l.transfers) for l in links],
                vars(target).get("bytes_sent"),
                vars(target).get("bytes_in"),
                sim._seq,
            )

        before = state()
        with pytest.raises(ValueError, match="finite and non-negative"):
            send(n_bytes, extra_delay=extra_delay)
        assert state() == before
        sim.run()
        assert sim.now < 1.0
