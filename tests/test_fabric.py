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
from repro.interconnect.aggregation import (
    DEFAULT_REDUCE_BANDWIDTH,
    DEFAULT_REDUCE_LATENCY,
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
from repro.sim import SerialLink, SimEvent, Simulator
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

    @pytest.mark.parametrize(
        "kw",
        [
            dict(port_bandwidth=5e9),
            dict(switch_bandwidth=5e9),
            dict(pool_bandwidth=5e9),
            dict(port_latency=True),
            dict(switch_latency=False),
            dict(pool_latency=True),
        ],
    )
    def test_rejects_plain_float_bandwidth_and_bool_latency(self, kw):
        # Each used to be accepted: a float bandwidth then failed with an
        # AttributeError at fabric build or first transmit, and
        # ``port_latency=True`` ran as a 1 s latency.
        with pytest.raises(ValueError, match="Bandwidth|number"):
            FabricParams(**kw)

    def test_numpy_integer_counts_accepted(self):
        p = FabricParams(n_ports=np.int64(3), cells_per_transfer=np.int32(4))
        assert len(CXLFabric(Simulator(), p).port_links) == 3

        def run(params):
            sim = Simulator()
            fabric = CXLFabric(sim, params)
            fabric.port(2).transmit(1 << 20)
            fabric.reducer(ranks=[0, 1]).reduce(1 << 16)
            sim.run()
            return sim.now, fabric.stats.snapshot(), fabric.switch_link.transfers

        # Counts reach the port-train bursts as plain ints.
        assert run(p) == run(FabricParams(n_ports=3, cells_per_transfer=4))


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
        assert done["t"] == pytest.approx(expected, rel=1e-9, abs=0)

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
        assert t.forward == pytest.approx(dp.forward, rel=1e-9, abs=0)
        assert t.backward == pytest.approx(dp.backward, rel=1e-9, abs=0)
        assert t.optimizer == pytest.approx(dp.optimizer, rel=0.05)
        assert t.communication_exposed == pytest.approx(
            dp.communication_exposed, rel=0.25, abs=5e-3
        )
        assert t.wire_bytes == pytest.approx(dp.wire_bytes, rel=1e-9, abs=0)
        assert t.wire_bytes_per_link == pytest.approx(
            dp.wire_bytes_per_link, rel=1e-9, abs=0
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
            dp.wire_bytes, rel=1e-9, abs=0
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
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.tenant{self.tenant}.bytes").inc(n_bytes)
            mx.counter(f"{fabric.name}.port{self.port_index}.bytes").inc(n_bytes)
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


class _PerCellUnit:
    """A rank unit as first written: one event per rank cell per stage.

    Each rank's cell is an event at its port exit that books the switch,
    and an event at its switch exit that counts it into the per-cell
    barrier; the last arrival releases the cell.  ``done`` fires when a
    countdown over every delivery reaches zero.
    """

    kind: str

    def __init__(self, fabric, ranks, tenant=0):
        self.fabric = fabric
        self.ranks = list(ranks)
        self.tenant = tenant
        self.name = f"{fabric.name}-{self.kind}-t{tenant}"
        self.bytes_in = 0.0
        self.bytes_out = 0.0

    @property
    def n_ranks(self):
        return len(self.ranks)

    def _add(self, field_name, n):
        per_tenant = getattr(self.fabric.stats, field_name)
        per_tenant[self.tenant] = per_tenant.get(self.tenant, 0.0) + n

    def _account_out(self, n_bytes):
        self.bytes_out += n_bytes
        self._add(f"tenant_{self.kind}_out_bytes", n_bytes)
        mx = self.fabric.sim.metrics
        if mx.enabled:
            mx.counter(f"{self.fabric.name}.{self.kind}.out_bytes").inc(n_bytes)

    def _collect(self, n_bytes, extra_delay, per_cell):
        fabric = self.fabric
        sim = fabric.sim
        in_bytes = n_bytes * self.n_ranks
        self.bytes_in += in_bytes
        self._add(f"tenant_{self.kind}_in_bytes", in_bytes)
        for port in self.ranks:
            fabric.stats._account_bytes(port, self.tenant, n_bytes)
        mx = sim.metrics
        if mx.enabled:
            mx.counter(f"{fabric.name}.{self.kind}.in_bytes").inc(in_bytes)
            mx.counter(f"{fabric.name}.tenant{self.tenant}.bytes").inc(in_bytes)
        cells = fabric.params.cells_per_transfer
        if n_bytes <= MIN_CELL_BYTES or cells == 1:
            cell_sizes = [n_bytes]
        else:
            cell_sizes = [n_bytes / cells] * cells
        done = sim.event()
        remaining = len(cell_sizes) * per_cell

        def delivered(_ev):
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                done.succeed(n_bytes)

        for i, cell in enumerate(cell_sizes):
            state = {"arrived": 0, "first": None}
            for port in self.ranks:
                port_ev = fabric.port_links[port].transmit(
                    cell, extra_delay=extra_delay if i == 0 else 0.0
                )
                port_ev.callbacks.append(
                    lambda _ev, c=cell, p=port, s=state: self._enter_switch(
                        c, p, s, delivered
                    )
                )
        return done

    def _enter_switch(self, cell, port, state, delivered):
        fabric = self.fabric
        ev = _per_cell_stage_transmit(
            fabric,
            fabric.switch_link,
            cell,
            tenant=self.tenant,
            port=port,
            wait_stats=fabric.stats.tenant_switch_wait,
            span_name="switch-queue",
            track=fabric.switch_link.name,
        )
        ev.callbacks.append(lambda _ev: self._arrive(cell, state, delivered))

    def _arrive(self, cell, state, delivered):
        sim = self.fabric.sim
        if state["first"] is None:
            state["first"] = sim.now
        state["arrived"] += 1
        if state["arrived"] < self.n_ranks:
            return
        wait = sim.now - state["first"]
        if wait > 0.0:
            self._add(f"tenant_{self.kind}_wait", wait)
            if sim.tracer.enabled:
                sim.tracer.add_span(
                    state["first"],
                    sim.now,
                    f"{self.kind}-wait",
                    "fabric",
                    track=self.name,
                    tenant=self.tenant,
                    bytes=cell,
                )
        self._release(cell, delivered)


class PerCellReducer(_PerCellUnit):
    """Differential oracle for :class:`FabricReducer`: the ALU is booked
    by the barrier event, the pool by an event at the ALU exit."""

    kind = "reduce"

    def __init__(self, fabric, ranks, tenant=0):
        super().__init__(fabric, ranks, tenant)
        self.alu = SerialLink(
            fabric.sim,
            Bandwidth(DEFAULT_REDUCE_BANDWIDTH),
            latency=DEFAULT_REDUCE_LATENCY,
            name=f"{self.name}-alu",
        )

    def reduce(self, n_bytes_per_rank, extra_delay=0.0):
        return self._collect(n_bytes_per_rank, extra_delay, per_cell=1)

    def _release(self, cell, delivered):
        sim = self.fabric.sim
        summed = cell * self.n_ranks
        ev = self.alu.transmit(summed)
        if sim.tracer.enabled:
            sim.tracer.add_span(
                sim.now,
                sim.now + self.alu.bandwidth.time_for(summed),
                "fabric-reduce",
                "fabric",
                track=self.name,
                tenant=self.tenant,
                bytes=cell,
                ranks=self.n_ranks,
            )
        ev.callbacks.append(lambda _ev: self._enter_pool(cell, delivered))

    def _enter_pool(self, cell, delivered):
        fabric = self.fabric
        self._account_out(cell)
        pool = fabric.pool_link_for(self.tenant)
        ev = _per_cell_stage_transmit(
            fabric,
            pool,
            cell,
            tenant=self.tenant,
            port=-1,
            wait_stats=fabric.stats.tenant_pool_wait,
            span_name="pool-queue",
            track=pool.name,
        )
        ev.callbacks.append(delivered)


class PerCellGather(_PerCellUnit):
    """Differential oracle for :class:`FabricGather`: every rank's
    downlink delivery is an event counted toward ``done``."""

    kind = "gather"

    def gather(self, shard_bytes, extra_delay=0.0):
        if self.n_ranks == 1 or shard_bytes == 0.0:
            done = self.fabric.sim.event()
            done.succeed(shard_bytes)
            return done
        return self._collect(shard_bytes, extra_delay, per_cell=self.n_ranks)

    def _release(self, cell, delivered):
        fabric = self.fabric
        R = self.n_ranks
        self._account_out(cell * (R - 1) * R)
        for port in self.ranks:
            down = cell * (R - 1)
            fabric.stats._account_bytes(port, self.tenant, down)
            wire = fabric.port_links[port]
            ev = _per_cell_stage_transmit(
                fabric,
                wire,
                down,
                tenant=self.tenant,
                port=port,
                wait_stats=fabric.stats.tenant_switch_wait,
                span_name="gather-egress-queue",
                track=wire.name,
            )
            ev.callbacks.append(delivered)


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
    """Fabric shape, per-tenant transfer programs and attached units."""
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
    symmetric = draw(st.booleans())
    if symmetric:  # symmetric tenants and units, all starting at t=0
        ops = draw(_OPS)
        ops[0] = (0.0, *ops[0][1:])
        programs = [ops] * n_tenants
    else:
        programs = [draw(_OPS) for _ in range(n_tenants)]
    kinds = draw(
        st.sampled_from([(), ("reducer",), ("gather",), ("reducer", "gather")])
    )
    units = []
    for k, kind in enumerate(kinds):
        # Ranks may share ports; with both units, tenants differ if they can.
        ranks = draw(
            st.lists(st.integers(0, n_ports - 1), min_size=1, max_size=4)
        )
        unit_ops = programs[0] if symmetric else draw(_OPS)
        units.append((kind, k % n_tenants, ranks, unit_ops))
    return params, programs, units


def _run_scenario(scenario, oracle=False):
    """Run one scenario on the fabric's own classes, or on the per-cell
    oracles; returns everything that must match bit for bit."""
    params, programs, units = scenario
    sim = Simulator()
    fabric = CXLFabric(sim, params)
    deliveries = []

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
        if oracle:
            port = PerCellPort(fabric, t % params.n_ports, t)
        else:
            port = fabric.port(t % params.n_ports, tenant=t)
        sim.process(program(sim, t, port.transmit, ops))
    made = []
    for kind, tenant, ranks, ops in units:
        if kind == "reducer":
            unit = (
                PerCellReducer(fabric, ranks, tenant)
                if oracle
                else fabric.reducer(ranks=ranks, tenant=tenant)
            )
            send = unit.reduce
        else:
            unit = (
                PerCellGather(fabric, ranks, tenant)
                if oracle
                else fabric.gather_unit(ranks=ranks, tenant=tenant)
            )
            send = unit.gather
        made.append(unit)
        sim.process(program(sim, kind, send, ops))
    sim.run()
    links = [*fabric.port_links, fabric.switch_link, *fabric.pool_links]
    links += [unit.alu for unit in made if hasattr(unit, "alu")]
    return {
        "stats": fabric.stats.snapshot(),
        "links": [
            (l.name, l.free_at, l.busy_time, l.bytes_sent, l.transfers)
            for l in links
        ],
        "units": [(unit.bytes_in, unit.bytes_out) for unit in made],
        "deliveries": deliveries,
        "now": sim.now,
    }


class TestStageBookingMatchesPerCellEvents:
    """The arrival merge gives bit-identical results to one event per
    cell per stage, for port transfers and the reduce and gather units."""

    @given(scenario=fabric_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_per_cell_oracle(self, scenario):
        assert _run_scenario(scenario) == _run_scenario(scenario, oracle=True)

    @given(scenario=fabric_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_traced_run_matches_per_cell_oracle(self, scenario):
        """With a tracer and metrics active every booked cell goes
        through ``occupy``: results and spans are the per-cell ones.
        Spans are compared as multisets; their emission order differs."""
        runs = []
        for oracle in (False, True):
            tracer = Tracer()
            with Profile(tracer, Metrics()).activate():
                result = _run_scenario(scenario, oracle=oracle)
            spans = sorted(
                (s.name, s.begin, s.end, sorted(s.args.items()), s.track)
                for s in tracer.spans
            )
            runs.append((result, spans))
        assert runs[0] == runs[1]

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

    @pytest.mark.parametrize("oracle", [False, True])
    def test_unit_event_counts_scale_with_calls_not_rank_cells(self, oracle):
        """An 8-rank, 32-cell reduce pushes the five events of its last
        cell (port exit, barrier, ALU exit, pool exit, done), not
        (2R + 2) x 32 + 1.  A gather pushes two per cell (last rank cell's
        port exit, barrier) and one delivery chain, not 3R per cell; a
        one-rank gather only its ``done``."""
        counts = {}
        for kind in ("reduce", "gather"):
            sim = Simulator()
            fabric = CXLFabric(sim, _params(n_ports=8, n_tenants=2))
            if kind == "reduce":
                make = PerCellReducer if oracle else lambda f, r, t: f.reducer(r, t)
                make(fabric, range(8), 0).reduce(1 << 20)
            else:
                make = PerCellGather if oracle else lambda f, r, t: f.gather_unit(r, t)
                make(fabric, [3], 1).gather(1 << 20)
                make(fabric, range(8), 0).gather(1 << 20)
            sim.run()
            counts[kind] = sim._seq
        R, cells = 8, 32
        if oracle:
            assert counts == {
                "reduce": (2 * R + 2) * cells + 1,
                "gather": 1 + 3 * R * cells + 1,
            }
        else:
            assert counts == {"reduce": 5, "gather": 1 + 2 * cells + 2}

    def test_unit_ties_break_by_push_order_not_rank(self):
        """Ranks [0, 1, 1] with equal cells: port 0's cell 1 and port 1's
        cell 0 of rank 2 both leave their ports at exactly 2 d.  A unit
        pushes its port cells cell-major, so the per-cell pipeline books
        cell 0 of rank 2 first; keying the tie by (rank, cell) would put
        port 0's cell 1 ahead of it and delay cell 0's barrier."""
        d = 2.0**12 / 2.0**30
        params = _params(
            n_ports=2,
            n_tenants=1,
            port_bandwidth=Bandwidth(2.0**30),
            switch_bandwidth=Bandwidth(2.0**30),
            pool_bandwidth=Bandwidth(2.0**30),
            cells_per_transfer=4,
        )
        for kind in ("reducer", "gather"):
            ops = [(0.0, 2.0**14, 0.0, True)]
            scenario = (params, [[]], [(kind, 0, [0, 1, 1], ops)])
            booked = _run_scenario(scenario)
            assert booked == _run_scenario(scenario, oracle=True), kind
        sim = Simulator()
        fabric = CXLFabric(sim, params)
        red = fabric.reducer(ranks=[0, 1, 1])
        red.reduce(2.0**14)
        exits = [fabric.port_links[p].free_at for p in (0, 1)]
        assert exits == [4 * d, 8 * d]
        sim.run()
        # At 2 d the switch takes rank 2's cell 0 before rank 0's cell 1,
        # so cell 0's barrier is the third switch exit (4 d, not 5 d), and
        # the four barriers wait 2, 3, 4 and 4 d.
        assert fabric.stats.reduce_wait == 13 * d

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


class _Recorder(dict):
    """A stats dict that logs every update, to compare accumulation order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def __setitem__(self, key, value):
        self.log.append((key, value))
        super().__setitem__(key, value)


def test_switch_and_egress_waits_accumulate_in_event_order():
    """A gather's egress waits and port cells' switch waits both add into
    ``tenant_switch_wait``, so their order must follow the per-cell
    events even at an exact tie.  With cell time d: the gather's cell
    barrier is at 3 d (its event pushed at d); transfer y, called at 0,
    leaves its port at 3 d and fires its drain first; transfer x, called
    at 2 d, also leaves its port at 3 d but after the barrier, so its
    switch wait must be added after the egress wait."""
    s = 4096.0
    d = s / 2.0**30
    params = _params(
        n_ports=4,
        n_tenants=1,
        port_bandwidth=Bandwidth(2.0**30),
        switch_bandwidth=Bandwidth(2.0**30),
        cells_per_transfer=1,
    )

    def run(oracle):
        sim = Simulator()
        fabric = CXLFabric(sim, params)
        fabric.stats.tenant_switch_wait = _Recorder()

        def port(p):
            return PerCellPort(fabric, p, 0) if oracle else fabric.port(p, 0)

        def main(sim):
            if oracle:
                PerCellGather(fabric, [0, 1], 0).gather(s)
            else:
                fabric.gather_unit([0, 1]).gather(s)
            port(2).transmit(3 * s)  # y: its last port exit is 3 d
            port(0).transmit(4 * s)  # keeps port 0 busy: an egress wait
            yield sim.timeout(2 * d)
            port(3).transmit(s)  # x: port exit 3 d, after the barrier's push

        sim.process(main(sim))
        sim.run()
        return fabric.stats.tenant_switch_wait.log

    booked = run(oracle=False)
    assert booked == run(oracle=True)
    waits = [b - a for (_, a), (_, b) in zip([(0, 0.0)] + booked, booked)]
    # Rank 1's cell behind rank 0's (d), the egress behind the port-0
    # transfer (2 d), x behind y at the switch (3 d), then the port-0
    # transfer behind x (2 d).
    assert waits == [d, 2 * d, 3 * d, 2 * d]


class TestConservation:
    """Bytes in = bytes out per fabric stage, per tenant and per port."""

    @staticmethod
    def _cells(n_bytes, per_transfer):
        return 1 if n_bytes <= MIN_CELL_BYTES or per_transfer == 1 else per_transfer

    @given(scenario=fabric_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_stage_bytes_and_transfers_balance(self, scenario):
        params, programs, units = scenario
        sim = Simulator()
        fabric = CXLFabric(sim, params)
        ports = [
            fabric.port(t % params.n_ports, tenant=t)
            for t in range(params.n_tenants)
        ]
        for port, ops in zip(ports, programs):
            for _, n_bytes, extra, _ in ops:
                port.transmit(n_bytes, extra_delay=extra)
        red = gat = None
        for kind, tenant, ranks, ops in units:
            if kind == "reducer":
                red = unit = fabric.reducer(ranks=ranks, tenant=tenant)
                send = unit.reduce
            else:
                gat = unit = fabric.gather_unit(ranks=ranks, tenant=tenant)
                send = unit.gather
            for _, n_bytes, extra, _ in ops:
                send(n_bytes, extra_delay=extra)
        sim.run()

        stats = fabric.stats
        approx = lambda x: pytest.approx(x, rel=1e-12)  # noqa: E731
        per = params.cells_per_transfer
        plain = sum(p.bytes_sent for p in ports)
        plain_cells = sum(
            self._cells(op[1], per) for ops in programs for op in ops
        )
        # Per unit: (uplink bytes, uplink cells, cells past the barrier).
        unit_in = {"reducer": (0.0, 0, 0), "gather": (0.0, 0, 0)}
        for kind, _, ranks, ops in units:
            R = len(ranks)
            moving = [
                op[1] for op in ops if kind == "reducer" or (R > 1 and op[1] > 0)
            ]
            cells = sum(self._cells(n, per) for n in moving)
            unit_in[kind] = (R * sum(moving), R * cells, cells)
        red_in, red_up, red_cells = unit_in["reducer"]
        gat_in, gat_up, gat_cells = unit_in["gather"]
        gather_ranks = len(gat.ranks) if gat else 0

        assert stats.reduce_in_bytes == approx(red_in)
        assert stats.gather_in_bytes == approx(gat_in)
        # Switch: every port cell and every unit's uplink cells.
        assert fabric.switch_link.bytes_sent == approx(plain + red_in + gat_in)
        # Pool: port cells and one reduced cell per reduce cell.
        pool_sum = sum(link.bytes_sent for link in fabric.pool_links)
        assert pool_sum == approx(plain + stats.reduce_out_bytes)
        assert stats.reduce_out_bytes == approx(red_in / len(red.ranks) if red else 0.0)
        # Ports: each wire's bytes are its accounted bytes, downlinks too.
        for p, link in enumerate(fabric.port_links):
            assert link.bytes_sent == approx(stats.port_bytes.get(p, 0.0))
        port_sum = sum(link.bytes_sent for link in fabric.port_links)
        assert port_sum == approx(stats.total_bytes)
        assert port_sum == approx(plain + red_in + gat_in + stats.gather_out_bytes)
        assert stats.gather_out_bytes == approx(gat_in * (gather_ranks - 1))
        for t in range(params.n_tenants):
            sent = sum(p.bytes_sent for p in ports if p.tenant == t)
            pool_in = sent
            if red is not None and red.tenant == t:
                sent += stats.reduce_in_bytes
                pool_in += stats.reduce_out_bytes
            if gat is not None and gat.tenant == t:
                sent += stats.gather_in_bytes + stats.gather_out_bytes
            assert sent == approx(stats.tenant_bytes.get(t, 0.0))
            if params.policy is not PartitionPolicy.SHARED:
                assert fabric.pool_link_for(t).bytes_sent == approx(pool_in)

        port_cells = sum(link.transfers for link in fabric.port_links)
        pool_cells = sum(link.transfers for link in fabric.pool_links)
        # A gather cell goes down once per rank.
        assert port_cells == plain_cells + red_up + gat_up + gat_up
        assert fabric.switch_link.transfers == plain_cells + red_up + gat_up
        assert pool_cells == plain_cells + red_cells
        if red is not None:
            assert red.alu.transfers == red_cells


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
            dict(reduce_latency=True),
        ],
    )
    def test_bad_reduce_alu_rejected_before_attaching(self, kw):
        # The rejected reducer leaves no trace: the fabric carries the
        # same traffic, with the same events and stats, as one without.
        def run(bad):
            sim = Simulator()
            fabric = CXLFabric(sim, _params())
            if bad:
                with pytest.raises(ValueError):
                    fabric.reducer(ranks=[0, 1], **kw)
            done = fabric.port(0, tenant=0).transmit(1 << 20)
            sim.run()
            return done.value, sim._seq, fabric.stats.snapshot()

        assert run(bad=True) == run(bad=False)

    @pytest.mark.parametrize("kind", ["reducer", "gather_unit"])
    def test_unit_attached_mid_traffic_matches_oracle(self, kind):
        """A unit may attach while port transfers are in flight, their
        switch and pool stages already booked ahead."""
        params = _params(
            n_ports=2,
            n_tenants=2,
            switch_bandwidth=Bandwidth(4 * GB),
            pool_bandwidth=Bandwidth(4 * GB),
            policy="shared",
        )

        def run(oracle):
            sim = Simulator()
            fabric = CXLFabric(sim, params)
            log = []

            def main(sim):
                for t in (0, 1):
                    port = (
                        PerCellPort(fabric, t, t) if oracle else fabric.port(t, t)
                    )
                    ev = port.transmit(1 << 20)
                    ev.callbacks.append(lambda _ev, t=t: log.append((t, sim.now)))
                yield sim.timeout(50 * NS)
                make = {
                    (False, "reducer"): lambda: fabric.reducer([0, 1], tenant=1),
                    (False, "gather_unit"): lambda: fabric.gather_unit([0, 1], tenant=1),
                    (True, "reducer"): lambda: PerCellReducer(fabric, [0, 1], 1),
                    (True, "gather_unit"): lambda: PerCellGather(fabric, [0, 1], 1),
                }[oracle, kind]
                unit = make()
                send = unit.reduce if kind == "reducer" else unit.gather
                yield send(256 * 1024)
                log.append(("unit", sim.now))

            sim.process(main(sim))
            sim.run()
            return log, fabric.stats.snapshot(), [
                (l.free_at, l.busy_time, l.transfers)
                for l in (*fabric.port_links, fabric.switch_link, *fabric.pool_links)
            ]

        booked = run(oracle=False)
        assert booked == run(oracle=True)
        assert booked[1]["switch_wait"] > 0.0

    @pytest.mark.parametrize("entry", ["port", "reducer", "gather_unit"])
    def test_bool_bytes_and_delay_rejected(self, entry):
        # ``transmit(True)`` used to send one byte.
        fabric = CXLFabric(Simulator(), _params())
        if entry == "port":
            send = fabric.port(0).transmit
        else:
            unit = getattr(fabric, entry)(ranks=[0, 1])
            send = unit.reduce if entry == "reducer" else unit.gather
        with pytest.raises(ValueError, match="number"):
            send(True)
        with pytest.raises(ValueError, match="number"):
            send(4096.0, extra_delay=False)

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
