"""Additional kernel coverage: interrupts, peek, controller batching,
and the fluid-vs-queued timing equivalence that justifies the engines'
stream approximation."""

import numpy as np
import pytest

from repro.interconnect import CacheLinePayload, CXLController, CXLLinkModel
from repro.sim import Interrupt, Resource, SerialLink, Simulator
from repro.utils.units import Bandwidth


class TestProcessInterrupt:
    def test_interrupt_wakes_sleeper(self):
        sim = Simulator()
        log = []

        def sleeper(sim):
            try:
                yield sim.timeout(100.0)
                log.append("overslept")
            except Interrupt as exc:
                log.append(("interrupted", sim.now, exc.cause))

        def waker(sim, target):
            yield sim.timeout(3.0)
            target.interrupt("wake up")

        p = sim.process(sleeper(sim))
        sim.process(waker(sim, p))
        sim.run()
        assert log == [("interrupted", 3.0, "wake up")]

    def test_interrupt_completed_process_is_noop(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(1.0)

        p = sim.process(quick(sim))
        sim.run()
        p.interrupt()  # must not raise
        sim.run()

    def test_is_alive(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)

        p = sim.process(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestSimulatorPeek:
    def test_peek_next_event_time(self):
        sim = Simulator()
        sim.timeout(7.0)
        sim.timeout(3.0)
        assert sim.peek() == 0.0 or sim.peek() <= 3.0  # triggers enqueue now
        sim.run()
        assert sim.peek() == float("inf")


class TestResourceCapacity:
    def test_two_slots_admit_two(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        admitted = []

        def user(sim, name):
            yield res.request()
            admitted.append((sim.now, name))
            yield sim.timeout(1.0)
            res.release()

        for n in ("a", "b", "c"):
            sim.process(user(sim, n))
        sim.run()
        at_zero = [n for t, n in admitted if t == 0.0]
        assert sorted(at_zero) == ["a", "b"]
        assert ("c" in [n for t, n in admitted if t == 1.0])

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)


class TestControllerBatching:
    def test_send_lines_generator(self):
        sim = Simulator()
        ctrl = CXLController(sim)
        payloads = [CacheLinePayload(i * 64) for i in range(20)]

        def producer(sim):
            yield sim.process(ctrl.send_lines(payloads))
            return (yield ctrl.fence())

        p = sim.process(producer(sim))
        sim.run()
        assert ctrl.lines_delivered == 20
        assert p.value > 0


class TestFluidQueueEquivalence:
    """The timing engines stream transfers fluidly without modelling the
    128-entry pending queue; this test shows the queue's back-pressure
    does not change *total* completion time when the link is the
    bottleneck — it only shifts where the producer's time is spent."""

    def test_total_time_invariant_under_back_pressure(self):
        n_lines = 400
        model = CXLLinkModel.paper_default()
        t_line = model.line_transfer_time()
        production_gap = t_line / 4  # producer 4x faster than the link

        # Queued: bounded pending queue, producer blocks when full.
        sim_q = Simulator()
        ctrl = CXLController(sim_q, model, queue_depth=16)

        def queued_producer(sim):
            for i in range(n_lines):
                yield sim.timeout(production_gap)
                yield ctrl.send_line(CacheLinePayload(i * 64))
            return (yield ctrl.fence())

        pq = sim_q.process(queued_producer(sim_q))
        sim_q.run()

        # Fluid: unbounded enqueue on a bare serial link.
        sim_f = Simulator()
        link = SerialLink(
            sim_f, model.effective_bandwidth, latency=model.latency
        )

        def fluid_producer(sim):
            transfers = []
            for _ in range(n_lines):
                yield sim.timeout(production_gap)
                transfers.append(link.transmit(68))
            done = yield sim.all_of(transfers)
            return sim.now

        pf = sim_f.process(fluid_producer(sim_f))
        sim_f.run()

        assert pq.value == pytest.approx(pf.value, rel=1e-6, abs=0)

    def test_back_pressure_delays_producer_not_completion(self):
        """With a tiny queue the producer finishes later (it stalls), but
        the last delivery lands at the same time."""
        model = CXLLinkModel.paper_default()
        t_line = model.line_transfer_time()

        def run(depth):
            sim = Simulator()
            ctrl = CXLController(sim, model, queue_depth=depth)
            marks = {}

            def producer(sim):
                for i in range(200):
                    yield ctrl.send_line(CacheLinePayload(i * 64))
                marks["produced"] = sim.now
                yield ctrl.fence()
                marks["done"] = sim.now

            sim.process(producer(sim))
            sim.run()
            return marks

        small = run(4)
        large = run(1024)
        assert small["produced"] > large["produced"]
        assert small["done"] == pytest.approx(large["done"], rel=1e-9, abs=0)


class TestSerialLinkFreeAt:
    def test_free_at_tracks_wire(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))
        link.transmit(200)
        assert link.free_at == pytest.approx(2.0)

    def test_utilization_validation(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))
        with pytest.raises(ValueError):
            link.utilization(0)
