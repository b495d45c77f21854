"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Metrics, Profile, Tracer
from repro.sim import Process, Resource, SerialLink, Simulator, Store
from repro.utils.units import Bandwidth


class TestEventsAndTimeouts:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        fired = []
        ev = sim.timeout(5.0, "x")
        ev.callbacks.append(lambda e: fired.append((sim.now, e.value)))
        sim.run()
        assert fired == [(5.0, "x")]

    def test_event_ordering_is_stable(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.timeout(1.0, i).callbacks.append(
                lambda e: order.append(e.value)
            )
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    @given(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=40
        ),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_equal_timestamps_fire_in_push_order(self, delays, data):
        """Property: events sharing a timestamp pop in scheduling order.

        The heap entries carry a monotone ``seq`` tiebreaker, so the
        engine must behave as a FIFO queue *within* each timestamp —
        including events scheduled from inside callbacks of earlier
        events at that same instant (delay-0 chains).  The model below
        is literally a sorted-stable list of (fire_time, push_index).
        """
        sim = Simulator()
        fired = []
        expected = []  # (fire_time, push_index), push order
        counter = [0]

        def push(sim, delay):
            label = counter[0]
            counter[0] += 1
            expected.append((sim.now + delay, label))
            sim.timeout(delay, label).callbacks.append(
                lambda e: on_fire(e.value)
            )

        def on_fire(label):
            fired.append(label)
            # Sometimes schedule more work from inside the callback: a
            # delay-0 event lands at the *current* instant and must still
            # queue behind everything already pending at this time.
            if data.draw(st.booleans()) and counter[0] < 60:
                push(sim, data.draw(st.sampled_from([0.0, 1.0])))

        for d in delays:
            push(sim, d)
        sim.run()
        expected.sort(key=lambda pair: pair[0])  # stable: seq order kept
        assert fired == [label for _, label in expected]

    def test_callback_scheduled_zero_delay_runs_after_pending(self):
        """An event scheduled at t from a callback at t fires last."""
        sim = Simulator()
        order = []
        late = []

        def first(e):
            order.append("first")
            sim.timeout(0.0).callbacks.append(lambda e: late.append(len(order)))

        sim.timeout(1.0).callbacks.append(first)
        sim.timeout(1.0).callbacks.append(lambda e: order.append("second"))
        sim.timeout(1.0).callbacks.append(lambda e: order.append("third"))
        sim.run()
        assert order == ["first", "second", "third"]
        assert late == [3]  # fired only after all three pending callbacks

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_run_until(self):
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)


class TestProcesses:
    def test_sequential_timeouts(self):
        sim = Simulator()
        trace = []

        def proc(sim):
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        assert trace == [1.0, 3.0]
        assert p.value == "done"

    def test_process_waits_on_process(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(4.0)
            return 42

        def parent(sim):
            value = yield sim.process(child(sim))
            return value + 1

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == 43
        assert sim.now == 4.0

    def test_all_of(self):
        sim = Simulator()

        def worker(sim, d):
            yield sim.timeout(d)
            return d

        def main(sim):
            procs = [sim.process(worker(sim, d)) for d in (3.0, 1.0, 2.0)]
            values = yield sim.all_of(procs)
            return values

        p = sim.process(main(sim))
        sim.run()
        assert p.value == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_any_of(self):
        sim = Simulator()

        def main(sim):
            first = yield sim.any_of([sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")])
            return (sim.now, first)

        p = sim.process(main(sim))
        sim.run()
        assert p.value == (1.0, "fast")

    def test_wait_on_already_fired_event(self):
        sim = Simulator()
        results = []

        def main(sim):
            ev = sim.timeout(1.0, "v")
            yield sim.timeout(2.0)  # let ev fire first
            got = yield ev
            results.append((sim.now, got))

        sim.process(main(sim))
        sim.run()
        assert results == [(2.0, "v")]

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def main(sim):
            try:
                yield sim.process(bad(sim))
            except ValueError as exc:
                return str(exc)

        p = sim.process(main(sim))
        sim.run()
        assert p.value == "boom"

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad(sim):
            yield 5

        sim.process(bad(sim))
        with pytest.raises(TypeError):
            sim.run()


class TestResource:
    def test_mutual_exclusion(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def user(sim, name, hold):
            yield res.request()
            log.append((sim.now, name, "in"))
            yield sim.timeout(hold)
            res.release()
            log.append((sim.now, name, "out"))

        sim.process(user(sim, "a", 2.0))
        sim.process(user(sim, "b", 1.0))
        sim.run()
        assert log == [
            (0.0, "a", "in"),
            (2.0, "a", "out"),
            (2.0, "b", "in"),
            (3.0, "b", "out"),
        ]

    def test_release_without_request(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()


class TestStore:
    def test_fifo_handoff(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer(sim):
            for i in range(3):
                yield sim.timeout(1.0)
                yield store.put(i)

        def consumer(sim):
            for _ in range(3):
                item = yield store.get()
                got.append((sim.now, item))

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]

    def test_bounded_capacity_blocks_producer(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        times = []

        def producer(sim):
            for i in range(4):
                yield store.put(i)
                times.append(sim.now)

        def consumer(sim):
            yield sim.timeout(10.0)
            for _ in range(4):
                yield store.get()
                yield sim.timeout(1.0)

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        # first two puts immediate; 3rd when consumer frees a slot at t=10
        assert times[0] == 0.0 and times[1] == 0.0
        assert times[2] == 10.0

    def test_get_before_put(self):
        sim = Simulator()
        store = Store(sim)
        out = []

        def consumer(sim):
            item = yield store.get()
            out.append((sim.now, item))

        def producer(sim):
            yield sim.timeout(5.0)
            yield store.put("x")

        sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert out == [(5.0, "x")]


class TestSerialLink:
    def test_single_transfer_time(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0), latency=0.5)
        done = []

        def main(sim):
            yield link.transmit(200)  # 2 s wire + 0.5 latency
            done.append(sim.now)

        sim.process(main(sim))
        sim.run()
        assert done == [2.5]

    def test_serialization(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))
        done = []

        def sender(sim, n):
            yield link.transmit(n)
            done.append(sim.now)

        sim.process(sender(sim, 100))  # 1 s
        sim.process(sender(sim, 100))  # queued: completes at 2 s
        sim.run()
        assert done == [1.0, 2.0]
        assert link.busy_time == pytest.approx(2.0)
        assert link.bytes_sent == 200

    def test_extra_delay(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))
        done = []

        def main(sim):
            yield link.transmit(100, extra_delay=0.25)
            done.append(sim.now)

        sim.process(main(sim))
        sim.run()
        assert done == [1.25]

    def test_idle_gap_not_counted_busy(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))

        def main(sim):
            yield link.transmit(100)
            yield sim.timeout(5.0)
            yield link.transmit(100)

        sim.process(main(sim))
        sim.run()
        assert link.busy_time == pytest.approx(2.0)
        assert link.utilization(sim.now) == pytest.approx(2.0 / 7.0)

    def test_negative_bytes_rejected(self):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0))
        with pytest.raises(ValueError):
            link.transmit(-1)

    @pytest.mark.parametrize(
        "n_bytes, extra_delay",
        [
            (float("nan"), 0.0),
            (float("inf"), 0.0),
            (100, float("nan")),
            (100, float("inf")),
            (100, -0.5),  # ends before now even with an idle wire
            (100, -1e-3),  # ends after now behind a busy wire: still rejected
        ],
    )
    def test_bad_input_rejected_before_any_state_change(
        self, n_bytes, extra_delay
    ):
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0), latency=0.5)
        link.transmit(100)  # wire busy until 1 s

        def state():
            return (link.free_at, link.busy_time, link.bytes_sent, link.transfers)

        before = state()
        seq = sim._seq
        with pytest.raises(ValueError):
            link.transmit(n_bytes, extra_delay=extra_delay)
        with pytest.raises(ValueError):
            link.occupy(sim.now, n_bytes, extra_delay)
        assert state() == before
        assert sim._seq == seq
        sim.run()
        assert sim.now == 1.5

    def test_transmit_is_occupy_plus_one_event(self):
        """``transmit`` fires at ``now + (done_at - now)``, the float an
        ``occupy`` caller computes for the same booking."""
        sims = [Simulator(), Simulator()]
        links = [SerialLink(s, Bandwidth(3e9), latency=1.1e-7) for s in sims]
        fired, booked = [], []

        def sender(sim):
            for n in (1000, 4096, 7, 123456):
                yield sim.timeout(1e-7 / 3)
                ev = links[0].transmit(n, extra_delay=2e-9)
                ev.callbacks.append(lambda _ev: fired.append(sims[0].now))

        def booker(sim):
            for n in (1000, 4096, 7, 123456):
                yield sim.timeout(1e-7 / 3)
                now = sim.now
                booked.append(now + (links[1].occupy(now, n, 2e-9) - now))

        sims[0].process(sender(sims[0]))
        sims[1].process(booker(sims[1]))
        for s in sims:
            s.run()
        assert fired == booked
        assert links[0].free_at == links[1].free_at
        assert links[0].busy_time == links[1].busy_time

    @pytest.mark.parametrize("latency", [True, False])
    def test_bool_latency_rejected(self, latency):
        # ``latency=True`` used to run as a 1 s latency.
        with pytest.raises(ValueError, match="latency"):
            SerialLink(Simulator(), Bandwidth(100.0), latency=latency)

    @pytest.mark.parametrize("bandwidth", [5e9, 100, None])
    def test_non_bandwidth_rejected(self, bandwidth):
        # A plain number used to fail later, with an AttributeError at
        # the first transmit.
        with pytest.raises(ValueError, match="Bandwidth"):
            SerialLink(Simulator(), bandwidth)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf"), -1e-9])
    def test_bad_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="finite and non-negative"):
            SerialLink(Simulator(), Bandwidth(100.0), latency=latency)


_CELL = st.one_of(
    st.sampled_from([0, 0.0, 1, 64, 4096, 1e6]),
    st.floats(min_value=0.0, max_value=1e7),
)


@st.composite
def bursts(draw):
    """A link, its backlog, and one burst of equal cells arriving at once."""
    bandwidth = draw(st.sampled_from([1e9, 2.0**30, 3.3e9, 94.3e8 / 7]))
    latency = draw(st.sampled_from([0.0, 1.1e-7, 2.5e-7]))
    backlog = draw(st.lists(_CELL, max_size=3))
    now = draw(st.sampled_from([0.0, 1e-9, 3.3e-6, 0.125]))
    n_cells = draw(st.integers(1, 32))
    cell = draw(_CELL)
    extra = draw(st.sampled_from([0.0, 1e-9, 7e-7]))
    return bandwidth, latency, backlog, now, n_cells, cell, extra


def _link_state(link):
    return (
        link.free_at,
        link.busy_time,
        link.bytes_sent,
        type(link.bytes_sent),
        link.transfers,
    )


class TestSerialLinkBook:
    """``burst`` is one ``occupy`` per cell, float for float."""

    @staticmethod
    def _links(bandwidth, latency, backlog):
        links = []
        for _ in range(2):
            link = SerialLink(Simulator(), Bandwidth(bandwidth), latency=latency)
            for n in backlog:
                link.occupy(0.0, n)
            links.append(link)
        return links

    @given(run=bursts())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_cell_occupy(self, run):
        bandwidth, latency, backlog, now, n_cells, cell, extra = run
        booked, oracle = self._links(bandwidth, latency, backlog)
        exits = booked.burst(now, n_cells, cell, extra)
        ref_exits = []
        for i in range(n_cells):
            done_at = oracle.occupy(now, cell, extra if i == 0 else 0.0)
            ref_exits.append(now + (done_at - now))
        assert [x.hex() for x in exits] == [x.hex() for x in ref_exits]
        assert _link_state(booked) == _link_state(oracle)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize(
        "sizes, extra_first",
        [
            ([float("nan")] * 3, 0.0),
            ([float("inf")] * 3, 0.0),
            ([-1.0], 0.0),
            ([-1e-9] * 2, 0.0),
            ([100], float("nan")),
            ([100], -1e-9),
            ([True] * 2, 0.0),  # a bool is an int, but not a byte count
        ],
    )
    def test_bad_input_rejected_before_any_state_change(
        self, traced, sizes, extra_first
    ):
        if traced:
            with Profile(Tracer(), Metrics()).activate():
                sim = Simulator()
        else:
            sim = Simulator()
        link = SerialLink(sim, Bandwidth(100.0), latency=0.5)
        link.occupy(0.0, 100)
        before = _link_state(link)
        with pytest.raises(ValueError):
            link.burst(0.0, len(sizes), sizes[0], extra_first)
        assert _link_state(link) == before

    @pytest.mark.parametrize("n_cells", [0, -1, 2.0, True])
    def test_bad_cell_count_rejected(self, n_cells):
        link = SerialLink(Simulator(), Bandwidth(100.0))
        with pytest.raises(ValueError, match="n_cells"):
            link.burst(0.0, n_cells, 100)
        assert _link_state(link) == (0.0, 0.0, 0, int, 0)

    def test_traced_run_emits_the_per_cell_spans_and_samples(self):
        runs = []
        for burst in (True, False):
            tracer, metrics = Tracer(), Metrics()
            with Profile(tracer, metrics).activate():
                sim = Simulator()
            link = SerialLink(sim, Bandwidth(3e9), latency=1e-7, name="w")
            link.occupy(0.0, 1e3)
            if burst:
                link.burst(2e-9, 4, 4096, 5e-9)
            else:
                for i in range(4):
                    link.occupy(2e-9, 4096, 5e-9 if i == 0 else 0.0)
            runs.append(
                (
                    [(s.name, s.begin, s.end, s.args) for s in tracer.spans],
                    metrics.series("w.utilization"),
                    metrics.counter("w.bytes").value,
                    metrics.counter("w.transfers").value,
                )
            )
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 5


class TestSerialLinkRejectsBools:
    """A bool is an int, but ``transmit(True)`` is a typo, not one byte."""

    @staticmethod
    def _link():
        return SerialLink(Simulator(), Bandwidth(100.0), latency=0.5)

    @pytest.mark.parametrize("n_bytes, extra", [(True, 0.0), (10, True)])
    def test_occupy(self, n_bytes, extra):
        link = self._link()
        with pytest.raises(ValueError, match="must be a number"):
            link.occupy(0.0, n_bytes, extra)
        assert _link_state(link) == (0.0, 0.0, 0, int, 0)

    @pytest.mark.parametrize("n_bytes, extra", [(True, 0.0), (10, True)])
    def test_transmit(self, n_bytes, extra):
        link = self._link()
        with pytest.raises(ValueError, match="must be a number"):
            link.transmit(n_bytes, extra)
        assert _link_state(link) == (0.0, 0.0, 0, int, 0)
        assert link.sim._seq == 0  # no event pushed

    @pytest.mark.parametrize("cell, extra", [(True, 0.0), (10, True)])
    def test_burst(self, cell, extra):
        link = self._link()
        with pytest.raises(ValueError, match="must be a number"):
            link.burst(0.0, 3, cell, extra)
        assert _link_state(link) == (0.0, 0.0, 0, int, 0)


class TestAbsoluteTimeAndValidation:
    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
    def test_bad_timeout_rejected_before_push(self, delay):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(delay)
        ev = sim.event()
        with pytest.raises(ValueError):
            ev.succeed(delay=delay)
        assert not ev.triggered  # a rejected trigger leaves it pending
        assert sim._seq == 0 and sim.peek() == float("inf")

    def test_at_fires_at_the_exact_time(self):
        sim = Simulator()
        t = 0.1 + 0.2  # not reachable as 0.0 + some delay in general
        fired = []
        sim.at(t, "v").callbacks.append(
            lambda ev: fired.append((sim.now, ev.value))
        )
        sim.run()
        assert fired == [(t, "v")]

    @pytest.mark.parametrize("when", [float("nan"), float("inf"), 0.5])
    def test_at_rejects_past_and_non_finite(self, when):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(when)

    def test_at_and_timeout_share_seq_order(self):
        """Same-time events fire in push order whichever way they were
        scheduled."""
        sim = Simulator()
        order = []
        sim.at(1.0).callbacks.append(lambda _ev: order.append("at-1"))
        sim.timeout(1.0).callbacks.append(lambda _ev: order.append("timeout"))
        sim.at(1.0).callbacks.append(lambda _ev: order.append("at-2"))
        sim.run()
        assert order == ["at-1", "timeout", "at-2"]

    def test_run_until_never_moves_the_clock_backwards(self):
        sim = Simulator()
        sim.timeout(20.0)
        sim.run(until=15.0)
        with pytest.raises(ValueError):
            sim.run(until=5.0)
        assert sim.now == 15.0 and sim.peek() == 20.0  # nothing popped
        fired = []
        sim.timeout(1.0).callbacks.append(lambda _ev: fired.append(sim.now))
        sim.run()
        assert fired == [16.0]

    @pytest.mark.parametrize("until", [-1.0, float("nan")])
    def test_run_until_rejects_past_and_nan(self, until):
        sim = Simulator()
        sim.timeout(1.0)
        with pytest.raises(ValueError):
            sim.run(until=until)
        assert sim.now == 0.0 and sim.peek() == 1.0

    def test_run_until_now_is_allowed(self):
        sim = Simulator()
        sim.timeout(0.0)
        sim.timeout(1.0)
        sim.run(until=0.0)
        assert sim.now == 0.0 and sim.peek() == 1.0
