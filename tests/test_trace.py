"""Tests for trace generation and CXL replay."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.trace.replay as replay_module
from repro.interconnect import CacheLinePayload, CXLController, CXLLinkModel
from repro.memsim import CacheHierarchy, SetAssociativeCache, WritebackTrace
from repro.sim import Simulator
from repro.trace import (
    adam_writeback_chunks,
    adam_writeback_trace,
    replay_trace,
    replay_trace_scalar,
    simulate_sweep_writebacks,
)


def _replay_as_chunks(trace, **kwargs):
    """``replay_trace`` fed the trace's times as a stream of three chunks."""
    return replay_trace(np.array_split(trace.times, 3), **kwargs)


REPLAYS = [
    pytest.param(replay_trace, id="replay_trace"),
    pytest.param(_replay_as_chunks, id="replay_trace_chunked"),
    pytest.param(replay_trace_scalar, id="replay_trace_scalar"),
]
GENERATORS = [adam_writeback_trace, adam_writeback_chunks]


class TestAnalyticGenerator:
    def test_one_event_per_line(self):
        tr = adam_writeback_trace(64 * 100, sweep_duration=1.0, llc_bytes=64 * 10)
        assert len(tr) == 100
        assert tr.unique_lines == 100

    def test_timestamps_monotone_and_bounded(self):
        tr = adam_writeback_trace(64 * 1000, 2.0, llc_bytes=64 * 100)
        assert np.all(np.diff(tr.times) >= 0)
        assert tr.times[-1] <= 2.0

    def test_llc_delay(self):
        """Line 0 is written back when the sweep front is LLC-capacity
        ahead, not immediately."""
        tr = adam_writeback_trace(64 * 1000, 1.0, llc_bytes=64 * 100)
        assert tr.times[0] == pytest.approx(0.1)

    def test_tail_flushed_at_end(self):
        tr = adam_writeback_trace(64 * 100, 1.0, llc_bytes=64 * 50)
        # last 50 lines all flush exactly at sweep end
        assert np.all(tr.times[-50:] == 1.0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            adam_writeback_trace(0, 1.0)
        with pytest.raises(ValueError):
            adam_writeback_trace(64, 0.0)
        with pytest.raises(ValueError):
            adam_writeback_trace(64, 1.0, base_address=1)

    @pytest.mark.parametrize("generate", GENERATORS)
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"param_bytes": 640.5}, "param_bytes"),  # would round to 11 lines
            ({"param_bytes": True}, "param_bytes"),  # would be one line
            ({"param_bytes": -64}, "param_bytes"),
            ({"llc_bytes": 4096.0}, "llc_bytes"),
            ({"llc_bytes": True}, "llc_bytes"),
            ({"llc_bytes": 32}, "llc_bytes"),  # would become one line
            ({"sweep_duration": float("nan")}, "sweep_duration"),
            ({"sweep_duration": float("inf")}, "sweep_duration"),
            ({"sweep_duration": -1.0}, "sweep_duration"),
        ],
        ids=[
            "param-fractional", "param-bool", "param-negative",
            "llc-float", "llc-bool", "llc-sub-line",
            "duration-nan", "duration-inf", "duration-negative",
        ],
    )
    def test_bad_sweep_rejected(self, generate, kwargs, match):
        args = {"param_bytes": 64 * 100, "sweep_duration": 1.0, **kwargs}
        with pytest.raises(ValueError, match=match):
            generate(**args)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"block_lines": 0}, "block_lines"),
            ({"block_lines": -1}, "block_lines"),
            ({"block_lines": 2.0}, "block_lines"),
            ({"chunk_lines": -5}, "chunk_lines"),
            ({"chunk_lines": 1.5}, "chunk_lines"),
            ({"chunk_lines": True}, "chunk_lines"),
        ],
        ids=[
            "block-zero", "block-negative", "block-float",
            "chunk-negative", "chunk-fractional", "chunk-bool",
        ],
    )
    def test_bad_chunking_rejected_before_iteration(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            adam_writeback_chunks(64 * 100, 1.0, **kwargs)

    def test_chunks_are_bounded_blocks(self):
        blocks = list(
            adam_writeback_chunks(64 * 100, 1.0, llc_bytes=64 * 10, block_lines=32)
        )
        assert [b.size for b in blocks] == [32, 32, 32, 4]
        assert all(b.dtype == np.float64 for b in blocks)


class TestSimulatedGenerator:
    def test_matches_analytic_line_count(self):
        """Cache-accurate and analytic generators agree on which lines are
        written back (all of them, exactly once for a streaming sweep)."""
        param_bytes = 64 * 256
        hierarchy = CacheHierarchy(
            [SetAssociativeCache(64 * 16, 64, 4, name="LLC")]
        )
        sim_tr = simulate_sweep_writebacks(param_bytes, 1.0, hierarchy)
        ana_tr = adam_writeback_trace(param_bytes, 1.0, llc_bytes=64 * 16)
        assert len(sim_tr) == len(ana_tr) == 256
        assert set(sim_tr.addresses.tolist()) == set(
            ana_tr.addresses.tolist()
        )

    def test_analytic_delay_approximates_simulated(self):
        """Oracle: on a single-level LRU LLC the cache-accurate sweep lags
        the closed form by exactly one line time, clipped to the flush.

        Store ``s`` is stamped ``s + 1`` line times.  With linear
        addresses, LRU evicts line ``i`` on the store of line ``i +
        llc_lines``, so the cache stamps it ``i + llc_lines + 1`` line
        times where the closed form says ``i + llc_lines``.
        """
        for sets, ways, n_lines, duration in [
            (1, 2, 100, 1.0),
            (4, 4, 257, 0.37),
            (16, 8, 1000, 2.5),
            (64, 16, 1337, 1e-3),
            (2, 16, 513, 3.0),
        ]:
            llc_bytes = 64 * sets * ways
            hierarchy = CacheHierarchy(
                [SetAssociativeCache(llc_bytes, 64, ways, name="LLC")]
            )
            sim_tr = simulate_sweep_writebacks(64 * n_lines, duration, hierarchy)
            by_address = np.argsort(sim_tr.addresses, kind="stable")
            assert np.array_equal(
                sim_tr.addresses[by_address],
                np.arange(n_lines, dtype=np.uint64) * 64,
            )
            (analytic,) = adam_writeback_chunks(
                64 * n_lines, duration, llc_bytes, block_lines=n_lines
            )
            expected = np.minimum(analytic + duration / n_lines, duration)
            np.testing.assert_allclose(
                sim_tr.times[by_address], expected, rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((True, 1.0), {}),
            ((640.5, 1.0), {}),
            ((0, 1.0), {}),
            ((640, True), {}),
            ((640, 0.0), {}),
            ((640, 1.0), {"words_per_store": True}),
            ((640, 1.0), {"words_per_store": 0}),
        ],
        ids=["bytes-bool", "bytes-float", "bytes-zero", "duration-bool",
             "duration-zero", "store-bool", "store-zero"],
    )
    def test_bad_arguments_rejected(self, args, kwargs):
        hierarchy = CacheHierarchy([SetAssociativeCache(64 * 16, 64, 4, name="LLC")])
        with pytest.raises(ValueError):
            simulate_sweep_writebacks(*args, hierarchy, **kwargs)


class TestReplay:
    def test_empty_trace(self):
        r = replay_trace(WritebackTrace(np.empty(0), np.empty(0, dtype=np.uint64)))
        assert r.exposed_time == 0.0 and r.n_lines == 0

    def test_slow_producer_fully_overlapped(self):
        """If write-backs arrive slower than the link drains, only the last
        line's wire time is exposed."""
        link = CXLLinkModel.paper_default()
        t_line = link.line_transfer_time()
        n = 100
        times = np.arange(1, n + 1) * (t_line * 10)  # 10x slower than link
        tr = WritebackTrace(times, np.arange(n, dtype=np.uint64) * 64)
        r = replay_trace(tr, link)
        assert r.exposed_time == pytest.approx(t_line, rel=1e-6, abs=0)
        assert r.overlap_fraction > 0.98

    def test_burst_producer_fully_exposed(self):
        """All lines arriving at once serialize after compute end."""
        link = CXLLinkModel.paper_default()
        n = 1000
        tr = WritebackTrace(
            np.zeros(n), np.arange(n, dtype=np.uint64) * 64
        )
        r = replay_trace(tr, link)
        assert r.exposed_time == pytest.approx(r.wire_time, rel=1e-9, abs=0)
        assert r.overlap_fraction == pytest.approx(0.0)

    def test_matches_queueing_recursion(self):
        """Vectorized replay equals the scalar queueing recursion."""
        rng = np.random.default_rng(0)
        link = CXLLinkModel.paper_default()
        t_line = link.line_transfer_time()
        times = np.sort(rng.random(500)) * 200 * t_line
        tr = WritebackTrace(times, np.arange(500, dtype=np.uint64) * 64)
        r = replay_trace(tr, link)
        depart = 0.0
        for t in times:
            depart = max(t, depart) + t_line
        assert r.finish_time == pytest.approx(depart, rel=1e-9, abs=0)

    def test_dba_halves_wire_time(self):
        n = 256
        tr = WritebackTrace(np.zeros(n), np.arange(n, dtype=np.uint64) * 64)
        full = replay_trace(tr, dirty_bytes=4)
        half = replay_trace(tr, dirty_bytes=2)
        assert half.wire_time < full.wire_time
        assert half.wire_bytes == n * 36  # 32B payload + 4B header

    def test_start_time_offsets(self):
        n = 10
        tr = WritebackTrace(np.zeros(n), np.arange(n, dtype=np.uint64) * 64)
        r0 = replay_trace(tr)
        r5 = replay_trace(tr, start_time=5.0)
        assert r5.finish_time == pytest.approx(5.0 + r0.finish_time)

    @pytest.mark.parametrize("replay", REPLAYS)
    @pytest.mark.parametrize("dirty_bytes", [0, 5, 2.5, -1, 4.0])
    def test_bad_dirty_bytes_rejected(self, replay, dirty_bytes):
        """Only whole bytes 1..4 per word exist: 5 would report 88 wire
        bytes per 64-B line and 2.5 a float ``wire_bytes``."""
        tr = WritebackTrace(np.zeros(4), np.arange(4, dtype=np.uint64) * 64)
        with pytest.raises(ValueError, match="dirty_bytes"):
            replay(tr, dirty_bytes=dirty_bytes)

    @pytest.mark.parametrize("replay", REPLAYS)
    @pytest.mark.parametrize("n", [0, 4])
    @pytest.mark.parametrize("start", [float("nan"), float("inf")])
    def test_non_finite_start_time_rejected(self, replay, n, start):
        tr = WritebackTrace(np.zeros(n), np.arange(n, dtype=np.uint64) * 64)
        with pytest.raises(ValueError, match="start_time"):
            replay(tr, start_time=start)

    @pytest.mark.parametrize(
        "chunks, match",
        [
            ([np.zeros((2, 2))], "1-D"),
            ([np.float64(0.0)], "1-D"),
            ([np.array([0.0, np.nan])], "non-finite"),
            ([np.array([0.0, 1.0]), np.array([np.inf])], "non-finite"),
            ([np.array([-np.inf, 0.0])], "non-finite"),
            ([np.array([0.0, 2.0, 1.0])], "decreases"),
            ([np.array([0.0, 2.0]), np.array([1.0, 3.0])], "decreases"),
            ([np.array([0.0, 2.0]), np.empty(0), np.array([1.0])], "decreases"),
        ],
        ids=[
            "2d", "0d", "nan", "inf-next-chunk", "neg-inf",
            "within", "across", "across-empty",
        ],
    )
    def test_bad_stream_rejected(self, chunks, match):
        """A stream cannot be sorted after the fact the way a
        :class:`WritebackTrace` is, so disorder and non-finite times fail."""
        with pytest.raises(ValueError, match=match):
            replay_trace(chunks)

    def test_stream_matches_concatenation(self):
        rng = np.random.default_rng(1)
        times = np.sort(rng.random(300)) * 1e-6
        chunks = [times[:100], times[100:100], times[100:], np.empty(0)]
        whole = replay_trace(WritebackTrace(times, np.zeros(300, np.uint64)))
        assert replay_trace(chunks) == whole
        assert replay_trace(iter(chunks)) == whole
        assert replay_trace([c.tolist() for c in chunks]) == whole

    def test_empty_stream(self):
        assert replay_trace([]) == replay_trace(
            WritebackTrace(np.empty(0), np.empty(0, dtype=np.uint64))
        )

    @pytest.mark.parametrize("replay", REPLAYS)
    def test_numpy_integer_dirty_bytes_accepted(self, replay):
        tr = WritebackTrace(np.zeros(4), np.arange(4, dtype=np.uint64) * 64)
        assert replay(tr, dirty_bytes=np.int64(2)) == replay(tr, dirty_bytes=2)

    @pytest.mark.parametrize(
        "param_bytes, llc_bytes, dirty_bytes, sweep_over_wire",
        [
            (2**20, 2**16, 4, 0.5),
            (2**20, 2**20, 2, 2.0),
            (2**21, 2**18, 4, 1.5),
            (2**21, 2**16, 2, 0.7),
        ],
    )
    def test_matches_cxl_controller(
        self, param_bytes, llc_bytes, dirty_bytes, sweep_over_wire
    ):
        """Oracle: the discrete-event root port, fed each line at its
        write-back time, fences one link latency after the replay ends.

        A sweep shorter than its wire time (or an LLC as large as the
        arena, which flushes every line at sweep end) fills the pending
        queue and stalls the producer.  The replay does not model the
        stall, and need not: the wire never idles while lines wait.
        """
        link = CXLLinkModel.paper_default()
        n_lines = param_bytes // 64
        duration = sweep_over_wire * link.stream_transfer_time(
            n_lines, dirty_bytes
        )
        trace = adam_writeback_trace(param_bytes, duration, llc_bytes)
        sim = Simulator()
        ctrl = CXLController(sim, link)

        def producer(sim):
            for t, address in zip(
                trace.times.tolist(), trace.addresses.tolist()
            ):
                if t > sim.now:
                    yield sim.at(t)
                yield ctrl.send_line(CacheLinePayload(address, dirty_bytes))
            return (yield ctrl.fence())

        fence = sim.process(producer(sim))
        sim.run()
        result = replay_trace(trace, link, dirty_bytes)
        assert fence.value == pytest.approx(
            result.finish_time + link.latency, rel=1e-11, abs=0
        )
        assert ctrl.wire_bytes_sent == result.wire_bytes
        assert ctrl.lines_delivered == result.n_lines == n_lines


def _closed_and_fold(param_bytes, sweep_duration, llc_bytes, chunk_lines,
                     **replay):
    """One sweep replayed in closed form, and by its oracle: the fold of
    the same blocks (``iter`` hides the sweep's geometry)."""
    sweep = adam_writeback_chunks(
        param_bytes, sweep_duration, llc_bytes, chunk_lines
    )
    return replay_trace(sweep, **replay), replay_trace(iter(sweep), **replay)


@st.composite
def _sweeps(draw):
    """A sweep geometry, a chunking of every kind, and a replay setup.

    The sweep lasts ``ratio`` times its own wire time, so ``ratio`` is
    ``tpl / t_line``: below 1 the terms of the running maximum fall along
    the linear piece, above 1 they rise, and at 1 only the guard's
    fallback is exact.
    """
    n = draw(st.integers(1, 3000))
    param_bytes = 64 * n - draw(st.integers(0, 63))
    llc_lines = draw(
        st.one_of(st.integers(1, n), st.integers(n, 2 * n + 3))
    )
    kind = draw(st.sampled_from(["0", "1", "divides", "ragged", "larger"]))
    if kind == "0":
        chunk = 0
    elif kind == "1":
        chunk = 1
    elif kind == "divides":
        divisors = [d for d in range(2, n + 1) if n % d == 0]
        chunk = draw(st.sampled_from(divisors or [1]))
    elif kind == "ragged":
        ragged = [c for c in range(2, n) if n % c]
        chunk = draw(st.sampled_from(ragged or [n + 1]))
    else:
        chunk = n + draw(st.integers(1, 100))
    dirty_bytes = draw(st.sampled_from([2, 4]))
    ratio = draw(
        st.one_of(
            st.floats(0.05, 20.0),
            st.sampled_from([1.0, 1.0 + 2**-40, 1.0 - 2**-40, 0.63, 1.58]),
        )
    )
    t_line = CXLLinkModel.paper_default().line_transfer_time(dirty_bytes)
    # A product of ``n`` divides back exactly; a nudged one need not, so
    # ``n * tpl`` may round below the sweep end.
    nudge = draw(st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9)))
    duration = ratio * t_line * n * (1.0 + nudge)
    # A wire free before the sweep (closed form), or busy into or past
    # it (the fold).
    start = draw(st.one_of(st.just(0.0), st.floats(-1.0, 2.0))) * duration
    return param_bytes, duration, 64 * llc_lines, chunk, dirty_bytes, start


class TestSweepClosedForm:
    """``replay_trace`` of a ``SweepChunks`` against its oracle, the fold."""

    @given(_sweeps())
    @settings(max_examples=300, deadline=None)
    # (param_bytes, duration, llc_bytes, chunk_lines, dirty_bytes, start):
    # 1000 lines at 3e-6 s is tpl < t_line, at 9e-6 s tpl > t_line.
    @example((64 * 1000 - 5, 3e-6, 64 * 100, 0, 4, 0.0))  # ragged bytes
    @example((64 * 1000, 3e-6, 64 * 100, 1, 2, 0.0))
    @example((64 * 1000, 3e-6, 64 * 100, 8, 4, 0.0))  # chunk divides n
    @example((64 * 1000, 3e-6, 64 * 100, 7, 4, 0.0))  # it does not
    @example((64 * 1000, 3e-6, 64 * 100, 1001, 2, 0.0))  # chunk > n
    @example((64 * 1000, 3e-6, 64 * 2000, 3, 4, 0.0))  # LLC > arena
    @example((64 * 1000, 3e-6, 64 * 100, 3, 4, -1e-6))  # free before
    @example((64 * 1000, 9e-6, 64 * 100, 3, 4, 0.0))
    # The rising run reaches the ragged last chunk and peaks just before.
    @example((64 * 301, 2.5830519943756384e-06, 64, 4, 4, 0.0))
    def test_equals_streamed_fold(self, sweep):
        param_bytes, duration, llc_bytes, chunk, dirty_bytes, start = sweep
        closed, fold = _closed_and_fold(
            param_bytes, duration, llc_bytes, chunk,
            dirty_bytes=dirty_bytes, start_time=start,
        )
        assert closed == fold

    @staticmethod
    def _count_folds(monkeypatch) -> list:
        """Record every fold :func:`replay_trace` runs."""
        calls = []
        fold = replay_module._fold

        def spy(*args):
            calls.append(args)
            return fold(*args)

        monkeypatch.setattr(replay_module, "_fold", spy)
        return calls

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    @pytest.mark.parametrize("ulps", [-2, 0, 2])
    def test_tpl_near_t_line_falls_back_to_fold(
        self, monkeypatch, chunk, ulps
    ):
        """With ``tpl == t_line`` the linear piece is flat and rounding
        decides its maximum, so only the fold gives the fold's bits."""
        n = 5000
        t_line = CXLLinkModel.paper_default().line_transfer_time()
        duration = n * t_line
        for _ in range(abs(ulps)):
            duration = np.nextafter(duration, np.sign(ulps) * np.inf)
        calls = self._count_folds(monkeypatch)
        closed, fold = _closed_and_fold(
            64 * n, float(duration), 64 * 100, chunk
        )
        assert len(calls) == 2  # the guard's fallback and the oracle
        assert closed == fold

    def test_clear_slope_takes_closed_form(self, monkeypatch):
        calls = self._count_folds(monkeypatch)
        t_line = CXLLinkModel.paper_default().line_transfer_time()
        for ratio in (0.63, 1.58):
            replay_trace(
                adam_writeback_chunks(64 * 5000, ratio * 5000 * t_line, 6400)
            )
        assert calls == []

    def test_busy_wire_folds(self, monkeypatch):
        """A wire busy into the sweep clamps arrivals: the fold replays."""
        calls = self._count_folds(monkeypatch)
        replay_trace(adam_writeback_chunks(64 * 100, 1e-6), start_time=1e-9)
        assert len(calls) == 1

    @pytest.mark.slow
    @pytest.mark.parametrize("chunk", [1, 64, 4096, 262144, 0])
    def test_granularity_default_equals_fold(self, chunk):
        """The ``granularity`` ablation's bert-large sweeps, bit for bit."""
        from repro.models import get_model
        from repro.offload import HardwareParams

        spec = get_model("bert-large-cased")
        duration = HardwareParams.paper_default().adam_time(spec)
        closed, fold = _closed_and_fold(
            spec.param_bytes, duration, 16 * 2**20, chunk
        )
        assert closed == fold
        assert closed.finish_time.hex() == fold.finish_time.hex()
