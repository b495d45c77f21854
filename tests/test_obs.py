"""Tests for the repro.obs observability layer (tracer, metrics, profile)."""

import json

import numpy as np
import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_PROFILE,
    NULL_TRACER,
    Metrics,
    Profile,
    Tracer,
    active_profile,
    validate_chrome_trace,
)
from repro.sim import SerialLink, Simulator, Store
from repro.utils.units import GB, Bandwidth

RNG = lambda s=0: np.random.default_rng(s)


class TestTracer:
    def test_begin_end_span(self):
        tr = Tracer()
        h = tr.begin(1.0, "work", "cat", track="t")
        tr.end(h, 3.5, extra=1)
        (span,) = tr.spans
        assert span.name == "work"
        assert span.duration == pytest.approx(2.5)
        assert span.args == {"extra": 1}

    def test_double_close_rejected(self):
        tr = Tracer()
        h = tr.begin(0.0, "x")
        tr.end(h, 1.0)
        with pytest.raises(ValueError):
            tr.end(h, 2.0)

    def test_negative_duration_rejected(self):
        tr = Tracer()
        h = tr.begin(5.0, "x")
        with pytest.raises(ValueError):
            tr.end(h, 4.0)

    def test_add_span_and_instant(self):
        tr = Tracer()
        tr.add_span(0.0, 1.0, "a", "link")
        tr.instant(0.5, "tick", "link")
        assert len(tr) == 2
        assert tr.categories() == {"link"}
        assert len(tr.spans_in("link")) == 1

    def test_wall_ts_latches_epoch(self):
        tr = Tracer()
        t0 = tr.wall_ts()
        t1 = tr.wall_ts()
        assert t0 == pytest.approx(0.0, abs=1e-3)
        assert t1 >= t0

    def test_summary_mentions_categories(self):
        tr = Tracer()
        tr.add_span(0.0, 1.0, "a", "link")
        tr.instant(0.0, "b", "queue")
        s = tr.summary()
        assert "link" in s and "queue" in s


class TestChromeExport:
    def _trace(self):
        tr = Tracer()
        tr.add_span(0.0, 1e-6, "a", "link", track="wire", bytes=64)
        tr.add_span(2e-6, 3e-6, "b", "queue", track="q")
        tr.instant(1.5e-6, "tick", "cxl", track="wire")
        return tr

    def test_schema_fields(self):
        events = self._trace().chrome_events()
        for ev in events:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in ev
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_ts_monotonic_after_metadata(self):
        events = self._trace().chrome_events()
        real = [e["ts"] for e in events if e["ph"] != "M"]
        assert real == sorted(real)

    def test_timestamps_in_microseconds(self):
        events = self._trace().chrome_events()
        xs = [e for e in events if e["ph"] == "X" and e["name"] == "a"]
        assert xs[0]["ts"] == pytest.approx(0.0)
        assert xs[0]["dur"] == pytest.approx(1.0)  # 1e-6 s = 1 us

    def test_distinct_pids_for_distinct_processes(self):
        tr = Tracer(default_pid="sim")
        tr.add_span(0.0, 1.0, "a", "link")
        tr.add_span(0.0, 1.0, "b", "trainer", pid="host")
        events = tr.chrome_events()
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(pids) == 2
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"sim", "host"}

    def test_metrics_become_counter_events(self):
        tr = self._trace()
        mx = Metrics()
        mx.sample("util", 0.0, 0.5)
        mx.sample("util", 1e-6, 0.9)
        events = tr.chrome_events(metrics=mx)
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 2
        assert counters[0]["name"] == "util"
        assert counters[0]["args"]["value"] == pytest.approx(0.5)

    def test_validate_accepts_export(self):
        obj = self._trace().chrome_trace()
        assert validate_chrome_trace(obj) == []

    def test_validate_roundtrips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        self._trace().write_chrome(path)
        obj = json.loads(path.read_text())
        assert validate_chrome_trace(obj) == []

    def test_validate_rejects_garbage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"events": []}) != []
        bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0}]}
        assert any("pid" in e for e in validate_chrome_trace(bad))
        neg = {
            "traceEvents": [
                {"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 1}
            ]
        }
        assert any("dur" in e for e in validate_chrome_trace(neg))

    def test_validate_rejects_nonmonotonic(self):
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "i", "ts": 5, "pid": 1, "tid": 1},
                {"name": "b", "ph": "i", "ts": 1, "pid": 1, "tid": 1},
            ]
        }
        assert any("previous" in e for e in validate_chrome_trace(bad))


class TestMetrics:
    def test_counter_sampling_and_series(self):
        mx = Metrics()
        mx.counter("lines").inc()
        mx.counter("lines").inc(3)
        mx.sample("depth", 0.0, 1)
        mx.sample("depth", 1.0, 4)
        assert mx.value("lines") == 4
        assert mx.series("depth") == [(0.0, 1), (1.0, 4)]
        assert "depth" in mx.all_series()

    def test_counter_rejects_negative(self):
        mx = Metrics()
        with pytest.raises(ValueError):
            mx.counter("c").inc(-1)

    def test_gauge_last_value_wins(self):
        mx = Metrics()
        mx.gauge("g").set(2.0)
        mx.gauge("g").set(7.0)
        assert mx.value("g") == 7.0

    def test_value_default(self):
        assert Metrics().value("missing", default=1.5) == 1.5

    def test_summary_lists_everything(self):
        mx = Metrics()
        mx.counter("c").inc()
        mx.gauge("g").set(1.0)
        mx.sample("s", 0.0, 2.0)
        out = mx.summary()
        assert "c" in out and "g" in out and "s" in out


class TestNullObjects:
    def test_null_tracer_is_inert(self):
        h = NULL_TRACER.begin(0.0, "x")
        NULL_TRACER.end(h, 1.0)
        NULL_TRACER.add_span(0.0, 1.0, "x")
        NULL_TRACER.instant(0.0, "x")
        assert not NULL_TRACER.enabled
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.wall_ts() == 0.0

    def test_null_metrics_is_inert(self):
        NULL_METRICS.counter("c").inc(5)
        NULL_METRICS.gauge("g").set(1.0)
        NULL_METRICS.sample("s", 0.0, 1.0)
        assert not NULL_METRICS.enabled
        assert NULL_METRICS.counters() == {}
        assert NULL_METRICS.series("s") == []
        assert NULL_METRICS.value("c") == 0.0

    def test_simulator_defaults_to_nulls(self):
        sim = Simulator()
        assert sim.tracer is NULL_TRACER
        assert sim.metrics is NULL_METRICS


class TestInstrumentedSim:
    def test_link_spans_and_counters(self):
        tr, mx = Tracer(), Metrics()
        with Profile(tr, mx).activate():
            sim = Simulator()
        link = SerialLink(sim, Bandwidth(1 * GB), name="wire")

        def proc(sim):
            yield link.transmit(1024)
            yield link.transmit(2048)

        sim.process(proc(sim))
        sim.run()
        spans = tr.spans_in("link")
        assert len(spans) == 2
        assert spans[0].args["bytes"] == 1024
        assert mx.value("wire.bytes") == 3072
        assert mx.value("wire.transfers") == 2

    def test_link_utilization_true_ratio_and_bounded(self):
        with Profile(metrics=(mx := Metrics())).activate():
            sim = Simulator()
        link = SerialLink(sim, Bandwidth(1 * GB), name="wire")

        def proc(sim):
            yield link.transmit(1000)
            yield sim.timeout(link.bandwidth.time_for(1000))  # idle gap
            yield link.transmit(1000)

        sim.process(proc(sim))
        sim.run()
        busy = 2 * link.bandwidth.time_for(1000)
        # true ratio over an arbitrary horizon, not clamped
        assert link.utilization(2 * busy) == pytest.approx(0.5)
        assert link.utilization(busy) == pytest.approx(1.0)
        # the invariant the old min(1.0, ...) clamp used to hide
        for _, value in mx.series("wire.utilization"):
            assert value <= 1.0 + 1e-12

    def test_utilization_rejects_bad_horizon(self):
        link = SerialLink(Simulator(), Bandwidth(1 * GB))
        with pytest.raises(ValueError):
            link.utilization(0.0)

    def test_store_depth_sampling_and_block_instants(self):
        tr, mx = Tracer(), Metrics()
        with Profile(tr, mx).activate():
            sim = Simulator()
        store = Store(sim, capacity=2, name="q")

        def producer(sim):
            for i in range(4):
                yield store.put(i)

        def consumer(sim):
            for _ in range(4):
                yield sim.timeout(1.0)
                yield store.get()

        sim.process(producer(sim))
        sim.process(consumer(sim))
        sim.run()
        depths = [v for _, v in mx.series("q.depth")]
        assert depths and max(depths) <= 2
        blocked = [i for i in tr.instants if i.name == "put-blocked"]
        assert blocked  # producer outran the 2-entry queue


class TestTrainerTracing:
    def _trainer(self, profile):
        from repro.offload import OffloadTrainer
        from repro.tensor.transformer import TinyTransformerLM

        model = TinyTransformerLM(
            vocab=16, dim=16, n_heads=2, n_layers=1, max_seq=12, rng=RNG()
        )
        with profile.activate():
            return OffloadTrainer(model, lr=1e-3)

    def _batches(self, n):
        rng = RNG(1)
        pattern = np.tile(np.arange(16), 4)
        return [
            (np.stack([pattern[j : j + 10] for j in rng.integers(0, 50, 4)]),)
            for _ in range(n)
        ]

    def test_phase_spans_and_metrics(self):
        profile = Profile.new()
        trainer = self._trainer(profile)
        trainer.train(self._batches(3))
        spans = profile.tracer.spans_in("trainer")
        names = {s.name for s in spans}
        assert {
            "forward", "backward", "grad-transfer", "clip", "adam",
            "param-transfer", "step",
        } <= names
        assert all(s.pid == "host" for s in spans)
        steps = [s for s in spans if s.name == "step"]
        assert len(steps) == 3
        assert steps[0].args["step"] == 0
        assert profile.metrics.value("trainer.steps") == 3
        assert len(profile.metrics.series("trainer.loss")) == 3

    def test_untraced_trainer_records_nothing(self):
        from repro.offload import OffloadTrainer
        from repro.tensor.transformer import TinyTransformerLM

        model = TinyTransformerLM(
            vocab=16, dim=16, n_heads=2, n_layers=1, max_seq=12, rng=RNG()
        )
        trainer = OffloadTrainer(model, lr=1e-3)
        trainer.train(self._batches(2))
        assert trainer.tracer is NULL_TRACER
        assert len(trainer.tracer) == 0


class TestEngineTracing:
    def test_engine_phase_spans_in_sim_time(self):
        from repro.models import get_model
        from repro.offload import TECOEngine

        profile = Profile.new()
        engine = TECOEngine(get_model("gpt2"), 4)
        with profile.activate():
            breakdown = engine.simulate_step()
        spans = profile.tracer.spans_in("trainer")
        names = {s.name for s in spans}
        assert {"forward", "backward", "clip", "adam", "step"} <= names
        step = next(s for s in spans if s.name == "step")
        assert step.end == pytest.approx(breakdown.total)
        # the engine's CXL wire also traced its transfers
        assert profile.tracer.spans_in("link")

    def test_parallel_engine_traces(self):
        from repro.models import get_model
        from repro.offload import SystemKind
        from repro.offload.parallel import ClusterParams, DataParallelEngine

        profile = Profile.new()
        engine = DataParallelEngine(
            SystemKind.TECO_REDUCTION,
            get_model("gpt2"),
            8,
            cluster=ClusterParams(n_gpus=2),
        )
        with profile.activate():
            engine.simulate_step()
        assert profile.tracer.spans_in("trainer")


class TestReplayInstrumentation:
    def test_replay_records_summary(self):
        from repro.memsim.trace import WritebackTrace
        from repro.trace.replay import replay_trace

        tr, mx = Tracer(), Metrics()
        trace = WritebackTrace(
            np.linspace(0.0, 1e-6, 50), np.arange(50) * 64
        )
        with Profile(tr, mx).activate():
            result = replay_trace(trace)
        (stream,) = [s for s in tr.spans_in("link") if s.name == "stream"]
        assert stream.end == pytest.approx(result.finish_time)
        assert stream.args["n_lines"] == 50
        assert mx.value("replay.lines") == 50
        assert mx.value("replay.wire_bytes") == result.wire_bytes

    def test_streamed_replay_records_same_summary(self):
        """A chunk stream reports the span a whole trace does, starting at
        the first chunk's first arrival."""
        from repro.memsim.trace import WritebackTrace
        from repro.trace.replay import replay_trace

        times = np.linspace(1e-7, 1e-6, 50)
        traced = []
        for trace in (
            WritebackTrace(times, np.arange(50) * 64),
            [times[:0], times[:20], times[20:]],
        ):
            tr, mx = Tracer(), Metrics()
            with Profile(tr, mx).activate():
                result = replay_trace(trace)
            (stream,) = [s for s in tr.spans_in("link") if s.name == "stream"]
            traced.append(
                (result, stream.begin, stream.end, mx.value("replay.lines"))
            )
        assert traced[0] == traced[1]
        assert traced[1][1] == times[0]

    @pytest.mark.parametrize("chunk_lines", [1, 7, 0])
    def test_closed_form_sweep_records_same_summary(self, chunk_lines):
        """The analytic sweep's closed form records the fold's spans and
        counters."""
        from repro.trace import adam_writeback_chunks
        from repro.trace.replay import replay_trace

        sweep = adam_writeback_chunks(64 * 500 - 3, 3e-6, 64 * 40, chunk_lines)
        traced = []
        for stream in (sweep, iter(sweep)):  # closed form, then the fold
            tr, mx = Tracer(), Metrics()
            with Profile(tr, mx).activate():
                result = replay_trace(stream)
            (span,) = [s for s in tr.spans_in("link") if s.name == "stream"]
            (end,) = [i for i in tr.instants if i.name == "compute-end"]
            traced.append(
                (
                    result,
                    span.begin,
                    span.end,
                    span.args,
                    end.ts,
                    len(tr.spans_in("link")),
                    mx.value("replay.lines"),
                    mx.value("replay.wire_bytes"),
                )
            )
        assert traced[0] == traced[1]

    def test_replay_untraced_unchanged(self):
        from repro.memsim.trace import WritebackTrace
        from repro.trace.replay import replay_trace

        trace = WritebackTrace(np.linspace(0.0, 1e-6, 50), np.arange(50) * 64)
        a = replay_trace(trace)
        with Profile.new().activate():
            b = replay_trace(trace)
        assert a == b


class TestCoherenceInstrumentation:
    def test_home_agent_mirrors_message_counters(self):
        from repro.coherence.giant_cache import AddressMap
        from repro.coherence.home_agent import HomeAgent
        from repro.interconnect.packets import MessageType

        mx = Metrics()
        amap = AddressMap()
        region = amap.allocate("params", 4096, giant_cache=True)
        with Profile(metrics=mx).activate():
            agent = HomeAgent(amap)
        line = region.base
        agent.seed_device_copy(line)
        agent.cpu_write(line)
        agent.cpu_writeback(line)
        assert mx.value("coherence.msg.READ_OWN") == agent.stats.count(
            MessageType.READ_OWN
        )
        assert mx.value("coherence.data_bytes") == agent.stats.data_bytes
        assert mx.value("coherence.control_bytes") == agent.stats.control_bytes


def _replayed_streams(profile):
    """Which trainer-payload CXL streams a traced run replayed (their
    wire and pending-queue spans sit on ``<stream>-*`` tracks)."""
    return {
        stream
        for stream in ("cxl-grads", "cxl-params")
        for span in profile.tracer.spans
        if span.track.startswith(stream + "-")
    }


class TestProfileAndTraceExperiment:
    @pytest.mark.slow
    def test_trace_experiment_fig10(self, tmp_path):
        from repro.obs import trace_experiment

        out = tmp_path / "trace.json"
        profile = trace_experiment(
            "fig10", params={"n_steps": 3, "act_aft_steps": 1}, out=out
        )
        obj = json.loads(out.read_text())
        assert validate_chrome_trace(obj) == []
        cats = {e.get("cat") for e in obj["traceEvents"]}
        # acceptance: CXL link + pending queue + trainer phases in one file
        assert {"link", "queue", "trainer"} <= cats
        assert profile.metrics.value("trainer.steps") > 0
        assert "trace summary" in profile.summary()
        # the trainer recorded both payload series, so both are replayed
        assert _replayed_streams(profile) == {"cxl-grads", "cxl-params"}

    def test_trace_experiment_rejects_unknown(self):
        from repro.obs import trace_experiment

        with pytest.raises(ValueError):
            trace_experiment("fig99")

    def test_trace_experiment_replays_only_recorded_payloads(self):
        """table6 runs timing engines only: no trainer payload series,
        so no CXL stream is made up for it."""
        from repro.obs import trace_experiment

        profile = trace_experiment("table6")
        assert {"link", "trainer"} <= profile.tracer.categories()
        assert profile.metrics.series("trainer.grad_payload_bytes") == []
        assert _replayed_streams(profile) == set()


class TestActiveProfile:
    def test_null_outside_and_nested_activation(self):
        outer, inner = Profile.new(), Profile.new()
        assert active_profile() is NULL_PROFILE
        with outer.activate():
            assert active_profile() is outer
            with inner.activate():
                assert Simulator().tracer is inner.tracer
            assert Simulator().metrics is outer.metrics
        assert active_profile() is NULL_PROFILE
        assert NULL_PROFILE.tracer is NULL_TRACER
        assert NULL_PROFILE.metrics is NULL_METRICS

    def test_components_bind_at_build_time(self):
        """A simulator built under a profile keeps recording into it
        after the block exits; one built outside records nothing."""
        profile = Profile.new()
        with profile.activate():
            traced = Simulator()
        untraced = Simulator()
        for sim in (traced, untraced):
            SerialLink(sim, Bandwidth(1 * GB), name="wire").transmit(64)
            sim.run()
        assert len(profile.tracer.spans_in("link")) == 1
        assert untraced.tracer is NULL_TRACER


#: Experiments that build no Simulator, trainer or trace replay (nothing
#: to trace) are skipped, as are the ``*_full`` presets, whose cells run
#: in child processes.
_NOTHING_TO_TRACE = {"overheads", "lammps", "models"}

#: Reduced parameters for the experiments that are slow at defaults.
_REDUCED = {
    "table5": {"n_steps": 6},
    "fig_fabric": {"nodes": [1], "tenants": [1, 2], "policies": ["fair"]},
    "fig_aggregation": {"ranks": [2], "policies": ["fair"], "n_steps": 4},
    "fig_zero3": {"ranks": [2], "formats": ["fp16"]},
}


def _traceable_experiments():
    from repro.experiments import registry

    return [
        s.name
        for s in registry.all_specs()
        if s.name not in _NOTHING_TO_TRACE and not s.name.endswith("_full")
    ]


class TestEveryExperimentTraceable:
    @pytest.mark.slow
    @pytest.mark.parametrize("name", _traceable_experiments())
    def test_profiled_run_records_spans_and_keeps_hash(self, name):
        from repro.experiments.registry import RunContext, run_experiment

        params = _REDUCED.get(name)
        plain = run_experiment(name, params)
        profile = Profile.new()
        traced = run_experiment(name, params, ctx=RunContext(profile=profile))
        assert len(profile.tracer.spans) >= 1
        assert traced.result_hash == plain.result_hash

    def test_profiled_sweep_writes_cell_and_merged_traces(self, tmp_path):
        from repro.experiments.executor import run_sweep

        report = run_sweep(
            [("table6", {}), ("fig_fabric", _REDUCED["fig_fabric"])],
            profile_dir=tmp_path,
        )
        assert report.failed == 0
        cells = sorted(tmp_path.glob("cell-*.json"))
        assert len(cells) == 2
        for cell in cells:
            assert json.loads(cell.read_text())["traceEvents"]
        merged = json.loads((tmp_path / "sweep-trace.json").read_text())
        assert validate_chrome_trace(merged) == []
        cats = {e.get("cat") for e in merged["traceEvents"]}
        assert {"link", "trainer"} <= cats
