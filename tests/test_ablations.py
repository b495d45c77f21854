"""Tests for the extra ablation experiments (DPU, granularity, dirty
bytes, interconnect generation)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.ablation_dirty_bytes import run_dirty_bytes_ablation
from repro.experiments.ablation_dpu import (
    dpu_requires_large_batch,
    run_dpu_ablation,
)
from repro.experiments.ablation_granularity import (
    run_buffer_granularity,
    run_stream_granularity,
)
from repro.experiments.ablation_interconnect import run_interconnect_ablation

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestDPUAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_dpu_ablation(batch_sizes=(1, 4, 16, 64))

    def test_hiding_grows_with_batch(self, rows):
        assert dpu_requires_large_batch(rows)

    def test_teco_wins_at_small_batch(self, rows):
        assert rows[0]["teco_speedup"] > rows[0]["dpu_speedup"]

    def test_dpu_never_exceeds_full_hiding(self, rows):
        for r in rows:
            assert 0.0 <= r["dpu_hidden_fraction"] <= 1.0 + 1e-9


#: The bert-large stream rows as ``float.hex`` of (exposed, overlap): the
#: values the whole-trace replay gives, which the streamed fold must match
#: bit for bit.
GOLDEN_STREAM_ROWS = {
    1: ("0x1.26b21f988b31bp-5", "0x1.3f3d728f683f2p-1"),
    64: ("0x1.26b2815ad8db9p-5", "0x1.3f3d329dbfaedp-1"),
    4096: ("0x1.26caf1ee43519p-5", "0x1.3f2d36339b9dcp-1"),
    262144: ("0x1.2ce716c8e0d25p-5", "0x1.3b2e1baa97580p-1"),
    0: ("0x1.8760ea8db59dcp-4", "0x0.0p+0"),
}


class TestGranularityAblation:
    @pytest.fixture(scope="class")
    def stream(self):
        return {r["chunk_lines"]: r for r in run_stream_granularity()}

    def test_stream_rows_match_golden(self, stream):
        got = {
            c: (float(r["exposed"]).hex(), float(r["overlap"]).hex())
            for c, r in stream.items()
        }
        assert got == GOLDEN_STREAM_ROWS
        assert [r["granularity"] for r in stream.values()] == [
            "per line (TECO)", "64 lines", "4096 lines", "262144 lines",
            "whole tensor",
        ]

    def test_whole_tensor_exposes_everything(self, stream):
        fine, coarse = stream[1], stream[0]
        assert fine["overlap"] > 0.5
        assert coarse["overlap"] < 0.05
        assert fine["exposed"] < coarse["exposed"]

    def test_streaming_robust_to_chunk_size(self, stream):
        """Chunking the stream from 1 to 4096 lines barely changes
        exposure (bandwidth-limited, not granularity-limited) — which also
        validates the engines' STREAM_CHUNKS approximation."""
        assert stream[1]["exposed"] == pytest.approx(
            stream[4096]["exposed"], rel=0.05
        )

    @pytest.mark.parametrize("chunk_lines", [-5, 2.5, True, None])
    def test_bad_chunk_lines_rejected(self, chunk_lines):
        """-5 used to come back as a row labelled "per line (TECO)"."""
        with pytest.raises(ValueError, match="chunk_lines"):
            run_stream_granularity(chunk_lines=(1, chunk_lines))

    @pytest.mark.skipif(
        sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux"
    )
    def test_experiment_peak_rss_bounded(self):
        """The stream side builds no trace: the whole experiment, in a
        fresh interpreter, peaks far below the ~1.6 GiB that building the
        bert-large write-back trace took."""
        code = (
            "import resource\n"
            "from repro.experiments.registry import run_experiment\n"
            "run_experiment('granularity')\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        peak_mib = int(out.stdout.split()[-1]) / 1024
        assert peak_mib < 256, f"granularity peaked at {peak_mib:.0f} MiB"

    def test_buffer_sweep_shapes(self):
        rows = run_buffer_granularity(buffer_sizes=(2 * 2**20, 256 * 2**20))
        # Finer buffers pay more DMA setups under synchronous flushing.
        assert rows[0]["grad_exposed"] >= rows[1]["grad_exposed"]


@pytest.mark.slow
class TestDirtyBytesAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_dirty_bytes_ablation(n_steps=40)

    def test_volume_monotone(self, rows):
        volumes = [r["wire_bytes"] for r in rows]
        assert volumes == sorted(volumes)

    def test_four_bytes_exact(self, rows):
        by = {r["dirty_bytes"]: r for r in rows}
        assert by[4]["perplexity_delta"] == pytest.approx(0.0, abs=1e-6)

    def test_speedup_ordering(self, rows):
        by = {r["dirty_bytes"]: r for r in rows}
        assert by[1]["speedup"] >= by[4]["speedup"]


class TestInterconnectAblation:
    def test_speedup_shrinks_with_faster_links(self):
        rows = run_interconnect_ablation()
        speedups = [r["speedup"] for r in rows]
        assert speedups == sorted(speedups, reverse=True)

    def test_teco_still_helps_on_gen5(self):
        rows = run_interconnect_ablation()
        assert rows[-1]["gen"] == "GEN5"
        assert rows[-1]["speedup"] > 1.05
