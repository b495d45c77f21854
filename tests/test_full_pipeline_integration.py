"""Whole-system integration: data flows through every substrate at once.

One parameter update travels the complete Figure-8 path with real data:

  FlatAdam updates the CPU master arena
    -> the cache hierarchy evicts dirty lines (write-back trace)
    -> the home agent applies the update protocol per line
    -> the Aggregator packs DBA payloads
    -> the CXL controller transports them in the discrete-event simulator
    -> the Disaggregator merges payloads into the device copy
    -> the reconstructed device parameters match the master within DBA's
       documented byte-truncation error, and hit exactly when updates are
       confined to the low bytes.

If any layer misorders, drops, or corrupts a line, the final comparison
fails — this is the test that ties the repository together.
"""

import numpy as np
import pytest

from repro.coherence import AddressMap, CoherenceMode, HomeAgent
from repro.dba import Aggregator, DBARegister, Disaggregator
from repro.interconnect import CacheLinePayload, CXLController
from repro.interconnect.packets import CACHE_LINE_BYTES, MessageType
from repro.memsim import CacheHierarchy, SetAssociativeCache
from repro.optim import FlatAdam
from repro.sim import Simulator
from repro.utils.bits import low_byte_mask

WORDS_PER_LINE = CACHE_LINE_BYTES // 4


@pytest.fixture
def system():
    """A miniature TECO deployment with real state everywhere."""
    n_params = 1024  # 64 lines
    rng = np.random.default_rng(0)
    cpu_params = rng.standard_normal(n_params).astype(np.float32)
    gpu_params = cpu_params.copy()  # device copy in sync pre-step
    grads = (rng.standard_normal(n_params) * 0.05).astype(np.float32)

    amap = AddressMap(base=0)
    region = amap.allocate("params", n_params * 4, giant_cache=True)
    agent = HomeAgent(amap, mode=CoherenceMode.UPDATE)
    for line in region.lines():
        agent.seed_device_copy(line)
    hierarchy = CacheHierarchy(
        [SetAssociativeCache(CACHE_LINE_BYTES * 8, CACHE_LINE_BYTES, 2)]
    )
    return {
        "n_params": n_params,
        "cpu": cpu_params,
        "gpu": gpu_params,
        "grads": grads,
        "amap": amap,
        "region": region,
        "agent": agent,
        "hierarchy": hierarchy,
    }


def run_full_step(system, dirty_bytes: int) -> dict:
    """Drive one parameter-update step through every component."""
    region = system["region"]
    agent = system["agent"]
    hierarchy = system["hierarchy"]
    cpu = system["cpu"]
    gpu = system["gpu"]

    # 1) CPU ADAM sweep over the master copy, block by block; every block
    #    issues stores into the cache hierarchy at its arena addresses.
    optimizer = FlatAdam(system["n_params"], lr=1e-2)
    evicted: list[int] = []

    def on_block(start: int, end: int) -> None:
        for word in range(start, end, WORDS_PER_LINE):
            address = region.base + word * 4
            result = hierarchy.access(address, is_write=True)
            evicted.extend(result.memory_writebacks)

    optimizer.step(cpu, system["grads"], block=64, on_block=on_block)
    evicted.extend(hierarchy.flush())  # the per-iteration CXLFENCE flush
    evicted = sorted(set(evicted))
    assert len(evicted) == region.n_lines  # every line written back once

    # 2) Home agent: each write-back runs the update protocol.
    flush_msgs = 0
    for line in evicted:
        agent.cpu_write(line)
        msgs = agent.cpu_writeback(line, dirty_bytes=dirty_bytes)
        assert MessageType.FLUSH_DATA in msgs
        flush_msgs += 1

    # 3) Aggregator packs payload bytes for each line from the master.
    register = DBARegister(enabled=dirty_bytes < 4, dirty_bytes=dirty_bytes)
    aggregator = Aggregator(register)
    lines_matrix = cpu.reshape(-1, WORDS_PER_LINE)
    payloads = aggregator.pack_lines(lines_matrix)

    # 4) CXL controller transports every line in the DES.
    sim = Simulator()
    controller = CXLController(sim)

    def producer(sim):
        """Stream all lines, then fence."""
        for line in evicted:
            yield controller.send_line(
                CacheLinePayload(line, dirty_bytes=dirty_bytes)
            )
        return (yield controller.fence())

    proc = sim.process(producer(sim))
    sim.run()
    assert controller.lines_delivered == region.n_lines

    # 5) Disaggregator merges into the stale device copy.
    disaggregator = Disaggregator(register)
    merged = disaggregator.merge_lines(
        gpu.reshape(-1, WORDS_PER_LINE), payloads
    )
    system["gpu"] = merged.reshape(-1)
    return {
        "fence_time": proc.value,
        "wire_bytes": controller.payload_bytes_delivered,
        "flush_msgs": flush_msgs,
    }


class TestFullPipeline:
    def test_full_precision_path_is_exact(self, system):
        out = run_full_step(system, dirty_bytes=4)
        np.testing.assert_array_equal(system["gpu"], system["cpu"])
        assert out["wire_bytes"] == system["region"].n_lines * 64

    def test_dba_path_matches_documented_truncation(self, system):
        before = system["gpu"].copy()
        out = run_full_step(system, dirty_bytes=2)
        mask = low_byte_mask(2)
        gw = system["gpu"].view(np.uint32)
        cw = system["cpu"].view(np.uint32)
        bw = before.view(np.uint32)
        # low bytes came from the master, high bytes from the stale copy
        np.testing.assert_array_equal(gw & mask, cw & mask)
        np.testing.assert_array_equal(gw & ~mask, bw & ~mask)
        # ...and the wire moved half the bytes
        assert out["wire_bytes"] == system["region"].n_lines * 32

    def test_dba_error_small_for_small_updates(self, system):
        run_full_step(system, dirty_bytes=2)
        err = np.max(np.abs(system["gpu"] - system["cpu"]))
        scale = np.max(np.abs(system["cpu"]))
        assert err < 0.02 * scale

    def test_coherence_states_consistent_after_step(self, system):
        run_full_step(system, dirty_bytes=2)
        agent = system["agent"]
        for line in system["region"].lines():
            # both peers share the line; the GPU can read without traffic
            assert agent.device_read(line) == []
        assert agent.stats.on_demand_fetches == 0

    def test_fence_time_matches_wire_arithmetic(self, system):
        out = run_full_step(system, dirty_bytes=2)
        from repro.interconnect.cxl import CXLLinkModel

        model = CXLLinkModel.paper_default()
        expected = (
            system["region"].n_lines * model.line_transfer_time(2)
            + model.latency
        )
        assert out["fence_time"] == pytest.approx(expected, rel=1e-6, abs=0)


class TestGradientDirectionPipeline:
    """The reverse path (Figure 6 step 3): gradients flow GPU -> CPU
    through the GPU L2 cache, the home agent's update protocol, and the
    CXL controller — no DBA (gradients change all bytes)."""

    def test_gradient_stream_end_to_end(self):
        n_params = 512  # 32 lines
        amap = AddressMap(base=0)
        region = amap.allocate("grad_buffer", n_params * 4, giant_cache=True)
        agent = HomeAgent(amap, mode=CoherenceMode.UPDATE)
        # GPU L2 in front of the giant-cache region.
        gpu_l2 = SetAssociativeCache(CACHE_LINE_BYTES * 8, CACHE_LINE_BYTES, 2)

        # Backward writes gradients line by line through the GPU L2.
        evicted = []
        for i in range(region.n_lines):
            r = gpu_l2.access(region.base + i * CACHE_LINE_BYTES, is_write=True)
            if r.writeback_address is not None:
                evicted.append(r.writeback_address)
        evicted += gpu_l2.flush()
        assert sorted(set(evicted)) == list(region.lines())

        # Each write-back runs the device-side update protocol.
        for line in sorted(set(evicted)):
            agent.device_write(line)
            msgs = agent.device_writeback(line)  # full line, no DBA
            assert MessageType.FLUSH_DATA in msgs

        # Transport over CXL in the DES.
        sim = Simulator()
        controller = CXLController(sim)

        def producer(sim):
            """Stream gradient lines, then CXLFENCE before the optimizer."""
            for line in sorted(set(evicted)):
                yield controller.send_line(CacheLinePayload(line))
            return (yield controller.fence())

        proc = sim.process(producer(sim))
        sim.run()
        assert controller.lines_delivered == region.n_lines
        assert controller.payload_bytes_delivered == region.n_lines * 64

        # CPU reads the gradients for the optimizer: local memory, no CXL.
        for line in region.lines():
            assert agent.cpu_read(line) == []
        assert agent.stats.on_demand_fetches == 0
        assert proc.value > 0
