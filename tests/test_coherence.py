"""Tests for MESI coherence, the home agent, and the giant cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import (
    AddressMap,
    CoherenceMode,
    GiantCacheRegion,
    HomeAgent,
    MESIState,
    PeerCache,
    SnoopFilter,
)
from repro.coherence.giant_cache import required_giant_cache_bytes
from repro.interconnect.packets import MessageType, packet_wire_bytes
from repro.offload.engines import _cxl_wire_volume

M, E, S, I = (
    MESIState.MODIFIED,
    MESIState.EXCLUSIVE,
    MESIState.SHARED,
    MESIState.INVALID,
)


def make_agent(mode=CoherenceMode.UPDATE, size=4096):
    amap = AddressMap()
    region = amap.allocate("params", size, giant_cache=True)
    amap.allocate("scratch", 4096, giant_cache=False)
    agent = HomeAgent(amap, mode=mode)
    return agent, amap, region


class TestMESIState:
    def test_predicates(self):
        assert M.can_read and M.can_write and M.owns_dirty_data
        assert E.can_read and E.can_write and not E.owns_dirty_data
        assert S.can_read and not S.can_write
        assert not I.can_read and not I.can_write

    def test_peer_cache_default_invalid(self):
        pc = PeerCache("x")
        assert pc.state(0) is I
        assert pc.resident == 0

    def test_peer_cache_set_invalid_removes(self):
        pc = PeerCache("x")
        pc.set_state(64, M)
        assert pc.resident == 1
        pc.set_state(64, I)
        assert pc.resident == 0


class TestGiantCache:
    def test_region_alignment(self):
        with pytest.raises(ValueError):
            GiantCacheRegion(base=10, size=64)
        with pytest.raises(ValueError):
            GiantCacheRegion(base=0, size=100)

    def test_contains_and_lines(self):
        r = GiantCacheRegion(base=0, size=256)
        assert r.n_lines == 4
        assert r.contains(0) and r.contains(255) and not r.contains(256)
        assert list(r.lines()) == [0, 64, 128, 192]

    def test_address_map_allocation(self):
        amap = AddressMap()
        p = amap.allocate("p", 1000, giant_cache=True)  # rounds to 1024
        g = amap.allocate("g", 64, giant_cache=False)
        assert p.size == 1024
        assert g.base == p.end
        assert amap.is_giant_cached(p.base)
        assert not amap.is_giant_cached(g.base)
        assert amap.giant_cache_bytes == 1024

    def test_duplicate_name_rejected(self):
        amap = AddressMap()
        amap.allocate("p", 64, giant_cache=True)
        with pytest.raises(ValueError):
            amap.allocate("p", 64, giant_cache=True)

    def test_sizing_rule(self):
        # Bert-large-cased: 334M params FP32 + gradient buffer.
        params = 334_000_000 * 4
        buf = 32 * 2**20
        size = required_giant_cache_bytes(params, buf)
        assert size >= params + buf
        assert size % 64 == 0


class TestUpdateProtocolParameters:
    """Figure 5's parameter-update flow under the update protocol."""

    def test_initial_write_sequence(self):
        agent, amap, region = make_agent()
        line = region.base
        agent.seed_device_copy(line)
        assert agent.device.state(line) is E

        msgs = agent.cpu_write(line)  # step 1+2: ReadOwn, then M
        assert MessageType.READ_OWN in msgs
        assert agent.cpu.state(line) is M
        assert agent.device.state(line) is S  # peer keeps stale copy

        msgs = agent.cpu_writeback(line)  # Go_Flush approval -> push
        assert msgs == [MessageType.GO_FLUSH, MessageType.FLUSH_DATA]
        assert agent.cpu.state(line) is S  # M -> S, the Figure-4 red arrow
        assert agent.device.state(line) is S

    def test_evict_returns_device_to_exclusive(self):
        agent, _, region = make_agent()
        line = region.base
        agent.seed_device_copy(line)
        agent.cpu_write(line)
        agent.cpu_writeback(line)
        agent.cpu_evict(line)
        assert agent.cpu.state(line) is I
        assert agent.device.state(line) is E

    def test_device_read_is_always_a_hit(self):
        """The consumer never fetches on demand under the update protocol."""
        agent, _, region = make_agent()
        line = region.base
        agent.seed_device_copy(line)
        agent.cpu_write(line)
        agent.cpu_writeback(line)
        assert agent.device_read(line) == []
        assert agent.stats.on_demand_fetches == 0

    def test_dba_writeback_halves_payload(self):
        full, _, r1 = make_agent()
        dba, _, r2 = make_agent()
        for agent, region, db in ((full, r1, 4), (dba, r2, 2)):
            for line in region.lines():
                agent.seed_device_copy(line)
                agent.cpu_write(line)
                agent.cpu_writeback(line, dirty_bytes=db)
        assert dba.stats.data_bytes < full.stats.data_bytes
        # 32B payload + header vs 64B payload + header
        assert full.stats.data_bytes == pytest.approx(
            r1.n_lines * 68
        )
        assert dba.stats.data_bytes == pytest.approx(r2.n_lines * 36)

    @pytest.mark.parametrize("dirty_bytes", [0, 7, 2.5, True])
    def test_bad_dirty_bytes_rejected(self, dirty_bytes):
        agent, _, region = make_agent()
        line = region.base
        agent.seed_device_copy(line)
        agent.cpu_write(line)
        agent.device_write(line + 64)
        with pytest.raises(ValueError, match="dirty_bytes"):
            agent.cpu_writeback(line, dirty_bytes)
        with pytest.raises(ValueError, match="dirty_bytes"):
            agent.device_writeback(line + 64, dirty_bytes)
        assert agent.stats.data_bytes == 0

    def test_non_giant_line_generates_no_traffic(self):
        agent, amap, _ = make_agent()
        scratch = amap.regions["scratch"].base
        assert agent.cpu_write(scratch) == []
        assert agent.cpu_writeback(scratch) == []
        assert agent.stats.total_bytes == 0

    def test_flush_all_pushes_every_dirty_line(self):
        agent, _, region = make_agent(size=64 * 8)
        for line in region.lines():
            agent.seed_device_copy(line)
            agent.cpu_write(line)
        pushed = agent.cpu_flush_all()
        assert pushed == region.n_lines
        assert agent.stats.count(MessageType.FLUSH_DATA) == region.n_lines
        for line in region.lines():
            assert agent.cpu.state(line) is I
            assert agent.device.state(line) is E


class TestInvalidationProtocol:
    def test_write_invalidates_peer(self):
        agent, _, region = make_agent(mode=CoherenceMode.INVALIDATION)
        line = region.base
        agent.seed_device_copy(line)
        msgs = agent.cpu_write(line)
        assert MessageType.INVALIDATE in msgs
        assert agent.device.state(line) is I
        assert agent.cpu.state(line) is M

    def test_consumer_read_fetches_on_demand(self):
        agent, _, region = make_agent(mode=CoherenceMode.INVALIDATION)
        line = region.base
        agent.seed_device_copy(line)
        agent.cpu_write(line)
        msgs = agent.device_read(line)
        assert msgs == [MessageType.READ_SHARED, MessageType.DATA]
        assert agent.stats.on_demand_fetches == 1
        assert agent.device.state(line) is S

    def test_invalidation_costs_more_wire_bytes(self):
        """Same producer/consumer pattern: invalidation sends invalidate +
        read + data; update sends flush + data — update is cheaper and has
        zero on-demand fetches (Section IV-A2)."""
        patterns = {}
        for mode in CoherenceMode:
            agent, _, region = make_agent(mode=mode, size=64 * 32)
            for line in region.lines():
                agent.seed_device_copy(line)
            for _ in range(3):  # 3 training steps
                for line in region.lines():
                    agent.cpu_write(line)
                    agent.cpu_writeback(line)
                for line in region.lines():
                    agent.device_read(line)
            patterns[mode] = agent.stats
        upd = patterns[CoherenceMode.UPDATE]
        inv = patterns[CoherenceMode.INVALIDATION]
        assert upd.on_demand_fetches == 0
        assert inv.on_demand_fetches > 0
        assert inv.total_bytes > upd.total_bytes

    def test_snoop_filter_attached_in_invalidation_mode(self):
        agent, _, region = make_agent(mode=CoherenceMode.INVALIDATION)
        assert agent.snoop_filter is not None
        line = region.base
        agent.seed_device_copy(line)
        assert agent.snoop_filter.sharers(line) == {"device"}
        agent.cpu_write(line)
        assert agent.snoop_filter.sharers(line) == {"cpu"}

    def test_update_mode_needs_no_snoop_filter(self):
        agent, _, _ = make_agent(mode=CoherenceMode.UPDATE)
        assert agent.snoop_filter is None


class TestEngineByteOracle:
    """The home agent is the oracle for the TECO engines' closed-form
    wire volume: one update-mode step pushes every gradient line in full
    and every parameter line at the DBA setting."""

    @pytest.mark.parametrize("dirty_bytes", [1, 2, 3, 4])
    def test_data_bytes_match_engine_wire_volume(self, dirty_bytes):
        grad_bytes, param_bytes = 64 * 37 + 5, 64 * 50 + 13
        amap = AddressMap()
        grads = amap.allocate("grads", grad_bytes, giant_cache=True)
        params = amap.allocate("params", param_bytes, giant_cache=True)
        agent = HomeAgent(amap, mode=CoherenceMode.UPDATE)
        for line in grads.lines():
            agent.device_write(line)
            agent.device_writeback(line)
        for line in params.lines():
            agent.seed_device_copy(line)
            agent.cpu_write(line)
            agent.cpu_writeback(line, dirty_bytes)
        assert agent.stats.data_bytes == _cxl_wire_volume(
            grad_bytes, 4
        ) + _cxl_wire_volume(param_bytes, dirty_bytes)
        # The engines leave out the READ_OWN + GO_FLUSH control packets.
        n_lines = grads.n_lines + params.n_lines
        assert agent.stats.control_bytes == 2 * packet_wire_bytes(0) * n_lines


class TestGradientFlow:
    """Figure 6 step 3: gradients stream GPU -> CPU during backward."""

    def test_device_write_then_writeback_reaches_cpu(self):
        agent, _, region = make_agent()
        line = region.base
        agent.device_write(line)
        assert agent.device.state(line) is M
        msgs = agent.device_writeback(line)
        assert MessageType.FLUSH_DATA in msgs
        # CPU then reads the gradient locally: no CXL traffic.
        assert agent.cpu_read(line) == []
        assert agent.stats.on_demand_fetches == 0

    def test_invalidation_gradient_read_is_on_demand(self):
        agent, _, region = make_agent(mode=CoherenceMode.INVALIDATION)
        line = region.base
        agent.seed_cpu_copy(line)
        agent.device_write(line)
        assert agent.cpu.state(line) is I
        msgs = agent.cpu_read(line)
        assert MessageType.DATA in msgs
        assert agent.stats.on_demand_fetches == 1


class TestSnoopFilter:
    def test_sharer_tracking(self):
        sf = SnoopFilter()
        sf.add_sharer(0, "cpu")
        sf.add_sharer(0, "device")
        assert sf.sharers(0) == {"cpu", "device"}
        sf.remove_sharer(0, "cpu")
        assert sf.sharers(0) == {"device"}
        sf.remove_sharer(0, "device")
        assert sf.tracked_lines == 0

    def test_storage_overhead_scales(self):
        sf = SnoopFilter()
        # T5-large giant cache ~2 GiB -> a directory in the tens of MB:
        # the storage TECO's design eliminates.
        overhead = sf.storage_bytes(2 * 2**30)
        assert overhead == (2 * 2**30 // 64) * 8

    def test_invalid_entry_width(self):
        with pytest.raises(ValueError):
            SnoopFilter(bits_per_entry=0)


class TestProtocolInvariants:
    @given(
        st.lists(
            st.sampled_from(
                ["cpu_write", "cpu_writeback", "cpu_evict", "device_read"]
            ),
            max_size=40,
        ),
        st.sampled_from(list(CoherenceMode)),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_writer_multiple_reader(self, ops, mode):
        """SWMR invariant: the two peers are never both in M, and a peer in
        M implies the other cannot read stale data (is I or S-after-push)."""
        agent, _, region = make_agent(mode=mode)
        line = region.base
        agent.seed_device_copy(line)
        for op in ops:
            getattr(agent, op)(line)
            cs, gs = agent.cpu.state(line), agent.device.state(line)
            assert not (cs is M and gs is M)
            if cs is M:
                assert gs in (I, S)
            # Two copies readable implies neither is dirty-exclusive.
            if cs.can_read and gs.can_read:
                assert M not in (cs, gs) or mode is CoherenceMode.UPDATE

    @given(
        st.lists(
            st.sampled_from(["device_write", "device_writeback", "cpu_read"]),
            max_size=40,
        ),
        st.sampled_from(list(CoherenceMode)),
    )
    @settings(max_examples=60, deadline=None)
    def test_gradient_direction_swmr(self, ops, mode):
        agent, _, region = make_agent(mode=mode)
        line = region.base
        for op in ops:
            getattr(agent, op)(line)
            cs, gs = agent.cpu.state(line), agent.device.state(line)
            assert not (cs is M and gs is M)
            if gs is M:
                assert cs in (I, S)


class TestDataVersionTracking:
    """End-to-end freshness: attach version numbers to line writes and
    check the consumer always observes the latest version once the
    protocol says the data moved."""

    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=60),
        st.sampled_from(list(CoherenceMode)),
    )
    @settings(max_examples=40, deadline=None)
    def test_consumer_never_reads_stale_after_sync(self, line_picks, mode):
        agent, _, region = make_agent(mode=mode, size=64 * 8)
        lines = list(region.lines())
        for line in lines:
            agent.seed_device_copy(line)
        cpu_version = {line: 0 for line in lines}
        device_version = {line: 0 for line in lines}

        for pick in line_picks:
            line = lines[pick]
            # producer writes a new version
            agent.cpu_write(line)
            cpu_version[line] += 1
            msgs = agent.cpu_writeback(line)
            if mode is CoherenceMode.UPDATE:
                # FlushData carried the new version to the device
                assert MessageType.FLUSH_DATA in msgs
                device_version[line] = cpu_version[line]
            # consumer reads
            read_msgs = agent.device_read(line)
            if MessageType.DATA in read_msgs:
                device_version[line] = cpu_version[line]
            # the consumer's copy must now be current
            assert device_version[line] == cpu_version[line]
            assert agent.device.state(line).can_read

    def test_flush_all_synchronizes_every_line(self):
        agent, _, region = make_agent(mode=CoherenceMode.UPDATE, size=64 * 16)
        versions = {}
        for i, line in enumerate(region.lines()):
            agent.seed_device_copy(line)
            agent.cpu_write(line)
            versions[line] = i
        pushed = agent.cpu_flush_all()
        assert pushed == region.n_lines
        # every line is now readable on the device without traffic
        for line in region.lines():
            assert agent.device_read(line) == []


class TestFlitEfficiencyDerivation:
    def test_derived_efficiency_matches_link_constant(self):
        """The 94.3% CXL efficiency constant is within 0.3% of the value
        derived from 68-byte flit framing."""
        from repro.interconnect.cxl import CXL_EFFICIENCY
        from repro.interconnect.flits import streaming_efficiency

        derived = streaming_efficiency()
        assert abs(derived - CXL_EFFICIENCY) < 0.003

    def test_flit_geometry(self):
        from repro.interconnect.flits import CXL_FLIT

        assert CXL_FLIT.flit_bytes == 68
        assert CXL_FLIT.payload_bytes_per_flit == 64
        assert CXL_FLIT.flits_for_payload(64) == 1
        assert CXL_FLIT.flits_for_payload(65) == 2
        assert CXL_FLIT.flits_for_payload(0) == 0

    def test_validation(self):
        from repro.interconnect.flits import FlitFormat, streaming_efficiency

        with pytest.raises(ValueError):
            FlitFormat(slot_bytes=0)
        with pytest.raises(ValueError):
            streaming_efficiency(stream_bytes=0)
