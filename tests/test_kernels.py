"""Parity of the vectorised DBA kernels against their references.

The DBA byte-lane gather/scatter has one batch implementation, written in
numpy at its only callers: ``Aggregator.pack_lines`` and
``Disaggregator.merge_lines``.  The per-word methods that stay in ``src/``
(``pack_lines_scalar``, ``merge_lines_scalar``) are the differential
oracles.  Every batch result must be *bit-exact* against them: same DBA
bytes, same line and extra-read counters.
"""

import numpy as np
import pytest

from repro.dba.aggregator import Aggregator
from repro.dba.disaggregator import Disaggregator
from repro.dba.registers import DBARegister

# Batch implementations checked against the per-word DBA references.
# numpy is the only one; the id keeps the parametrized test names stable.
IMPLS = ["numpy"]


def _register(n_bytes):
    """DBA register with ``effective_dirty_bytes == n_bytes``."""
    if n_bytes == 4:
        return DBARegister(enabled=False)  # bypass: full 4-byte words
    return DBARegister(enabled=True, dirty_bytes=n_bytes)


class TestDBAKernelParity:
    @pytest.mark.parametrize("n_bytes", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", IMPLS)
    def test_pack_matches_scalar_reference(self, n_bytes, name):
        rng = np.random.default_rng(n_bytes)
        lines = rng.standard_normal((5, 16)).astype(np.float32)
        fast, ref = Aggregator(_register(n_bytes)), Aggregator(_register(n_bytes))
        payload = fast.pack_lines(lines)
        expected = ref.pack_lines_scalar(lines)
        np.testing.assert_array_equal(payload, expected, err_msg=name)
        assert fast.lines_processed == ref.lines_processed
        assert fast.payload_bytes_produced == ref.payload_bytes_produced

    @pytest.mark.parametrize("n_bytes", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", IMPLS)
    def test_merge_matches_scalar_reference(self, n_bytes, name):
        rng = np.random.default_rng(100 + n_bytes)
        stale = rng.standard_normal((4, 16)).astype(np.float32)
        fresh = rng.standard_normal((4, 16)).astype(np.float32)
        reg = _register(n_bytes)
        payload = Aggregator(reg).pack_lines(fresh)
        fast = Disaggregator(reg)
        merged = fast.merge_lines(stale, payload)
        ref = Disaggregator(reg)
        expected = ref.merge_lines_scalar(stale, payload)
        np.testing.assert_array_equal(
            merged.view(np.uint32), expected.view(np.uint32), err_msg=name
        )
        assert fast.lines_merged == ref.lines_merged
        assert fast.extra_reads == ref.extra_reads

    @pytest.mark.parametrize("name", IMPLS)
    def test_full_low_bytes_round_trip(self, name):
        """Bypass (4 effective bytes) replaces every word: the merge
        reconstructs ``fresh`` exactly."""
        rng = np.random.default_rng(5)
        stale = rng.standard_normal((3, 16)).astype(np.float32)
        fresh = rng.standard_normal((3, 16)).astype(np.float32)
        reg = _register(4)
        payload = Aggregator(reg).pack_lines(fresh)
        merged = Disaggregator(reg).merge_lines(stale, payload)
        np.testing.assert_array_equal(merged, fresh, err_msg=name)
