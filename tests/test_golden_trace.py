"""Golden-trace regression test for the sweep write-back generator.

``tests/data/golden_adam_trace.npz`` is a frozen write-back trace of a
fixed ADAM parameter sweep, produced once by the access-by-access sweep
and committed.  The sweep must keep reproducing it byte-for-byte: the
fixture pins the *cache semantics* (LRU victim choice, write-allocate
fills, flush ordering) and the *timestamp arithmetic*
(float-exact ``(store+1)/n_stores*sweep_duration``), so any change to the
memsim or generator layers that alters a single output bit is caught
before it silently shifts every downstream CXL replay number.

Regenerate (only after an *intentional* semantic change) with::

    PYTHONPATH=src python tests/test_golden_trace.py --regenerate
"""

from pathlib import Path

import numpy as np
import pytest

from repro.memsim import CacheHierarchy, SetAssociativeCache, WritebackTrace
from repro.trace import simulate_sweep_writebacks

FIXTURE = Path(__file__).parent / "data" / "golden_adam_trace.npz"

#: Frozen sweep configuration — Table II shapes scaled down so the
#: access-by-access sweep runs in well under a second while still
#: spilling the LLC.
PARAM_BYTES = 64 * 1337  # deliberately not a line-count power of two
SWEEP_DURATION = 0.125
BASE_ADDRESS = 1 << 20


def golden_hierarchy() -> CacheHierarchy:
    """The exact hierarchy the fixture was generated with."""
    return CacheHierarchy(
        [
            SetAssociativeCache(8 * 2**10, 64, 8, name="L1D"),
            SetAssociativeCache(64 * 2**10, 64, 16, name="L2"),
        ]
    )


def generate() -> WritebackTrace:
    return simulate_sweep_writebacks(
        PARAM_BYTES,
        SWEEP_DURATION,
        golden_hierarchy(),
        base_address=BASE_ADDRESS,
    )


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def golden(self) -> WritebackTrace:
        assert FIXTURE.exists(), (
            f"missing fixture {FIXTURE}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_trace.py --regenerate`"
        )
        return WritebackTrace.load(FIXTURE)

    def test_fixture_sanity(self, golden):
        # Every line of the arena writes back exactly once (linear sweep,
        # flush at the end), all inside the arena, all within the sweep.
        assert len(golden) == PARAM_BYTES // 64
        assert golden.unique_lines == len(golden)
        assert golden.addresses.min() >= BASE_ADDRESS
        assert golden.addresses.max() < BASE_ADDRESS + PARAM_BYTES
        assert golden.times.max() == SWEEP_DURATION

    def test_sweep_reproduces_fixture_exactly(self, golden):
        trace = generate()
        assert trace.times.tobytes() == golden.times.tobytes()
        assert trace.addresses.tobytes() == golden.addresses.tobytes()


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(exist_ok=True)
        generate().save(FIXTURE)
        print(f"wrote {FIXTURE}")
    else:
        sys.exit("run under pytest, or pass --regenerate")
