"""MESI states and per-agent line-state tables.

The protocol state machine itself lives in
:class:`repro.coherence.home_agent.HomeAgent`; this module provides the
state vocabulary and the :class:`PeerCache` bookkeeping structure that
tracks, per cache-line address, the MESI state one agent holds.
"""

from __future__ import annotations

import enum

__all__ = ["MESIState", "PeerCache"]


class MESIState(enum.Enum):
    """The four MESI states (CXL.cache uses hardware-managed MESI)."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    def __str__(self) -> str:  # compact in logs/assertions
        return self.value

    @property
    def can_read(self) -> bool:
        """Whether a cache may satisfy loads from this state."""
        return self is not MESIState.INVALID

    @property
    def can_write(self) -> bool:
        """Whether a cache may absorb stores in this state."""
        return self in (MESIState.MODIFIED, MESIState.EXCLUSIVE)

    @property
    def owns_dirty_data(self) -> bool:
        """Whether this state holds the only up-to-date copy."""
        return self is MESIState.MODIFIED


class PeerCache:
    """Line-state table of one coherence agent (CPU cache or giant cache).

    Lines default to INVALID; only non-invalid lines are stored, so the
    table stays proportional to the working set.
    """

    def __init__(self, name: str):
        self.name = name
        self._states: dict[int, MESIState] = {}

    def state(self, line: int) -> MESIState:
        """MESI state of one line (INVALID when untracked)."""
        return self._states.get(line, MESIState.INVALID)

    def set_state(self, line: int, state: MESIState) -> None:
        """Set a line's state; INVALID removes the entry."""
        if line < 0:
            raise ValueError("line address must be non-negative")
        if state is MESIState.INVALID:
            self._states.pop(line, None)
        else:
            self._states[line] = state

    def lines_in_state(self, state: MESIState) -> list[int]:
        """All line addresses currently in ``state``."""
        return [l for l, s in self._states.items() if s is state]

    @property
    def resident(self) -> int:
        """Number of non-invalid lines."""
        return len(self._states)

    def __repr__(self) -> str:
        return f"PeerCache({self.name!r}, resident={self.resident})"
