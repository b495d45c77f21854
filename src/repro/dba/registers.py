"""The DBA configuration register (Section V-B).

"The DBA register has four bits: the most significant bit for indicating
the activation and the remaining three bits for setting the dirty byte
length (0 to 4 bytes).  For example ... the DBA register is set to 1010_2"
— enabled with 2 dirty bytes.

The DL framework programs this register through the CXL configuration
interface; the CXL host agent forwards its value to the accelerator-side
module to activate disaggregation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

__all__ = ["DBARegister", "check_dirty_bytes"]


def check_dirty_bytes(dirty_bytes) -> int:
    """``dirty_bytes`` as an ``int``; ``ValueError`` unless it is an
    integer (not ``bool``) in 1..4 — the rule for every DBA setting."""
    if (
        isinstance(dirty_bytes, bool)
        or not isinstance(dirty_bytes, numbers.Integral)
        or not 1 <= dirty_bytes <= 4
    ):
        raise ValueError(
            f"dirty_bytes must be an integer in 1..4, got {dirty_bytes!r}"
        )
    return int(dirty_bytes)


@dataclass(frozen=True)
class DBARegister:
    """Four-bit DBA register: 1 enable bit + 3-bit dirty-byte length."""

    enabled: bool = False
    dirty_bytes: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.dirty_bytes <= 4:
            raise ValueError("dirty_bytes must be in [0, 4]")
        if self.enabled and self.dirty_bytes == 0:
            raise ValueError("enabled DBA requires dirty_bytes >= 1")

    def encode(self) -> int:
        """Pack into the 4-bit hardware encoding (MSB = enable)."""
        return (int(self.enabled) << 3) | self.dirty_bytes

    @classmethod
    def decode(cls, value: int) -> "DBARegister":
        """Unpack a 4-bit register value."""
        if not 0 <= value <= 0b1111:
            raise ValueError(f"register value {value:#06b} out of 4-bit range")
        enabled = bool(value >> 3)
        dirty = value & 0b111
        if dirty > 4:
            raise ValueError(f"dirty-byte field {dirty} exceeds word size")
        return cls(enabled=enabled, dirty_bytes=dirty)

    @property
    def effective_dirty_bytes(self) -> int:
        """Bytes per word actually sent: full word when DBA is off."""
        return self.dirty_bytes if self.enabled else 4

    @property
    def payload_fraction(self) -> float:
        """Fraction of the full line carried on the wire."""
        return self.effective_dirty_bytes / 4

    @classmethod
    def paper_default(cls) -> "DBARegister":
        """``1010_2``: enabled, 2 dirty bytes — the running example."""
        return cls(enabled=True, dirty_bytes=2)
