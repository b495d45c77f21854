"""Argument checks shared by every public constructor."""

from __future__ import annotations

import numbers

__all__ = ["check_int"]


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is an integer
    (NumPy's included, ``bool`` not) of at least ``minimum``.

    A fractional count would silently truncate or run as a float, and
    ``True`` would run as 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)
