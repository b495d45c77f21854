"""Argument checks shared by every public constructor."""

from __future__ import annotations

import numbers

from repro.utils.units import Bandwidth

__all__ = ["check_bandwidth", "check_int"]


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


def check_bandwidth(name: str, value) -> None:
    """``ValueError`` unless ``value`` is a :class:`Bandwidth`.

    A bare float would construct and fail only at its first transfer,
    with an ``AttributeError`` far from the typo.
    """
    if not isinstance(value, Bandwidth):
        raise ValueError(f"{name} must be a Bandwidth, got {value!r}")
