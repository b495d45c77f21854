"""GELU's one-pass fast path is bit-identical to the two-pass formula.

``functional._cube`` replaces ``d ** 3`` inside GELU, and the backward
pass reuses the forward ``tanh``.  Every functional result hash depends on
those bits, so the checks here compare with ``view(np.uint32)`` equality,
never a tolerance.  The exhaustive version of the cube sweep is
``benchmarks/check_gelu_cube.py`` (``make check-cube``).
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.tensor import Tensor, functional as F
from repro.tensor.functional import _GELU_COEF, _SQRT_2_OVER_PI, _cube

_SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "check_gelu_cube.py"
_spec = importlib.util.spec_from_file_location("_check_gelu_cube", _SCRIPT)
CHECK_CUBE = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(CHECK_CUBE)


def _gelu_reference(d):
    """The two-pass GELU: forward and input-gradient factor, each with its
    own ``d ** 3`` and ``tanh``."""
    inner = _SQRT_2_OVER_PI * (d + _GELU_COEF * d**3)
    y = 0.5 * d * (1.0 + np.tanh(inner))
    inner = _SQRT_2_OVER_PI * (d + _GELU_COEF * d**3)
    t = np.tanh(inner)
    dinner = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_COEF * d**2)
    dydx = 0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * dinner
    return np.asarray(y, dtype=np.float32), dydx


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _assert_gelu_bit_exact(d, seed=0):
    g = np.random.default_rng(seed).standard_normal(d.shape).astype(np.float32)
    ref_y, ref_dydx = _gelu_reference(d)
    ref_grad = (g * ref_dydx).astype(np.float32)
    x = Tensor(d, requires_grad=True)
    y = F.gelu(x)
    y.backward(g)
    assert y.shape == d.shape and x.grad.shape == d.shape
    np.testing.assert_array_equal(_bits(y.data), _bits(ref_y))
    np.testing.assert_array_equal(_bits(x.grad), _bits(ref_grad))


def _from_bits(*patterns):
    return np.array(patterns, dtype=np.uint32).view(np.float32)


#: -0.7327 and -0.3636: in an array, NumPy's ``** 3`` of each is one ULP
#: off the correctly rounded cube, so only the slow path reproduces it.
NEAR_TIES = _from_bits(0xBF3BCA7D, 0xBEBA2BBD)

SPECIALS = np.concatenate(
    [
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], dtype=np.float32),
        _from_bits(0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF),  # subnormals
        _from_bits(0x2A800000, 0xAA800000, 0x2A7FFFFF, 0xAA7FFFFF),  # +-2**-42
        _from_bits(0x54800000, 0xD4800000, 0x547FFFFF, 0xD47FFFFF),  # +-2**42
        NEAR_TIES,
    ]
)


@pytest.mark.parametrize("scale", [1e-30, 1e-3, 0.5, 1.0, 4.0, 30.0, 1e12])
def test_gelu_bit_exact_random(scale):
    rng = np.random.default_rng(0)
    d = (rng.standard_normal((8, 15, 128)) * scale).astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_gelu_bit_exact(d)


def test_gelu_bit_exact_specials():
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_gelu_bit_exact(SPECIALS)
        rng = np.random.default_rng(1)
        mixed = rng.standard_normal(512).astype(np.float32)
        mixed[rng.choice(512, SPECIALS.size, replace=False)] = SPECIALS
        _assert_gelu_bit_exact(mixed)


@pytest.mark.parametrize(
    "d",
    [
        np.float32(-0.7327),
        np.float32(0.5),
        np.zeros((0,), dtype=np.float32),
        np.zeros((3, 0, 2), dtype=np.float32),
    ],
    ids=["0d-negative", "0d-positive", "empty", "empty-3d"],
)
def test_gelu_bit_exact_degenerate_shapes(d):
    _assert_gelu_bit_exact(np.asarray(d))


def test_gelu_bit_exact_non_contiguous():
    base = np.random.default_rng(2).standard_normal((16, 24)).astype(np.float32)
    d = base.T
    assert not d.flags.c_contiguous
    _assert_gelu_bit_exact(d)
    _assert_gelu_bit_exact(base[::3, 1::2])


def test_near_ties_match_numpy():
    for d in (NEAR_TIES, NEAR_TIES[::-1].copy(), np.tile(NEAR_TIES, 9)):
        np.testing.assert_array_equal(_bits(_cube(d)), _bits(d**3))
    _assert_gelu_bit_exact(NEAR_TIES)


def test_cube_degenerate_shapes():
    for d in (np.asarray(np.float32(-0.7327)), np.zeros((2, 0), np.float32)):
        out = _cube(d)
        assert isinstance(out, np.ndarray) and out.shape == d.shape
        np.testing.assert_array_equal(_bits(out), _bits(d**3))


def test_gelu_backward_reuses_forward(monkeypatch):
    """The backward pass neither cubes nor takes ``tanh`` again."""
    x = Tensor(np.linspace(-3, 3, 64, dtype=np.float32), requires_grad=True)
    y = F.gelu(x).sum()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("recomputed in backward")

    monkeypatch.setattr(F, "_cube", forbidden)
    monkeypatch.setattr(F.np, "tanh", forbidden)
    y.backward()
    assert x.grad is not None and np.all(np.isfinite(x.grad))


#: Magnitude bit patterns of 2**-42 and 2**42: between them the cube is a
#: normal float32 and ``_cube`` takes its fast paths; outside, every
#: negative lane takes ``** 3`` itself, so a coarser sample suffices.
NORMAL_CUBE = (0x2A800000, 0x54800000)


def test_cube_sweep_matches_numpy():
    """``_cube`` equals ``x ** 3`` on every 251st float32 magnitude with a
    normal cube, and every 4093rd elsewhere, each with both signs in
    mixed-sign arrays (``make check-cube`` runs every bit pattern)."""
    assert CHECK_CUBE.count_mismatches(*NORMAL_CUBE, stride=251) == 0
    assert CHECK_CUBE.count_mismatches(stride=4093, seed=1) == 0
