import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from unobs_lab.special import MAXLOG, ndtr


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def assert_bit_equal(a):
    a = np.asarray(a, dtype=float)
    got, want = bits(ndtr(a)), bits(special.ndtr(a))
    wrong = np.flatnonzero(got != want)
    assert wrong.size == 0, (a.ravel()[wrong[:5]], want[wrong[:5]], got[wrong[:5]])


def around(x: float, k: int = 40) -> list[float]:
    """x and its k float neighbours on each side, with both signs."""
    up, down = [x], [x]
    for _ in range(k):
        up.append(math.nextafter(up[-1], math.inf))
        down.append(math.nextafter(down[-1], 0.0))
    return [s * v for s in (1.0, -1.0) for v in up + down]


# branch edges of x = a/sqrt(2): sqrt(1/2), 1 and 8, and the MAXLOG underflow
EDGES = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG)]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
           math.inf, -math.inf, math.nan, 1.7976931348623157e308, -1.7976931348623157e308]


class TestNdtrBits:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(0, 50), elements=st.floats(width=64)))
    @example(np.array(SPECIAL))
    def test_any_float(self, a):
        assert_bit_equal(a)

    @pytest.mark.parametrize("edge", EDGES)
    def test_branch_edges(self, edge):
        assert_bit_equal(around(edge))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-40.0, 40.0))
    def test_around_a_point(self, x):
        assert_bit_equal(around(x, 8))

    @pytest.mark.parametrize("scale", [1.0, 15.0])
    def test_a_million_normals(self, scale):
        assert_bit_equal(scale * np.random.default_rng(4).standard_normal(1_000_000))

    def test_a_grid_over_every_branch(self):
        assert_bit_equal(np.linspace(-45.0, 45.0, 200_001))


class TestNdtrArrays:
    def test_in_place_over_several_blocks(self):
        a = np.random.default_rng(5).standard_normal(65_539)
        want = special.ndtr(a)
        assert ndtr(a, out=a) is a
        assert bits(a).tolist() == bits(want).tolist()

    @pytest.mark.parametrize("shape", [(), (0,), (3, 4), (2, 32_768)])
    def test_shapes(self, shape):
        a = np.random.default_rng(6).standard_normal(shape)
        out = ndtr(a)
        assert out.shape == a.shape
        assert bits(out).tobytes() == bits(special.ndtr(a)).tobytes()

    def test_input_is_left_alone(self):
        a = np.array([-3.0, 0.1, 9.0])
        ndtr(a)
        assert a.tolist() == [-3.0, 0.1, 9.0]
