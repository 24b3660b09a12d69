import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from unobs_lab.rng import normals, philox_raw, substream

U64 = st.integers(0, 2**64 - 1)


def numpy_raw(seed, stream, n_words):
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(n_words)


class TestPhiloxRaw:
    @given(seed=U64, stream=U64, n_words=st.integers(1, 13))
    @example(seed=0, stream=0, n_words=4)
    @example(seed=2**64 - 1, stream=2**64 - 1, n_words=5)
    @example(seed=2**64 - 1, stream=2**40, n_words=9)
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_philox(self, seed, stream, n_words):
        got = philox_raw(seed, [stream], n_words)
        assert got.dtype == np.uint64 and got.shape == (1, n_words)
        assert np.array_equal(got[0], numpy_raw(seed, stream, n_words))

    def test_substream_is_the_same_stream(self):
        got = philox_raw(17, [3], 6)[0]
        assert np.array_equal(got, substream(17, 3).bit_generator.random_raw(6))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="64-bit"):
            philox_raw(seed, [0], 4)
        with pytest.raises(ValueError, match="64-bit"):
            substream(seed, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 1.9, math.nan, math.inf])
    def test_seed_error_names_the_value(self, seed):
        for call in (lambda: philox_raw(seed, [0], 4), lambda: substream(seed, 0)):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"seed = {seed}: not a 64-bit unsigned integer, [0, 2**64 - 1]") + "$"):
                call()

    @pytest.mark.parametrize("stream", [-1, 2**64, 1.5, 1.9, math.nan, math.inf])
    def test_stream_error_names_the_value(self, stream):
        for call in (lambda: philox_raw(7, [0, stream], 4), lambda: substream(7, stream)):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"stream = {stream}: not a 64-bit unsigned integer, [0, 2**64 - 1]") + "$"):
                call()

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_stream_array_is_refused_at_its_bad_entry(self, dtype):
        """A negative or fractional entry of a numpy array is refused, not cast to another stream."""
        bad = -1 if dtype is np.int64 else 2.5
        with pytest.raises(ValueError, match=f"^stream = {bad}: not a 64-bit"):
            philox_raw(7, np.array([3, bad, 4], dtype=dtype), 4)

    @pytest.mark.parametrize("streams", [
        np.array([3, 0, 2**62], dtype=np.int64),
        np.array([3.0, 0.0, 2.0**62]),
        [3, 0, 2**62],
        [3, 2**64 - 1, 0],  # numpy would make this list float64 and lose the last bits
    ], ids=["int64", "float64", "list", "list-past-int64"])
    def test_integral_streams_of_any_type_are_their_streams(self, streams):
        got = philox_raw(7, streams, 5)
        want = philox_raw(7, np.array([int(s) for s in streams], dtype=np.uint64), 5)
        assert np.array_equal(got, want)
        assert np.array_equal(got[1], substream(7, streams[1]).bit_generator.random_raw(5))


class TestBatchIndependence:
    """Row j of a batched call is stream j's own draw, whatever else is in the batch."""

    @pytest.mark.parametrize("n_words", [1, 4, 7])
    def test_raw_rows(self, n_words):
        streams = np.array([5, 0, 2**63 + 11, 2**64 - 1, 123_456_789], dtype=np.uint64)
        batch = philox_raw(2024, streams, n_words)
        for j, s in enumerate(streams.tolist()):
            assert np.array_equal(batch[j], philox_raw(2024, [s], n_words)[0])

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_normal_rows(self, m):
        streams = np.arange(3000)
        batch = normals(99, streams, m)
        assert batch.shape == (3000, m)
        for j in (0, 1, 1234, 2999):
            assert np.array_equal(batch[j], normals(99, [j], m)[0])
            assert np.array_equal(batch[j], normals(99, streams[j:], m)[0])

    def test_shorter_draw_is_a_prefix(self):
        long = normals(8, np.arange(50), 9)
        for m in range(1, 9):
            assert np.array_equal(normals(8, np.arange(50), m), long[:, :m])


class TestNormals:
    def test_box_muller_map(self):
        w = philox_raw(3, [7], 2)[0]
        u1, u2 = (w >> np.uint64(11)) * 2.0**-53
        r = np.sqrt(-2.0 * np.log1p(-u1))
        want = [r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)]
        assert np.array_equal(normals(3, [7], 2)[0], want)

    def test_ks_against_standard_normal(self):
        z = normals(20240817, np.arange(40_000), 5)
        assert np.all(np.isfinite(z))
        assert stats.kstest(z.ravel(), "norm").pvalue > 1e-3
        # the cosine and sine halves of each pair are each N(0, 1)
        for half in (z[:, 0::2], z[:, 1::2]):
            assert stats.kstest(half.ravel(), "norm").pvalue > 1e-3

    def test_pair_halves_uncorrelated(self):
        z = normals(5, np.arange(40_000), 2)
        assert abs(np.corrcoef(z[:, 0], z[:, 1])[0, 1]) < 4 / np.sqrt(40_000)
