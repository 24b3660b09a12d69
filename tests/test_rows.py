"""write_rows writes each row's cells joined by ",", with the bytes of Python's %."""

import io
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact import expected
from unobs_lab import rows
from unobs_lab.cs import write_rows
from unobs_lab.model_core import Dataset, write_dataset_csv
from unobs_lab.rows import CHUNK, Runs, cells


def written(tmp_path, *columns) -> str:
    """What write_rows gives, through a text handle and through a path alike."""
    buf = io.StringIO()
    write_rows(buf, "head\n", *columns)
    path = tmp_path / "rows.txt"
    write_rows(path, "head\n", *columns)
    assert path.read_bytes() == buf.getvalue().encode()
    assert buf.getvalue().startswith("head\n")
    return buf.getvalue()[len("head\n"):]


def assert_g17(tmp_path, x):
    x = np.asarray(x, dtype=np.float64)
    got, want = written(tmp_path, x).split("\n"), expected("%.17g\n", x).split("\n")
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, bad[:5]
    assert got == want


def powers_of_ten():
    with np.errstate(over="ignore"):
        p = 10.0 ** np.arange(-323, 309)
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


class TestG17:
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @example([0, 2**63, 1, 2**52, 0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0x7FF8000000000000])
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, tmp_path_factory, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert_g17(tmp_path_factory.mktemp("g17"), x)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_any_float(self, tmp_path_factory, values):
        assert_g17(tmp_path_factory.mktemp("g17"), values)

    def test_zeros_subnormals_and_extremes(self, tmp_path):
        tiny = np.array([1, 2, 3, 12345, 2**52 - 1], dtype=np.uint64).view(np.float64)
        x = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
             1.7976931348623157e308, 1e-280, 1e280, 9.99e-281, 1.001e280, *tiny]
        assert_g17(tmp_path, np.concatenate([x, np.negative(x)]))

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        p = powers_of_ten()
        assert_g17(tmp_path, np.concatenate([p, -p]))

    def test_fixed_to_exponent_switch_points(self, tmp_path):
        x = np.array([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 99999999999999999.0])
        near = [np.nextafter(x, 0), np.nextafter(x, np.inf)]
        for _ in range(3):
            near += [np.nextafter(near[-2], 0), np.nextafter(near[-1], np.inf)]
        assert_g17(tmp_path, np.concatenate([x, *near]))

    def test_exact_ties_round_half_to_even(self, tmp_path):
        above_1e9 = 1e9 + np.arange(1, 4000) * 2.0**-8  # x * 10^7: halves, often ties
        above_2p53 = 2.0**53 * (1 + np.arange(1, 4000) * 2.0**-52)  # 16-digit integers
        big = np.arange(1, 4000) * 2.0**10 + 2.0**60  # 19 digits: no tie is possible
        assert written(tmp_path, [1e15 + 0.25]) == "1000000000000000.2\n"
        assert written(tmp_path, [1e15 + 0.75]) == "1000000000000000.8\n"
        assert_g17(tmp_path, np.concatenate([above_1e9, above_2p53, big]))

    def test_near_ties_that_are_not_exact(self, tmp_path):
        """x in [1, 2) with x * 1e16 = k + 1/2 + t / 2^36: settled by Python, t = 0 too."""
        inv = pow(5**16, -1, 2**36)
        x = [1 + ((2**35 + t) * inv % 2**36) / 2**52 for t in (-68, -1, 0, 1, 68)]
        for v, t in zip(x, (-68, -1, 0, 1, 68)):
            assert Fraction(v) * 10**16 % 1 == Fraction(1, 2) + Fraction(t, 2**36)
        assert_g17(tmp_path, x + [-v for v in x])

    def test_five_powers_times_two_powers(self, tmp_path):
        x = [5.0**k * 2.0**j * m for k in range(23) for j in range(-90, 90) for m in (1, 3, -7)]
        assert_g17(tmp_path, x)

    # 17 digits as five groups, 1 + 4 * 4: the last four, three, two or one groups are
    # zero, a middle one is, or none is
    ZERO_GROUPS = [1.5, 0.5, 100.0, 1.2345, 1.23456789, 1.234567890123, 1e15 + 0.25,
                   1.0000000012345, 1.0000123400000001, 1.2345678901234567]

    def test_one_layout_per_chunk(self, tmp_path):
        """A chunk of one exponent and sign is not sorted; a cell Python writes makes it mixed."""
        x = 1 + np.arange(CHUNK) * 2.0**-40  # all of X = 0, positive, no two equal
        ones = [v for v in self.ZERO_GROUPS if 1 <= v < 2]
        x[: len(ones)] = ones
        assert_g17(tmp_path, x)
        assert_g17(tmp_path, -x)
        near_tie = 1 + ((2**35 + 1) * pow(5**16, -1, 2**36) % 2**36) / 2**52
        for odd in (np.inf, near_tie):
            assert_g17(tmp_path, np.concatenate([x[:100], [odd], x[100 : CHUNK - 1]]))
        ties = 1e15 + np.arange(CHUNK) * 0.125  # all of X = 15: x * 10 = 1e16 + 1.25k
        assert not rows._digits17(ties)[2][2::4].any()  # exact ties, such as 1e15 + 0.25
        assert_g17(tmp_path, ties)

    def test_trailing_zero_groups(self, tmp_path):
        """Gm strips the last nonzero group only; the groups after it are all DROP."""
        x = np.array(self.ZERO_GROUPS)
        for scale in (1.0, 1e-3, 1e10, 1e-10, 1e20):  # ddd.ddd, 0.000ddd, d.ddde+XX
            assert_g17(tmp_path, x * scale)  # one layout where the exponents agree
            assert_g17(tmp_path, np.concatenate([x * scale, -x, x * 1e-7]))  # mixed

    def test_empty_float_column(self, tmp_path):
        assert written(tmp_path, np.array([], dtype=np.float64)) == ""
        assert cells(np.array([], dtype=np.float64)).shape == (0, 0)

    def test_chunk_boundary_between_paths(self, tmp_path):
        """CHUNK + 1 rows: a one-layout chunk, then a mixed one, and the other way round."""
        x = 10 + np.arange(CHUNK + 1) * 2.0**-30
        y = x.copy()
        y[-1] = -1e-300  # below 1e-280: written by Python
        z = np.concatenate([[np.nan], x[1:]])
        for v in (y, z):
            assert_g17(tmp_path, v)

    def test_integer_column(self, tmp_path):
        """An integer column is %d, so it keeps digits %.17g would round away."""
        v = np.array([0, 1, -1, 2**53 + 1, -(2**62), 123456789012345678])
        assert written(tmp_path, v) == expected("%d\n", v) != expected("%.17g\n", v)


class TestD:
    def test_signs_zero_and_int64_extremes(self, tmp_path):
        v = np.array([0, 1, -1, 9, 10, -10, 9999, 10000, -10001, 2**63 - 1, -(2**63)])
        assert written(tmp_path, v) == expected("%d\n", v)

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_any_int64(self, tmp_path_factory, values):
        v = np.array(values, dtype=np.int64)
        assert written(tmp_path_factory.mktemp("d"), v) == expected("%d\n", v)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint32, bool])
    def test_narrow_integer_types(self, tmp_path, dtype):
        v = np.arange(-5, 300).astype(dtype)
        assert written(tmp_path, v) == expected("%d\n", v)


class TestS:
    def test_non_ascii_empty_and_nul(self, tmp_path):
        ids = ["a", "ü", "日本語", "", "x\x00", "\x00", "\U0001F600z", "c,1"]
        assert written(tmp_path, ids, np.arange(8) / 3) == expected(
            "%s,%.17g\n", ids, np.arange(8) / 3
        )

    def test_any_text(self, tmp_path):
        ids = ["é" * k + str(k) for k in range(50)] + [" x ", "%d", "\t"]
        assert written(tmp_path, ids) == expected("%s\n", ids)

    def test_object_array_and_numbers(self, tmp_path):
        ids = np.repeat(np.array(["c1", "größe", 7, 0.1], dtype=object), 3)
        assert written(tmp_path, ids) == expected("%s\n", ids)


class TestTemplate:
    """The row layout: each column's cell, joined by "," and ended by "\n"."""

    # Boundaries of the first chunk and of the eighth, where a write spans many chunks.
    @pytest.mark.parametrize(
        "n", [CHUNK - 1, CHUNK, CHUNK + 1, 8 * CHUNK - 1, 8 * CHUNK, 8 * CHUNK + 1]
    )
    def test_chunk_boundaries(self, tmp_path, n):
        rng = np.random.default_rng(n)
        x = rng.standard_cauchy(n) ** 3
        k = rng.integers(-(10**12), 10**12, n)
        ids = [f"ü{i % 97}" for i in range(n)]
        assert written(tmp_path, ids, k, x) == expected("%s,%d,%.17g\n", ids, k, x)

    def test_head_only(self, tmp_path):
        assert written(tmp_path) == ""
        assert written(tmp_path, np.array([])) == ""

    def test_literal_row_parts(self, tmp_path):
        """The only literal text of a row is a "," between cells and the "\n" after."""
        x = np.array([0.5, -2.0])
        assert written(tmp_path, x) == "0.5\n-2\n"
        assert written(tmp_path, x, x, x) == "0.5,0.5,0.5\n-2,-2,-2\n"

    def test_column_kind_picks_the_conversion(self, tmp_path):
        cols = (
            np.array([True, False]), [3, -4], np.array([7, 8], dtype=np.uint8),
            [0.1, 2.0], np.array([0.1, 1e30], dtype=np.float32), ("a", "b"),
            np.array(["ü", "日本"]), np.array([1, "x"], dtype=object), [2**70, -(2**70)],
        )
        row = "%d,%d,%d,%.17g,%.17g,%s,%s,%s,%s\n"
        assert written(tmp_path, *cols) == expected(row, *cols)


class TestTables:
    """The formatter's cached tables, against the plain constructions they replace."""

    def test_quads(self):
        d = np.arange(10_000)
        digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1)
        nonzero = digits != 0
        upto_last = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
        from_first = np.logical_or.accumulate(nonzero, axis=1)
        text = digits + ord("0")
        keeps = (upto_last, from_first, from_first | (np.arange(4) == 3))
        styles = [text] + [np.where(k, text, rows.DROP) for k in keeps]
        want = np.concatenate(styles).astype(np.uint8)
        got = rows._quads()
        assert got.dtype == np.uint32 and not got.flags.writeable
        assert np.array_equal(got.view(np.uint8).reshape(-1, 4), want)

    def test_powers(self):
        hi, lo = [], []
        for s in range(16 - rows.EXP_MAX - 1, 16 - rows.EXP_MIN + 2):
            if s >= 0:
                hi.append(float(10**s))
                lo.append(float(10**s - int(hi[-1])))
            else:  # 1/q - a/b, correctly rounded by int true division
                q = 10**-s
                hi.append(1 / q)
                a, b = hi[-1].as_integer_ratio()
                lo.append((b - a * q) / (b * q))
        hi = np.array(hi)
        c = hi * rows.SPLIT
        high = c - (c - hi)
        for got, want in zip(rows._powers(), (hi, np.array(lo), high, hi - high), strict=True):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable


def bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


# run lengths around the chunk boundaries, and short ones
run_lengths = st.sampled_from([1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1])
FLOATS = [0.0, -0.0, 1.0, 0.1, -2.5e-300, 1e300, np.inf,
          *bits(0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000)]
OBJECTS = [1, 1.0, True, 0, 0.0, False, "1", "ab", "".join(["a", "b"])]


@st.composite
def run_columns(draw, values, n):
    """A column of n rows made of runs of draws from values."""
    out = []
    while len(out) < n:
        out += [draw(st.sampled_from(values))] * draw(run_lengths)
    return out[:n]


class TestRuns:
    """Runs of equal cells are formatted once and repeated: the bytes stay %'s."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_long_runs_against_per_row_reference(self, tmp_path_factory, data):
        ids = data.draw(st.lists(st.text(min_size=0, max_size=4), min_size=1, max_size=4))
        counts = data.draw(st.lists(run_lengths, min_size=len(ids), max_size=len(ids)))
        n = sum(counts)
        x = np.array(data.draw(run_columns(FLOATS, n)))
        k = np.array(data.draw(run_columns([0, -1, 10**12, -(2**63)], n)))
        objects = np.array(data.draw(run_columns(OBJECTS, n)) + [None], dtype=object)[:-1]
        expanded = [i for i, c in zip(ids, counts) for _ in range(c)]
        got = written(tmp_path_factory.mktemp("runs"), Runs(cells(ids), counts), x, k, objects)
        assert got == expected("%s,%.17g,%d,%s\n", expanded, x, k, objects)

    def test_zero_and_its_negative_stay_apart(self, tmp_path):
        x = np.repeat([0.0, -0.0, 0.0, -0.0], [CHUNK, 3, 1, CHUNK])
        assert written(tmp_path, x) == expected("%.17g\n", x)

    def test_nans_of_other_payloads_are_other_runs(self):
        x = bits(*[0x7FF8000000000000] * 3, 0x7FF8000000000001, 0xFFF8000000000000)
        assert b"".join(rows.lines([x, x.view(np.int64)])).split(b"\n")[2:5] == [
            b"nan,9221120237041090560", b"nan,9221120237041090561",
            b"nan,-2251799813685248"]

    def test_objects_equal_by_eq_keep_their_own_text(self, tmp_path):
        v = np.array([1, 1.0, True, 1, 1.0, True] * 3, dtype=object)
        assert written(tmp_path, v) == "1\n1.0\nTrue\n" * 6

    def test_runs_column_counts(self, tmp_path):
        """counts may be one int or one per row, zeros included; the length is their sum."""
        ids = ["a", "ü", "", "x,y"]
        assert written(tmp_path, Runs(cells(ids), 2)) == "a\na\nü\nü\n\n\nx,y\nx,y\n"
        assert written(tmp_path, Runs(cells(ids), [0, 1, 3, 0]), [1, 2, 3, 4]) == (
            "ü,1\n,2\n,3\n,4\n")
        assert written(tmp_path, Runs(cells([]), 3)) == ""

    @pytest.mark.parametrize("column", [
        np.ones(CHUNK + 5),  # an intercept
        np.full(3, -0.0),  # one "-0" cell
        np.ones(2 * CHUNK, dtype=np.int64),  # the units of clusters of size 1
        bits(*[0xFFF8000000000000] * 4),  # one NaN payload
    ])
    def test_declared_run_of_one_cell(self, tmp_path, column):
        """Runs(cells(col[:1]), len(col)), as write_dataset_csv declares a constant column,
        writes the column's own bytes."""
        row = "%d\n" if column.dtype.kind == "i" else "%.17g\n"
        assert written(tmp_path, Runs(cells(column[:1]), len(column))) == expected(row, column)
        assert written(tmp_path, column) == expected(row, column)

    def test_cells_of_a_column(self):
        """One row per value, padded with DROP to the longest; CHUNK rows at a time."""
        ids = [f"ü{i}" for i in range(CHUNK + 5)] + ["long" * 9]
        got = cells(ids)
        assert got.shape == (len(ids), 36) and got.dtype == np.uint8
        assert [r.tobytes().replace(b"\xff", b"").decode() for r in got] == ids

    def test_write_holds_a_chunk_and_the_id_cells(self, tmp_path):
        """At 1e5 clusters the peak is the units, the id cells and a chunk, not ids per row."""
        K, size = 100_000, 4
        ids = [f"cluster-{k:012d}" for k in range(K)]  # 20 bytes: 8 MB over every row
        data = Dataset(np.linspace(-1, 1, K * size), np.ones((K * size, 1)), np.full(K, size), ids)
        tracemalloc.start()
        try:
            write_dataset_csv(data, tmp_path / "data.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        units, id_cells = 8 * K * size, data.id_cells.nbytes
        assert id_cells == 20 * K
        assert peak < units + 2 * id_cells + 512 * CHUNK  # 512 bytes a row of a chunk


def filling(out, values, step, fail=None):
    """A fill: values copied into out step rows at a time, each step's end yielded;
    fail, if given, is raised once that many rows are final."""
    for start in range(0, len(values), step):
        stop = min(start + step, len(values))
        out[start:stop] = values[start:stop]
        if fail is not None and stop >= fail:
            raise ArithmeticError(f"failed at row {stop}")
        yield stop


class TestFill:
    """write_rows(..., fill=...) formats the rows fill has made final while fill runs in one
    worker thread, and writes nothing until fill has ended without error."""

    N = 3 * CHUNK + 7

    def values(self):
        rng = np.random.default_rng(3)
        return np.arange(self.N), rng.standard_cauchy(self.N)

    @pytest.mark.parametrize("step", [1000, CHUNK, 5 * CHUNK])
    @pytest.mark.parametrize("hold", [rows.HOLD, 1])
    def test_bytes_of_the_filled_columns(self, tmp_path, monkeypatch, step, hold):
        """hold = 1: formatting waits for fill's end after the first chunk."""
        monkeypatch.setattr(rows, "HOLD", hold)
        k, x = self.values()
        want = "head\n" + expected("%d,%.17g\n", k, x)
        threads = threading.active_count()
        out = np.empty(self.N)
        buf = io.StringIO()
        write_rows(buf, "head\n", k, out, fill=filling(out, x, step))
        assert buf.getvalue() == want
        out = np.empty(self.N)
        write_rows(tmp_path / "rows.txt", "head\n", k, out, fill=filling(out, x, step))
        assert (tmp_path / "rows.txt").read_bytes() == want.encode()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("fail", [1, CHUNK + 1, 3 * CHUNK])
    def test_error_of_fill_is_raised_and_nothing_written(self, tmp_path, fail):
        k, x = self.values()
        threads = threading.active_count()
        keep, missing = tmp_path / "keep.txt", tmp_path / "missing.txt"
        keep.write_bytes(b"kept\n")
        for dest in (io.StringIO(), keep, missing):
            out = np.empty(self.N)
            with pytest.raises(ArithmeticError, match=r"^failed at row \d+$"):
                write_rows(dest, "head\n", k, out, fill=filling(out, x, 1000, fail))
            if isinstance(dest, io.StringIO):
                assert dest.getvalue() == ""
        assert keep.read_bytes() == b"kept\n" and not missing.exists()
        assert threading.active_count() == threads

    def test_error_here_stops_the_worker(self, tmp_path):
        """A cell that cannot be formatted stops fill at its next value; the file the worker
        has not opened yet is not made."""
        class Bad:
            def __str__(self):
                raise ValueError("no text")

        steps = []

        def endless(n):
            for i in range(10**7):
                steps.append(i)
                yield n

        threads = threading.active_count()
        path = tmp_path / "rows.txt"
        with pytest.raises(ValueError, match="^no text$"):
            write_rows(path, "", np.array([Bad()] * 5, dtype=object), fill=endless(5))
        assert threading.active_count() == threads
        assert len(steps) < 10**7 and not path.exists()

    def test_no_fill_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        k, x = self.values()
        assert written(tmp_path, k, x) == expected("%d,%.17g\n", k, x)
