import decimal
import importlib
import io
import math
import os
import pkgutil
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unobs_lab
from unobs_lab.cs import CSMatrix, CsvFormatError, DomainError, validate_cs, write_rows
from unobs_lab.model_core import CSParams, Dataset, gls_mean, read_dataset_csv, write_dataset_csv


def intercept_dataset(clusters):
    """Intercept-only Dataset from {cluster id: y values}."""
    y = np.concatenate([np.asarray(v, dtype=float) for v in clusters.values()])
    return Dataset(y, np.ones((len(y), 1)), [len(v) for v in clusters.values()], list(clusters))


# ---------------------------------------------------------------------------
# CSMatrix
# ---------------------------------------------------------------------------


class TestCSMatrix:
    def test_array_is_dense_cs(self):
        m = CSMatrix(2, 2.0, 1.0)
        assert (m.n, m.lam, m.phi) == (2, 2.0, 1.0)
        assert np.array_equal(m.array, [[3.0, 2.0], [2.0, 3.0]])
        with pytest.raises(AttributeError):
            m.lam = 0.0

    def test_rejects_size_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            CSMatrix(0, 1.0, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 64),
        lam=st.one_of(
            st.sampled_from([0.0, -0.0, -1.0, -1e-300, 5e-324, -5e-324]),
            st.floats(min_value=-1e300, max_value=1e300),
        ),
        phi=st.floats(min_value=5e-324, max_value=1e300),
    )
    def test_flat_has_the_bits_of_array(self, n, lam, phi):
        """Built in plain Python, yet bit for bit numpy's lam*J + phi*I, -0.0 included."""
        got = CSMatrix(n, lam, phi).flat()
        want = CSMatrix(n, lam, phi).array.ravel().tolist()
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want]


# phi + n*lam runs over phi * 10**[-6, 6]: from just above lam = -phi/n to large
ROOT_CASES = dict(n=st.integers(1, 50), phi=st.floats(1e-3, 1e3), k=st.floats(-6, 6))


def root_case(n, phi, k):
    """(matrix, least eigenvalue, scale) with phi + n*lam = phi*10**k.

    The scale is the largest eigenvalue, or phi if larger: at n = 1 phi is no
    eigenvalue, yet the root's parts are of size sqrt(phi).
    """
    m = CSMatrix(n, phi * (10.0**k - 1.0) / n, phi)
    big = m.phi + n * m.lam
    return m, min(big, phi) if n > 1 else big, max(big, phi)


class TestCSMatrixSqrt:
    @settings(max_examples=200, deadline=None)
    @given(**ROOT_CASES)
    def test_root_squares_to_the_matrix(self, n, phi, k):
        m, _, top = root_case(n, phi, k)
        r = m.sqrt()
        assert isinstance(r, CSMatrix) and r.n == n
        np.testing.assert_allclose(r.array @ r.array, m.array, rtol=0, atol=1e-14 * top)

    @settings(max_examples=200, deadline=None)
    @given(**ROOT_CASES)
    def test_root_is_the_symmetric_psd_root_from_eigh(self, n, phi, k):
        """The unique PSD root, U sqrt(W) U', up to eigh's error on the least eigenvalue."""
        m, low, top = root_case(n, phi, k)
        w, u = np.linalg.eigh(m.array)
        want = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
        eps = np.finfo(float).eps
        atol = 4 * n * eps * (top / math.sqrt(low) + math.sqrt(top) + math.sqrt(phi))
        np.testing.assert_allclose(m.sqrt().array, want, rtol=0, atol=atol)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 50),
        lam=st.one_of(st.sampled_from([0.0, -0.0, -0.25, -1.0]), st.floats(-10, 10)),
        phi=st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1e-300]), st.floats(-10, 10)),
    )
    def test_refuses_exactly_a_negative_eigenvalue(self, n, lam, phi):
        m = CSMatrix(n, lam, phi)
        if phi < 0 or phi + n * lam < 0:
            with pytest.raises(DomainError, match=rf"n = {n} is not PSD: eigenvalue"):
                m.sqrt()
        else:
            r = m.sqrt()
            assert r.phi == math.sqrt(phi) and math.isfinite(r.lam)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 50),
        phi=st.floats(1e-3, 1e3),
        k=st.floats(-300, -4),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_off_diagonal_keeps_its_digits_when_lam_is_small(self, n, phi, k, sign):
        """(sqrt(phi + n*lam) - sqrt(phi))/n would cancel; the root keeps ~1 ulp."""
        lam = sign * phi * 10.0**k
        with decimal.localcontext(decimal.Context(prec=800)):
            dphi = decimal.Decimal(phi)
            want = float(((dphi + n * decimal.Decimal(lam)).sqrt() - dphi.sqrt()) / n)
        got = CSMatrix(n, lam, phi).sqrt().lam
        assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)

    @pytest.mark.parametrize(
        "n, lam, phi", [(2, 1.7e308, 1e-320), (3, 1e308, 1.0), (64, 1.7e308, 1.7e308)]
    )
    def test_big_eigenvalue_past_the_floats(self, n, lam, phi):
        """phi + n*lam overflows, its root does not: the root is still the matrix's."""
        with decimal.localcontext(decimal.Context(prec=50)):
            dphi = decimal.Decimal(phi)
            want = float(((dphi + n * decimal.Decimal(lam)).sqrt() - dphi.sqrt()) / n)
        got = CSMatrix(n, lam, phi).sqrt().lam
        assert abs(got - want) <= 4 * np.finfo(float).eps * want

    def test_singular_and_zero_matrices(self):
        assert CSMatrix(4, -0.25, 1.0).sqrt() == (4, -0.25, 1.0)  # least eigenvalue 0
        assert CSMatrix(3, 0.0, 0.0).sqrt() == (3, 0.0, 0.0)
        assert CSMatrix(2, 8.0, 0.0).sqrt() == (2, 2.0, 0.0)


def test_every_exported_name_is_defined_where_it_is_exported():
    """Each public name has one home: no module's __all__ lists a name defined elsewhere."""
    modules = [unobs_lab] + [importlib.import_module(f"unobs_lab.{m.name}")
                             for m in pkgutil.iter_modules(unobs_lab.__path__)]
    assert {"unobs_lab.cs", "unobs_lab.model_core"} <= {m.__name__ for m in modules}
    aliases = [(module.__name__, name) for module in modules
               for name in getattr(module, "__all__", ())
               if getattr(getattr(module, name), "__module__", module.__name__) != module.__name__]
    assert aliases == []


# ---------------------------------------------------------------------------
# CSMatrix as the compound-symmetry covariance
# ---------------------------------------------------------------------------


class TestCsCovariance:
    def test_basic(self):
        assert np.array_equal(
            CSMatrix(2, 2.0, 1.0).array, [[3.0, 2.0], [2.0, 3.0]]
        )

    def test_lambda_zero_is_identity_scale(self):
        assert np.array_equal(CSMatrix(3, 0.0, 1.0).array, np.eye(3))

    def test_negative_lambda(self):
        got = CSMatrix(2, -0.4, 1.0).array
        assert np.allclose(got, [[0.6, -0.4], [-0.4, 0.6]], atol=0, rtol=0)
        # eigenvalues 0.2 and 1.0 by hand
        assert np.allclose(sorted(np.linalg.eigvalsh(got)), [0.2, 1.0])

    def test_eigenvalue_structure(self):
        # phi with multiplicity n-1, phi + n*lam once
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            phi = float(rng.uniform(0.2, 3.0))
            lam = float(rng.uniform(-phi / n + 1e-3, 3.0))
            ev = np.sort(np.linalg.eigvalsh(CSMatrix(n, lam, phi).array))
            expect = np.sort(np.array([phi] * (n - 1) + [phi + n * lam]))
            assert np.max(np.abs(ev - expect)) < 1e-12

    def test_eigenvalues_beyond_64(self):
        n, lam, phi = 200, 0.3, 1.7
        ev = np.linalg.eigvalsh(CSMatrix(n, lam, phi).array)
        assert np.allclose(ev[:-1], phi, rtol=1e-12, atol=0)
        assert ev[-1] == pytest.approx(phi + n * lam, rel=1e-12)


# ---------------------------------------------------------------------------
# validate_cs
# ---------------------------------------------------------------------------


class TestValidateCs:
    def test_negative_lambda_ok_for_small_n(self):
        assert validate_cs({2}, -0.4, 1.0) is None

    def test_boundary_excluded(self):
        with pytest.raises(DomainError, match="n = 2"):
            validate_cs({2}, -0.5, 1.0)

    def test_larger_cluster_fails(self):
        with pytest.raises(DomainError, match="n = 3"):
            validate_cs({2, 3}, -0.4, 1.0)

    def test_agrees_with_brute_force_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            phi = float(rng.uniform(-0.5, 2.0))
            lam = float(rng.uniform(-1.0, 1.0))
            sizes = set(rng.integers(1, 9, size=3).tolist())
            try:
                validate_cs(sizes, lam, phi)
                got = True
            except DomainError:
                got = False
            if phi <= 0:
                brute = False
            else:
                brute = all(
                    np.linalg.eigvalsh(CSMatrix(n, lam, phi).array).min() > 0
                    for n in sizes
                )
            assert got == brute

    @pytest.mark.parametrize("n", [0, -3])
    def test_size_below_one_rejected(self, n):
        with pytest.raises(DomainError, match=f"^cluster size n = {n} is not >= 1$"):
            validate_cs({n, 2}, 0.5, 1.0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            validate_cs(set(), 0.0, 1.0)


# ---------------------------------------------------------------------------
# gls_mean
# ---------------------------------------------------------------------------


def dense_gls(data, lam, phi):
    p = data.p
    A = np.zeros((p, p))
    b = np.zeros(p)
    cuts = data.offsets[1:-1]
    for y, X in zip(np.split(data.y, cuts), np.split(data.X, cuts)):
        vinv = np.linalg.inv(np.full((len(y), len(y)), lam) + phi * np.eye(len(y)))
        A += X.T @ vinv @ X
        b += X.T @ vinv @ y
    return np.linalg.solve(A, b)


class TestGlsMean:
    def test_lambda_zero_is_ols_mean(self):
        data = intercept_dataset({"a": [1.0, 2.0], "b": [3.0]})
        assert gls_mean(data, 0.0, 1.0) == pytest.approx([2.0])

    def test_balanced_grand_mean(self):
        data = intercept_dataset({"a": [1.0, 3.0], "b": [0.0, 4.0]})
        for lam, phi in [(0.5, 1.0), (-0.3, 1.0), (2.0, 0.7)]:
            assert gls_mean(data, lam, phi) == pytest.approx([2.0], abs=1e-12)
            assert gls_mean(data, lam, phi) == pytest.approx(
                dense_gls(data, lam, phi), abs=1e-10
            )

    def test_two_singletons(self):
        data = intercept_dataset({"a": [1.0], "b": [5.0]})
        assert gls_mean(data, 0.3, 1.0) == pytest.approx([3.0])

    def test_rank_one_inverse_matches_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = int(rng.integers(1, 4))
            sizes = rng.integers(1, 9, int(rng.integers(3, 7)))
            X = np.column_stack([np.ones(sizes.sum()), rng.normal(size=(sizes.sum(), p - 1))])
            data = Dataset(rng.normal(size=sizes.sum()), X, sizes)
            n_max = int(sizes.max())
            phi = float(rng.uniform(0.3, 2.0))
            lam = float(rng.uniform(-phi / n_max + 1e-2, 2.0))
            got = gls_mean(data, lam, phi)
            assert got == pytest.approx(dense_gls(data, lam, phi), abs=1e-10)

    def test_invalid_params_rejected(self):
        data = intercept_dataset({"a": [1.0, 2.0]})
        with pytest.raises(DomainError):
            gls_mean(data, -0.5, 1.0)


# ---------------------------------------------------------------------------
# Data model invariants
# ---------------------------------------------------------------------------


class TestDataModel:
    def test_cluster_shape_mismatch(self):
        with pytest.raises(ValueError, match="one row per observation"):
            Dataset([1.0, 2.0], np.ones((3, 1)), [2])

    def test_dataset_requires_consistent_p(self):
        with pytest.raises(ValueError, match="covariate_names"):
            Dataset([1.0, 1.0], np.ones((2, 1)), [1, 1], covariate_names=("x1", "x2"))
        with pytest.raises(ValueError, match="one row per observation"):
            Dataset([1.0, 1.0], np.ones(2), [1, 1])

    def test_dataset_nonempty(self):
        with pytest.raises(ValueError):
            Dataset([], np.ones((0, 1)), [])

    def test_csparams_phi_positive(self):
        with pytest.raises(DomainError):
            CSParams(xi=[0.0], lam=0.0, phi=0.0)

    def test_arrays_are_frozen(self):
        data = intercept_dataset({"a": [1.0, 2.0]})
        for column in (data.y, data.X, data.sizes, data.offsets):
            with pytest.raises(ValueError):
                column[0] = 9

    def test_columns_offsets_and_defaults(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = np.array([1.0, 2.0, 0.5, -1.0, 3.0])
        named = Dataset(y, X, [2, 3], ["a", "b"], ["u", "v"])
        plain = Dataset(y, X, [2, 3])
        for d in (named, plain):
            assert d.n_clusters == 2 and d.p == 2
            assert np.array_equal(d.y, y) and np.array_equal(d.X, X)
            assert np.array_equal(d.sizes, [2, 3]) and np.array_equal(d.offsets, [0, 2, 5])
        assert (named.cluster_ids, named.covariate_names) == (("a", "b"), ("u", "v"))
        assert (plain.cluster_ids, plain.covariate_names) == (("c1", "c2"), ("x1", "x2"))
        assert gls_mean(plain, 0.4, 1.1) == pytest.approx(dense_gls(plain, 0.4, 1.1), abs=1e-14)

    @pytest.mark.parametrize("k", [1, 9, 10, 9999, 10_000, 10_001])
    def test_default_id_cells_are_the_ids(self, k):
        """The default ids' cells are made in numpy; they write the ids' own bytes."""
        data = Dataset(np.zeros(k), np.ones((k, 1)), np.ones(k, dtype=np.int64))
        assert "cluster_ids" not in vars(data)  # made when first read, not before
        got = [row.tobytes().replace(b"\xff", b"") for row in data.id_cells]
        assert "cluster_ids" not in vars(data)
        assert got == [f"c{i}".encode() for i in range(1, k + 1)]
        assert data.cluster_ids == tuple(f"c{i}" for i in range(1, k + 1))

    def test_sizes_must_cover_rows(self):
        with pytest.raises(ValueError):
            Dataset([1.0, 2.0], np.ones((2, 1)), [1, 2], ["a", "b"], ["x1"])
        with pytest.raises(ValueError):
            Dataset([1.0, 2.0], np.ones((2, 1)), [2, 0], ["a", "b"], ["x1"])
        with pytest.raises(ValueError, match="one cluster id per cluster"):
            Dataset([1.0, 2.0], np.ones((2, 1)), [1, 1], ["a"])


# ---------------------------------------------------------------------------
# CSV long format
# ---------------------------------------------------------------------------


class TestCsv:
    def test_roundtrip(self, tmp_path):
        data = intercept_dataset({"a": [1.25, -2.5], "b": [0.0, 3.0]})
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        assert back.covariate_names == ("x1",)
        assert back.cluster_ids == data.cluster_ids
        assert np.array_equal(back.sizes, data.sizes)
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.X, data.X)

    def test_unit_column_orders_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("cluster,unit,y,x1\na,2,20,1\na,1,10,1\n")
        data = read_dataset_csv(path)
        assert np.array_equal(data.y, [10.0, 20.0])

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"cluster,unit,y,x1\r\na,1,1.5,1\r\n")
        data = read_dataset_csv(path)
        assert data.y[0] == 1.5

    def test_lone_cr_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"cluster,unit,y,x1\ra,1,1.5,1\ra,2,2.5,1\r")
        data = read_dataset_csv(path)
        assert data.y.tolist() == [1.5, 2.5]

    def test_line_ends_and_blank_lines_give_equal_datasets(self, tmp_path):
        data = intercept_dataset({"a": [1.25, -2.5], "b": [0.0, 3.0, 1e-300]})
        path = tmp_path / "lf.csv"
        write_dataset_csv(data, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        variants = {
            "crlf": "\r\n".join(lines) + "\r\n",
            "cr": "\r".join(lines) + "\r",
            "blank": "\n\n".join(lines) + "\n\n\n",
            "blank-crlf-no-end": "\r\n\r\n".join(lines),
        }
        for name, text in variants.items():
            other = tmp_path / f"{name}.csv"
            other.write_bytes(text.encode("utf-8"))
            back = read_dataset_csv(other)
            assert back.cluster_ids == data.cluster_ids and back.covariate_names == ("x1",)
            assert np.array_equal(back.sizes, data.sizes)
            assert np.array_equal(back.y, data.y) and np.array_equal(back.X, data.X)

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        """A file saved as Excel's "CSV UTF-8" starts with EF BB BF: the same Dataset."""
        data = intercept_dataset({"a": [1.25, -2.5], "b": [0.0, 3.0, 1e-300]})
        path, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_dataset_csv(data, path)
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back = read_dataset_csv(bom)
        assert back.cluster_ids == data.cluster_ids and back.covariate_names == ("x1",)
        assert np.array_equal(back.sizes, data.sizes)
        assert np.array_equal(back.y, data.y) and np.array_equal(back.X, data.X)

    @pytest.mark.parametrize("text,message", [
        ("", "line 1: empty file"),
        ("cluster,y,unit,x1\na,1,1,1\n", "line 1: header must start with 'cluster,unit,y'"),
        ("cluster,unit,y\na,1,1\n", "line 1: no covariate columns x1..xp after 'cluster,unit,y'"),
        ("cluster,unit,y,x1\n\n", "line 2: no data rows"),
        ("cluster,unit,y,x1\na,1,1,1\na,2,1\n", "line 3: expected 4 columns, got 3"),
        ("cluster,unit,y,x1\na,1,1,1\n\na,2,inf,1\n", "line 4: non-finite value"),
        ("cluster,unit,y,x1\na,1,1,1\nb,1,2,1\na,1,3,1\n",
         "line 4: cluster 'a' repeats unit 1 of line 2"),
    ])
    def test_byte_order_mark_keeps_line_numbers(self, tmp_path, text, message):
        """With or without the mark, a refusal names the same line."""
        for name, head in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / f"{name}.csv"
            path.write_bytes(head + text.encode("utf-8"))
            with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
                read_dataset_csv(path)

    @pytest.mark.parametrize("text,message", [
        ("cluster,unit,y,x1", "line 2: no data rows"),
        ("cluster,unit,y,x1\r\n\r\n\r\n", "line 2: no data rows"),
        ("cluster,unit,y,x1\r\r", "line 2: no data rows"),
        ("cluster,unit,y,x1\n \t \n", "line 2: expected 4 columns, got 1"),
        ("   \n\n", "line 1: header must start with 'cluster,unit,y'"),
        ("\n", "line 1: header must start with 'cluster,unit,y'"),
    ])
    def test_files_without_rows_keep_their_messages_as_errors(self, tmp_path, text, message):
        """loadtxt warns on input without data; the reader names the line instead."""
        path = tmp_path / "rowless.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
                read_dataset_csv(path)

    def test_empty_file_names_line_1(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="^line 1: empty file$"):
            read_dataset_csv(path)

    def test_header_only_names_line_2(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("cluster,unit,y,x1\n\n")
        with pytest.raises(CsvFormatError, match="^line 2: no data rows$"):
            read_dataset_csv(path)

    def test_whitespace_only_line_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,unit,y,x1\na,1,1,1\n   \na,2,2,1\n")
        with pytest.raises(CsvFormatError, match="^line 3: expected 4 columns, got 1$"):
            read_dataset_csv(path)

    def test_cluster_ids_are_stripped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("cluster,unit,y,x1\n a,1,1,1\na ,2,2,1\nb,1,3,1\n")
        data = read_dataset_csv(path)
        assert data.cluster_ids == ("a", "b")
        assert data.sizes.tolist() == [2, 1]

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,unit,y,x1\na,1,1,1\na,2,2\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_dataset_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,unit,y,x1\na,1,oops,1\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_dataset_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,y\n1,2\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            read_dataset_csv(path)

    def test_no_covariate_column_names_line_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,unit,y\na,1,1\na,2,2\nb,1,3\nb,2,5\n")
        with pytest.raises(CsvFormatError, match="line 1: no covariate columns x1..xp"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"cluster,unit,y,x1\na,1,1,1\n\na,2,2,{cell}\nb,1,3,1\n")
        with pytest.raises(CsvFormatError, match="line 4: non-finite"):
            read_dataset_csv(path)

    def test_duplicate_unit_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,unit,y,x1\na,1,1,1\nb,1,2,1\na,2,3,1\nb,1,4,1\n")
        with pytest.raises(CsvFormatError, match="line 5: cluster 'b' repeats unit 1 of line 3"):
            read_dataset_csv(path)

    def test_duplicate_unit_in_sorted_file_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cluster,unit,y,x1\na,1,1,1\na,1,2,1\nb,1,3,1\n")
        with pytest.raises(CsvFormatError, match="line 3: cluster 'a' repeats unit 1 of line 2"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("ids", [
        ("a", "ü", "日本語", "\U0001F600"),  # custom and non-ASCII
        ("c1", "c11", "c1_1", "1", "1.0", "True", "c01", "C1"),  # alike, or like numbers
        None,  # the default c1, c2, ...
    ])
    def test_ids_round_trip(self, tmp_path, ids):
        """Each id is encoded once and repeated over its cluster's rows, units 1..size."""
        k = 8 if ids is None else len(ids)
        sizes = np.arange(k) % 3 + 1
        rng = np.random.default_rng(k)
        data = Dataset(rng.standard_normal(sizes.sum()), rng.standard_normal((sizes.sum(), 2)),
                       sizes, ids)
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        text = path.read_text(encoding="utf-8")
        assert text == "cluster,unit,y,x1,x2\n" + "".join(
            "%s,%d,%.17g,%.17g,%.17g\n" % (cid, u + 1, y, *x)
            for cid, lo, n in zip(data.cluster_ids, data.offsets, data.sizes)
            for u, y, x in zip(range(n), data.y[lo:].tolist(), data.X[lo:].tolist()))
        back = read_dataset_csv(path)
        assert back.cluster_ids == data.cluster_ids
        assert np.array_equal(back.sizes, sizes) and np.array_equal(back.y, data.y)
        assert np.array_equal(back.X, data.X)

    def test_clusters_by_first_appearance(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("cluster,unit,y,x1\nz,2,2,1\na,1,5,1\nz,1,1,1\n")
        data = read_dataset_csv(path)
        assert data.cluster_ids == ("z", "a")
        assert np.array_equal(data.y, [1.0, 2.0, 5.0])

    def test_writer_accepts_text_handle(self, tmp_path):
        data = intercept_dataset({"a": [0.1, -2.5e-300], "b": [1e22]})
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        buf = io.StringIO()
        write_dataset_csv(data, buf)
        assert buf.getvalue() == path.read_text()
        assert buf.getvalue().splitlines()[1] == "a,1,0.10000000000000001,1"


def reference_read(text):
    """The reader's contract in plain Python: ids, sizes, y and X of a CSV text."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    clusters = {}  # stripped id -> [(unit, [y, x1, ..., xp])], first appearance first
    for line in lines[1:]:
        if line:
            cid, unit, *vals = line.split(",")
            clusters.setdefault(cid.strip(), []).append((int(unit), [float(v) for v in vals]))
    rows = [v for r in clusters.values() for _, v in sorted(r, key=lambda t: t[0])]
    return tuple(clusters), [len(r) for r in clusters.values()], np.array(rows)


@st.composite
def csv_texts(draw):
    """A valid dataset CSV: padded, interleaved, shuffled, blank lines, any line end."""
    id_text = st.text(st.characters(codec="utf-8", exclude_characters=",\r\n"),
                      min_size=1, max_size=100)
    ids = draw(st.lists(id_text, min_size=1, max_size=5, unique_by=str.strip))
    p = draw(st.integers(1, 3))
    cell = st.floats(allow_nan=False, allow_infinity=False)
    rows = []
    for cid in ids:
        units = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6, unique=True))
        for unit in units:
            pad = draw(st.sampled_from(["", " ", "  "])), draw(st.sampled_from(["", " "]))
            vals = draw(st.lists(cell, min_size=p + 1, max_size=p + 1))
            rows.append(",".join([pad[0] + cid + pad[1], str(unit), *map(repr, vals)]))
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    ends = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n", "\n\n\n"])
    head = "cluster,unit,y," + ",".join(f"x{j + 1}" for j in range(p))
    text = "".join(line + draw(ends) for line in [head, *rows])
    return text.rstrip("\r\n") if draw(st.booleans()) else text


class TestCsvAgainstReference:
    @given(text=csv_texts())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_python_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            data = read_dataset_csv(path)
        ids, sizes, rows = reference_read(text)
        assert data.cluster_ids == ids
        assert data.sizes.tolist() == sizes
        assert np.array_equal(data.y, rows[:, 0]) and np.array_equal(data.X, rows[:, 1:])

    def test_long_id_round_trips_untruncated(self, tmp_path):
        cid = "é" + "x" * 98 + "z"
        data = intercept_dataset({cid: [1.0, 2.0], "b": [3.0]})
        write_dataset_csv(data, tmp_path / "data.csv")
        back = read_dataset_csv(tmp_path / "data.csv")
        assert back.cluster_ids == (cid, "b") and len(back.cluster_ids[0]) == 100

    @pytest.mark.parametrize("bad", [0, 1, 2047, 4095])
    def test_refusal_bisects(self, tmp_path, monkeypatch, bad):
        """A bad cell costs O(log n) loadtxt calls and is still named by its line."""
        rows = [f"a,{k + 1},{k},1" for k in range(4096)]
        rows[bad] = f"a,{bad + 1},oops,1"
        path = tmp_path / "bad.csv"
        path.write_text("cluster,unit,y,x1\n" + "\n".join(rows) + "\n")
        calls = []
        loadtxt = np.loadtxt

        def counting(*args, **kwargs):
            rows = args[0]
            if isinstance(rows, (str, os.PathLike)):  # a path: its file's non-empty lines
                with open(rows, encoding="utf-8") as fh:
                    rows = list(filter(None, fh.read().split("\n")))
            calls.append(len(rows))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        with pytest.raises(CsvFormatError,
                           match=f"^line {bad + 2}: could not convert string 'oops' to float64$"):
            read_dataset_csv(path)
        assert len(calls) <= 2 * 12 + 2 and sum(calls) <= 3 * 4096

    @pytest.mark.parametrize("line,message", [
        ("a,3,1", "expected 4 columns, got 3"),
        ("a,3,1,1,1", "expected 4 columns, got 5"),
        ("a,3.5,1,1", "could not convert string '3.5' to int64"),
        ("a,3,1,", "could not convert string '' to float64"),
    ])
    def test_refusal_after_blank_lines_names_line(self, tmp_path, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"cluster,unit,y,x1\n\na,1,1,1\n\n\na,2,2,1\n{line}\n\nb,1,1,1\n")
        with pytest.raises(CsvFormatError, match=f"^line 7: {re.escape(message)}$"):
            read_dataset_csv(path)


class TestWriteRows:
    def test_head_and_rows_match_format_17g(self, tmp_path):
        x = np.array([0.1, -2.5e-300, 1e22, -0.0, 1.0 / 3.0])
        k = np.arange(len(x)) * 7
        want = "k,x\n" + "".join(f"{a},{format(b, '.17g')}\n" for a, b in zip(k, x.tolist()))
        buf = io.StringIO()
        write_rows(buf, "k,x\n", k, x)
        assert buf.getvalue() == want
        path = tmp_path / "rows.csv"
        write_rows(path, "k,x\n", k, x)
        assert path.read_bytes() == want.encode()
