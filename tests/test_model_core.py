import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unobs_lab import cs, model_core
from unobs_lab.model_core import (
    CSParams,
    CsvFormatError,
    Dataset,
    DomainError,
    CSMatrix,
    gls_mean,
    icc,
    read_dataset_csv,
    validate_cs,
    write_dataset_csv,
    write_rows,
)


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


def test_model_core_reexports_the_scalar_layer():
    """The numpy-free names are the same objects under both modules."""
    for name in cs.__all__:
        assert name in model_core.__all__
        assert getattr(model_core, name) is getattr(cs, name)


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
# icc
# ---------------------------------------------------------------------------


class TestIcc:
    @pytest.mark.parametrize(
        "lam,phi,expect",
        [(0.0, 1.0, 0.0), (1.0, 1.0, 0.5), (-0.4, 1.0, -2.0 / 3.0)],
    )
    def test_values(self, lam, phi, expect):
        assert icc(lam, phi) == pytest.approx(expect, abs=1e-15)

    def test_degenerate_denominator(self):
        with pytest.raises(DomainError):
            icc(-1.0, 1.0)

    def test_range_under_pd(self):
        # icc in (-1/(n-1), 1) is the PD condition restated
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            phi = float(rng.uniform(0.1, 2.0))
            lam = float(rng.uniform(-2.0, 2.0))
            if phi + n * lam <= 0:
                with pytest.raises(DomainError, match=f"n = {n}"):
                    validate_cs({n}, lam, phi)
                continue
            validate_cs({n}, lam, phi)
            rho = icc(lam, phi)
            assert -1.0 / (n - 1) < rho < 1.0


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
