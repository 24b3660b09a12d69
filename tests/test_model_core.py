import io

import numpy as np
import pytest

from unobs_lab.model_core import (
    ClusterData,
    CSParams,
    CsvFormatError,
    Dataset,
    DomainError,
    SymMatrix,
    cs_covariance,
    gls_mean,
    icc,
    read_dataset_csv,
    validate_cs,
    write_dataset_csv,
)


def intercept_cluster(cid, y):
    y = np.asarray(y, dtype=float)
    return ClusterData(cluster_id=cid, y=y, X=np.ones((len(y), 1)))


# ---------------------------------------------------------------------------
# SymMatrix
# ---------------------------------------------------------------------------


class TestSymMatrix:
    def test_roundtrip_and_indexing(self):
        a = np.array([[3.0, 2.0], [2.0, 3.0]])
        m = SymMatrix.from_array(a)
        assert np.array_equal(m.array, a)
        assert m[0, 1] == m[1, 0] == 2.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix.from_array(np.array([[1.0, 2.0], [2.1, 1.0]]))

    def test_dimension_cap(self):
        SymMatrix.from_array(np.eye(64))
        with pytest.raises(ValueError):
            SymMatrix.from_array(np.eye(65))


# ---------------------------------------------------------------------------
# cs_covariance
# ---------------------------------------------------------------------------


class TestCsCovariance:
    def test_basic(self):
        assert np.array_equal(
            cs_covariance(2, 2.0, 1.0).array, [[3.0, 2.0], [2.0, 3.0]]
        )

    def test_lambda_zero_is_identity_scale(self):
        assert np.array_equal(cs_covariance(3, 0.0, 1.0).array, np.eye(3))

    def test_negative_lambda(self):
        got = cs_covariance(2, -0.4, 1.0).array
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
            ev = np.sort(cs_covariance(n, lam, phi).eigenvalues())
            expect = np.sort(np.array([phi] * (n - 1) + [phi + n * lam]))
            assert np.max(np.abs(ev - expect)) < 1e-12


# ---------------------------------------------------------------------------
# validate_cs
# ---------------------------------------------------------------------------


class TestValidateCs:
    def test_negative_lambda_ok_for_small_n(self):
        assert validate_cs({2}, -0.4, 1.0).ok

    def test_boundary_excluded(self):
        res = validate_cs({2}, -0.5, 1.0)
        assert not res.ok
        assert "n = 2" in res.message

    def test_larger_cluster_fails(self):
        res = validate_cs({2, 3}, -0.4, 1.0)
        assert not res.ok
        assert "n = 3" in res.message

    def test_agrees_with_brute_force_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            phi = float(rng.uniform(-0.5, 2.0))
            lam = float(rng.uniform(-1.0, 1.0))
            sizes = set(rng.integers(1, 9, size=3).tolist())
            got = bool(validate_cs(sizes, lam, phi))
            if phi <= 0:
                brute = False
            else:
                brute = all(
                    np.linalg.eigvalsh(cs_covariance(n, lam, phi).array).min() > 0
                    for n in sizes
                )
            assert got == brute

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
            if validate_cs({n}, lam, phi):
                rho = icc(lam, phi)
                assert -1.0 / (n - 1) < rho < 1.0


# ---------------------------------------------------------------------------
# gls_mean
# ---------------------------------------------------------------------------


def dense_gls(data, lam, phi):
    p = data.p
    A = np.zeros((p, p))
    b = np.zeros(p)
    for c in data.clusters:
        vinv = np.linalg.inv(np.full((c.n, c.n), lam) + phi * np.eye(c.n))
        A += c.X.T @ vinv @ c.X
        b += c.X.T @ vinv @ c.y
    return np.linalg.solve(A, b)


class TestGlsMean:
    def test_lambda_zero_is_ols_mean(self):
        data = Dataset(
            (intercept_cluster("a", [1.0, 2.0]), intercept_cluster("b", [3.0])),
            ("x1",),
        )
        assert gls_mean(data, 0.0, 1.0) == pytest.approx([2.0])

    def test_balanced_grand_mean(self):
        data = Dataset(
            (intercept_cluster("a", [1.0, 3.0]), intercept_cluster("b", [0.0, 4.0])),
            ("x1",),
        )
        for lam, phi in [(0.5, 1.0), (-0.3, 1.0), (2.0, 0.7)]:
            assert gls_mean(data, lam, phi) == pytest.approx([2.0], abs=1e-12)
            assert gls_mean(data, lam, phi) == pytest.approx(
                dense_gls(data, lam, phi), abs=1e-10
            )

    def test_two_singletons(self):
        data = Dataset(
            (intercept_cluster("a", [1.0]), intercept_cluster("b", [5.0])),
            ("x1",),
        )
        assert gls_mean(data, 0.3, 1.0) == pytest.approx([3.0])

    def test_rank_one_inverse_matches_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = int(rng.integers(1, 4))
            clusters = []
            for i in range(int(rng.integers(3, 7))):
                n = int(rng.integers(1, 9))
                X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p - 1)])
                clusters.append(
                    ClusterData(cluster_id=f"c{i}", y=rng.normal(size=n), X=X)
                )
            data = Dataset(tuple(clusters), tuple(f"x{j}" for j in range(p)))
            n_max = max(data.cluster_sizes())
            phi = float(rng.uniform(0.3, 2.0))
            lam = float(rng.uniform(-phi / n_max + 1e-2, 2.0))
            got = gls_mean(data, lam, phi)
            assert got == pytest.approx(dense_gls(data, lam, phi), abs=1e-10)

    def test_invalid_params_rejected(self):
        data = Dataset((intercept_cluster("a", [1.0, 2.0]),), ("x1",))
        with pytest.raises(DomainError):
            gls_mean(data, -0.5, 1.0)


# ---------------------------------------------------------------------------
# Data model invariants
# ---------------------------------------------------------------------------


class TestDataModel:
    def test_cluster_shape_mismatch(self):
        with pytest.raises(ValueError):
            ClusterData(cluster_id="a", y=[1.0, 2.0], X=np.ones((3, 1)))

    def test_dataset_requires_consistent_p(self):
        a = ClusterData("a", [1.0], np.ones((1, 1)))
        b = ClusterData("b", [1.0], np.ones((1, 2)))
        with pytest.raises(ValueError):
            Dataset((a, b), ("x1",))

    def test_dataset_nonempty(self):
        with pytest.raises(ValueError):
            Dataset((), ())

    def test_csparams_phi_positive(self):
        with pytest.raises(DomainError):
            CSParams(xi=[0.0], lam=0.0, phi=0.0)

    def test_arrays_are_frozen(self):
        c = intercept_cluster("a", [1.0, 2.0])
        with pytest.raises(ValueError):
            c.y[0] = 9.0

    def test_columns_and_clusters_agree(self):
        X = np.column_stack([np.ones(5), np.arange(5.0)])
        y = np.array([1.0, 2.0, 0.5, -1.0, 3.0])
        cols = Dataset.from_columns(y, X, [2, 3], ["a", "b"], ["x1", "x2"])
        packed = Dataset(
            (ClusterData("a", y[:2], X[:2]), ClusterData("b", y[2:], X[2:])),
            ("x1", "x2"),
        )
        for d in (cols, packed):
            assert d.cluster_sizes() == [2, 3]
            assert d.n_clusters == 2 and d.p == 2
            assert np.array_equal(d.y, y) and np.array_equal(d.X, X)
            assert np.array_equal(d.offsets, [0, 2, 5])
        assert [c.cluster_id for c in cols.clusters] == ["a", "b"]
        assert np.array_equal(cols.clusters[1].X, X[2:])
        assert gls_mean(cols, 0.4, 1.1) == pytest.approx(gls_mean(packed, 0.4, 1.1), abs=1e-14)
        with pytest.raises(ValueError):
            cols.y[0] = 9.0

    def test_from_columns_checks_sizes(self):
        with pytest.raises(ValueError):
            Dataset.from_columns([1.0, 2.0], np.ones((2, 1)), [1, 2], ["a", "b"], ["x1"])
        with pytest.raises(ValueError):
            Dataset.from_columns([1.0, 2.0], np.ones((2, 1)), [2, 0], ["a", "b"], ["x1"])


# ---------------------------------------------------------------------------
# CSV long format
# ---------------------------------------------------------------------------


class TestCsv:
    def test_roundtrip(self, tmp_path):
        data = Dataset(
            (intercept_cluster("a", [1.25, -2.5]), intercept_cluster("b", [0.0, 3.0])),
            ("x1",),
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        assert back.covariate_names == ("x1",)
        for c1, c2 in zip(data.clusters, back.clusters):
            assert c1.cluster_id == c2.cluster_id
            assert np.array_equal(c1.y, c2.y)
            assert np.array_equal(c1.X, c2.X)

    def test_unit_column_orders_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("cluster,unit,y,x1\na,2,20,1\na,1,10,1\n")
        data = read_dataset_csv(path)
        assert np.array_equal(data.clusters[0].y, [10.0, 20.0])

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"cluster,unit,y,x1\r\na,1,1.5,1\r\n")
        data = read_dataset_csv(path)
        assert data.clusters[0].y[0] == 1.5

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
        data = Dataset(
            (intercept_cluster("a", [0.1, -2.5e-300]), intercept_cluster("b", [1e22])),
            ("x1",),
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        buf = io.StringIO()
        write_dataset_csv(data, buf)
        assert buf.getvalue() == path.read_text()
        assert buf.getvalue().splitlines()[1] == "a,1,0.10000000000000001,1"
