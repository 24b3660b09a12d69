import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from unobs_lab.cli import _json, main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestEquivalenceCommand:
    def test_alpha_grid_report(self, capsys):
        rc, out, _ = run(
            capsys,
            "equivalence", "--lambda2", "2", "--nu2", "1",
            "--alpha-grid=-1,0,1", "--n", "2",
        )
        assert rc == 0
        records = json.loads(out)
        assert len(records) == 3
        covs = {tuple(r["marginal_cov"]) for r in records}
        assert covs == {(3.0, 2.0, 2.0, 3.0)}
        shrinkages = [r["shrinkage"] for r in records]
        assert len(set(shrinkages)) == 3

    def test_negative_lambda2_all_tau_negative(self, capsys):
        rc, out, _ = run(
            capsys,
            "equivalence", "--lambda2=-0.3", "--nu2", "1",
            "--alpha-grid=-1,0,1", "--n", "2",
        )
        assert rc == 0
        assert all(r["tau"] < 0 for r in json.loads(out))

    def test_alpha_outside_box(self, capsys):
        rc, _, err = run(
            capsys,
            "equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid", "1.5",
        )
        assert rc == 1
        assert "[-1, 1]" in err

    def test_decomposition_roundtrip(self, capsys):
        rc, out, _ = run(
            capsys,
            "equivalence", "--lambda2", "1.3", "--nu2", "0.8",
            "--alpha-grid=0.25", "--n", "3",
        )
        assert rc == 0
        rec = json.loads(out)[0]
        dec = rec["decomposition"]
        assert dec["variance"]["total"] == dec["variance"]["sigma2"] + dec["variance"]["d"] + dec["variance"]["two_tau"]
        assert rec["d"] + 2 * rec["tau"] == pytest.approx(rec["lambda2"], abs=1e-12)

    def test_report_size_limit(self, capsys):
        argv = ["equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid=-1,0,1"]
        rc, out, _ = run(capsys, *argv, "--n", "64")
        assert rc == 0
        want = (np.full((64, 64), 2.0) + np.eye(64)).ravel().tolist()
        assert all(r["marginal_cov"] == want for r in json.loads(out))
        rc, out, err = run(capsys, *argv, "--n", "65")
        assert (rc, out) == (1, "")
        assert "dimension 65 outside [1, 64]" in err


class TestEbCommand:
    def test_record(self, capsys):
        rc, out, _ = run(
            capsys, "eb", "--lambda2", "3", "--nu2", "1", "--alpha=-0.5", "--n", "2"
        )
        assert rc == 0
        rec = json.loads(out)
        assert rec["shrinkage"] == pytest.approx(6 / 7)
        assert rec["tau"] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_cluster_size_below_one(self, capsys, n):
        rc, out, err = run(
            capsys, "eb", "--lambda2", "1", "--nu2", "1", "--alpha", "0.5", f"--n={n}"
        )
        assert (rc, out) == (1, "")
        assert f"cluster size n = {n} is not >= 1" in err


class TestSimulateAndFit:
    def test_roundtrip(self, tmp_path, capsys):
        data_path = tmp_path / "sim.csv"
        rc, _, _ = run(
            capsys,
            "simulate", "--model", "cs", "--lambda", "1", "--phi", "1",
            "--xi", "2", "--n-clusters", "200", "--cluster-size", "2",
            "--seed", "7", "--out", str(data_path),
        )
        assert rc == 0
        rc, out, _ = run(capsys, "fit", "--data", str(data_path))
        assert rc == 0
        rec = json.loads(out)
        assert rec["converged"]
        assert abs(rec["lambda"] - 1.0) < 3 * 0.12  # MC SE ~0.12 at N=200
        assert abs(rec["xi"][0] - 2.0) < 0.3

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("cluster,unit,y,x1\na,1,1,1\na,2,2\n")
        rc, _, err = run(capsys, "fit", "--data", str(bad))
        assert rc == 1
        assert "line 3" in err

    def test_seed_determinism_sha256(self, tmp_path, capsys):
        digests = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            rc, _, _ = run(
                capsys,
                "simulate", "--model", "cs", "--lambda", "0.5", "--phi", "1",
                "--n-clusters", "50", "--cluster-size", "2",
                "--seed", "99", "--out", str(path),
            )
            assert rc == 0
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_latent_sidecar(self, tmp_path, capsys):
        data_path = tmp_path / "sim.csv"
        latent_path = tmp_path / "latent.csv"
        rc, _, _ = run(
            capsys,
            "simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1",
            "--alpha", "0.2", "--n-clusters", "10", "--cluster-size", "2",
            "--seed", "3", "--out", str(data_path), "--latent", str(latent_path),
        )
        assert rc == 0
        lines = latent_path.read_text().strip().split("\n")
        assert lines[0] == "cluster,b,eps1,eps2"
        assert len(lines) == 11
        # y = xi + b + eps must reconstruct
        data_lines = data_path.read_text().strip().split("\n")[1:]
        y11 = float(data_lines[0].split(",")[2])
        b1, e11 = (float(v) for v in lines[1].split(",")[1:3])
        assert y11 == pytest.approx(b1 + e11, abs=1e-12)

    def test_seed_required(self, capsys):
        rc, _, _ = run(
            capsys,
            "simulate", "--model", "cs", "--lambda", "1", "--phi", "1",
            "--n-clusters", "10", "--cluster-size", "2",
        )
        assert rc == 2

    def test_no_covariate_column_is_refused(self, tmp_path, capsys):
        path = tmp_path / "nox.csv"
        path.write_text("cluster,unit,y\na,1,1\na,2,2\nb,1,3\nb,2,5\n")
        rc, out, err = run(capsys, "fit", "--data", str(path))
        assert rc == 1
        assert out == ""
        assert "line 1: no covariate columns x1..xp" in err

    def test_unidentified_lambda(self, tmp_path, capsys):
        path = tmp_path / "single.csv"
        path.write_text("cluster,unit,y,x1\na,1,1,1\nb,1,2,1\nc,1,3,1\n")
        rc, _, err = run(capsys, "fit", "--data", str(path))
        assert rc == 1
        assert "unidentified" in err


class TestHeavytailCommand:
    def test_moments_all_infinite_at_rho_one(self, capsys):
        rc, out, _ = run(
            capsys,
            "heavytail", "moments", "--phi", "1", "--rho", "1", "--delta", "1",
            "--k", "1..4",
        )
        assert rc == 0
        records = json.loads(out)
        assert len(records) == 4
        assert all(not r["integral_finite"] for r in records)
        assert all(r["value"] is None for r in records)

    def test_moments_value(self, capsys):
        rc, out, _ = run(
            capsys,
            "heavytail", "moments", "--phi", "1", "--rho", "2", "--delta", "1",
            "--k", "1",
        )
        assert rc == 0
        assert json.loads(out)[0]["value"] == pytest.approx(1.570796, abs=1e-6)

    def test_trace_row_count(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        rc, _, _ = run(
            capsys,
            "heavytail", "trace", "--phi", "1", "--rho", "1", "--delta", "1",
            "--n", "100000", "--stride", "100", "--seed", "3", "--out", str(path),
        )
        assert rc == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n,running_mean"
        assert len(lines) == 1001

    def test_sample_output(self, capsys):
        rc, out, _ = run(
            capsys,
            "heavytail", "sample", "--phi", "1", "--rho", "1", "--delta", "1",
            "--n", "100", "--seed", "5",
        )
        assert rc == 0
        vals = [float(v) for v in out.strip().split("\n")]
        assert len(vals) == 100
        assert all(v > 0 for v in vals)

    def test_trace_needs_seed(self, capsys):
        rc, _, _ = run(
            capsys,
            "heavytail", "trace", "--phi", "1", "--rho", "1", "--delta", "1",
            "--n", "1000",
        )
        assert rc == 2


class TestPitCommand:
    def test_output(self, capsys):
        rc, out, _ = run(
            capsys,
            "pit", "--phi", "1", "--rho", "1", "--delta", "1",
            "--n", "1000", "--seed", "8",
        )
        assert rc == 0
        vals = np.array([float(v) for v in out.strip().split("\n")])
        assert len(vals) == 1000
        assert np.all(vals > 0)


class TestContract:
    def test_usage_error_is_exit_2(self, capsys):
        assert run(capsys, "nonsense")[0] == 2
        assert run(capsys, "equivalence")[0] == 2

    def test_json_floats_have_17_digit_format(self, capsys):
        rc, out, _ = run(
            capsys,
            "equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid=0.1",
        )
        assert rc == 0
        rec = json.loads(out)[0]
        # re-deriving d from the parsed record reproduces the emitted value
        import unobs_lab.equivalence as eq

        d, tau = eq.derive_d_tau(rec["lambda2"], rec["nu2"], rec["alpha"])
        assert rec["d"] == d
        assert rec["tau"] == tau

    @pytest.mark.parametrize(
        "argv",
        [
            ["eb", "--lambda2", "inf", "--nu2", "1", "--alpha", "0.5"],
            ["equivalence", "--lambda2", "1e308", "--nu2", "1e308", "--alpha-grid=0.5"],
        ],
    )
    def test_non_finite_json_is_refused(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert "non-finite" in err

    def test_float_array_with_nan_is_refused(self):
        with pytest.raises(ValueError, match="non-finite value nan"):
            _json({"v": np.array([1.0, np.nan, 2.0])})


class TestLazyScipy:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eb", "--lambda2", "3", "--nu2", "1", "--alpha=-0.5", "--n", "2"],
            ["equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid=-1,0,1"],
            ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1",
             "--n-clusters", "5", "--cluster-size", "2", "--seed", "1"],
            ["fit", "--data", "{tiny_csv}"],
        ],
    )
    def test_closed_form_commands_never_import_scipy(self, argv, tmp_path):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("cluster,unit,y,x1\na,1,1,1\na,2,2,1\nb,1,4,1\nb,2,3,1\nc,1,0,1\n")
        argv = [arg.replace("{tiny_csv}", str(tiny)) for arg in argv]
        code = (
            "import sys\n"
            "from unobs_lab.cli import main\n"
            f"rc = main({argv!r})\n"
            "sys.stdout.flush()\n"
            "mods = [m in sys.modules for m in ('scipy', 'concurrent.futures')]\n"
            "sys.stderr.write(f'rc={rc} scipy={mods[0]} pool={mods[1]}')\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
        assert proc.stderr.endswith("rc=0 scipy=False pool=False"), proc.stderr
