import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from unobs_lab import heavytail as ht
from unobs_lab.cli import _json, main
from unobs_lab.equivalence import ExtendedSpec
from unobs_lab.estimation import SimLayout, simulate_extended


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def fresh(code: str) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)


def cold(code: str):
    """The value of the last stderr line of code run in a fresh interpreter."""
    proc = fresh(code)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 0 and lines, proc.stderr
    return ast.literal_eval(lines[-1])


def cold_main(argv, modules):
    """Exit code of main(argv) in a fresh interpreter, and which of modules it loaded."""
    rc, loaded = cold(
        "import sys\n"
        "from unobs_lab.cli import main\n"
        f"rc = main({argv!r})\n"
        "sys.stdout.flush()\n"
        f"sys.stderr.write('\\n' + repr((rc, [m in sys.modules for m in {modules!r}])))\n"
    )
    return rc, dict(zip(modules, loaded))


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

    def test_latent_dash_is_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, _ = run(
            capsys,
            "simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1",
            "--alpha", "0.2", "--n-clusters", "4", "--cluster-size", "2",
            "--seed", "3", "--out", "sim.csv", "--latent", "-",
        )
        assert rc == 0
        assert sorted(os.listdir(tmp_path)) == ["sim.csv"]
        lines = out.strip().split("\n")
        assert lines[0] == "cluster,b,eps1,eps2" and len(lines) == 5

    def test_latent_needs_extended_model(self, tmp_path, capsys):
        out, latent = tmp_path / "sim.csv", tmp_path / "latent.csv"
        cs = ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1",
              "--n-clusters", "5", "--cluster-size", "2", "--seed", "1", "--latent", str(latent)]
        for argv in (cs, cs + ["--out", str(out)]):
            rc, stdout, err = run(capsys, *argv)
            assert (rc, stdout) == (2, "")
            assert "--latent requires --model extended" in err
        assert not out.exists() and not latent.exists()

    @pytest.mark.parametrize(
        "model", [["--model", "cs", "--lambda", "1", "--phi", "1"],
                  ["--model", "extended", "--lambda2", "1", "--nu2", "1", "--alpha", "0.2"]]
    )
    def test_xi_takes_one_value(self, capsys, model):
        rc, out, err = run(
            capsys, "simulate", *model, "--xi", "1,2",
            "--n-clusters", "5", "--cluster-size", "2", "--seed", "1",
        )
        assert (rc, out) == (1, "")
        assert "xi has 2 entries" in err

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

    @pytest.mark.parametrize("argv", [["heavytail", "sample"], ["pit"]])
    def test_negative_draw_count_is_refused(self, capsys, argv):
        rc, out, err = run(
            capsys, *argv, "--phi", "1", "--rho", "1", "--delta", "1",
            "--n", "-1", "--seed", "5",
        )
        assert (rc, out) == (1, "")
        assert err == "error: --n = -1: the number of draws must be >= 0\n"

    def test_trace_needs_seed(self, capsys):
        rc, _, _ = run(
            capsys,
            "heavytail", "trace", "--phi", "1", "--rho", "1", "--delta", "1",
            "--n", "1000",
        )
        assert rc == 2

    @pytest.mark.parametrize("argv", [["heavytail", "sample"], ["heavytail", "trace"], ["pit"]])
    def test_overflowing_quantile_is_refused(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise here
            rc, out, err = run(
                capsys, *argv, "--phi=1e-300", "--rho=0.01", "--delta=1",
                "--n", "50", "--seed", "4",
            )
        assert (rc, out) == (1, "")
        assert re.fullmatch(r"error: quantile returned a non-finite value at u = [0-9.e-]+\n", err)

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["heavytail", "sample", "--n", "5"],
            ["heavytail", "trace", "--n", "5"],
            ["pit", "--n", "5"],
            ["simulate", "--n-clusters", "2", "--cluster-size", "2"],
        ],
    )
    def test_seed_outside_64_bits_is_named(self, capsys, argv, seed):
        spec = (["--lambda", "1"] if argv[0] == "simulate" else ["--rho", "1", "--delta", "1"])
        rc, out, err = run(capsys, *argv, *spec, "--phi", "1", f"--seed={seed}")
        assert (rc, out) == (1, "")
        assert err == f"error: --seed = {seed}: the seed must be an integer in [0, 2**64 - 1]\n"


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


def g17(x) -> str:
    return format(float(x), ".17g")


class TestLineFormats:
    """Row outputs, byte for byte, against lines built here from the library."""

    SPEC = ht.WeibullExpSpec(phi=1.3, rho=1.0, delta=0.7)
    FLAGS = ["--phi", "1.3", "--rho", "1", "--delta", "0.7"]

    def test_sample(self, capsys):
        rc, out, _ = run(capsys, "heavytail", "sample", *self.FLAGS, "--n", "500", "--seed", "5")
        assert rc == 0
        assert out == "".join(g17(v) + "\n" for v in ht.we_sample(self.SPEC, 500, seed=5))

    def test_pit(self, capsys):
        rc, out, _ = run(capsys, "pit", *self.FLAGS, "--n", "500", "--seed", "8")
        draws = ht.pit_sample(lambda u: ht.we_quantile(self.SPEC, u), 500, seed=8)
        assert rc == 0
        assert out == "".join(g17(v) + "\n" for v in draws)

    def test_trace(self, capsys):
        rc, out, _ = run(
            capsys, "heavytail", "trace", *self.FLAGS,
            "--n", "1000", "--stride", "7", "--seed", "3",
        )
        csum = np.cumsum(ht.we_sample(self.SPEC, 1000, seed=3))
        assert rc == 0
        assert out == "n,running_mean\n" + "".join(
            f"{k},{g17(csum[k - 1] / k)}\n" for k in range(7, 1001, 7)
        )

    def test_simulate_extended_with_latent(self, tmp_path, capsys):
        latent = tmp_path / "latent.csv"
        rc, out, _ = run(
            capsys, "simulate", "--model", "extended", "--lambda2", "3", "--nu2", "1",
            "--alpha=-0.5", "--xi=-0.5", "--n-clusters", "6", "--cluster-size", "3",
            "--seed", "11", "--latent", str(latent),
        )
        spec = ExtendedSpec(3.0, 1.0, -0.5)  # tau = 0: PSD for clusters of 3
        data, lat = simulate_extended(spec, [-0.5], SimLayout(6, 3), seed=11)
        y, eps = data.y.reshape(6, 3), lat.eps.reshape(6, 3)
        assert rc == 0
        assert out == "cluster,unit,y,x1\n" + "".join(
            f"c{i + 1},{j + 1},{g17(y[i, j])},1\n" for i in range(6) for j in range(3)
        )
        assert latent.read_text() == "cluster,b,eps1,eps2,eps3\n" + "".join(
            f"c{i + 1},{g17(lat.b[i])},{','.join(map(g17, eps[i]))}\n" for i in range(6)
        )


class TestContract:
    def test_usage_error_is_exit_2(self, capsys):
        assert run(capsys, "nonsense")[0] == 2
        assert run(capsys, "equivalence")[0] == 2

    @pytest.mark.parametrize(
        "argv,flag,text",
        [
            (["heavytail", "moments", "--phi", "1", "--rho", "2", "--delta", "1",
              "--k", "3..1"], "--k", "'3..1'"),
            (["equivalence", "--lambda2", "1", "--nu2", "1", "--alpha-grid=,"],
             "--alpha-grid", "','"),
            (["simulate", "--model", "cs", "--lambda", "1", "--phi", "1", "--xi=",
              "--n-clusters", "2", "--cluster-size", "2", "--seed", "1"], "--xi", "''"),
        ],
    )
    def test_empty_lists_are_usage_errors_naming_the_flag(self, capsys, argv, flag, text):
        """An empty k range or float list is refused, not written as an empty report."""
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"error: argument {flag}: {text} gives no values")

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

    @pytest.mark.parametrize(
        "argv,rc",
        [(["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "0"], 0),
         (["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "2"], 1),
         (["eb"], 2)],
    )
    def test_console_entry_exits_with_the_code_of_main(self, argv, rc):
        """entry() is the installed unobs-lab script; stdout is main's."""
        proc = fresh(
            "import sys\n"
            f"sys.argv = ['unobs-lab', *{argv!r}]\n"
            "from unobs_lab.cli import entry\n"
            "entry()\n"
        )
        assert proc.returncode == rc, proc.stderr
        if rc == 0:
            assert json.loads(proc.stdout)["shrinkage"] == pytest.approx(4.0 / 3.0)

    def test_float_array_with_nan_is_refused(self):
        with pytest.raises(ValueError, match="non-finite value nan"):
            _json({"v": np.array([1.0, np.nan, 2.0])})

    @pytest.mark.parametrize("value,text", [(np.float32("nan"), "nan"), (np.float64("-inf"), "-inf")])
    def test_non_finite_numpy_scalar_is_refused(self, value, text):
        with pytest.raises(ValueError, match=f"^non-finite value {text} cannot be written as JSON$"):
            _json([1.0, value])

    @pytest.mark.parametrize(
        "value,text",
        [
            (np.int64(-3), "-3"),
            (np.float32(0.1), "0.10000000149011612"),  # the float32's own value, 17 digits
            (np.bool_(True), "true"),
            (np.bool_(False), "false"),
            (np.array([[1.0, 2.5], [-0.0, 1e-300]]), "[[1, 2.5], [-0, 1e-300]]"),
            (np.array([3, 250], dtype=np.uint8), "[3, 250]"),
            (
                {"a": {"b": [np.int64(1), np.float64(0.5)], "c": None, "d": (True, 'x"y')}},
                '{"a": {"b": [1, 0.5], "c": null, "d": [true, "x\\"y"]}}',
            ),
        ],
    )
    def test_numpy_values_are_written_as_their_python_values(self, value, text):
        assert _json(value) == text


class TestLazyScipy:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eb", "--lambda2", "3", "--nu2", "1", "--alpha=-0.5", "--n", "2"],
            ["equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid=-1,0,1"],
            ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1",
             "--n-clusters", "5", "--cluster-size", "2", "--seed", "1"],
            ["fit", "--data", "{tiny_csv}"],
            ["simulate", "--model", "cs", "--lambda=-0.2", "--phi", "1",
             "--n-clusters", "5", "--cluster-size", "2", "--seed", "1"],
            ["simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1", "--alpha", "0",
             "--n-clusters", "5", "--cluster-size", "2", "--seed", "1", "--latent", "-"],
        ],
    )
    def test_closed_form_commands_never_import_scipy(self, argv, tmp_path):
        """Nor numpy.ma, which np.unique of a plain array loads in numpy 2.4."""
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("cluster,unit,y,x1\na,1,1,1\na,2,2,1\nb,1,4,1\nb,2,3,1\nc,1,0,1\n")
        argv = [arg.replace("{tiny_csv}", str(tiny)) for arg in argv]
        rc, loaded = cold_main(argv, ("scipy", "concurrent.futures", "numpy.ma"))
        assert rc == 0 and not any(loaded.values()), loaded

    @pytest.mark.parametrize(
        "argv,rows",
        [
            (["eb", "--lambda2", "3", "--nu2", "1", "--alpha=-0.5", "--n", "2"], False),
            (["heavytail", "moments", "--phi", "1", "--rho", "2", "--delta", "1"], False),
            (["heavytail", "sample", "--phi", "1", "--rho", "2", "--delta", "1",
              "--n", "3", "--seed", "1"], True),
        ],
    )
    def test_json_reports_never_load_the_row_formatter(self, argv, rows):
        """A JSON report is written as a head alone, so a cold eb compiles no formatter."""
        assert cold_main(argv, ("unobs_lab.rows",)) == (0, {"unobs_lab.rows": rows})

    @pytest.mark.parametrize(
        "argv,rc",
        [
            (["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "0"], 0),
            (["equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid=-1,0,1", "--n", "2"], 0),
            (["equivalence", "--lambda2=-0.01", "--nu2", "1", "--alpha-grid=-1,1", "--n", "64"], 0),
            (["heavytail", "moments", "--phi", "1", "--rho", "2", "--delta", "1", "--k", "1..4"], 0),
            (["equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid=0", "--n", "100"], 1),
            (["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "2"], 1),
        ],
    )
    def test_closed_form_commands_load_neither_numpy_nor_scipy(self, argv, rc):
        """Nor dataclasses and inspect: the value classes are namedtuples."""
        modules = ("numpy", "scipy", "dataclasses", "inspect")
        assert cold_main(argv, modules) == (rc, dict.fromkeys(modules, False))

    @pytest.mark.parametrize(
        "argv",
        [
            ["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "0"],
            ["equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid=-1,0,1", "--n", "2"],
            ["heavytail", "moments", "--phi", "1", "--rho", "2", "--delta", "1", "--k", "1..4"],
        ],
    )
    def test_closed_form_commands_without_site_load_no_typing(self, argv):
        """Under python -S no .pth file preloads typing, so its cost would show here."""
        modules = ["numpy", "scipy", "dataclasses", "inspect", "typing"]
        code = (
            "import sys\n"
            "from unobs_lab.cli import main\n"
            f"rc = main({argv!r})\n"
            "sys.stdout.flush()\n"
            f"sys.stderr.write('\\n' + repr((rc, [m for m in {modules!r} if m in sys.modules])))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              env=env, text=True)
        assert proc.returncode == 0, proc.stderr
        assert ast.literal_eval(proc.stderr.splitlines()[-1]) == (0, [])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1",
             "--n-clusters", "5", "--cluster-size", "2", "--seed", "1"],
            ["simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1", "--alpha", "0",
             "--n-clusters", "5", "--cluster-size", "2", "--seed", "1", "--latent", "-"],
            ["fit", "--data", "{tiny_csv}"],
            ["heavytail", "sample", "--phi", "1", "--rho", "2", "--delta", "1",
             "--n", "3", "--seed", "1"],
            ["heavytail", "trace", "--phi", "1", "--rho", "2", "--delta", "1",
             "--n", "3", "--seed", "1"],
            ["pit", "--phi", "1", "--rho", "1", "--delta", "1", "--n", "3", "--seed", "1"],
        ],
    )
    def test_numpy_commands_load_no_dataclasses(self, argv, tmp_path):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("cluster,unit,y,x1\na,1,1,1\na,2,2,1\nb,1,4,1\nb,2,3,1\nc,1,0,1\n")
        argv = [arg.replace("{tiny_csv}", str(tiny)) for arg in argv]
        assert cold_main(argv, ("dataclasses",)) == (0, {"dataclasses": False})

    def test_cs_simulation_loads_no_equivalence_model(self):
        argv = ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1",
                "--n-clusters", "5", "--cluster-size", "2", "--seed", "1"]
        assert cold_main(argv, ("unobs_lab.equivalence",)) == (
            0, {"unobs_lab.equivalence": False})

    def test_fit_loads_no_sampler(self, tmp_path):
        """Nor the equivalence model, which only simulate_extended uses."""
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("cluster,unit,y,x1\na,1,1,1\na,2,2,1\nb,1,4,1\nb,2,3,1\nc,1,0,1\n")
        modules = ("unobs_lab.heavytail", "unobs_lab.rows", "unobs_lab.rng",
                   "unobs_lab.equivalence")
        rc, loaded = cold_main(["fit", "--data", str(tiny)], modules)
        assert rc == 0 and not any(loaded.values()), loaded

    @pytest.mark.parametrize("action", ["sample", "trace"])
    def test_samplers_load_no_equivalence_model(self, action):
        argv = ["heavytail", action, "--phi", "1", "--rho", "2", "--delta", "1",
                "--n", "4", "--seed", "1"]
        modules = ("unobs_lab.estimation", "unobs_lab.equivalence")
        rc, loaded = cold_main(argv, modules)
        assert rc == 0 and not any(loaded.values()), loaded

    def test_pit_loads_no_scipy(self):
        """ndtr is unobs_lab.special's, so a cold pit call never imports scipy."""
        argv = ["pit", "--phi", "1", "--rho", "1", "--delta", "1", "--n", "20", "--seed", "1"]
        assert cold_main(argv, ("scipy", "unobs_lab.special")) == (
            0, {"scipy": False, "unobs_lab.special": True})

    @pytest.mark.parametrize("action", ["sample", "trace"])
    def test_samplers_load_no_ndtr(self, action):
        argv = ["heavytail", action, "--phi", "1", "--rho", "2", "--delta", "1",
                "--n", "4", "--seed", "1"]
        assert cold_main(argv, ("scipy", "unobs_lab.special")) == (
            0, {"scipy": False, "unobs_lab.special": False})

    def test_scalar_layer_names_load_no_numpy(self):
        """The package's CS names come from cs.py, the numpy-free scalar layer."""
        loaded = cold(
            "import sys\n"
            "from unobs_lab import CSMatrix, DomainError, icc, validate_cs\n"
            "sys.stderr.write(repr(sorted(m for m in sys.modules\n"
            "                             if m == 'numpy' or m.startswith('unobs_lab'))))\n"
        )
        assert loaded == ["unobs_lab", "unobs_lab.cs"]

    def test_package_names_resolve_to_their_modules(self):
        """Every name the package has exported, loaded on first use, in dir()."""
        exported = {
            "model_core": ["CSMatrix", "CSParams", "Dataset", "DomainError", "gls_mean", "icc",
                           "read_dataset_csv", "validate_cs", "write_dataset_csv"],
            "equivalence": ["ConditionalErrorDist", "DecompRow", "ExtendedSpec", "SpecA", "SpecB",
                            "conditional_error_dist", "decomposition_table", "derive_d_tau",
                            "eb_shrinkage", "joint_cov", "map_a_to_b", "marginal_cov_extended",
                            "psd_slack", "v1_matrix", "v2_matrix"],
            "estimation": ["FitResult", "SimLayout", "fit_balanced_closed_form", "fit_ml",
                           "loglik_cs", "simulate_cs", "simulate_extended"],
            "heavytail": ["MomentResult", "WeibullExpSpec", "WeibullGammaSpec", "pit_sample",
                          "running_mean_trace", "truncated_moment", "we_cdf", "we_moment",
                          "we_pdf", "we_quantile", "we_sample", "wg_moment_defined",
                          "wg_sample"],
        }
        loaded, wrong = cold(
            "import importlib, sys, unobs_lab\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('unobs_lab'))\n"
            "wrong = []\n"
            f"for module, names in {exported!r}.items():\n"
            "    for name in names:\n"
            "        exec(f'from unobs_lab import {name} as value')\n"
            "        if not (value is getattr(importlib.import_module(f'unobs_lab.{module}'), name)\n"
            "                and name in dir(unobs_lab)):\n"
            "            wrong.append(name)\n"
            "sys.stderr.write(repr((loaded, wrong)))\n"
        )
        assert (loaded, wrong) == (["unobs_lab"], [])
        import unobs_lab

        assert sorted(unobs_lab.__all__) == sorted(n for names in exported.values() for n in names)
        assert unobs_lab.__version__ == "0.1.0"
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            unobs_lab.nope
