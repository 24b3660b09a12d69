import ast
import contextlib
import decimal
import gc
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unobs_lab import heavytail as ht
from unobs_lab.cli import COMMANDS, REQUIRED, _fast_parse, _float_list, _json, build_parser, main
from unobs_lab.equivalence import ExtendedSpec
from unobs_lab.estimation import SimLayout, simulate_cs, simulate_extended
from unobs_lab.model_core import CSParams


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


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


def eb_by_decimal(lambda2: float, nu2: float, alpha: float, n: int):
    """eb's d, tau and shrinkage, and the slack d*nu2 - n*tau^2, at 50 digits from the floats."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        lambda2, nu2, alpha = D(lambda2), D(nu2), D(alpha)
        nu_alpha_s = nu2.sqrt() * alpha * (lambda2 + nu2).sqrt()
        d, tau = lambda2 + 2 * nu2 + 2 * nu_alpha_s, -(nu2 + nu_alpha_s)
        return d, tau, n * (d + tau) / (nu2 + n * lambda2), d * nu2 - n * tau * tau


def eb_refusal_is_due(lambda2: float, nu2: float, alpha: float, n: int) -> bool:
    """Whether eb may exit 1: a domain violation, or d, tau or shrinkage past the floats."""
    D = decimal.Decimal
    if not (nu2 > 0 and -1 <= alpha <= 1 and D(lambda2) + D(nu2) > 0
            and D(nu2) + n * D(lambda2) > 0):
        return True
    return any(abs(v) > D(sys.float_info.max) for v in eb_by_decimal(lambda2, nu2, alpha, n)[:3])


def eb_matches_decimal(out: str, lambda2: float, nu2: float, alpha: float, n: int) -> bool:
    """Whether eb's record out has eb_by_decimal's d, tau and shrinkage: within 1e-12
    relative, or within 4 subnormal steps where the decimal value is subnormal."""
    D, rec = decimal.Decimal, json.loads(out)
    for key, want in zip(("d", "tau", "shrinkage"), eb_by_decimal(lambda2, nu2, alpha, n)):
        bound = 4 * D(2) ** -1074 if abs(want) < D(sys.float_info.min) else D("1e-12") * abs(want)
        if not abs(D(rec[key]) - want) <= bound:
            return False
    return True


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

    @pytest.mark.parametrize("lambda2", ["1", "0", "-0.2"])
    def test_admissible_is_where_simulate_extended_accepts(self, capsys, lambda2):
        grid = [round(-1.0 + 0.1 * k, 10) for k in range(21)]
        argv = ["--lambda2", lambda2, "--nu2", "1", "--n-clusters", "3", "--seed", "1"]
        for n in (1, 2, 3, 4):
            rc, out, _ = run(capsys, "equivalence", "--lambda2", lambda2, "--nu2", "1",
                             "--alpha-grid=" + ",".join(map(repr, grid)), "--n", str(n))
            assert rc == 0
            records = json.loads(out)
            assert all(list(r)[6:8] == ["shrinkage", "admissible"] for r in records)
            for rec, alpha in zip(records, grid):
                rc, _, err = run(capsys, "simulate", "--model", "extended", *argv,
                                 f"--alpha={alpha!r}", "--cluster-size", str(n))
                assert (rc == 0) is rec["admissible"], (n, alpha, err)

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

    @pytest.mark.parametrize("alpha, want", [("0.2", False), ("-0.5", True)])
    def test_reports_admissibility_without_refusing(self, capsys, alpha, want):
        # A_4 = [-0.926, -0.135] at (1, 1): alpha = 0.2 has no hierarchy at n = 4
        rc, out, _ = run(capsys, "eb", "--lambda2", "1", "--nu2", "1", f"--alpha={alpha}", "--n", "4")
        assert rc == 0
        rec = json.loads(out)
        assert rec["admissible"] is want
        assert list(rec)[-2:] == ["shrinkage", "admissible"]

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize(
        "lambda2, nu2", [("1e300", "1e-320"), ("1e300", "1e-300"), ("1.7e308", "1e-320")]
    )
    def test_nu2_far_below_lambda2(self, capsys, lambda2, nu2, n):
        """nu2 more than 2^1020 times below lambda2 is not flushed to a refused 0.

        At lambda2 = 1e300, nu2 = 1e-320 the slack is 5e-21 at n = 2 and -2.5e-21 at n = 5,
        both within the floats, as is every answer of the record. At lambda2 = 1.7e308,
        nu2 + n*lambda2 passes the floats, but the shrinkage (about 1) does not.
        """
        rc, out, err = run(capsys, "eb", f"--lambda2={lambda2}", f"--nu2={nu2}", "--alpha=0.5",
                           f"--n={n}")
        assert (rc, err) == (0, "")
        rec = json.loads(out)
        d, tau, shrinkage, slack = eb_by_decimal(float(lambda2), float(nu2), 0.5, n)
        for key, want in (("d", d), ("tau", tau), ("shrinkage", shrinkage)):
            assert rec[key] == pytest.approx(float(want), rel=1e-12, abs=0.0), key
        assert rec["admissible"] is (slack >= 0) is (n == 2)
        rc, out, err = run(capsys, "equivalence", f"--lambda2={lambda2}", f"--nu2={nu2}",
                           "--alpha-grid=0.5", f"--n={n}")
        assert (rc, err) == (0, "")
        assert json.loads(out)[0]["admissible"] is rec["admissible"]

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


def inside_a_n(lambda2, nu2, n, points=5):
    """Alphas strictly inside A_n, the alphas whose (b, eps) law exists at size n."""
    nu, s, m = math.sqrt(nu2), math.sqrt(lambda2 + nu2), nu2 + n * lambda2
    lo, hi = ((-(n - 1) * nu + sign * math.sqrt(m)) / (n * s) for sign in (-1, 1))
    return [lo + (hi - lo) * k / (points + 1) for k in range(1, points + 1)]


class TestClaimOneInBytes:
    """Claim (1): the data carry no information about alpha, so simulate writes
    the same data bytes for every alpha in A_n, those of the CS model."""

    @pytest.mark.parametrize("lambda2, nu2, n", [(1.0, 1.0, 1), (1.0, 1.0, 2), (1.0, 1.0, 3),
                                                 (-0.2, 1.0, 3)])
    def test_extended_data_are_the_cs_data(self, tmp_path, capsys, lambda2, nu2, n):
        layout = ["--n-clusters", "40", "--cluster-size", str(n), "--seed", "17", "--xi", "0.5"]
        cs = tmp_path / "cs.csv"
        assert run(capsys, "simulate", "--model", "cs", f"--lambda={lambda2!r}",
                   "--phi", repr(nu2), *layout, "--out", str(cs))[0] == 0
        cs_fit = run(capsys, "fit", "--data", str(cs))  # at n = 1 both refuse, alike
        assert cs_fit[0] == (0 if n > 1 else 1)
        latents = set()
        for k, alpha in enumerate(inside_a_n(lambda2, nu2, n)):
            out, latent = tmp_path / f"ext{k}.csv", tmp_path / f"lat{k}.csv"
            assert run(capsys, "simulate", "--model", "extended", f"--lambda2={lambda2!r}",
                       "--nu2", repr(nu2), f"--alpha={alpha!r}", *layout, "--out", str(out),
                       "--latent", str(latent))[0] == 0
            assert out.read_bytes() == cs.read_bytes()
            assert run(capsys, "fit", "--data", str(out)) == cs_fit
            latents.add(latent.read_bytes())
        assert len(latents) == 5  # only the latents move with alpha

    @pytest.mark.parametrize("lambda2", [1e300, 1.7e308])
    def test_nu2_far_below_lambda2(self, tmp_path, capsys, lambda2):
        """lambda2 = 1e300, nu2 = 1e-320: the CS data at n = 2, where the slack is 5e-21 > 0;
        at n = 5 the slack is -2.5e-21, and the refusal names n and the least eigenvalue.
        At lambda2 = 1.7e308, nu2 + 2*lambda2 passes the floats; y, b and eps do not."""
        spec = [f"--lambda2={lambda2!r}", "--nu2=1e-320", "--alpha=0.5"]
        layout = ["--n-clusters", "3", "--seed", "4"]
        cs, ext = tmp_path / "cs.csv", tmp_path / "ext.csv"
        assert run(capsys, "simulate", "--model", "cs", f"--lambda={lambda2!r}", "--phi=1e-320",
                   *layout, "--cluster-size", "2", "--out", str(cs))[0] == 0
        rc, out, err = run(capsys, "simulate", "--model", "extended", *spec, *layout,
                           "--cluster-size", "2", "--out", str(ext), "--latent", "-")
        assert (rc, err) == (0, "") and out.startswith("cluster,b,eps1,eps2\n")
        assert ext.read_bytes() == cs.read_bytes()
        y = [float(line.split(",")[2]) for line in cs.read_text().splitlines()[1:]]
        latents = [float(v) for line in out.splitlines()[1:] for v in line.split(",")[1:]]
        assert all(map(math.isfinite, y + latents))
        # y = sqrt(lambda2)*(z1 + z2)/sqrt(2) + ..., and no draw of 3 clusters is below 1e-3
        assert 1e-3 * math.sqrt(lambda2) < max(map(abs, y)) < 10 * math.sqrt(lambda2)
        rc, out, err = run(capsys, "simulate", "--model", "extended", *spec, *layout,
                           "--cluster-size", "5")
        assert (rc, out) == (1, "")
        low = re.fullmatch(r"error: joint covariance for n = 5 is not PSD: eigenvalue (\S+)\n", err)
        assert low, err
        d, tau, _, slack = eb_by_decimal(lambda2, 1e-320, 0.5, 5)
        with decimal.localcontext() as ctx:  # slack/top, top the larger eigenvalue, about d
            ctx.prec = 50
            nu2 = decimal.Decimal(1e-320)
            top = (d + nu2) / 2 + (((d - nu2) / 2) ** 2 + 5 * tau * tau).sqrt()
        # a subnormal eigenvalue: 2.5e-321 holds 506 steps of 2^-1074
        assert float(low[1]) == pytest.approx(float(slack / top), rel=2e-3, abs=0.0)

    def test_unbalanced_layout(self):
        sizes = [1, 3, 2, 3, 1, 2, 2, 3]
        layout = SimLayout(len(sizes), sizes)
        want = simulate_cs(CSParams([0.5], 1.5, 1.0), layout, seed=8).y
        for alpha in inside_a_n(1.5, 1.0, max(sizes)):  # A_3 lies in A_2 and A_1
            data, _ = simulate_extended(ExtendedSpec(1.5, 1.0, alpha), [0.5], layout, seed=8)
            assert np.array_equal(data.y, want)


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

    @pytest.mark.parametrize("phi,delta,want", [("1e300", "1e-300", 1e-300), ("1e-300", "1e300", 1e300)])
    def test_moments_value_at_extreme_scales(self, capsys, phi, delta, want):
        rc, out, _ = run(capsys, "heavytail", "moments", f"--phi={phi}", "--rho=2",
                         f"--delta={delta}", "--k", "1")
        assert rc == 0
        assert json.loads(out)[0]["value"] == pytest.approx(want * math.pi / 2, rel=1e-14)

    @pytest.mark.parametrize("phi,delta,exponent", [("1e300", "1e-300", -545),
                                                    ("1e-300", "1e300", 546)])
    def test_moment_past_the_floats_is_refused_by_name(self, capsys, phi, delta, exponent):
        """Neither MomentResult's invariant nor the JSON writer's non-finite refusal."""
        rc, out, err = run(capsys, "heavytail", "moments", f"--phi={phi}", "--rho=1.1",
                           f"--delta={delta}", "--k", "1")
        assert (rc, out) == (1, "")
        assert err == f"error: moment k=1 is about 1e{exponent}, past the floats\n"

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

    @pytest.mark.parametrize(
        "argv", [["heavytail", "sample"], ["heavytail", "trace", "--stride", "1"], ["pit"]])
    def test_extreme_scale_draws_are_written(self, capsys, argv):
        """delta/phi = 1e-600 leaves the floats, yet the law's median is 1e-12."""
        rc, out, err = run(capsys, *argv, "--phi=1e300", "--rho=50", "--delta=1e-300",
                           "--n", "50", "--seed", "4")
        assert (rc, err) == (0, "")
        values = [float(line.rsplit(",", 1)[-1]) for line in out.splitlines()[-50:]]
        assert all(5e-13 < v < 2e-12 for v in values), values

    def test_extreme_scale_pit_is_written(self, capsys):
        rc, out, err = run(capsys, "pit", "--phi=1e-300", "--rho=50", "--delta=1e300",
                           "--n", "5", "--seed", "1")
        assert (rc, err) == (0, "")
        assert float(out.split()[1]) == pytest.approx(1.0251953336609e12, rel=1e-12)

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


WE = ["--phi", "1", "--rho", "2", "--delta", "1"]
MOMENTS = ["heavytail", "moments", *WE, "--k", "1..3"]
SAMPLE = ["heavytail", "sample", *WE, "--n", "5", "--seed", "1"]
TRACE = ["heavytail", "trace", *WE, "--n", "5", "--seed", "1"]
LAYOUT = ["--n-clusters", "3", "--cluster-size", "2", "--seed", "1"]
SIMULATE_CS = ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1", *LAYOUT]
SIMULATE_EXTENDED = ["simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1",
                     "--alpha", "0", *LAYOUT]

# ROADMAP item 12's extremes: each float flag at 10^k, at 0.5, 1 and 3, and the
# variance components also at -0.2 and -1e-300.
EXTREMES = [f"1e{k}" for k in (-320, -300, -150, -8, 8, 150, 300)] + ["0.5", "1", "3"]
SIGNED = EXTREMES + ["-0.2", "-1e-300"]
WE_EXTREMES = dict.fromkeys(["--phi", "--rho", "--delta"], EXTREMES)
EXTREMES_GRID = {  # name -> (fixed argv, {float flag: values}); every combination is run
    "eb": (["eb"], {"--lambda2": SIGNED, "--nu2": SIGNED, "--alpha": EXTREMES}),
    "eb --n 5": (["eb", "--n=5"], {"--lambda2": SIGNED, "--nu2": SIGNED, "--alpha": EXTREMES}),
    "equivalence": (["equivalence"],
                    {"--lambda2": SIGNED, "--nu2": SIGNED, "--alpha-grid": EXTREMES}),
    "heavytail moments": (["heavytail", "moments", "--k", "1..3"], WE_EXTREMES),
    "heavytail sample": (["heavytail", "sample", "--n", "3", "--seed", "1"], WE_EXTREMES),
    "heavytail trace": (["heavytail", "trace", "--n", "3", "--seed", "1"], WE_EXTREMES),
    "pit": (["pit", "--n", "3", "--seed", "1"], WE_EXTREMES),
    "simulate --model cs": (["simulate", "--model", "cs", *LAYOUT],
                            {"--lambda": SIGNED, "--phi": SIGNED, "--xi": EXTREMES}),
}


# one ordinary call of each action and model; between them they give every float flag of
# COMMANDS, which test_non_finite_flags_are_refused sets to inf, -inf and nan in turn
ORDINARY = {
    "equivalence": ["equivalence", "--lambda2", "1", "--nu2", "1", "--alpha-grid", "0.5"],
    "eb": ["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "0.5"],
    "simulate --model cs": [*SIMULATE_CS, "--xi", "0"],
    "simulate --model extended": [*SIMULATE_EXTENDED, "--xi", "0"],
    "heavytail moments": MOMENTS,
    "heavytail sample": SAMPLE,
    "heavytail trace": TRACE,
    "pit": ["pit", *WE, "--n", "5", "--seed", "1"],
}


def float_flags(name: str) -> dict:
    """flag -> parameter name of the options of subcommand name that take floats."""
    options = COMMANDS[name][3]
    return {flag: dest.split("_")[0] for flag, dest, type_, _, _ in options
            if type_ in (float, _float_list)}


def every_command(tmp_path, m: int) -> list:
    """(argv, exit code) of every subcommand with its outputs in tmp_path, at m clusters or
    draws (m // 100 alphas or moments), then fit of a refused file and a usage error."""
    bad = tmp_path / "bad.csv"
    bad.write_text("cluster,unit,y,x1\nc1,1,1,1\nc1,2,oops,1\n")
    data, out = str(tmp_path / f"d{m}.csv"), ["--out", str(tmp_path / "out")]
    layout = ["--n-clusters", str(m), "--cluster-size", "2", "--seed", "1"]
    return [
        (["simulate", "--model", "cs", "--lambda", "1", "--phi", "1", *layout, "--out", data], 0),
        (["simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1", "--alpha", "0",
          *layout, *out, "--latent", str(tmp_path / "latent")], 0),
        (["fit", "--data", data, *out], 0),
        (["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "0", "--n", str(m), *out], 0),
        (["equivalence", "--lambda2", "1", "--nu2", "1",
          "--alpha-grid=" + ",".join(["0.5"] * (m // 100)), *out], 0),
        (["heavytail", "moments", *WE, "--k", f"1..{m // 100}", *out], 0),
        (["heavytail", "sample", *WE, "--n", str(m), "--seed", "1", *out], 0),
        (["heavytail", "trace", *WE, "--n", str(m), "--seed", "1", *out], 0),
        (["pit", *WE, "--n", str(m), "--seed", "1", *out], 0),
        (["fit", "--data", str(bad), *out], 1),
        (["simulate", "--model", "cs", *layout, "--bogus"], 2),
    ]


class TestContract:
    def test_usage_error_is_exit_2(self, capsys):
        assert run(capsys, "nonsense")[0] == 2
        assert run(capsys, "equivalence")[0] == 2

    @pytest.mark.parametrize(
        "argv,mode,flag",
        [
            ([*MOMENTS, "--seed", "3"], "heavytail moments", "--seed"),
            ([*MOMENTS, "--n", "5"], "heavytail moments", "--n"),
            ([*MOMENTS, "--stride", "2"], "heavytail moments", "--stride"),
            ([*SAMPLE, "--k", "2"], "heavytail sample", "--k"),
            ([*SAMPLE, "--stride", "2"], "heavytail sample", "--stride"),
            ([*TRACE, "--k", "1..3"], "heavytail trace", "--k"),
            ([*SIMULATE_CS, "--lambda2", "1"], "simulate --model cs", "--lambda2"),
            ([*SIMULATE_CS, "--nu2", "1"], "simulate --model cs", "--nu2"),
            ([*SIMULATE_CS, "--alpha", "0"], "simulate --model cs", "--alpha"),
            ([*SIMULATE_EXTENDED, "--lambda", "5"], "simulate --model extended", "--lambda"),
            ([*SIMULATE_EXTENDED, "--phi", "9"], "simulate --model extended", "--phi"),
        ],
    )
    def test_unread_flags_are_usage_errors_naming_the_flag(self, capsys, argv, mode, flag):
        """A flag that the action or model never reads is refused, not dropped."""
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.splitlines()[-1] == f"unobs-lab: error: {mode} takes no {flag}"

    @pytest.mark.parametrize(
        "argv,flag",
        [(MOMENTS, ["--stride", "1"]), (SAMPLE, ["--k", "1"]), (SAMPLE, ["--stride", "1"]),
         (TRACE, ["--k", "1"])],
    )
    def test_unread_flags_at_their_default_are_accepted(self, capsys, argv, flag):
        rc, out, err = run(capsys, *argv, *flag)
        assert (rc, err) == (0, "")
        assert out == run(capsys, *argv)[1]

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

    @pytest.mark.parametrize(
        "argv,flag,text",
        [
            (["equivalence", "--lambda2", "1", "--nu2", "1", "--alpha-grid=1,,2"],
             "--alpha-grid", "'1,,2'"),
            (["equivalence", "--lambda2", "1", "--nu2", "1", "--alpha-grid=,0.5"],
             "--alpha-grid", "',0.5'"),
            (["simulate", "--model", "cs", "--lambda", "1", "--phi", "1", "--xi=1,",
              "--n-clusters", "2", "--cluster-size", "2", "--seed", "1"], "--xi", "'1,'"),
        ],
    )
    def test_empty_list_items_are_usage_errors_naming_the_flag(self, capsys, argv, flag, text):
        """A doubled, leading or trailing comma is refused, not dropped."""
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.splitlines()[-1].endswith(
            f"error: argument {flag}: {text} has an empty item "
            "(a doubled, leading or trailing comma)")

    def test_negative_number_may_be_a_separate_value(self, capsys):
        eb = ["eb", "--lambda2", "1", "--nu2", "1"]
        spaced = run(capsys, *eb, "--alpha", "-0.5")
        assert spaced[0] == 0 and spaced == run(capsys, *eb, "--alpha=-0.5")
        grid = ["equivalence", "--lambda2", "1", "--nu2", "1", "--alpha-grid"]
        assert run(capsys, *grid, "-1,0")[0] == 2  # not a number: it needs the = form
        assert run(capsys, *grid[:-1], "--alpha-grid=-1,0")[0] == 0

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
    def test_console_entry_exits_with_the_code_of_main(self, capsys, argv, rc):
        """entry() is the installed unobs-lab script; stdout is main's, the collector is
        off, and the objects alive when main returns are frozen out of the collection at
        finalization."""
        proc = fresh(
            "import atexit, gc, sys\n"
            "atexit.register(lambda: sys.stderr.write(\n"
            "    f'\\nfrozen {gc.get_freeze_count()} {gc.isenabled()}\\n'))\n"
            f"sys.argv = ['unobs-lab', *{argv!r}]\n"
            "from unobs_lab.cli import entry\n"
            "entry()\n"
        )
        assert proc.returncode == rc, proc.stderr
        assert proc.stdout == run(capsys, *argv)[1]
        if rc == 0:
            assert json.loads(proc.stdout)["shrinkage"] == pytest.approx(4.0 / 3.0)
        word, frozen, enabled = proc.stderr.splitlines()[-1].split()
        assert (word, enabled) == ("frozen", "False") and int(frozen) > 0, proc.stderr

    def test_calls_leave_no_garbage_that_grows_with_the_data(self, tmp_path, capsys):
        """entry() runs main() without the cyclic collector, so a call must not leave
        cycles for it that grow with the data: as many at 100 as at 10,000 clusters or
        draws, and few (on CPython 3.11, none after a command and a few hundred of
        argparse's after a usage error)."""
        garbage = {}
        gc.collect()
        gc.disable()
        try:
            for m in (100, 100, 10_000):  # the first round warms every import and cache
                for i, (argv, rc) in enumerate(every_command(tmp_path, m)):
                    assert main(argv) == rc, capsys.readouterr().err
                    capsys.readouterr()
                    garbage[i, m] = gc.collect()
        finally:
            gc.enable()
        for (i, m), count in garbage.items():
            assert count == garbage[i, 100] < 1000, garbage

    def test_no_output_is_left_for_the_collector_to_close(self, tmp_path, capsys, monkeypatch):
        """entry() freezes what main() leaves alive, so main() must close every file it
        opens: a file closed by a finalizer would warn here."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        for argv, rc in every_command(tmp_path, 100):
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                assert main(argv) == rc, capsys.readouterr().err
                gc.collect()
            assert not unraisable, (argv, [str(u.exc_value) for u in unraisable])

    @pytest.mark.parametrize("name", list(EXTREMES_GRID))
    def test_extremes_grid(self, capsys, name):
        """Every float flag at ROADMAP item 12's extremes, in every combination: exit 0
        with finite numbers only, or exit 1 with one error line, and no warning. eb exits 1
        only where its input is outside the domain or an answer is past the floats, and
        its records match 50-digit decimal (eb_matches_decimal)."""
        argv, flags = EXTREMES_GRID[name]
        bad = []
        for values in itertools.product(*flags.values()):
            call = [*argv, *(f"{flag}={value}" for flag, value in zip(flags, values))]
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                rc, out, err = run(capsys, *call)
            ok = (rc == 0 and err == "" and not re.search(r"(?i)\b(inf|infinity|nan)\b", out)
                  or rc == 1 and out == "" and re.fullmatch(r"error: [^\n]*\n", err))
            if name.startswith("eb"):
                floats, n = [float(v) for v in values], 5 if "--n=5" in argv else 2
                due = eb_refusal_is_due(*floats, n=n) if rc else eb_matches_decimal(out, *floats, n)
                ok = ok and due
            if not ok or seen:
                bad.append((call, rc, err, [str(w.message) for w in seen]))
        assert not bad, (len(bad), bad[:5])

    def test_ordinary_calls_give_every_float_flag(self):
        given = {}
        for argv in ORDINARY.values():
            given.setdefault(argv[0], set()).update(w for w in argv if w in float_flags(argv[0]))
        assert given == {name: set(float_flags(name)) for name in COMMANDS if float_flags(name)}

    @pytest.mark.parametrize("mode", list(ORDINARY))
    def test_non_finite_flags_are_refused(self, capsys, mode):
        """Each float flag at inf, -inf and nan, the others ordinary: exit 1, no output,
        one error line that names the parameter, and no warning (not a nan written, nor
        an internal message such as round()'s)."""
        argv, names = ORDINARY[mode], float_flags(ORDINARY[mode][0])
        assert run(capsys, *argv)[0] == 0
        bad = []
        for i, flag in enumerate(argv):
            if flag not in names:
                continue
            for value in ("inf", "-inf", "nan"):
                call = [*argv[:i], f"{flag}={value}", *argv[i + 2:]]
                with warnings.catch_warnings(record=True) as seen:
                    warnings.simplefilter("always")
                    rc, out, err = run(capsys, *call)
                line = re.fullmatch(r"error: [^\n]*\n", err)
                if not (rc == 1 and out == "" and line and names[flag] in err) or seen:
                    bad.append((call, rc, out[:80], err, [str(w.message) for w in seen]))
        assert not bad, bad

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


# SHA-256 of `unobs-lab [<cmd>] --help` with COLUMNS=80, as the hand-written
# argparse parser that preceded the grammar table printed it.
HELP_SHA256 = {
    "": "ad0eff090854698b9cd6b57d8900c27ab5fb18c8e55c50b5098de97820d930cf",
    "equivalence": "33de23b0a176da1566383e6b38608cc3f64d2f4d30497431b3015fcef4e3c94c",
    "eb": "a3d5edc862f33906c2cb4f3b98601609eea467f11e5aff459fb54970a7ddfc2a",
    "fit": "8b473e5ab29af609cd9d12cef04b69a8a84d9da145e0f7b3730827598a7ae41c",
    "simulate": "0808fff8fa62b43e16d6496126f49eedb358882ab1c422b841919fa4d14c47bf",
    "heavytail": "a75ed024020ef4601d0bbc8347885352305442ec491132935eba8e5bb0de5f5d",
    "pit": "db36b80c5eec90d1e4e5db5969e1bb8b119cc739173a52b904f4f4461ec50352",
}

# Values for every kind of option: good ones, then ones that argparse refuses
# or reads in its own way (negative numbers, '-', '--', the empty string).
VALUES = {
    "float": (["1", "0.5", "2e-3", "inf", "nan", "-0.5"], ["-1", "x", "", "1,2", "-"]),
    "int": (["2", "10", "0", "007", "-3"], ["1.5", "x", "", "-"]),
    "_float_list": (["0", "0.5,1", "-1,0,1"], ["1,,2", ",", "1,", "", "x", "-"]),
    "_k_range": (["1..4", "3", "1,2"], ["3..1", "1..", "x", "", "-1"]),
    "str": (["d.csv", "a=b", "x y", "-"], ["", "--", "-x"]),
}
NOISE = ["-h", "--help", "--", "--lam", "--al", "--n", "--see", "--bogus", "--bogus=1",
         "extra", "moments", "-1", "", "-"]


@st.composite
def _argv(draw):
    """argv near the grammar: known and unknown subcommands, flags, values and noise.

    Most draws are plain argv, so both the fast path and argparse's own
    readings (repeats, '-' values, abbreviations, errors) are reached.
    """
    cmd = draw(st.sampled_from([*COMMANDS, "nonsense", "", "--help"]))
    _, _, positionals, options = COMMANDS.get(cmd, (None, None, (), ()))
    groups = []
    for flag, _, type_, default, choices in options:
        counts = [0, *[1] * 17, 2, 2] if default is REQUIRED else [*[0] * 10, *[1] * 9, 2]
        good, bad = (choices, ["nope", ""]) if choices else VALUES[type_.__name__]
        for _ in range(draw(st.sampled_from(counts))):
            value = draw(st.sampled_from(good if draw(st.integers(0, 9)) else bad))
            groups.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    for _, choices in positionals:
        if draw(st.integers(0, 9)):
            groups.append([draw(st.sampled_from([*choices, "moment", "-"]))])
    flags = [flag for cmd_options in COMMANDS.values() for flag, *_ in cmd_options[3]]
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1, 2]))):
        groups.append([draw(st.sampled_from(NOISE + flags))])
    groups = draw(st.permutations(groups))
    return [cmd] + [arg for group in groups for arg in group]


def _parsed(namespace):
    """A namespace's values in an order-free form that counts nan equal to nan."""
    return repr(sorted(vars(namespace).items()))


PARSER = build_parser()


def _argparse_vars(parser, argv):
    """argparse's parse of argv, or None where it exits (help or a usage error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _parsed(parser.parse_args(argv))
        except SystemExit:
            return None


def _readme_commands():
    """Every `unobs-lab ...` command line of the README, without the program name."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("unobs-lab ")]


class TestGrammar:
    @pytest.mark.parametrize("cmd", list(HELP_SHA256))
    def test_help_is_byte_identical(self, cmd, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        rc, out, err = run(capsys, *([cmd] if cmd else []), "--help")
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[cmd], out

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["eb", "--lambda2", "1", "--nu2", "1"],
             "usage: unobs-lab eb [-h] --lambda2 LAMBDA2 --nu2 NU2 --alpha ALPHA [--n N]\n"
             "                    [--out OUT]\n"
             "unobs-lab eb: error: the following arguments are required: --alpha\n"),
            (["simulate", "--lam", "1", "--phi", "1", "--n-clusters", "2", "--cluster-size", "2",
              "--seed", "1"],
             "usage: unobs-lab simulate [-h] [--model {cs,extended}] [--lambda LAM]\n"
             "                          [--phi PHI] [--lambda2 LAMBDA2] [--nu2 NU2]\n"
             "                          [--alpha ALPHA] [--xi XI] --n-clusters N_CLUSTERS\n"
             "                          --cluster-size CLUSTER_SIZE --seed SEED [--out OUT]\n"
             "                          [--latent LATENT]\n"
             "unobs-lab simulate: error: ambiguous option: --lam could match --lambda, --lambda2\n"),
            (["heavytail", "moment", "--phi", "1", "--rho", "2", "--delta", "1"],
             "usage: unobs-lab heavytail [-h] --phi PHI --rho RHO --delta DELTA [--k K]\n"
             "                           [--n N] [--stride STRIDE] [--seed SEED] [--out OUT]\n"
             "                           {moments,sample,trace}\n"
             "unobs-lab heavytail: error: argument action: invalid choice: 'moment' "
             "(choose from 'moments', 'sample', 'trace')\n"),
            (["equivalence", "--lambda2", "1", "--nu2", "1", "--alpha-grid", "-1,0"],
             "usage: unobs-lab equivalence [-h] --lambda2 LAMBDA2 --nu2 NU2 --alpha-grid\n"
             "                             ALPHA_GRID [--n N] [--out OUT]\n"
             "unobs-lab equivalence: error: argument --alpha-grid: expected one argument\n"),
            (["heavytail", "trace", "--phi", "1", "--rho", "1", "--delta", "1", "--n", "3"],
             "usage: unobs-lab [-h] {equivalence,eb,fit,simulate,heavytail,pit} ...\n"
             "unobs-lab: error: --seed is required for stochastic subcommands\n"),
        ],
    )
    def test_usage_errors_are_byte_identical(self, argv, err, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize(
        "argv,want",
        [
            (["equivalence", "--lambda2", "1", "--nu2", "1", "--alpha-grid", "0"],
             {"subcommand": "equivalence", "lambda2": 1.0, "nu2": 1.0, "alpha_grid": [0.0],
              "n": 2, "out": None, "func": "_cmd_equivalence"}),
            (["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "0"],
             {"subcommand": "eb", "lambda2": 1.0, "nu2": 1.0, "alpha": 0.0, "n": 2, "out": None,
              "func": "_cmd_eb"}),
            (["fit", "--data", "d.csv"],
             {"subcommand": "fit", "data": "d.csv", "out": None, "func": "_cmd_fit"}),
            (["simulate", "--n-clusters", "2", "--cluster-size", "2", "--seed", "1"],
             {"subcommand": "simulate", "model": "cs", "lam": None, "phi": None, "lambda2": None,
              "nu2": None, "alpha": None, "xi": [0.0], "n_clusters": 2, "cluster_size": 2,
              "seed": 1, "out": None, "latent": None, "func": "_cmd_simulate"}),
            (["heavytail", "moments", "--phi", "1", "--rho", "2", "--delta", "1"],
             {"subcommand": "heavytail", "action": "moments", "phi": 1.0, "rho": 2.0,
              "delta": 1.0, "k": [1], "n": None, "stride": 1, "seed": None, "out": None,
              "func": "_cmd_heavytail"}),
            (["pit", "--phi", "1", "--rho", "2", "--delta", "1", "--n", "3", "--seed", "1"],
             {"subcommand": "pit", "dist": "weibull-exp", "phi": 1.0, "rho": 2.0, "delta": 1.0,
              "n": 3, "seed": 1, "out": None, "func": "_cmd_pit"}),
        ],
    )
    def test_parsed_values_are_pinned(self, argv, want):
        """Both parsers read COMMANDS, so these values, which the argparse parser written
        out flag by flag gave, pin every dest, type and default of the table."""
        for args in (_fast_parse(argv), build_parser().parse_args(argv)):
            got = dict(vars(args), func=args.func.__name__)
            assert got == want

    @settings(max_examples=500, deadline=None)
    @given(_argv())
    def test_fast_path_agrees_with_argparse(self, argv):
        fast = _fast_parse(argv)
        assert fast is None or _parsed(fast) == _argparse_vars(PARSER, argv), argv

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[:2]))
    def test_readme_examples_take_the_fast_path(self, argv):
        fast = _fast_parse(argv)
        assert fast is not None and _parsed(fast) == _argparse_vars(PARSER, argv)

    def test_readme_lists_every_subcommand(self):
        assert {argv[0] for argv in _readme_commands()} == set(COMMANDS)

    def test_benchmark_calls_take_the_fast_path(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
        import workloads

        calls = [call for name in workloads.WORKLOADS
                 for call in workloads.build(name, 1, str(tmp_path), smoke=True).calls]
        assert {call.argv[0] for call in calls} == set(COMMANDS)
        for call in calls:
            fast = _fast_parse(call.argv)
            assert fast is not None and _parsed(fast) == _argparse_vars(PARSER, call.argv)


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
        modules = ["numpy", "scipy", "dataclasses", "inspect", "typing", "argparse"]
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid=-1,0,1"],
            ["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "0", "--n", "3"],
            ["fit", "--data", "{tiny_csv}"],
            ["simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1", "--alpha", "0",
             "--n-clusters", "5", "--cluster-size", "2", "--seed", "1", "--latent=-"],
            ["heavytail", "moments", "--phi", "1", "--rho", "2", "--delta", "1", "--k", "1..4"],
            ["heavytail", "trace", "--phi", "1", "--rho", "2", "--delta", "1",
             "--n", "3", "--seed", "1"],
            ["pit", "--dist", "weibull-exp", "--phi", "1", "--rho", "1", "--delta", "1",
             "--n", "3", "--seed", "1"],
        ],
    )
    def test_plain_argv_loads_no_argparse(self, argv, tmp_path):
        """Plain argv is read from the grammar table; argparse and gettext stay unloaded."""
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("cluster,unit,y,x1\na,1,1,1\na,2,2,1\nb,1,4,1\nb,2,3,1\nc,1,0,1\n")
        argv = [arg.replace("{tiny_csv}", str(tiny)) for arg in argv]
        modules = ("argparse", "gettext")
        assert cold_main(argv, modules) == (0, dict.fromkeys(modules, False))

    @pytest.mark.parametrize(
        "argv",
        [
            ["eb", "--lambda2", "1", "--nu2", "1"],
            ["equivalence", "--lambda2", "1", "--nu2", "1", "--alpha-grid=1,,2"],
            ["heavytail", "trace", "--phi", "1", "--rho", "1", "--delta", "1", "--n", "3"],
        ],
    )
    def test_usage_error_loads_argparse(self, argv):
        assert cold_main(argv, ("argparse",)) == (2, {"argparse": True})

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

    def test_every_subcommand_runs_without_scipy(self):
        """tests/without_scipy.py, which CI's installed-script step also runs."""
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "without_scipy.py")],
                              capture_output=True, env=env, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

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
        """The CS names live in cs.py, the numpy-free scalar layer."""
        loaded = cold(
            "import sys\n"
            "from unobs_lab.cs import CSMatrix, DomainError, validate_cs\n"
            "sys.stderr.write(repr(sorted(m for m in sys.modules\n"
            "                             if m == 'numpy' or m.startswith('unobs_lab'))))\n"
        )
        assert loaded == ["unobs_lab", "unobs_lab.cs"]

    def test_package_names_resolve_to_their_modules(self):
        """The package root holds only __version__; every other name is its module's."""
        loaded = cold(
            "import sys, unobs_lab\n"
            "sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith('unobs_lab'))))\n"
        )
        assert loaded == ["unobs_lab"]
        import unobs_lab

        assert unobs_lab.__version__ == "0.1.0"
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            unobs_lab.nope
