import ast
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact import (D, a_n, claim1, expected, expected_csv, least_eigenvalue, moment, quantile,
                   running_means)
from unobs_lab import heavytail as ht
from unobs_lab.cli import COMMANDS, REQUIRED, _fast_parse, _float_list, _json, build_parser, main
from unobs_lab.cs import write_rows
from unobs_lab.equivalence import ExtendedSpec
from unobs_lab.estimation import SimLayout, simulate_cs, simulate_extended
from unobs_lab.model_core import CSParams
from unobs_lab.rows import CHUNK


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def fresh(code: str, *flags: str) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter, with flags, that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, env=env,
                          text=True)


def cold_loads(code: str, modules, *flags):
    """rc as code sets it (0 where it does not), and which of modules are loaded, after code
    runs in a fresh interpreter with flags; read from the last line code's run writes to
    stderr."""
    proc = fresh(
        "import sys\n"
        "rc = 0\n"
        f"{code}\n"
        "sys.stdout.flush()\n"
        f"sys.stderr.write('\\n' + repr((rc, [m in sys.modules for m in {modules!r}])))\n",
        *flags,
    )
    lines = proc.stderr.splitlines()
    assert proc.returncode == 0 and lines, proc.stderr
    rc, loaded = ast.literal_eval(lines[-1])
    return rc, dict(zip(modules, loaded))


def eb_refusal_is_due(lambda2: float, nu2: float, alpha: float, n: int) -> bool:
    """Whether eb may exit 1: a domain violation, or d, tau or shrinkage past the floats."""
    if not (nu2 > 0 and -1 <= alpha <= 1 and D(lambda2) + D(nu2) > 0
            and D(nu2) + n * D(lambda2) > 0):
        return True
    return any(abs(v) > D(sys.float_info.max) for v in claim1(lambda2, nu2, alpha, n)[:3])


def equivalence_refusal_is_due(lambda2: float, nu2: float, alpha: float, n: int) -> bool:
    """Whether equivalence may exit 1: where eb may, or where another of its fields is past
    the floats: the n = 1 slack, 2*tau, or lambda2 + nu2 (marginal_cov, the variance total)."""
    if eb_refusal_is_due(lambda2, nu2, alpha, n):
        return True
    tau, slack = claim1(lambda2, nu2, alpha, 1)[1::2]
    return any(abs(v) > D(sys.float_info.max) for v in (slack, 2 * tau, D(lambda2) + D(nu2)))


def near(got: float, want: D) -> bool:
    """Whether got is within 1e-12 relative of want, or within 4 subnormal steps where want
    is subnormal."""
    bound = 4 * D(2) ** -1074 if abs(want) < D(sys.float_info.min) else D("1e-12") * abs(want)
    return abs(D(got) - want) <= bound


def eb_matches_decimal(rec: dict, lambda2: float, nu2: float, alpha: float, n: int) -> bool:
    """Whether an eb or equivalence record has claim1's d, tau and shrinkage (near)."""
    return all(near(rec[key], want) for key, want
               in zip(("d", "tau", "shrinkage"), claim1(lambda2, nu2, alpha, n)))


def moments_match_decimal(out: str, phi: float, rho: float, delta: float) -> bool:
    """Whether each value of a heavytail moments report is within near() of exact.moment."""
    return all(rec["value"] is None or near(rec["value"], moment(phi, rho, delta, rec["k"]))
               for rec in json.loads(out))


def draws_match_decimal(name: str, out: str, phi: float, rho: float, delta: float,
                        seed: int = 1) -> bool:
    """Whether each value a heavytail sample, heavytail trace or pit report wrote is within
    near() of its 50-digit quantile (of their running means, for trace). The probabilities
    are Philox key (seed, 0)'s uniforms, or scipy's ndtr of its normals for pit, clipped
    as the samplers clip them."""
    got = [float(line.rsplit(",", 1)[-1]) for line in out.splitlines()[name.endswith("trace"):]]
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    if name == "pit":
        from scipy.special import ndtr

        u = ndtr(gen.standard_normal(len(got)))
    else:
        u = gen.random(len(got))
    u = np.clip(u, 1e-300, 1.0 - 1e-16).tolist()
    want = (running_means(phi, rho, delta, u) if name.endswith("trace")
            else [quantile(phi, rho, delta, p) for p in u])
    return all(near(g, w) for g, w in zip(got, want))


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
        d, tau, shrinkage, slack = claim1(float(lambda2), float(nu2), 0.5, n)
        for key, want in (("d", d), ("tau", tau), ("shrinkage", shrinkage)):
            assert rec[key] == pytest.approx(float(want), rel=1e-12, abs=0.0), key
        assert rec["admissible"] is (slack >= 0) is (n == 2)
        rc, out, err = run(capsys, "equivalence", f"--lambda2={lambda2}", f"--nu2={nu2}",
                           "--alpha-grid=0.5", f"--n={n}")
        assert (rc, err) == (0, "")
        assert json.loads(out)[0]["admissible"] is rec["admissible"]

    def test_near_the_float_maximum(self, capsys):
        """lambda2 + nu2 passes the floats, but d, tau and the shrinkage do not: they are
        derived at the unit scale. 50-digit decimal gives d = 1.586e308, tau = -2.93e307."""
        rc, out, err = run(capsys, "eb", "--lambda2=1e308", "--nu2=1e308", "--alpha=-0.5")
        assert (rc, err) == (0, "")
        rec = json.loads(out)
        assert (rec["d"], rec["tau"], rec["shrinkage"]) == (
            1.5857864376269049e+308, -2.9289321881345245e+307, 0.86192881254230169)
        assert eb_matches_decimal(rec, 1e308, 1e308, -0.5, 2)


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

    @pytest.mark.parametrize("size", [1, 4])
    def test_out_dash_writes_the_file_bytes_to_stdout(self, tmp_path, capsys, size):
        argv = ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1",
                "--n-clusters", "300", "--cluster-size", str(size), "--seed", "4"]
        path = tmp_path / "sim.csv"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        text = path.read_bytes().decode()
        assert run(capsys, *argv, "--out", "-") == (0, text, "")
        assert text == expected_csv(simulate_cs(CSParams([0.0], 1.0, 1.0), SimLayout(300, size),
                                                seed=4))

    def test_latent_dash_writes_the_file_bytes_to_stdout(self, tmp_path, capsys):
        argv = ["simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1",
                "--alpha", "0.2", "--n-clusters", "200", "--cluster-size", "2", "--seed", "3",
                "--out", str(tmp_path / "sim.csv")]
        latent = tmp_path / "latent.csv"
        assert run(capsys, *argv, "--latent", str(latent)) == (0, "", "")
        assert run(capsys, *argv, "--latent", "-") == (0, latent.read_bytes().decode(), "")

    def test_latent_needs_extended_model(self, tmp_path, capsys):
        out, latent = tmp_path / "sim.csv", tmp_path / "latent.csv"
        cs = ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1",
              "--n-clusters", "5", "--cluster-size", "2", "--seed", "1", "--latent", str(latent)]
        for argv in (cs, cs + ["--out", str(out)]):
            rc, stdout, err = run(capsys, *argv)
            assert (rc, stdout) == (2, "")
            assert "simulate --model cs takes no --latent" in err
        assert not out.exists() and not latent.exists()


def inside_a_n(lambda2, nu2, n, points=5):
    """Alphas strictly inside A_n (exact.a_n), the alphas whose (b, eps) law exists at size n."""
    lo, hi = map(float, a_n(lambda2, nu2, n))
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
        want = least_eigenvalue(lambda2, 1e-320, 0.5, 5)
        # a subnormal eigenvalue: 2.5e-321 holds 506 steps of 2^-1074
        assert float(low[1]) == pytest.approx(float(want), rel=2e-3, abs=0.0)

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


# the row-output tests' Weibull-exponential law (rho = 1: no finite mean), and its flags
ROW_SPEC = ht.WeibullExpSpec(phi=1.3, rho=1.0, delta=0.7)
ROW_FLAGS = ["--phi", "1.3", "--rho", "1", "--delta", "0.7"]


class TestLineFormats:
    """Row outputs, byte for byte, against lines built here from the library."""

    def test_sample(self, capsys):
        rc, out, _ = run(capsys, "heavytail", "sample", *ROW_FLAGS, "--n", "500", "--seed", "5")
        assert rc == 0
        assert out == expected("%.17g\n", ht.we_sample(ROW_SPEC, 500, seed=5))

    def test_pit(self, capsys):
        rc, out, _ = run(capsys, "pit", *ROW_FLAGS, "--n", "500", "--seed", "8")
        draws = ht.pit_sample(lambda u: ht.we_quantile(ROW_SPEC, u), 500, seed=8)
        assert rc == 0
        assert out == expected("%.17g\n", draws)

    def test_trace(self, capsys):
        rc, out, _ = run(
            capsys, "heavytail", "trace", *ROW_FLAGS,
            "--n", "1000", "--stride", "7", "--seed", "3",
        )
        n = np.arange(7, 1001, 7)
        assert rc == 0
        assert out == "n,running_mean\n" + expected(
            "%d,%.17g\n", n, np.cumsum(ht.we_sample(ROW_SPEC, 1000, seed=3))[n - 1] / n)

    def test_simulate_extended_with_latent(self, tmp_path, capsys):
        latent = tmp_path / "latent.csv"
        rc, out, _ = run(
            capsys, "simulate", "--model", "extended", "--lambda2", "3", "--nu2", "1",
            "--alpha=-0.5", "--xi=-0.5", "--n-clusters", "6", "--cluster-size", "3",
            "--seed", "11", "--latent", str(latent),
        )
        spec = ExtendedSpec(3.0, 1.0, -0.5)  # tau = 0: PSD for clusters of 3
        data, lat = simulate_extended(spec, [-0.5], SimLayout(6, 3), seed=11)
        assert rc == 0
        assert out == expected_csv(data)
        assert latent.read_text() == "cluster,b,eps1,eps2,eps3\n" + expected(
            "c%d" + ",%.17g" * 4 + "\n", range(1, 7), lat.b, *lat.eps.reshape(6, 3).T)


SIZES = [0, 1, ht.BLOCK - 1, ht.BLOCK, ht.BLOCK + 1, 3 * ht.BLOCK + CHUNK + 7]
WORKER_CASES = [(name, N, None) for name in ("heavytail sample", "pit") for N in SIZES] + [
    ("heavytail trace", N, stride) for N in SIZES[1:] for stride in (1, 7, 10, ht.BLOCK + 3)
    if stride <= N]

# the first non-finite draw comes in a later block: draw 176,456 (block 5 from 0) of
# seed 1's uniforms, draw 145,403 (block 4) of seed 5's normals for pit
LATE = ["--phi=1", "--rho=0.01", "--delta=0.012", "--n", "1000000"]
LATE_FAILURES = {
    "heavytail sample": (["heavytail", "sample", *LATE, "--seed", "1"], 0.9999910693628081),
    "heavytail trace": (["heavytail", "trace", *LATE, "--seed", "1"], 0.9999910693628081),
    "pit": (["pit", *LATE, "--seed", "5"], 0.999999401217019),
}


class TestRowOutputsThroughTheWorker:
    """sample, trace and pit fill their rows in a worker thread while the rows already
    final are formatted: the bytes are the plain writer's, and an exit 1 writes nothing."""

    def library_rows(self, name, N, stride) -> str:
        """write_rows, without a fill, of the library's arrays."""
        if name == "heavytail trace":
            head, columns = "n,running_mean\n", ht.running_mean_trace(ROW_SPEC, N, stride, 3)
        elif name == "pit":
            head, columns = "", [ht.pit_sample(lambda u: ht.we_quantile(ROW_SPEC, u), N, 3)]
        else:
            head, columns = "", [ht.we_sample(ROW_SPEC, N, 3)]
        buf = io.StringIO()
        write_rows(buf, head, *columns)
        return buf.getvalue()

    @pytest.mark.parametrize("name,N,stride", WORKER_CASES)
    def test_bytes_are_the_plain_writers(self, tmp_path, capsys, name, N, stride):
        argv = [*name.split(), *ROW_FLAGS, "--n", str(N), "--seed", "3"]
        argv += ["--stride", str(stride)] if stride else []
        want = self.library_rows(name, N, stride)
        threads = threading.active_count()
        assert run(capsys, *argv) == (0, want, "")
        path = tmp_path / "rows.txt"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == want.encode()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("name", list(LATE_FAILURES))
    def test_failure_in_a_later_block_writes_nothing(self, tmp_path, capsys, name):
        argv, u = LATE_FAILURES[name]
        err = f"error: quantile returned a non-finite value at u = {u!r}\n"
        threads = threading.active_count()
        keep, missing = tmp_path / "keep.txt", tmp_path / "missing.txt"
        keep.write_bytes(b"kept\n")
        assert run(capsys, *argv) == (1, "", err)
        assert run(capsys, *argv, "--out", str(keep)) == (1, "", err)
        assert run(capsys, *argv, "--out", str(missing)) == (1, "", err)
        assert keep.read_bytes() == b"kept\n" and not missing.exists()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("argv", [["heavytail", "sample"], ["heavytail", "trace"], ["pit"]])
    def test_out_into_a_missing_directory(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "rows.txt"
        threads = threading.active_count()
        rc, out, err = run(capsys, *argv, *ROW_FLAGS, "--n", "1000", "--seed", "3",
                           "--out", str(path))
        assert (rc, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
        assert threading.active_count() == threads

    @pytest.mark.parametrize("delta,n", [("30342284.689919677", ["--n", "3"]),
                                         ("6e5", ["--stride", "1", "--n", "50"])])
    def test_trace_sums_past_the_float_maximum(self, capsys, delta, n):
        """Each running mean fits in a float though the running sum does not (from n = 2 at
        the first delta, n = 41 at the second), so the means are written."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "heavytail", "trace", "--phi=1e-300", "--rho=1",
                               f"--delta={delta}", *n, "--seed", "1")
        assert (rc, err) == (0, "")
        assert "inf" not in out and len(out.splitlines()) == int(n[-1]) + 1
        assert draws_match_decimal("heavytail trace", out, 1e-300, 1.0, float(delta))


WE = ["--phi", "1", "--rho", "2", "--delta", "1"]
MOMENTS = ["heavytail", "moments", *WE, "--k", "1..3"]
SAMPLE = ["heavytail", "sample", *WE, "--n", "5", "--seed", "1"]
TRACE = ["heavytail", "trace", *WE, "--n", "5", "--seed", "1"]
LAYOUT = ["--n-clusters", "3", "--cluster-size", "2", "--seed", "1"]
SIMULATE_CS = ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1", *LAYOUT]
SIMULATE_EXTENDED = ["simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1",
                     "--alpha", "0", *LAYOUT]

# ROADMAP item 12's extremes: each float flag at 10^k, at 0.5, 1 and 3, and the
# variance components also at -0.2 and -1e-300; those of eb and equivalence also near
# the float maximum, and their alpha also at -0.5.
EXTREMES = [f"1e{k}" for k in (-320, -300, -150, -8, 8, 150, 300)] + ["0.5", "1", "3"]
SIGNED = EXTREMES + ["-0.2", "-1e-300"]
WIDE = {"--lambda2": SIGNED + ["1e308", "1.7e308"], "--nu2": SIGNED + ["1e308", "1.7e308"]}
WE_EXTREMES = dict.fromkeys(["--phi", "--rho", "--delta"], EXTREMES)
EXTREMES_GRID = {  # name -> (fixed argv, {float flag: values}); every combination is run
    "eb": (["eb"], {**WIDE, "--alpha": EXTREMES + ["-0.5"]}),
    "eb --n 5": (["eb", "--n=5"], {**WIDE, "--alpha": EXTREMES + ["-0.5"]}),
    "equivalence": (["equivalence"], {**WIDE, "--alpha-grid": EXTREMES + ["-0.5"]}),
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


# The CSV files a table's command line names as {name}, by name.
CSVS = {
    "tiny_csv": "cluster,unit,y,x1\na,1,1,1\na,2,2,1\nb,1,4,1\nb,2,3,1\nc,1,0,1\n",
    "ragged_csv": "cluster,unit,y,x1\na,1,1,1\na,2,2\n",
    "no_x_csv": "cluster,unit,y\na,1,1\na,2,2\nb,1,3\nb,2,5\n",
    "single_csv": "cluster,unit,y,x1\na,1,1,1\nb,1,2,1\nc,1,3,1\n",
    "equal_columns_csv": "cluster,unit,y,x1,x2\na,1,1,1,1\na,2,2,2,2\nb,1,3,1,1\nb,2,5,3,3\n",
}


@pytest.fixture
def csvs(tmp_path):
    """name -> path of each CSVS file, written in tmp_path."""
    for name, text in CSVS.items():
        (tmp_path / name).write_text(text)
    return {name: tmp_path / name for name in CSVS}


LAW, CS, EXT = (" ".join(argv) for argv in (WE, SIMULATE_CS, SIMULATE_EXTENDED))
SEEDED = ["heavytail sample --n 5 --rho 1 --delta 1", "heavytail trace --n 5 --rho 1 --delta 1",
          "pit --n 5 --rho 1 --delta 1", "simulate --n-clusters 2 --cluster-size 2 --lambda 1"]
NOT_JSON = "non-finite value inf cannot be written as JSON"
EMPTY_ITEM = "has an empty item (a doubled, leading or trailing comma)"

# The refusal contract, one row per refused command line: the line (its {name}s are CSVS
# files), its exit code, and the last line it writes to stderr. Exit 1 writes that line
# alone; exit 2 writes argparse's usage before it.
REFUSALS = [
    ("nonsense", 2, "unobs-lab: error: argument subcommand: invalid choice: 'nonsense' "
     "(choose from 'equivalence', 'eb', 'fit', 'simulate', 'heavytail', 'pit')"),
    ("equivalence", 2, "unobs-lab equivalence: error: the following arguments are required: "
     "--lambda2, --nu2, --alpha-grid"),
    ("equivalence --lambda2 2 --nu2 1 --alpha-grid 1.5", 1,
     "error: alpha = 1.5 outside the admissible box [-1, 1]"),
    ("equivalence --lambda2 1e308 --nu2 1e308 --alpha-grid=0.5", 1,
     f"error: alpha = 0.5: d: {NOT_JSON}"),
    ("equivalence --lambda2 1e200 --nu2 1e200 --alpha-grid=-1,-0.5 --n 4", 1,
     f"error: alpha = -0.5: slack: {NOT_JSON}"),
    ("equivalence --lambda2 1 --nu2 1 --alpha-grid=,", 2,
     "unobs-lab equivalence: error: argument --alpha-grid: ',' gives no values"),
    ("equivalence --lambda2 1 --nu2 1 --alpha-grid=1,,2", 2,
     f"unobs-lab equivalence: error: argument --alpha-grid: '1,,2' {EMPTY_ITEM}"),
    ("equivalence --lambda2 1 --nu2 1 --alpha-grid=,0.5", 2,
     f"unobs-lab equivalence: error: argument --alpha-grid: ',0.5' {EMPTY_ITEM}"),
    ("equivalence --lambda2 1 --nu2 1 --alpha-grid=a,b", 2,
     "unobs-lab equivalence: error: argument --alpha-grid: "
     "not a comma-separated float list: 'a,b'"),
    ("eb --lambda2 1 --nu2 1 --alpha 0.5 --n=0", 1, "error: cluster size n = 0 is not >= 1"),
    ("eb --lambda2 1 --nu2 1 --alpha 0.5 --n=-3", 1, "error: cluster size n = -3 is not >= 1"),
    ("eb --lambda2 inf --nu2 1 --alpha 0.5", 1, "error: lambda2 = inf is non-finite"),
    ("eb --lambda2=1.7e308 --nu2=1.7e308 --alpha=0", 1, f"error: d: {NOT_JSON}"),
    ("fit --data {ragged_csv}", 1, "error: line 3: expected 4 columns, got 3"),
    ("fit --data {no_x_csv}", 1,
     "error: line 1: no covariate columns x1..xp after 'cluster,unit,y'"),
    ("fit --data {single_csv}", 1,
     "error: lam is unidentified: every cluster has a single observation"),
    ("fit --data {equal_columns_csv}", 1,
     "error: no PD point has a finite likelihood: X is rank deficient or fits y exactly"),
    ("simulate --model cs --lambda 1 --phi 1 --xi 1,2 --n-clusters 5 --cluster-size 2 --seed 1", 1,
     "error: xi has 2 entries; simulation is intercept-only and needs 1"),
    ("simulate --model extended --lambda2 1 --nu2 1 --alpha 0.2 --xi 1,2 --n-clusters 5 "
     "--cluster-size 2 --seed 1", 1,
     "error: xi has 2 entries; simulation is intercept-only and needs 1"),
    ("simulate --model cs --lambda 1 --phi 1 --n-clusters 10 --cluster-size 2", 2,
     "unobs-lab simulate: error: the following arguments are required: --seed"),
    ("simulate --lambda 1 --phi 1 --n-clusters 0 --cluster-size 2 --seed 1", 1,
     "error: n_clusters must be >= 1: n_clusters = 0"),
    ("simulate --lambda 1 --phi 1 --n-clusters 3 --cluster-size 0 --seed 1", 1,
     "error: cluster sizes must be >= 1: cluster_size = 0"),
    ("simulate --lambda=nan --phi 1 --n-clusters 3 --cluster-size 2 --seed 1", 1,
     "error: lam = nan is non-finite"),
    (f"{CS} --xi=nan", 1, "error: xi[0] = nan is non-finite"),
    (f"{EXT} --xi=nan", 1, "error: xi[0] = nan is non-finite"),
    ("simulate --model cs --lambda 1 --phi 1 --xi= --n-clusters 2 --cluster-size 2 --seed 1", 2,
     "unobs-lab simulate: error: argument --xi: '' gives no values"),
    ("simulate --model cs --lambda 1 --phi 1 --xi=1, --n-clusters 2 --cluster-size 2 --seed 1", 2,
     f"unobs-lab simulate: error: argument --xi: '1,' {EMPTY_ITEM}"),
    (f"{CS} --lambda2 1", 2, "unobs-lab: error: simulate --model cs takes no --lambda2"),
    (f"{CS} --nu2 1", 2, "unobs-lab: error: simulate --model cs takes no --nu2"),
    (f"{CS} --alpha 0", 2, "unobs-lab: error: simulate --model cs takes no --alpha"),
    (f"{CS} --latent -", 2, "unobs-lab: error: simulate --model cs takes no --latent"),
    (f"{EXT} --lambda 5", 2, "unobs-lab: error: simulate --model extended takes no --lambda"),
    (f"{EXT} --phi 9", 2, "unobs-lab: error: simulate --model extended takes no --phi"),
    ("simulate --model cs --lambda 1 --n-clusters 3 --cluster-size 2 --seed 1", 2,
     "unobs-lab: error: simulate --model cs requires --phi"),
    ("simulate --model cs --n-clusters 3 --cluster-size 2 --seed 1 --lambda2 1", 2,
     "unobs-lab: error: simulate --model cs requires --lambda"),
    ("simulate --model extended --lambda2 1 --nu2 1 --n-clusters 3 --cluster-size 2 --seed 1", 2,
     "unobs-lab: error: simulate --model extended requires --alpha"),
    ("simulate --model extended --n-clusters 3 --cluster-size 2 --seed 1 --phi 1", 2,
     "unobs-lab: error: simulate --model extended takes no --phi"),
    *((f"{call} --phi 1 --seed={seed}", 1,
       f"error: seed = {seed}: not a 64-bit unsigned integer, [0, 2**64 - 1]")
      for seed in ("-1", "18446744073709551616") for call in SEEDED),
    ("heavytail moments --phi=1e300 --rho=1.1 --delta=1e-300 --k 1", 1,
     "error: moment k=1 is about 1e-545, past the floats"),
    ("heavytail moments --phi=1e-300 --rho=1.1 --delta=1e300 --k 1", 1,
     "error: moment k=1 is about 1e546, past the floats"),
    (f"heavytail moments {LAW} --k 0", 1,
     "error: moment order k must be a positive integer: k = 0"),
    (f"heavytail moments {LAW} --k 0..2", 1,
     "error: moment order k must be a positive integer: k = 0"),
    (f"heavytail moments {LAW} --k=-2..1", 1,
     "error: moment order k must be a positive integer: k = -2"),
    (f"heavytail moments {LAW} --k 3..1", 2,
     "unobs-lab heavytail: error: argument --k: '3..1' gives no values"),
    (f"heavytail moments {LAW} --k 1..x", 2,
     "unobs-lab heavytail: error: argument --k: not a k range: '1..x'"),
    (f"heavytail moments {LAW} --k 1..3 --seed 3", 2,
     "unobs-lab: error: heavytail moments takes no --seed"),
    (f"heavytail moments {LAW} --k 1..3 --n 5", 2,
     "unobs-lab: error: heavytail moments takes no --n"),
    (f"heavytail moments {LAW} --k 1..3 --stride 2", 2,
     "unobs-lab: error: heavytail moments takes no --stride"),
    (f"heavytail sample {LAW} --n 5 --seed 1 --k 2", 2,
     "unobs-lab: error: heavytail sample takes no --k"),
    (f"heavytail sample {LAW} --n 5 --seed 1 --stride 2", 2,
     "unobs-lab: error: heavytail sample takes no --stride"),
    (f"heavytail trace {LAW} --n 5 --seed 1 --k 1..3", 2,
     "unobs-lab: error: heavytail trace takes no --k"),
    (f"heavytail sample {LAW} --n 5", 2, "unobs-lab: error: heavytail sample requires --seed"),
    (f"heavytail sample {LAW} --seed 1", 2, "unobs-lab: error: heavytail sample requires --n"),
    (f"heavytail trace {LAW}", 2, "unobs-lab: error: heavytail trace requires --n"),
    ("heavytail trace --phi 1 --rho 1 --delta 1 --n 1000", 2,
     "unobs-lab: error: heavytail trace requires --seed"),
    ("heavytail sample --phi 1 --rho=-1 --delta 1 --n 5 --seed 1", 1,
     "error: phi, rho, delta must all be strictly positive: rho = -1.0"),
    (f"heavytail trace {LAW} --n 5 --seed 1 --stride 10", 1,
     "error: need N >= stride >= 1: N = 5, stride = 10"),
    ("heavytail sample --phi 1 --rho 1 --delta 1 --n -1 --seed 5", 1,
     "error: n_draws = -1: the number of draws must be >= 0"),
    ("pit --phi 1 --rho 1 --delta 1 --n -1 --seed 5", 1,
     "error: n_draws = -1: the number of draws must be >= 0"),
    ("heavytail sample --phi=1e-300 --rho=0.01 --delta=1 --n 50 --seed 4", 1,
     "error: quantile returned a non-finite value at u = 2.178627012161538e-05"),
    ("heavytail trace --phi=1e-300 --rho=0.01 --delta=1 --n 50 --seed 4", 1,
     "error: quantile returned a non-finite value at u = 2.178627012161538e-05"),
    ("pit --phi=1e-300 --rho=0.01 --delta=1 --n 50 --seed 4", 1,
     "error: quantile returned a non-finite value at u = 0.5000870996119343"),
]


@pytest.mark.parametrize("line,rc,last", REFUSALS, ids=[line for line, *_ in REFUSALS])
def test_refusal(csvs, capsys, line, rc, last):
    """The one home of the exit-code contract: each refused line exits with its code, writes
    nothing to stdout and its exact error line to stderr, warns of nothing and leaves no
    thread behind."""
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got, out, err = run(capsys, *shlex.split(line.format(**csvs)))
    assert (got, out, [str(w.message) for w in seen], threading.active_count()) == (
        rc, "", [], threads)
    if rc == 1:
        assert err == last + "\n"
    else:
        assert err.startswith("usage: unobs-lab") and err.endswith("\n" + last + "\n"), err


@pytest.mark.parametrize("argv", [["heavytail", "sample"], ["heavytail", "trace"], ["pit"]])
def test_allocation_that_cannot_be_made_is_refused(capsys, argv):
    """10^14 draws need 728 TiB, which numpy refuses at once: one error line in numpy's
    words, not a traceback."""
    threads = threading.active_count()
    rc, out, err = run(capsys, *argv, *ROW_FLAGS, "--n", "100000000000000", "--seed", "1")
    assert (rc, out, threading.active_count()) == (1, "", threads)
    assert re.fullmatch(r"error: Unable to allocate [^\n]*\n", err), err


class TestContract:
    @pytest.mark.parametrize(
        "argv,flag",
        [(MOMENTS, ["--stride", "1"]), (SAMPLE, ["--k", "1"]), (SAMPLE, ["--stride", "1"]),
         (TRACE, ["--k", "1"])],
    )
    def test_unread_flags_at_their_default_are_accepted(self, capsys, argv, flag):
        rc, out, err = run(capsys, *argv, *flag)
        assert (rc, err) == (0, "")
        assert out == run(capsys, *argv)[1]

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
        with finite numbers only, or exit 1 with one error line, and no warning. eb and
        equivalence exit 1 only where the input is outside the domain or a field is past the
        floats, and their records match 50-digit decimal (eb_matches_decimal); heavytail
        moments exits 1 only for a moment past the floats, and its values match
        moments_match_decimal."""
        argv, flags = EXTREMES_GRID[name]
        bad = []
        for values in itertools.product(*flags.values()):
            call = [*argv, *(f"{flag}={value}" for flag, value in zip(flags, values))]
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                rc, out, err = run(capsys, *call)
            ok = (rc == 0 and err == "" and not re.search(r"(?i)\b(inf|infinity|nan)\b", out)
                  or rc == 1 and out == "" and re.fullmatch(r"error: [^\n]*\n", err))
            floats = [float(v) for v in values]
            if name.startswith("eb"):
                n = 5 if "--n=5" in argv else 2
                due = eb_refusal_is_due(*floats, n) if rc else eb_matches_decimal(
                    json.loads(out), *floats, n)
                ok = ok and due
            elif name == "equivalence":
                due = equivalence_refusal_is_due(*floats, 2) if rc else eb_matches_decimal(
                    json.loads(out)[0], *floats, 2)
                ok = ok and due
            elif name == "heavytail moments":
                ok = ok and ("past the floats" in err if rc else moments_match_decimal(out, *floats))
            elif not rc and name != "simulate --model cs":
                ok = ok and draws_match_decimal(name, out, *floats)
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

    def test_value_without_a_json_form_is_a_type_error(self):
        with pytest.raises(TypeError, match=r"^cannot serialize <class 'object'>$"):
            _json({"v": object()})

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
    "float": (["1", "0.5", "2e-3", "inf", "nan", "-0.5", "-.5"],
              ["-1", "-5.", "-1e-3", "x", "", "1,2", "-"]),
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
             "unobs-lab: error: heavytail trace requires --seed\n"),
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


# The lazy-import contract, one row per command line: the interpreter flags, the line (a
# unobs-lab command, or Python code run in place of main), its exit code, and the watched
# modules it loads, a leading dot standing for `unobs_lab.`; it loads no other watched
# module. Watched are every package module and WATCHED; typing and re only under -S, where
# no .pth file preloads them, and inspect only where numpy is not loaded, as numpy imports it
# itself.
WATCHED = ("numpy", "numpy.ma", "scipy", "concurrent.futures", "dataclasses", "inspect",
           "argparse", "gettext")
PACKAGE = tuple(f"unobs_lab.{m.name}"
                for m in pkgutil.iter_modules([os.path.join(SRC, "unobs_lab")]))
SIM = "--n-clusters 5 --cluster-size 2 --seed 1"
IMPORTS = [
    ("", "eb --lambda2 3 --nu2 1 --alpha=-0.5 --n 2", 0, ".cli .cs .equivalence"),
    ("-S", "eb --lambda2 1 --nu2 1 --alpha 0", 0, ".cli .cs .equivalence"),
    ("-S", "eb --lambda2 1 --nu2 1 --alpha -0.5", 0, ".cli .cs .equivalence"),
    ("", "eb --lambda2 1 --nu2 1 --alpha 2", 1, ".cli .cs .equivalence"),
    ("", "eb --lambda2 1 --nu2 1", 2, "argparse gettext .cli .cs"),
    ("", "equivalence --lambda2 2 --nu2 1 --alpha-grid=-1,0,1", 0, ".cli .cs .equivalence"),
    ("-S", "equivalence --lambda2 2 --nu2 1 --alpha-grid=-1,0,1 --n 2", 0,
     ".cli .cs .equivalence"),
    ("", "equivalence --lambda2=-0.01 --nu2 1 --alpha-grid=-1,1 --n 64", 0,
     ".cli .cs .equivalence"),
    ("", "equivalence --lambda2 2 --nu2 1 --alpha-grid=0 --n 100", 1, ".cli .cs"),
    ("", "equivalence --lambda2 1 --nu2 1 --alpha-grid=1,,2", 2, "argparse gettext .cli .cs"),
    ("", "heavytail moments --phi 1 --rho 2 --delta 1 --k 1..4", 0, ".cli .cs .heavytail"),
    ("", "heavytail moments --phi 1 --rho 2 --delta 1", 0, ".cli .cs .heavytail"),
    ("-S", "heavytail moments --phi 1 --rho 2 --delta 1 --k 1..4", 0, ".cli .cs .heavytail"),
    ("", f"simulate --model cs --lambda 1 --phi 1 {SIM}", 0,
     "numpy .cli .cs .estimation .model_core .rng .rows"),
    ("", f"simulate --model cs --lambda=-0.2 --phi 1 {SIM}", 0,
     "numpy .cli .cs .estimation .model_core .rng .rows"),
    ("", f"simulate --model extended --lambda2 1 --nu2 1 --alpha 0 {SIM} --latent=-", 0,
     "numpy .cli .cs .equivalence .estimation .model_core .rng .rows"),
    ("", f"simulate --model extended --lambda2 1 --nu2 1 --alpha 0 {SIM} --latent -", 0,
     "numpy .cli .cs .equivalence .estimation .model_core .rng .rows"),
    ("", "fit --data {tiny_csv}", 0, "numpy .cli .cs .estimation .model_core"),
    ("", "heavytail sample --phi 1 --rho 2 --delta 1 --n 3 --seed 1", 0,
     "numpy .cli .cs .heavytail .rng .rows"),
    ("", "heavytail trace --phi 1 --rho 2 --delta 1 --n 3 --seed 1", 0,
     "numpy .cli .cs .heavytail .rng .rows"),
    ("", "heavytail trace --phi 1 --rho 1 --delta 1 --n 3", 2, "argparse gettext .cli .cs"),
    ("", "pit --dist weibull-exp --phi 1 --rho 1 --delta 1 --n 3 --seed 1", 0,
     "numpy .cli .cs .heavytail .rng .rows .special"),
    ("", "pit --phi 1 --rho 1 --delta 1 --n 3 --seed 1", 0,
     "numpy .cli .cs .heavytail .rng .rows .special"),
    ("", "from unobs_lab.cs import CSMatrix, DomainError, validate_cs", 0, ".cs"),
    ("", "import unobs_lab", 0, ""),
]


class TestLazyScipy:
    @pytest.mark.parametrize("flags,line,rc,loads", IMPORTS,
                             ids=[f"{flags} {line}".strip() for flags, line, *_ in IMPORTS])
    def test_import_contract(self, csvs, flags, line, rc, loads):
        """The one home of the promises of the README's Install section and cli.py's
        docstring: eb, equivalence and heavytail moments load neither numpy nor scipy,
        no command loads scipy, plain argv loads no argparse, and each command loads only
        the package modules it uses."""
        watched = [*PACKAGE, *WATCHED, *["typing", "re"] * (flags == "-S")]
        if "numpy" in loads.split():
            watched.remove("inspect")
        if not line.startswith(("import ", "from ")):
            argv = shlex.split(line.format(**csvs))
            line = f"from unobs_lab.cli import main\nrc = main({argv!r})"
        got, loaded = cold_loads(line, watched, *flags.split())
        want = {"unobs_lab" + m if m.startswith(".") else m for m in loads.split()}
        assert (got, {m for m in watched if loaded[m]}) == (rc, want)

    def test_every_subcommand_runs_without_scipy(self):
        """tests/without_scipy.py, which CI's installed-script step also runs."""
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "tests", "without_scipy.py")],
                              capture_output=True, env=env, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

    def test_package_names_resolve_to_their_modules(self):
        """The package root holds only __version__ (the import table's `import unobs_lab`
        row checks that it loads no submodule); every other name is its module's."""
        import unobs_lab

        assert unobs_lab.__version__ == "0.1.0"
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            unobs_lab.nope
