"""Golden SHA-256 digests of every row output and of the JSON reports.

The digests were recorded with the per-row Python `%` writer, before rows
were formatted column by column in numpy, so they pin the bytes each output
must keep. Every call writes through --out (and --latent) into a file.

simulate-cs-lam-0.2 (out) was re-recorded when simulate_cs at lam < 0 moved
from a Cholesky factor to the closed-form CS square root; simulate-cs-lam0.7
(out) and the fit report, whose data are lam = 0.7 draws, when lam >= 0 moved
to that root too, one draw for every lam. The extended simulator draws y
first, as simulate_cs does, and b given y, so the --out of
simulate-extended-latent and simulate-extended-latent-size3 is not a digest:
it is the argv of the simulate --model cs call whose bytes it must equal,
claim (1) byte for byte. Their --latent digests were re-recorded with that
draw and again with the one draw. eb and equivalence were re-recorded when
each record gained admissible and the slack lost its cancellation. The
heavy-tail entries and moments kept their digests.
"""

import hashlib

import pytest

from unobs_lab.cli import main

HT = ["--phi", "1.3", "--delta", "0.7"]

# name -> (argv, sha256 of --out or the argv of the cs call it equals, sha256 of --latent or None)
GOLDEN = {
    "simulate-cs-lam0.7": (
        ["simulate", "--model", "cs", "--lambda", "0.7", "--phi", "1.1", "--xi", "1.5",
         "--n-clusters", "40", "--cluster-size", "3", "--seed", "11"],
        "fbde3528b63f19a5588bf39e4e4635a3e43400218b10290de794e6e48f9ffa92",
        None,
    ),
    "simulate-cs-lam-0.2": (
        ["simulate", "--model", "cs", "--lambda=-0.2", "--phi", "1", "--xi=-2.5",
         "--n-clusters", "40", "--cluster-size", "4", "--seed", "12"],
        "5bf94012d8e94a348bf381c4344c8745a2ed4e4f8bfd59b6dadeb324e4201d0f",
        None,
    ),
    "simulate-extended-latent": (
        ["simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1", "--alpha", "0.2",
         "--n-clusters", "30", "--cluster-size", "2", "--seed", "13"],
        ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1",
         "--n-clusters", "30", "--cluster-size", "2", "--seed", "13"],
        "081f880734f3fa0909bb73e7724bbb1dd0d2c74c722c0230f07bd7b6db65f635",
    ),
    "simulate-extended-latent-size3": (
        ["simulate", "--model", "extended", "--lambda2", "3", "--nu2", "1", "--alpha=-0.5",
         "--xi", "1e6", "--n-clusters", "25", "--cluster-size", "3", "--seed", "14"],
        ["simulate", "--model", "cs", "--lambda", "3", "--phi", "1", "--xi", "1e6",
         "--n-clusters", "25", "--cluster-size", "3", "--seed", "14"],
        "0083dd307c1f532dc9953d885de816a6cae0be0eb4d5fc1a14cf2081226ac6b6",
    ),
    "sample-rho0.3": (
        ["heavytail", "sample", *HT, "--rho", "0.3", "--n", "3000", "--seed", "21"],
        "0676a921ff28f5cca834b6feb4896875391a4250b2d96c9c852ac88d315aa991",
        None,
    ),
    "sample-rho1": (
        ["heavytail", "sample", *HT, "--rho", "1", "--n", "3000", "--seed", "22"],
        "f6263ce0190d8739d7fb5403451a57fccf6994aeef6e7a9acf7cdcb262050920",
        None,
    ),
    "sample-rho2.5": (
        ["heavytail", "sample", *HT, "--rho", "2.5", "--n", "3000", "--seed", "23"],
        "297b201dbe61bad87ab7dfd23b78ff4848f0d76fe7db22f1f08367e828f606e9",
        None,
    ),
    "sample-rho0.3-many-chunks": (
        ["heavytail", "sample", *HT, "--rho", "0.3", "--n", "150000", "--seed", "24"],
        "da170dd0962e1a6180f3eab466132315b4ec18176cda2c3d4f0c217dfc00115c",
        None,
    ),
    "trace-rho0.3": (
        ["heavytail", "trace", *HT, "--rho", "0.3", "--n", "30000", "--stride", "7",
         "--seed", "31"],
        "b134f70ed31bae3dc7890b692372abb14376db7559d2bdbbd27668da3c4f700e",
        None,
    ),
    "trace-rho1": (
        ["heavytail", "trace", *HT, "--rho", "1", "--n", "30000", "--stride", "7",
         "--seed", "32"],
        "71891a38194ba13bb09f03883b5e40450ae0b5eed1d72c8fb25bb843f968c86e",
        None,
    ),
    "trace-rho2.5": (
        ["heavytail", "trace", *HT, "--rho", "2.5", "--n", "30000", "--stride", "7",
         "--seed", "33"],
        "d5b810fc02804c7f535904f3107edc345082beb8e6e7a23d6cbfd43b0a3fde6c",
        None,
    ),
    "pit-rho1": (
        ["pit", *HT, "--rho", "1", "--n", "3000", "--seed", "41"],
        "ec5ba7fa83e3bdf0472d15dcbfdc3293b8d58b618ab24063f07de25ae5d14061",
        None,
    ),
    "pit-rho0.3": (
        ["pit", *HT, "--rho", "0.3", "--n", "3000", "--seed", "42"],
        "1654ea4bc69f542d04afc07fc9dde16dcf1a8589684fc8ef467904040f21aa2e",
        None,
    ),
    "eb": (
        ["eb", "--lambda2", "3", "--nu2", "1", "--alpha=-0.5", "--n", "7"],
        "90737c8164bb9c8dc22a73d3eddbdcc99d54e043b0d380f61fd46ace7b50d8c7",
        None,
    ),
    "equivalence": (
        ["equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid=-1,-0.3,0,0.7,1",
         "--n", "5"],
        "2622b5303152dd3666b06f8055ba27ab8c9dba7fe195206eed0e2b52ed91aaf7",
        None,
    ),
    "moments": (
        ["heavytail", "moments", *HT, "--rho", "2.5", "--k", "1..4"],
        "83017fcda09f849688d884dec9ab242c46ca4892c1335aad2971e5c931ef1ece",
        None,
    ),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(name, tmp_path):
    argv, want_out, want_latent = GOLDEN[name]
    out, latent = tmp_path / "out", tmp_path / "latent"
    extra = ["--out", str(out)] + (["--latent", str(latent)] if want_latent else [])
    assert main(argv + extra) == 0
    if isinstance(want_out, list):  # extended data: the bytes of its cs twin
        twin = tmp_path / "twin"
        assert main(want_out + ["--out", str(twin)]) == 0
        want_out = _sha(twin)
    assert _sha(out) == want_out
    if want_latent:
        assert _sha(latent) == want_latent


def test_fit_report_is_pinned(tmp_path):
    """fit reads a simulated CSV and writes JSON; neither may move."""
    data, report = tmp_path / "data.csv", tmp_path / "fit.json"
    argv = ["simulate", "--model", "cs", "--lambda", "0.7", "--phi", "1.1", "--xi", "1.5",
            "--n-clusters", "60", "--cluster-size", "3", "--seed", "51", "--out", str(data)]
    assert main(argv) == 0
    assert main(["fit", "--data", str(data), "--out", str(report)]) == 0
    assert _sha(report) == FIT_REPORT_SHA


FIT_REPORT_SHA = "22a3ab1b9d0fade0d324f3d14075660314c09408887c2988780d87236e291fbf"
