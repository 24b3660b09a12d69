"""Every subcommand and truncated_moment, run with scipy made unimportable.

    python tests/without_scipy.py

sys.modules["scipy"] = None makes every import of scipy (or of any of its
submodules) raise ImportError, so a runtime use of scipy on any of these paths
fails the run. Each call writes its output to a temporary directory; the
script exits 0 when every call exits 0, and names the first failing call
otherwise.
"""

import math
import os
import sys
import tempfile

sys.modules["scipy"] = None

from unobs_lab.cli import main  # noqa: E402
from unobs_lab.heavytail import WeibullExpSpec, truncated_moment  # noqa: E402

WEIBULL_EXP = ["--phi", "1", "--rho", "2", "--delta", "1"]


def calls(tmp: str) -> list[list[str]]:
    data = os.path.join(tmp, "cs.csv")
    sizes = ["--n-clusters", "20", "--cluster-size", "2", "--seed", "1"]
    return [
        ["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "0"],
        ["equivalence", "--lambda2", "2", "--nu2", "1", "--alpha-grid=-1,0,1"],
        ["simulate", "--model", "cs", "--lambda", "1", "--phi", "1", *sizes, "--out", data],
        ["fit", "--data", data],
        ["simulate", "--model", "extended", "--lambda2", "1", "--nu2", "1", "--alpha", "0.2",
         *sizes, "--latent", os.path.join(tmp, "latent.csv")],
        ["heavytail", "moments", *WEIBULL_EXP, "--k", "1..4"],
        ["heavytail", "sample", *WEIBULL_EXP, "--n", "100", "--seed", "1"],
        ["heavytail", "trace", *WEIBULL_EXP, "--n", "100", "--stride", "10", "--seed", "1"],
        ["pit", *WEIBULL_EXP, "--n", "100", "--seed", "1"],
    ]


def run() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(calls(tmp)):
            if "--out" not in argv:
                argv = [*argv, "--out", os.path.join(tmp, f"out{i}")]
            rc = main(argv)
            if rc != 0:
                raise SystemExit(f"exit {rc}: unobs-lab {' '.join(argv)}")
    value = truncated_moment(WeibullExpSpec(1.0, 2.0, 1.0), 1, 1e8)
    if not abs(value - math.pi / 2) < 1e-7:
        raise SystemExit(f"truncated_moment gave {value!r}, not pi/2 within 1e-7")


if __name__ == "__main__":
    run()
