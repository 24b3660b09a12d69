"""Checks of the benchmark itself, on its smoke sizes.

    python3 -m pytest perfbench -q

The smoke runs start real CLI children, so this takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracles
import run
import workloads
from spans import Tracer

SPEC = run.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYER = [m["name"] for m in SPEC["per_layer"]]


@pytest.fixture
def scratch():
    path = os.path.join(run.OUT_DIR, f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_span_self_time_subtracts_direct_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("a"):
            with tr.span("a.inner"):
                pass
        with tr.span("b"):
            pass
    outer, a, inner, b = tr.spans
    assert (a.parent, inner.parent, b.parent) == (outer.id, a.id, outer.id)
    selfs = tr.self_times()
    dur = {s.id: s.end - s.start for s in tr.spans}
    assert selfs[outer.id] == pytest.approx(dur[outer.id] - dur[a.id] - dur[b.id])
    assert selfs[a.id] == pytest.approx(dur[a.id] - dur[inner.id])
    assert Tracer(enabled=False).span("x").__enter__() is None


def test_oracles_reject_wrong_outputs(scratch):
    path = os.path.join(scratch, "out.json")
    with open(path, "w") as fh:
        json.dump({"d": 1.0, "tau": 0.0, "shrinkage": 0.5}, fh)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_eb(path, 1.0, 1.0, 0.0, 2)
    with open(path, "w") as fh:  # k = 2 at rho = 2 is a Gamma pole, not finite
        json.dump([{"k": 2, "formula_defined": True, "integral_finite": False, "value": None}], fh)
    with pytest.raises(oracles.CheckFailed, match="formula_defined"):
        oracles.check_moments(path, 1.0, 2.0, 1.0, [2])
    sample = np.arange(1.0, 21.0)
    trace = os.path.join(scratch, "trace.txt")
    with open(trace, "w") as fh:
        fh.write("n,running_mean\n")
        for n in range(10, 41, 10):
            fh.write(f"{n},{float(np.mean(sample[:n])) if n <= 20 else 1.0!r}\n")
    oracles.check_trace(trace, 40, 10, sample)
    with pytest.raises(oracles.CheckFailed, match="cumulative mean"):
        oracles.check_trace(trace, 40, 10, sample + 1.0)


def test_judge_flags_output_that_changes_between_rotations(scratch):
    out = os.path.join(scratch, "o.txt")
    call = workloads.Call("c", [], [out], 1, lambda: None, lambda tr: None)
    wl = workloads.Workload("w", "invocations", [call])
    first = {}
    verdicts = []
    for rotation, text in enumerate(["a", "a", "b"]):
        with open(out, "w") as fh:
            fh.write(text)
        res = [dict(rc=0, stderr="")]
        run.judge(wl, res, rotation, first)
        verdicts.append(res[0]["verdict"])
    assert verdicts[:2] == ["ok", "ok"]
    assert verdicts[2].startswith("not deterministic")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_end_to_end(name):
    res = run.run_one(name, seed=7, seconds=0, trace=False, smoke=True)
    assert res["correct"] and res["failed"] == 0, res["_report"]["calls"]
    assert res["attempted"] == len(res["_report"]["calls"]) >= run.MIN_ROTATIONS * 3
    assert list(res["metrics"]) == E2E
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize(
    "name, busy",
    [
        ("closed-form", "equivalence.marginal_cov_extended_s"),
        ("sim-write", "rng.substream_s"),
        ("read-fit", "estimation.fit_ml_s"),
        ("heavytail-trace", "heavytail.running_mean_trace_s"),
    ],
)
def test_smoke_traced(name, busy):
    res = run.run_one(name, seed=8, seconds=0, trace=True, smoke=True)
    assert res["correct"] and res["failed"] == 0
    assert list(res["metrics"]) == LAYER
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m[busy] > 0 and m["cli.import_s"] > 0 and m["trace.overhead_ratio"] > 0


def test_result_line_and_refusal_without_the_package(scratch):
    cmd = [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"), "--workload",
           "heavytail-trace", "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    # a directory holding only BENCHMARK.json and the benchmark: no result, exit != 0
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd[1] = os.path.join(scratch, "perfbench", "run.py")
    bare = subprocess.run(cmd, capture_output=True, text=True, cwd=scratch, timeout=180)
    assert bare.returncode != 0 and bare.stdout == ""
