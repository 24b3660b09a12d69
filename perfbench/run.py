"""Benchmark of the unobs-lab command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --workload all --seed N --seconds S   # every metric, all workloads

--trace 0 runs the workload's CLI calls as child processes, one at a time,
each in a cold interpreter (``python -m unobs_lab.cli`` with PYTHONPATH set
to this checkout's ``src``), for whole rotations until S seconds have
passed, and at least twice, so the second rotation checks that the same
seed gives byte-identical outputs. A fixed reference program runs before
each call; rates are reported per reference time, which cancels most of
the host's speed drift. Every output is checked against the oracles in
oracles.py. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the ``end_to_end`` metrics of BENCHMARK.json. --trace 1 instead runs
the same calls in process: ``cli.main(argv)`` untraced, then the package's
public functions in the subcommand's order inside spans, and reports the
``per_layer`` metrics. A full report with the environment is written to
``.perfbench/`` at the checkout root, and the spans of a traced run next to
it. --smoke uses tiny inputs so the whole benchmark runs in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# The reference program: a cold interpreter, numpy, a Python loop and a sort.
# It never imports the package, so no change to the package moves it. Run
# before every CLI call, it tracks how fast this machine is at that moment.
REFERENCE = (
    "import numpy as np\n"
    "s = 0\n"
    "for i in range(400_000):\n"
    "    s += i * i\n"
    "np.sort(np.random.default_rng(0).random(300_000))\n"
)
# setup_s is given at the speed where the reference program takes this long.
REFERENCE_S = 0.25
SETUP_REPEATS = 3  # also the import-time repeats of the traced run
MIN_ROTATIONS = 2  # the second rotation is the same-seed determinism check
MAX_TRACE_PASSES = 50
# The exceptions cli.main turns into exit code 1.
CLI_ERRORS = (ValueError, ArithmeticError, RuntimeError, OSError)


# One thread per process, so the child runs while the parent waits: no
# simulation threads, and no BLAS pool spinning on the second core.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD, PYTHONPATH=SRC)
    env.pop("UNOBS_LAB_THREADS", None)
    return env


def run_cli(argv: list[str], work: str) -> dict:
    """One cold CLI call: wall and CPU time, exit code, peak RSS and stderr."""
    err_path = os.path.join(work, "stderr.txt")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "unobs_lab.cli", *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=child_env(),
            cwd=work,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return dict(wall=wall, cpu=usage.ru_utime + usage.ru_stime, rc=proc.returncode,
                rss_kb=usage.ru_maxrss, stderr=stderr)


def run_reference(work: str) -> float:
    """Wall time of one run of the reference program."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE], env=child_env(), cwd=work,
                   stdin=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()


def judge(wl, results: list[dict], rotation: int, first: dict) -> None:
    """Give each call of one rotation a verdict: ok, xfail or a failure reason.

    Rotation 0 runs the oracles; later rotations must reproduce rotation 0's
    output bytes exactly and inherit its verdict.
    """
    import oracles

    for call, res in zip(wl.calls, results):
        if res["rc"] != 0:
            known = call.xfail is not None and call.xfail in res["stderr"]
            res["verdict"] = f"xfail: {call.xfail}" if known else (
                f"exit {res['rc']}: {(res['stderr'].strip().splitlines() or [''])[-1]}"
            )
            continue
        try:
            h = digest(call.outputs)
        except OSError as exc:
            res["verdict"] = f"missing output: {exc}"
            continue
        if rotation == 0:
            try:
                call.check()
                verdict = "ok"
            except oracles.KnownDefect as exc:
                verdict = f"xfail: {exc}"
            except Exception as exc:  # an oracle or parse error fails this call only
                verdict = f"check failed: {type(exc).__name__}: {exc}"
            first[call.label] = (h, verdict)
        elif call.label not in first:
            verdict = "no rotation-0 output to compare with"
        elif h != first[call.label][0]:
            verdict = "not deterministic: output bytes differ from rotation 0 (same seed)"
        else:
            verdict = first[call.label][1]
        res["verdict"] = verdict


def setup(wl, work: str, repeats: int) -> list[tuple[float, float]]:
    """Generate the inputs and warm up with one cold CLI call, `repeats` times.

    Returns (set-up time, reference time just before it) for each repeat.
    """
    times = []
    for _ in range(repeats):
        ref = run_reference(work)
        t0 = time.perf_counter()
        wl.generate()
        warm = run_cli(["eb", "--lambda2", "1", "--nu2", "1", "--alpha", "0",
                        "--out", os.path.join(work, "warmup.json")], work)
        if warm["rc"] != 0:
            raise RuntimeError(f"warm-up call failed: {warm['stderr'].strip()}")
        times.append((time.perf_counter() - t0, ref))
    return times


def fits_another(t0: float, rotations: int, seconds: float) -> bool:
    """Whether one more rotation, at the mean length so far, ends within `seconds`."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / rotations <= seconds


def measure(wl, work: str, seconds: float) -> list[dict]:
    """Whole rotations of cold CLI calls filling `seconds`, at least MIN_ROTATIONS."""
    rows, first = [], {}
    t0 = time.perf_counter()
    rotation = 0
    while rotation < MIN_ROTATIONS or fits_another(t0, rotation, seconds):
        results = []
        for call in wl.calls:
            ref = run_reference(work)
            results.append(dict(run_cli(call.argv, work), ref=ref))
        judge(wl, results, rotation, first)
        for call, res in zip(wl.calls, results):
            rows.append(dict(label=call.label, rotation=rotation, work=call.work,
                             **{k: res[k] for k in ("wall", "cpu", "rc", "rss_kb", "verdict", "ref")}))
        rotation += 1
    return rows


def tally(rows: list[dict]) -> dict:
    attempted = len(rows)
    xfailed = sum(r["verdict"].startswith("xfail") for r in rows)
    failed = sum(r["verdict"] != "ok" for r in rows) - xfailed
    return dict(attempted=attempted, failed=failed, xfailed=xfailed,
                failed_ratio=(failed + xfailed) / attempted)


def done(row: dict) -> bool:
    """The call did its work: exit 0 and outputs that pass the oracles.

    A known defect in a flag (a fit at the ML reporting converged=false)
    still did the work; a known defect that aborts the call did not.
    """
    return row["rc"] == 0 and (row["verdict"] == "ok" or row["verdict"].startswith("xfail"))


def end_to_end(rows: list[dict], setup_times: list, unit: str) -> tuple[dict, dict]:
    """The result-line metrics, and the raw figures that go to the report only.

    The host's speed drifts by tens of percent over tens of seconds, so both
    gated times are scaled by reference runs made beside them, which cancels
    most of the drift. `work_per_ref` is work done per reference-program
    time: the raw rate times the mean reference time of the run. `setup_s`
    is the median set-up time at the speed where the reference takes
    REFERENCE_S seconds.
    """
    walls = [r["wall"] for r in rows]
    ref_s = statistics.fmean(r["ref"] for r in rows)
    rate = sum(r["work"] for r in rows if done(r)) / sum(walls)
    metrics = {
        "setup_s": statistics.median(t * REFERENCE_S / ref for t, ref in setup_times),
        "work_per_ref": rate * ref_s,
        "peak_rss_mb": max(r["rss_kb"] for r in rows) / 1024.0,
    }
    raw = {
        "wall_s_p50": statistics.median(walls),
        "wall_s_p50_samples": len(walls),
        "invocations_per_s": len(walls) / sum(walls),
        ALIASES[unit]: rate,
        "reference_s": ref_s,
        "setup_s_raw": statistics.median(t for t, _ in setup_times),
    }
    return metrics, raw


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def import_time(module: str, work: str, repeats: int) -> float:
    """Median in-interpreter time of `import module` in fresh interpreters."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=work,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def replay(call, tracer):
    """Run a call's replay, stopping where the CLI would stop with an error."""
    try:
        return call.replay(tracer), None
    except CLI_ERRORS as exc:
        return None, exc


def traced(wl, work: str, seconds: float, tracer, repeats: int) -> tuple[list[dict], dict]:
    from spans import Tracer

    layer = {
        "cli.import_numpy_s": import_time("numpy", work, repeats),
        "cli.import_s": import_time("unobs_lab.cli", work, repeats),
    }
    sys.path.insert(0, SRC)
    from unobs_lab import cli

    rows, first = [], {}
    main_s = lib_s = traced_s = untraced_s = 0.0
    out_bytes = passes = 0
    t0 = time.perf_counter()
    while passes == 0 or (passes < MAX_TRACE_PASSES and fits_another(t0, passes, seconds)):
        results = []
        for call in wl.calls:
            with tracer.span("call", label=call.label, rotation=passes):
                err = io.StringIO()
                with tracer.span("cli.main") as s_main, contextlib.redirect_stderr(err):
                    rc = cli.main(list(call.argv))
                results.append(dict(wall=s_main.end - s_main.start, rc=rc, stderr=err.getvalue()))
                if rc == 0:
                    out_bytes += sum(os.path.getsize(p) for p in call.outputs)
                with tracer.span("replay") as s_rep:
                    state, exc = replay(call, tracer)
                lib_s += sum(s.end - s.start for s in tracer.spans[s_rep.id + 1:]
                             if s.parent == s_rep.id)
                if call.probe is not None and exc is None:
                    with tracer.span("probe"):
                        call.probe(tracer, state)
            main_s += s_main.end - s_main.start
            traced_s += s_rep.end - s_rep.start
            u0 = time.perf_counter()
            replay(call, Tracer(enabled=False))
            untraced_s += time.perf_counter() - u0
        judge(wl, results, passes, first)
        for call, res in zip(wl.calls, results):
            rows.append(dict(label=call.label, rotation=passes, work=call.work,
                             **{k: res[k] for k in ("wall", "rc", "verdict")}))
        passes += 1

    totals = tracer.total_by_name()
    layer["cli.self_s"] = (main_s - lib_s) / passes
    layer["cli.output_bytes"] = out_bytes / passes
    layer["trace.overhead_ratio"] = traced_s / untraced_s
    for name, total in totals.items():
        if "." in name:
            layer.setdefault(f"{name}_s", total / passes)
    for name, count in tracer.counts.items():
        layer[name] = count / passes
    return rows, layer


# ---------------------------------------------------------------------------
# Environment and reporting
# ---------------------------------------------------------------------------


def _first_line_with(path: str, prefix: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _first_line_with("/proc/cpuinfo", "model name"),
        "ram": _first_line_with("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "workload_seed": seed,
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# The raw rate of each workload's unit of work, under the issue's names.
ALIASES = {"invocations": "goodput_invocations_per_s", "clusters": "clusters_per_s",
           "draws": "draws_per_s"}


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads
    from spans import Tracer

    spec = load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    tag = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    work = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = workloads.build(name, seed, work, smoke)
        repeats = 1 if smoke else SETUP_REPEATS
        setup_times = setup(wl, work, 1 if trace else repeats)
        if trace:
            tracer = Tracer()
            rows, metrics = traced(wl, work, seconds, tracer, repeats)
            tracer.dump(os.path.join(OUT_DIR, f"{tag}-spans.json"))
        else:
            rows = measure(wl, work, seconds)
            metrics, raw = end_to_end(rows, setup_times, wl.unit)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    counts = tally(rows)
    extra = dict(failed_ratio=counts["failed_ratio"], calls=len(rows))
    if not trace:
        extra.update(raw)
    report = {
        "workload": name,
        "trace": int(trace),
        "smoke": smoke,
        "seconds": seconds,
        "environment": environment(seed),
        "inputs": wl.params,
        "setup_and_reference_s": setup_times,
        "counts": counts,
        "metrics": metrics,
        "report_only": extra,
        "calls": rows,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    units = {m["name"]: m["unit"] for m in wanted}
    for name in units:  # a layer this workload never enters did no work
        metrics.setdefault(name, 0.0)
    return {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "_report": report,
    }


def print_table(name: str, result: dict, out) -> None:
    rep = result["_report"]
    c = rep["counts"]
    print(f"# {name} trace={rep['trace']}: attempted {c['attempted']}, failed {c['failed']}, "
          f"known-defect failures {c['xfailed']}", file=out)
    for key, m in result["metrics"].items():
        print(f"  {key:38s} {m['value']:.6g} {m['unit']}", file=out)
    for key, value in rep["report_only"].items():
        print(f"  {key:38s} {value:.6g} (report only)", file=out)
    for row in rep["calls"]:
        if row["verdict"] != "ok" and row["rotation"] == 0:
            print(f"  ! {row['label']}: {row['verdict']}", file=out)


def main(argv=None) -> int:
    os.environ.update(SINGLE_THREAD)  # before this process first imports numpy
    os.environ.pop("UNOBS_LAB_THREADS", None)
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "unobs_lab", "cli.py")):
        print(f"error: no unobs_lab package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                res = run_one(name, args.seed, args.seconds, trace, args.smoke)
                print_table(name, res, sys.stdout)
        return 0
    res = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_table(args.workload, res, sys.stderr)
    res.pop("_report")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
