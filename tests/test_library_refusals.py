"""The library's refusal contract, one row per refused call: LIBRARY_REFUSALS.

A row is (where, call, error, line): the function that raises, as module.qualname in
unobs_lab; the call, as Python text evaluated in this module; the exact exception type;
and the exact message. A value class built by keyword (SpecA(lambda2=-1.0, ...)) is also
built by position, with the same refusal. The command line's refusals are the REFUSALS
table of tests/test_cli.py, and the dataset CSV's the DATASETS table of
tests/dataset_csvs.py; every other raise statement of the package is reached by a row
here, or is an internal invariant in ALLOWED. A new refusal adds its row.
"""

import ast
import functools
import io
import math
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest

import unobs_lab
from unobs_lab import heavytail
from unobs_lab.cs import CSMatrix, DomainError, RankDeficiencyError, validate_cs, write_rows
from unobs_lab.equivalence import (ExtendedSpec, SpecA, SpecB, derive_d_tau, eb_shrinkage,
                                   joint_cov)
from unobs_lab.estimation import (SimLayout, UnsupportedLayoutError, fit_balanced_closed_form,
                                  fit_ml, loglik_cs, simulate_cs, simulate_extended)
from unobs_lab.heavytail import (MomentResult, QuadratureError, WeibullExpSpec, pit_sample,
                                 running_mean_trace, truncated_moment, we_cdf, we_moment,
                                 we_quantile, we_sample, wg_moment_defined)
from unobs_lab.model_core import CSParams, Dataset, gls_mean
from unobs_lab.rng import philox_raw, substream
from unobs_lab.rows import CHUNK, Runs, cells
from unobs_lab.special import ndtr

UNIT = WeibullExpSpec(1.0, 1.0, 1.0)
TINY_PHI = "WeibullExpSpec(1e-300, 0.01, 1.0)"  # its quantile overflows for most u
NOT_U64 = "not a 64-bit unsigned integer, [0, 2**64 - 1]"
# (Python text, as the message writes it) of values that are not 64-bit unsigned integers
NOT_U64_VALUES = [("-1", "-1"), ("2**64", "18446744073709551616"), ("1.5", "1.5"),
                  ("1.9", "1.9"), ("math.nan", "nan"), ("math.inf", "inf")]
NOT_WRITTEN = "is not written: only int, bool, float and str"
RUNS = "a Runs column needs 2-D uint8 cells and counts >= 0"
OUT = "out must be a C-contiguous float64 array of the input's shape"
NOT_CS = "phi + n*lam = {} <= 0 for cluster size n = {}"
NOT_JOINT = "joint covariance for n = {} is not PSD: eigenvalue {}"
NOT_FINITE_U = "quantile returned a non-finite value at u = {}"

LIBRARY_REFUSALS = [
    # cs
    ("cs.CSMatrix.__new__", "CSMatrix(n=0, lam=0.5, phi=1.0)", ValueError, "n must be >= 1: n = 0"),
    ("cs.CSMatrix.sqrt", "CSMatrix(2, -1.0, 1.0).sqrt()", DomainError,
     "CS matrix for n = 2 is not PSD: eigenvalue -1.0"),
    ("cs.CSMatrix.sqrt", "CSMatrix(1, 0.0, -1.0).sqrt()", DomainError,
     "CS matrix for n = 1 is not PSD: eigenvalue -1.0"),
    ("cs.validate_cs", "validate_cs(set(), 0.0, 1.0)", ValueError, "n_set must be nonempty"),
    ("cs.validate_cs", "validate_cs({0, 2}, 0.5, 1.0)", DomainError,
     "cluster size n = 0 is not >= 1"),
    ("cs.validate_cs", "validate_cs({-3, 2}, 0.5, 1.0)", DomainError,
     "cluster size n = -3 is not >= 1"),
    ("cs.validate_cs", "validate_cs({2}, 1.0, math.nan)", DomainError,
     "phi = nan is not strictly positive"),
    ("cs.validate_cs", "validate_cs({2}, -0.5, 1.0)", DomainError, NOT_CS.format(0.0, 2)),
    ("cs.validate_cs", "validate_cs({2, 3}, -0.4, 1.0)", DomainError,
     NOT_CS.format(-0.20000000000000018, 3)),
    ("cs.validate_cs", "gls_mean(Dataset([1.0, 2.0], np.ones((2, 1)), [2]), -0.5, 1.0)",
     DomainError, NOT_CS.format(0.0, 2)),
    ("cs.validate_cs",
     "loglik_cs(Dataset([0.0, 1.0], np.ones((2, 1)), [2]), CSParams([0.0], -0.5, 1.0))",
     DomainError, NOT_CS.format(0.0, 2)),
    ("cs.validate_cs", "eb_shrinkage(ExtendedSpec(-0.4, 1, 0), 3)", DomainError,
     NOT_CS.format(-0.20000000000000018, 3)),
    ("cs.validate_cs", "simulate_cs(CSParams([0.0], -0.5, 1.0), SimLayout(10, 2), seed=0)",
     DomainError, NOT_CS.format(0.0, 2)),
    ("cs.require_finite", "validate_cs({2}, math.nan, 1.0)", DomainError,
     "lam = nan is non-finite"),  # not "phi + n*lam = nan <= 0"
    ("cs.require_finite", "validate_cs({2}, -math.inf, 1.0)", DomainError,
     "lam = -inf is non-finite"),
    ("cs.require_finite", "validate_cs({2}, 1.0, math.inf)", DomainError,
     "phi = inf is non-finite"),
    # equivalence
    ("equivalence.SpecA.__new__", "SpecA(lambda2=-1.0, nu1sq=1.0, nu2sq=1.0)", DomainError,
     "lambda2 must be >= 0: lambda2 = -1.0"),
    ("equivalence.SpecA.__new__", "SpecA(lambda2=1.0, nu1sq=0.0, nu2sq=1.0)", DomainError,
     "error variances must be strictly positive: nu1sq = 0.0"),
    ("equivalence.SpecA.__new__", "SpecA(lambda2=1.0, nu1sq=1.0, nu2sq=-2.0)", DomainError,
     "error variances must be strictly positive: nu2sq = -2.0"),
    ("equivalence.SpecB.__new__", "SpecB(lambda1sq=-1.0, lambda2sq=0.0, nusq=1.0)", DomainError,
     "lambda1sq must be >= 0: lambda1sq = -1.0"),
    ("equivalence.SpecB.__new__", "SpecB(lambda1sq=1.0, lambda2sq=0.0, nusq=0.0)", DomainError,
     "nusq must be strictly positive: nusq = 0.0"),
    ("equivalence.derive_d_tau", "ExtendedSpec(lambda2=1.0, nu2=1.0, alpha=1.5)", DomainError,
     "alpha = 1.5 outside the admissible box [-1, 1]"),
    ("equivalence.derive_d_tau", "ExtendedSpec(lambda2=1.0, nu2=0.0, alpha=0.0)", DomainError,
     "nu2 = 0.0 must be strictly positive"),
    ("equivalence.derive_d_tau", "ExtendedSpec(lambda2=-1.0, nu2=1.0, alpha=0.0)", DomainError,
     "lambda2 + nu2 = 0.0 must be positive"),
    ("cs.require_finite", "ExtendedSpec(lambda2=math.inf, nu2=1.0, alpha=0.0)", DomainError,
     "lambda2 = inf is non-finite"),
    ("equivalence.derive_d_tau", "derive_d_tau(2, 1, 1.5)", DomainError,
     "alpha = 1.5 outside the admissible box [-1, 1]"),
    ("equivalence.derive_d_tau", "derive_d_tau(2, 1, math.nan)", DomainError,
     "alpha = nan outside the admissible box [-1, 1]"),
    ("equivalence.derive_d_tau", "derive_d_tau(-1.0, 1, 0)", DomainError,
     "lambda2 + nu2 = 0.0 must be positive"),
    ("equivalence.derive_d_tau", "derive_d_tau(2, 0, 0)", DomainError,
     "nu2 = 0 must be strictly positive"),
    ("equivalence.joint_cov", "joint_cov(ExtendedSpec(2, 1, 0), 0)", ValueError,
     "n must be >= 1: n = 0"),
    # estimation
    ("estimation.SimLayout.__new__", "SimLayout(n_clusters=0, cluster_size=2)", ValueError,
     "n_clusters must be >= 1: n_clusters = 0"),
    ("estimation.SimLayout.__new__", "SimLayout(n_clusters=2, cluster_size=[1, 0])", ValueError,
     "cluster sizes must be >= 1: cluster_size = 0"),
    ("estimation.SimLayout.sizes", "SimLayout(n_clusters=3, cluster_size=[1, 2])", ValueError,
     "explicit size list must have n_clusters entries: len(cluster_size) = 2, n_clusters = 3"),
    ("estimation.fit_ml", "fit_ml(Dataset([1.0, 2.0], np.ones((2, 1)), [2]))", DomainError,
     "fitting requires at least two clusters"),
    ("estimation.fit_ml", "fit_ml(Dataset([1.0, 2.0, 3.0], np.ones((3, 1)), [1, 1, 1]))",
     DomainError, "lam is unidentified: every cluster has a single observation"),
    ("estimation.fit_ml",
     "fit_ml(Dataset([1.0, 2.0, 3.0, 5.0], [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [3.0, 3.0]], "
     "[2, 2]))", RankDeficiencyError,
     "no PD point has a finite likelihood: X is rank deficient or fits y exactly"),
    ("estimation.fit_balanced_closed_form",
     "fit_balanced_closed_form(Dataset([1.0, 2.0, 3.0], np.ones((3, 1)), [2, 1]))",
     UnsupportedLayoutError, "closed form requires balanced clusters"),
    ("estimation.fit_balanced_closed_form",
     "fit_balanced_closed_form(Dataset([1.0, 2.0], np.ones((2, 1)), [1, 1]))",
     UnsupportedLayoutError, "closed form requires cluster size >= 2"),
    ("estimation.fit_balanced_closed_form",
     "fit_balanced_closed_form(Dataset([1.0, 2.0, 1.0, 2.0], "
     "[[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [2, 2]))",
     UnsupportedLayoutError, "closed form requires an intercept-only design"),
    ("estimation.fit_balanced_closed_form",
     "fit_balanced_closed_form(Dataset([1.0, 1.0, -1.0, -1.0], np.ones((4, 1)), [2, 2]))",
     DomainError, "zero within-cluster variation: phi sits on the boundary"),
    ("estimation.fit_balanced_closed_form",  # equal cluster means: phi + n*lam = SSB/N = 0
     "fit_balanced_closed_form(Dataset([0.0, 2.0, 2.0, 0.0], np.ones((4, 1)), [2, 2]))",
     DomainError, "zero between-cluster variation: lam sits on the boundary"),
    ("estimation._intercept",
     "simulate_cs(CSParams([1.0, 2.0], 0.7, 1.0), SimLayout(5, 3), seed=2)", DomainError,
     "xi has 2 entries; simulation is intercept-only and needs 1"),
    ("estimation._intercept",
     "simulate_extended(ExtendedSpec(1.0, 1.0, 0.2), [], SimLayout(5, 2), seed=4)",
     DomainError, "xi has 0 entries; simulation is intercept-only and needs 1"),
    ("estimation._intercept",
     "simulate_extended(ExtendedSpec(1.0, 1.0, 0.2), [1.0, 2.0], SimLayout(5, 2), seed=4)",
     DomainError, "xi has 2 entries; simulation is intercept-only and needs 1"),
    ("estimation.simulate_extended",
     "simulate_extended(ExtendedSpec(2.0, 1.0, 1.0), [0.0], SimLayout(10, 2), seed=0)",
     DomainError, NOT_JOINT.format(2, -0.805245655116453)),
    # d*sigma2 - n*tau^2 is -3e-12 with d ~ 1e-12, and -1e-12 with sigma2 = 1e-12: far
    # beyond psd_slack's rounding bound (5e-14 and 1e-26)
    ("estimation.simulate_extended",
     "simulate_extended(ExtendedSpec(2e-6, 1.0, -1.0), [0.0], SimLayout(10, 4), seed=606)",
     DomainError, NOT_JOINT.format(4, -2.999997000560716e-12)),
    ("estimation.simulate_extended",
     "simulate_extended(ExtendedSpec(1.0, 1e-12, 1.0), [0.0], SimLayout(10, 2), seed=606)",
     DomainError, NOT_JOINT.format(2, -9.999999999979999e-13)),
    # A_4 at lambda2 = nu2 holds -0.5 and not 0.2, whatever their scale
    ("estimation.simulate_extended",
     "simulate_extended(ExtendedSpec(1e-200, 1e-200, 0.2), [0.0], SimLayout(10, 4), seed=4)",
     DomainError, NOT_JOINT.format(4, -5.856807970588464e-201)),
    ("estimation.simulate_extended",
     "simulate_extended(ExtendedSpec(1e200, 1e200, 0.2), [0.0], SimLayout(10, 4), seed=4)",
     DomainError, NOT_JOINT.format(4, -5.856807970588465e+199)),
    # model_core
    ("model_core.Dataset.__init__", "Dataset([1.0, 2.0], np.ones((3, 1)), [2])", ValueError,
     "X must have one row per observation of y: X.shape = (3, 1), y.shape = (2,)"),
    ("model_core.Dataset.__init__", "Dataset([1.0, 1.0], np.ones(2), [1, 1])", ValueError,
     "X must have one row per observation of y: X.shape = (2,), y.shape = (2,)"),
    ("model_core.Dataset.__init__", "Dataset([], np.ones((0, 1)), [])", ValueError,
     "need one or more clusters of size >= 1 covering every row: sum(sizes) = 0, len(y) = 0"),
    ("model_core.Dataset.__init__", "Dataset([1.0, 2.0], np.ones((2, 1)), [1, 2], ['a', 'b'])",
     ValueError,
     "need one or more clusters of size >= 1 covering every row: sum(sizes) = 3, len(y) = 2"),
    ("model_core.Dataset.__init__", "Dataset([1.0, 2.0], np.ones((2, 1)), [2, 0], ['a', 'b'])",
     ValueError, "need one or more clusters of size >= 1 covering every row: sizes[1] = 0"),
    ("model_core.Dataset.__init__", "Dataset([1.0, 2.0], np.ones((2, 1)), [1, 1], ['a'])",
     ValueError, "need one cluster id per cluster: len(cluster_ids) = 1, len(sizes) = 2"),
    ("model_core.Dataset.__init__",
     "Dataset([1.0, 1.0], np.ones((2, 1)), [1, 1], covariate_names=('x1', 'x2'))", ValueError,
     "covariate_names length must match design columns: len(covariate_names) = 2, "
     "X.shape[1] = 1"),
    ("cs.require_finite", "Dataset([1, 2, math.nan, 0.5, 1.5, 2.5], np.ones((6, 1)), [2, 2, 2])",
     DomainError, "y[2] = nan is non-finite"),
    ("cs.require_finite",
     "Dataset(np.zeros(6), np.insert(np.ones((5, 2)), 3, [1, -math.inf], axis=0), [2, 2, 2])",
     DomainError, "X[3, 1] = -inf is non-finite"),
    ("cs.require_finite",  # NaNs of two payloads: refused at the first, whatever its bits
     "Dataset(np.zeros(6), np.array([1, 1, 1, 1, 0x7FF8000000000001, 0xFFF8000000000000], "
     "dtype=np.uint64).view(np.float64)[:, None], [2, 2, 2])",
     DomainError, "X[4, 0] = nan is non-finite"),
    # the within part of x2 is 5, its between part singular at w = -2.5, i.e. g = -0.6
    ("model_core.SuffStats.gls",
     "Dataset([0.0, 1.0, 3.0, 2.0], [[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 3.0]], [2, 2])"
     ".stats.gls(-0.6)",
     RankDeficiencyError, "GLS normal equations are rank deficient"),
    ("model_core.CSParams.__new__", "CSParams(xi=[[0.5]], lam=0.0, phi=1.0)", ValueError,
     "xi must be a vector: xi.shape = (1, 1)"),
    ("model_core.CSParams.__new__", "CSParams(xi=[0.5], lam=0.0, phi=0.0)", DomainError,
     "phi must be strictly positive, got 0.0"),
    ("model_core.CSParams.__new__", "CSParams(xi=[0.0], lam=1.0, phi=math.nan)", DomainError,
     "phi must be strictly positive, got nan"),
    ("cs.require_finite", "CSParams(xi=[0.0, math.nan], lam=1.0, phi=1.0)", DomainError,
     "xi[1] = nan is non-finite"),
    ("cs.require_finite", "CSParams(xi=[math.inf], lam=1.0, phi=1.0)", DomainError,
     "xi[0] = inf is non-finite"),
    ("cs.require_finite", "CSParams(xi=[0.0], lam=math.nan, phi=1.0)", DomainError,
     "lam = nan is non-finite"),
    ("cs.require_finite", "CSParams(xi=[0.0], lam=-math.inf, phi=1.0)", DomainError,
     "lam = -inf is non-finite"),
    ("cs.require_finite", "CSParams(xi=[0.0], lam=1.0, phi=math.inf)", DomainError,
     "phi = inf is non-finite"),
    # heavytail
    ("heavytail.WeibullExpSpec.__new__", "WeibullExpSpec(phi=1.0, rho=0.0, delta=1.0)",
     DomainError, "phi, rho, delta must all be strictly positive: rho = 0.0"),
    ("cs.require_finite", "WeibullExpSpec(phi=1.0, rho=1.0, delta=math.inf)", DomainError,
     "delta = inf is non-finite"),
    ("heavytail.MomentResult.__new__",
     "MomentResult(k=1, formula_defined=False, integral_finite=True, value=1.0)", ValueError,
     "finite integral implies a defined formula"),
    ("heavytail.MomentResult.__new__",
     "MomentResult(k=1, formula_defined=True, integral_finite=False, value=1.0)", ValueError,
     "value must be present exactly when the integral is finite"),
    ("heavytail.MomentResult.__new__",
     "MomentResult(k=1, formula_defined=True, integral_finite=True, value=None)", ValueError,
     "value must be present exactly when the integral is finite"),
    ("heavytail.MomentResult.__new__",
     "MomentResult(k=1, formula_defined=True, integral_finite=True, value=-1.0)", ValueError,
     "moments of a positive variable must be positive"),
    ("heavytail.wg_moment_defined", "wg_moment_defined(0.0, 1.0, 1)", DomainError,
     "alpha_g, rho, k must be positive: alpha_g = 0.0"),
    ("heavytail.wg_moment_defined", "wg_moment_defined(1.0, -1.0, 1)", DomainError,
     "alpha_g, rho, k must be positive: rho = -1.0"),
    ("heavytail.wg_moment_defined", "wg_moment_defined(1.0, 1.0, 0)", DomainError,
     "alpha_g, rho, k must be positive: k = 0"),
    ("heavytail._refuse_entry", "we_cdf(UNIT, [1.0, -0.5])", DomainError,
     "support is y >= 0: y[1] = -0.5"),
    ("heavytail._refuse_entry", "we_cdf(UNIT, math.nan)", DomainError,
     "support is y >= 0: y = nan"),
    ("heavytail._refuse_entry", "we_cdf(UNIT, [2.0, math.nan])", DomainError,
     "support is y >= 0: y[1] = nan"),
    ("heavytail._refuse_entry", "we_cdf(UNIT, [[1.0, 2.0], [3.0, -1.0]])", DomainError,
     "support is y >= 0: y[1, 1] = -1.0"),
    *(("heavytail._refuse_entry", f"we_quantile(UNIT, {u})", DomainError,
       f"u must lie strictly inside (0, 1): u = {shown}")
      for u, shown in [("0.0", "0.0"), ("1.0", "1.0"), ("-0.2", "-0.2"), ("1.5", "1.5"),
                       ("math.nan", "nan")]),
    ("heavytail._refuse_entry", "we_quantile(UNIT, [0.5, 0.25, 1.0])", DomainError,
     "u must lie strictly inside (0, 1): u[2] = 1.0"),
    ("heavytail.we_moment", "we_moment(UNIT, 0)", DomainError,
     "moment order k must be a positive integer: k = 0"),
    ("heavytail.we_moment", "we_moment(UNIT, -1)", DomainError,
     "moment order k must be a positive integer: k = -1"),
    ("heavytail.we_moment", "we_moment(WeibullExpSpec(1e300, 1.1, 1e-300), 1)", ArithmeticError,
     "moment k=1 is about 1e-545, past the floats"),
    ("heavytail.we_moment", "we_moment(WeibullExpSpec(1e-300, 1.1, 1e300), 1)", ArithmeticError,
     "moment k=1 is about 1e546, past the floats"),
    *(("heavytail.truncated_moment", f"truncated_moment(UNIT, 1, {T})", DomainError,
       f"T must be strictly positive and finite: T = {shown}")
      for T, shown in [("0.0", "0.0"), ("math.inf", "inf"), ("math.nan", "nan")]),
    ("heavytail.truncated_moment", "truncated_moment(UNIT, 0, 1.0)", DomainError,
     "moment order k must be a positive integer: k = 0"),
    ("heavytail.truncated_moment",  # r = 4000
     "truncated_moment(WeibullExpSpec(1e304, 0.01, 1.0), 40, 1.0)", QuadratureError,
     "162773 panels needed, more than MAX_PANELS = 131072"),
    ("heavytail.truncated_moment",  # a bound no estimate meets
     "mock.patch.object(heavytail, 'QUAD_RTOL', -1.0)(truncated_moment)(UNIT, 1, 1e3)",
     QuadratureError, "relative error 0.000e+00 > -1.0"),
    ("heavytail.running_mean_fill", "running_mean_trace(UNIT, 10, 11, seed=0)", DomainError,
     "need N >= stride >= 1: N = 10, stride = 11"),
    ("heavytail.running_mean_fill", "running_mean_trace(UNIT, 10, 0, seed=0)", DomainError,
     "need N >= stride >= 1: N = 10, stride = 0"),
    ("heavytail._filled", "we_sample(UNIT, -1, seed=1)", DomainError,
     "n_draws = -1: the number of draws must be >= 0"),  # not numpy's "negative dimensions"
    ("heavytail._filled", "pit_sample(lambda u: we_quantile(UNIT, u), -1, seed=1)", DomainError,
     "n_draws = -1: the number of draws must be >= 0"),
    ("heavytail._non_finite", f"we_sample({TINY_PHI}, 10, seed=4)", ArithmeticError,
     NOT_FINITE_U.format(2.178627012161538e-05)),
    ("heavytail._non_finite", f"running_mean_trace({TINY_PHI}, 10, 1, seed=4)", ArithmeticError,
     NOT_FINITE_U.format(2.178627012161538e-05)),
    ("heavytail._non_finite", f"pit_sample(lambda u: we_quantile({TINY_PHI}, u), 20, seed=3)",
     ArithmeticError, NOT_FINITE_U.format(0.8443011773120848)),
    ("heavytail._non_finite", "pit_sample(lambda u: np.full_like(u, np.nan), 10, seed=0)",
     ArithmeticError, NOT_FINITE_U.format(0.5632819536237124)),
    ("heavytail.pit_sample_fill.<locals>.into", "pit_sample(lambda u: 1.0, 10, seed=0)",
     TypeError, "quantile returned shape () for probabilities of shape (10,)"),
    ("heavytail.pit_sample_fill.<locals>.into",
     "pit_sample(lambda u: np.ones((len(u), 1)), 10, seed=0)", TypeError,
     "quantile returned shape (10, 1) for probabilities of shape (10,)"),
    # rng
    *(("rng._u64", call.format(value), ValueError, f"seed = {shown}: {NOT_U64}")
      for value, shown in NOT_U64_VALUES
      for call in ("philox_raw({}, [0], 4)", "substream({}, 0)")),
    *(("rng._u64", call.format(value), ValueError, f"stream = {shown}: {NOT_U64}")
      for value, shown in NOT_U64_VALUES
      for call in ("philox_raw(7, [0, {}], 4)", "substream(7, {})")),
    # a negative or fractional entry of a numpy array is refused, not cast to another stream
    ("rng._u64", "philox_raw(7, np.array([3, -1, 4], dtype=np.int64), 4)", ValueError,
     f"stream = -1: {NOT_U64}"),
    ("rng._u64", "philox_raw(7, np.array([3, 2.5, 4]), 4)", ValueError,
     f"stream = 2.5: {NOT_U64}"),
    # rows: uint64 is refused whatever its values, as int64 cannot hold them all
    *(("rows._column", f"write_rows(io.StringIO(), '', np.array({values}, dtype=np.uint64))",
       TypeError,
       "Cannot cast array data from dtype('uint64') to dtype('int64') according to the rule 'safe'")
      for values in ("[2**64 - 1]", "[0, 1]")),
    *(("rows._column", f"write_rows(io.StringIO(), '', np.array([1.0]), {column})", TypeError,
       f"a column of dtype {dtype} {NOT_WRITTEN}")
      for column, dtype in [("np.array([1 + 2j])", "complex128"), ("np.array([b'x'])", "|S1"),
                            ("np.array(['2020-01-01'], dtype='M8[D]')", "datetime64[D]"),
                            ("np.array([1], dtype='m8[s]')", "timedelta64[s]")]),
    ("rows._column", "write_rows(io.StringIO(), '', np.ones((2, 2)))", ValueError,
     "a column must be one-dimensional, not of shape (2, 2)"),
    ("rows.lines", "write_rows(io.StringIO(), '', [1, 2], [1.0])", ValueError,
     "columns differ in length: [1, 2]"),
    ("rows.lines", "write_rows(io.StringIO(), '', Runs(cells(['a', 'b']), 2), [1.0])",
     ValueError, "columns differ in length: [1, 4]"),
    ("rows._column", "write_rows(io.StringIO(), '', Runs(np.zeros((2, 2)), 1))", ValueError, RUNS),
    ("rows._column", "write_rows(io.StringIO(), '', Runs(cells(['a']), -1))", ValueError, RUNS),
    ("rows._column", "write_rows(io.StringIO(), '', Runs(np.zeros(2, dtype=np.uint8), 1))",
     ValueError, RUNS),
    ("rows._Final.wait", "write_rows(io.StringIO(), '', np.zeros(CHUNK), fill=iter([2, 5]))",
     RuntimeError, "fill ended with 5 rows final, not 8192"),
    # special
    ("special.ndtr", "ndtr(np.zeros(3), out=np.empty(4))", ValueError, OUT),
    ("special.ndtr", "ndtr(np.zeros(3), out=np.empty(3, dtype=np.float32))", ValueError, OUT),
    ("special.ndtr", "ndtr(np.zeros(3), out=np.empty(6)[::2])", ValueError, OUT),
]

# Raise statements no call of the library should reach, (where, exception) with the reason.
ALLOWED = {
    # numpy refused a file yet parsed each of its lines: a broken invariant of the bisection
    ("model_core._refuse_first_bad_row", "AssertionError"),
    # re-raises the error of the caller's fill, whose own raise statement has its row
    ("rows._Final.wait", "error"),
}

SRC = pathlib.Path(unobs_lab.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def functions(node, prefix=""):
    """(qualname, node) of each function under node, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from functions(child, f"{prefix}{child.name}.<locals>.")
        else:
            yield from functions(child, prefix)


@functools.cache
def holder(module: str, line: int) -> str:
    """module.qualname of the innermost function of the package's module that holds line."""
    spans = [(node.lineno, name) for name, node in functions(MODULES[module])
             if node.lineno <= line <= node.end_lineno]
    return f"{module}.{max(spans)[1]}"


def raised_at(exc: BaseException) -> tuple[str, int]:
    """(module, line) of the package where exc was raised: its traceback's innermost frame."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    path = pathlib.Path(tb.tb_frame.f_code.co_filename)
    assert path.parent == SRC, f"raised outside the package, at {path}:{tb.tb_lineno}"
    return path.stem, tb.tb_lineno


def refusals(call: str) -> list[BaseException]:
    """The exception that call raises, evaluated here with warnings as errors; for a value
    class built by keyword, also the one it raises built by position."""
    node, texts = ast.parse(call, mode="eval").body, [call]
    if isinstance(node, ast.Call) and node.keywords and not node.args:
        cls = eval(ast.unparse(node.func))
        if isinstance(cls, type) and issubclass(cls, tuple):  # a value class
            texts.append(ast.unparse(ast.Call(node.func, [k.value for k in node.keywords], [])))
    got = []
    for text in texts:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                eval(text)
            except Exception as exc:
                got.append(exc)
            else:
                pytest.fail(f"{text} raised nothing")
    return got


@pytest.mark.parametrize("where,call,error,line", LIBRARY_REFUSALS,
                         ids=[call for _, call, *_ in LIBRARY_REFUSALS])
def test_library_refusal(where, call, error, line):
    """The one home of the library's refusals: each row raises exactly its type with exactly
    its line, from the function it names, and warns of nothing."""
    for exc in refusals(call):
        assert (type(exc), str(exc), holder(*raised_at(exc))) == (error, line, where)


def raise_name(node: ast.Raise) -> str:
    """The class a raise statement names, or the variable it raises again."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.attr if isinstance(exc, ast.Attribute) else exc.id


def test_every_raise_statement_has_a_row():
    """Each raise statement of the package is reached by a row of LIBRARY_REFUSALS, or is
    in ALLOWED; cli's are REFUSALS', and CsvFormatError's are the reader's, pinned by
    DATASETS."""
    reached = {raised_at(exc) for _, call, *_ in LIBRARY_REFUSALS for exc in refusals(call)}
    sites = [(module, node, holder(module, node.lineno), raise_name(node))
             for module, tree in MODULES.items() if module != "cli"
             for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert ALLOWED <= {(where, name) for _, _, where, name in sites}
    missing = [(where, node.lineno, name) for module, node, where, name in sites
               if name != "CsvFormatError" and (where, name) not in ALLOWED
               and not any(module == m and node.lineno <= line <= node.end_lineno
                           for m, line in reached)]
    assert missing == []
