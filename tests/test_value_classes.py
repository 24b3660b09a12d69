"""The value-class contract: every value class is an immutable namedtuple subclass.

Construction by position or keyword runs the same checks, with the same
messages; fields cannot be assigned; the repr is Name(field=value, ...).
ExtendedSpec derives d and tau at construction, and no public path (the
constructor, _replace, _make, copy or pickle) gives one whose d and tau do
not match its alpha.
"""

import copy
import json
import pickle

import numpy as np
import pytest

from unobs_lab.cli import main
from unobs_lab.cs import CSMatrix, DomainError
from unobs_lab.equivalence import (
    ConditionalErrorDist,
    DecompRow,
    ExtendedSpec,
    SpecA,
    SpecB,
    derive_d_tau,
)
from unobs_lab.estimation import FitResult, Latents, SimLayout
from unobs_lab.heavytail import MomentResult, WeibullExpSpec, WeibullGammaSpec
from unobs_lab.model_core import CSParams

# one valid instance of every value class, built from keyword arguments
VALID = [
    (CSMatrix, dict(n=3, lam=0.5, phi=1.0)),
    (SpecA, dict(lambda2=1.0, nu1sq=1.0, nu2sq=2.0)),
    (SpecB, dict(lambda1sq=1.0, lambda2sq=-0.5, nusq=1.0)),
    (ExtendedSpec, dict(lambda2=1.0, nu2=1.0, alpha=0.25)),
    (DecompRow, dict(quantity="variance", sigma2_part=1.0, d_part=2.0, two_tau_part=-1.0)),
    (ConditionalErrorDist, dict(mean=[0.5, 0.5], cov=CSMatrix(2, -0.25, 1.0))),
    (WeibullGammaSpec, dict(lam=1.0, rho=2.0, xi=[0.5], x=[[1.0]], alpha_g=[2.0],
                            beta_g=[0.5], constraint_mode="frailty")),
    (WeibullExpSpec, dict(phi=1.0, rho=2.0, delta=1.0)),
    (MomentResult, dict(k=1, formula_defined=True, integral_finite=True, value=1.5)),
    (CSParams, dict(xi=[0.5], lam=-0.2, phi=1.0)),
    (FitResult, dict(params=CSParams([0.5], 0.1, 1.0), loglik=-3.0, converged=True,
                     iterations=7, constraint_active=False)),
    (SimLayout, dict(n_clusters=2, cluster_size=[1, 3])),
    (Latents, dict(b=np.zeros(2), eps=np.zeros(4))),
]

# keyword arguments every check refuses, with the exception and its message
INVALID = [
    (CSMatrix, dict(n=0, lam=0.5, phi=1.0), ValueError, "n must be >= 1"),
    (SpecA, dict(lambda2=-1.0, nu1sq=1.0, nu2sq=1.0), DomainError, "lambda2 must be >= 0"),
    (SpecA, dict(lambda2=1.0, nu1sq=0.0, nu2sq=1.0), DomainError,
     "error variances must be strictly positive"),
    (SpecB, dict(lambda1sq=-1.0, lambda2sq=0.0, nusq=1.0), DomainError,
     "lambda1sq must be >= 0"),
    (SpecB, dict(lambda1sq=1.0, lambda2sq=0.0, nusq=0.0), DomainError,
     "nusq must be strictly positive"),
    (ExtendedSpec, dict(lambda2=1.0, nu2=1.0, alpha=1.5), DomainError,
     "alpha = 1.5 outside the admissible box [-1, 1]"),
    (ExtendedSpec, dict(lambda2=1.0, nu2=0.0, alpha=0.0), DomainError,
     "nu2 = 0.0 must be strictly positive"),
    (WeibullGammaSpec, dict(lam=0.0, rho=2.0, xi=[0.5], x=[[1.0]], alpha_g=[1.0],
                            beta_g=[1.0], constraint_mode="frailty"), DomainError,
     "lam and rho must be strictly positive"),
    (WeibullGammaSpec, dict(lam=1.0, rho=2.0, xi=[0.5], x=[[1.0]], alpha_g=[2.0],
                            beta_g=[2.0], constraint_mode="bayarri"), DomainError,
     "bayarri mode requires alpha_g = 1"),
    (WeibullGammaSpec, dict(lam=1.0, rho=2.0, xi=[0.5], x=[[1.0]], alpha_g=[1.0],
                            beta_g=[1.0], constraint_mode="nope"), ValueError,
     "constraint_mode must be one of"),
    (WeibullExpSpec, dict(phi=1.0, rho=0.0, delta=1.0), DomainError,
     "phi, rho, delta must all be strictly positive"),
    (MomentResult, dict(k=1, formula_defined=False, integral_finite=True, value=1.0),
     ValueError, "finite integral implies a defined formula"),
    (MomentResult, dict(k=1, formula_defined=True, integral_finite=False, value=1.0),
     ValueError, "value must be present exactly when the integral is finite"),
    (MomentResult, dict(k=1, formula_defined=True, integral_finite=True, value=-1.0),
     ValueError, "moments of a positive variable must be positive"),
    (CSParams, dict(xi=[[0.5]], lam=0.0, phi=1.0), ValueError, "xi must be a vector"),
    (CSParams, dict(xi=[0.5], lam=0.0, phi=0.0), DomainError,
     "phi must be strictly positive, got 0.0"),
    (SimLayout, dict(n_clusters=0, cluster_size=2), ValueError, "n_clusters must be >= 1"),
    (SimLayout, dict(n_clusters=2, cluster_size=[1, 0]), ValueError,
     "cluster sizes must be >= 1"),
    (SimLayout, dict(n_clusters=3, cluster_size=[1, 2]), ValueError,
     "explicit size list must have n_clusters entries"),
]


def _ids(cases):
    return [case[0].__name__ for case in cases]


@pytest.mark.parametrize("cls,kwargs", VALID, ids=_ids(VALID))
class TestEveryValueClass:
    def test_positional_and_keyword_construction_agree(self, cls, kwargs):
        by_kw, by_pos = cls(**kwargs), cls(*kwargs.values())
        assert type(by_kw) is type(by_pos) is cls
        assert repr(by_kw) == repr(by_pos)

    def test_fields_cannot_be_assigned(self, cls, kwargs):
        value = cls(**kwargs)
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
        with pytest.raises(AttributeError):
            value.extra = 0

    def test_repr_names_the_class_and_every_field(self, cls, kwargs):
        value = cls(**kwargs)
        fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in value._fields)
        assert repr(value) == f"{cls.__name__}({fields})"

    def test_is_a_namedtuple_without_instance_dict(self, cls, kwargs):
        value = cls(**kwargs)
        assert isinstance(value, tuple) and cls.__slots__ == ()
        assert not hasattr(value, "__dict__")
        assert tuple(value) == tuple(getattr(value, name) for name in value._fields)

    def test_copy_and_pickle_give_an_equal_value(self, cls, kwargs):
        value = cls(**kwargs)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and repr(twin) == repr(value)


@pytest.mark.parametrize("cls,kwargs,exc,message", INVALID, ids=_ids(INVALID))
def test_checks_refuse_positional_and_keyword_construction_alike(cls, kwargs, exc, message):
    with pytest.raises(exc) as by_kw:
        cls(**kwargs)
    with pytest.raises(exc) as by_pos:
        cls(*kwargs.values())
    assert str(by_kw.value) == str(by_pos.value)
    assert str(by_kw.value).startswith(message)


class TestExtendedSpecStaysDerived:
    def test_replace_derives_d_and_tau_again(self):
        spec = ExtendedSpec(1.0, 1.0, 0.25)
        moved = spec._replace(alpha=-0.5)
        assert moved == ExtendedSpec(1.0, 1.0, -0.5)
        assert (moved.d, moved.tau) == derive_d_tau(1.0, 1.0, -0.5) != (spec.d, spec.tau)
        assert spec._replace(lambda2=2.0, nu2=0.5) == ExtendedSpec(2.0, 0.5, 0.25)

    def test_replace_runs_the_checks(self):
        with pytest.raises(DomainError, match=r"alpha = 2.0 outside the admissible box"):
            ExtendedSpec(1.0, 1.0, 0.25)._replace(alpha=2.0)

    @pytest.mark.parametrize("field", ["d", "tau", "nope"])
    def test_replace_refuses_derived_and_unknown_fields(self, field):
        with pytest.raises(TypeError, match=f"'{field}'"):
            ExtendedSpec(1.0, 1.0, 0.25)._replace(**{field: 5.0})

    def test_make_derives_d_and_tau_and_refuses_them(self):
        assert ExtendedSpec._make([1.0, 1.0, -0.5]) == ExtendedSpec(1.0, 1.0, -0.5)
        with pytest.raises(TypeError):
            ExtendedSpec._make([1.0, 1.0, -0.5, 99.0, 99.0])


def test_moment_result_field_order_is_the_moments_json_order(capsys):
    assert main(["heavytail", "moments", "--phi", "1", "--rho", "2", "--delta", "1",
                 "--k", "1..2"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [list(r) for r in records] == [list(MomentResult._fields)] * 2
    assert list(MomentResult(2, False, False)._asdict()) == list(MomentResult._fields) == [
        "k", "formula_defined", "integral_finite", "value"]


def test_array_fields_are_held_read_only():
    mean = np.array([1.0, 2.0])
    dist = ConditionalErrorDist(mean, CSMatrix(2, 0.0, 1.0))
    mean[0] = 5.0
    assert dist.mean.tolist() == [1.0, 2.0] and not dist.mean.flags.writeable
    given = [np.array([0.5]), np.array([[1.0]]), np.array([2.0]), np.array([0.5])]
    spec = WeibullGammaSpec(1.0, 2.0, *given)
    assert all(g.flags.writeable for g in given)
    assert not any(v.flags.writeable for v in (spec.xi, spec.x, spec.alpha_g, spec.beta_g))
    params = CSParams([0.5, 1], 0, 1)
    assert not params.xi.flags.writeable
    assert (type(params.lam), type(params.phi)) == (float, float)
