"""The value-class contract: every value class is an immutable namedtuple subclass.

Construction by position or keyword gives the same value, and runs the same
checks (their refusals are rows of tests/test_library_refusals.py); fields
cannot be assigned; the repr is Name(field=value, ...).
ExtendedSpec holds (lambda2, nu2, alpha) only and derives d and tau on each
read, and every public path (the constructor, _replace, _make, copy or
pickle) runs its checks.
"""

import copy
import json
import pickle

import numpy as np
import pytest

from unobs_lab.cli import main
from unobs_lab.cs import CSMatrix, DomainError
from unobs_lab.equivalence import (
    DecompRow,
    ExtendedSpec,
    SpecA,
    SpecB,
    derive_d_tau,
)
from unobs_lab.estimation import FitResult, Latents, SimLayout
from unobs_lab.heavytail import MomentResult, WeibullExpSpec
from unobs_lab.model_core import CSParams

# one valid instance of every value class, built from keyword arguments
VALID = [
    (CSMatrix, dict(n=3, lam=0.5, phi=1.0)),
    (SpecA, dict(lambda2=1.0, nu1sq=1.0, nu2sq=2.0)),
    (SpecB, dict(lambda1sq=1.0, lambda2sq=-0.5, nusq=1.0)),
    (ExtendedSpec, dict(lambda2=1.0, nu2=1.0, alpha=0.25)),
    (DecompRow, dict(quantity="variance", sigma2_part=1.0, d_part=2.0, two_tau_part=-1.0)),
    (WeibullExpSpec, dict(phi=1.0, rho=2.0, delta=1.0)),
    (MomentResult, dict(k=1, formula_defined=True, integral_finite=True, value=1.5)),
    (CSParams, dict(xi=[0.5], lam=-0.2, phi=1.0)),
    (FitResult, dict(params=CSParams([0.5], 0.1, 1.0), loglik=-3.0, converged=True,
                     iterations=7, constraint_active=False)),
    (SimLayout, dict(n_clusters=2, cluster_size=[1, 3])),
    (Latents, dict(b=np.zeros(2), eps=np.zeros(4))),
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


class TestExtendedSpecStaysDerived:
    def test_holds_three_fields_and_derives_d_and_tau_on_read(self):
        spec = ExtendedSpec(1.0, 1.0, 0.25)
        assert spec._fields == ("lambda2", "nu2", "alpha") and len(spec) == 3
        assert (spec.d, spec.tau) == derive_d_tau(1.0, 1.0, 0.25)
        assert "__getnewargs__" not in vars(ExtendedSpec)
        with pytest.raises(AttributeError):
            spec.d = 0.0

    def test_replace_derives_d_and_tau_again(self):
        spec = ExtendedSpec(1.0, 1.0, 0.25)
        moved = spec._replace(alpha=-0.5)
        assert moved == ExtendedSpec(1.0, 1.0, -0.5)
        assert (moved.d, moved.tau) == derive_d_tau(1.0, 1.0, -0.5) != (spec.d, spec.tau)
        assert spec._replace(lambda2=2.0, nu2=0.5) == ExtendedSpec(2.0, 0.5, 0.25)

    def test_replace_runs_the_checks(self):
        with pytest.raises(DomainError, match=r"^alpha = 2.0 outside the admissible box \[-1, 1\]$"):
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
    given = np.array([0.5, 1.0])
    params = CSParams(given, 0, 1)
    assert given.flags.writeable and not params.xi.flags.writeable
    assert (type(params.lam), type(params.phi)) == (float, float)
