"""The contract of pgq's records: construction by keyword and by position,
defaults, value semantics of the frozen ones, and the input checks their
constructors run."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from pgq.brauer import (BrauerTreeSpec, GammaBound, GroupArithmeticProfile,
                        MultiplicityAssignment, TreeVertex, VerdictReport)
from pgq.cyclotomic import zeta
from pgq.helpmethod import (Character, ConjugacyClassInfo, Congruence, FeasibilityResult,
                            InequalityRowsFixture, InfeasibleBranch, PartialAugmentationVector)
from pgq.numtheory import LIE_FAMILIES, FactoredInteger, LieSeriesSpec, LieVerdict, SieveResult
from pgq.tableaux import ModulePartition, SkewShape, SkewTableau, VerifierReport

G2 = LieSeriesSpec("G2", 5, 1)

#: class -> (every field by keyword, in order; the defaults of the trailing
#: fields, where [] and {} mean a fresh list or dict per instance)
RECORDS = {
    TreeVertex: (dict(name="v0", sign=-1, characters=("chi1",)), dict(characters=())),
    BrauerTreeSpec: (dict(prime=5, vertices=[TreeVertex("v0", 1)], edges=[],
                          exceptional=("v0", 2)), dict(exceptional=None)),
    MultiplicityAssignment: (dict(p=5, m=1, xi_exponent=0, mu_shifted={"v0": Fraction(1)},
                                  mu_plain={"v0": Fraction(0)}), dict(mu_plain={})),
    GammaBound: (dict(kind="lower", s=4, value=Fraction(3)), {}),
    GroupArithmeticProfile: (dict(name="s5", order=120, spectrum=frozenset({1, 2, 3}),
                                  lie_family="A1"), dict(lie_family=None)),
    VerdictReport: (dict(group="s5", verdicts={(2, 3): "edge-in-group"}), {}),
    ConjugacyClassInfo: (dict(name="2a", order=2, power_map={2: "1a"}, size=10),
                         dict(power_map={}, size=None)),
    Character: (dict(name="triv", degree=1, values={"1a": zeta(1)}), {}),
    PartialAugmentationVector: (dict(order=2, entries={"2a": 1},
                                     powers={1: None}), dict(powers={})),
    Congruence: (dict(classes=("2a",), modulus=2, residue=1), {}),
    InfeasibleBranch: (dict(powers={}, multipliers={("triv", 0): (1, 0)},
                            augmentation=(0, 1)), {}),
    FeasibilityResult: (dict(order=2, variables=["2a"], status="too-large", feasible=[],
                             bounds=None, congruences=[], certificates=[None],
                             reason="cap"), dict(certificates=[], reason=None)),
    InequalityRowsFixture: (dict(group="g", unit_order=6, variable="2a", partner="3a",
                                 modulus=6, rows=((1, 1), (5, -1)), congruences=((2, 1),)), {}),
    FactoredInteger: (dict(value=12, factors=((2, 2), (3, 1))), {}),
    SieveResult: (dict(x=10, condition="thm51", method="phi-factor", count=1, total_primes=4,
                       primes=np.array([2, 3, 5, 7]), witness=np.array([0, 2, 2, 2])), {}),
    LieSeriesSpec: (dict(family="G2", p=5, f=2), {}),
    LieVerdict: (dict(spec=G2, settled=True, c=1, poly_value=31, alpha_of_poly=31,
                      conditions={"a": True}, tested={}), {}),
    SkewShape: (dict(outer=(2, 1), inner=(1,)), {}),
    SkewTableau: (dict(shape=SkewShape((2, 1), (1,)), rows=((1,), (2,))), {}),
    VerifierReport: (dict(checked=3, violations=[]), {}),
    ModulePartition: (dict(p=5, parts=(3, 1)), {}),
}
FROZEN = (TreeVertex, GammaBound, ConjugacyClassInfo, Character, Congruence, FactoredInteger,
          LieSeriesSpec, SkewShape, SkewTableau, ModulePartition)
#: a field and another value for it that passes the constructor's checks
OTHER = {TreeVertex: ("sign", 1), GammaBound: ("kind", "upper"),
         ConjugacyClassInfo: ("size", 11), Character: ("degree", 2),
         Congruence: ("residue", 0), FactoredInteger: ("factors", ((2, 2), (3, 1), (5, 0))),
         LieSeriesSpec: ("f", 1), SkewShape: ("inner", ()),
         SkewTableau: ("rows", ((2,), (3,))), ModulePartition: ("parts", (3, 2))}
IDS = [cls.__name__ for cls in RECORDS]


def test_all_twenty_one_records_listed():
    assert len(RECORDS) == 21 and set(FROZEN) == set(OTHER) <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_keyword_and_positional_construction(cls):
    fields, _ = RECORDS[cls]
    for record in (cls(**fields), cls(*fields.values())):
        for name, value in fields.items():
            assert getattr(record, name) is value, name


@pytest.mark.parametrize("cls", [c for c in RECORDS if RECORDS[c][1]],
                         ids=[c.__name__ for c in RECORDS if RECORDS[c][1]])
def test_defaults_are_fresh(cls):
    fields, defaults = RECORDS[cls]
    given = {k: v for k, v in fields.items() if k not in defaults}
    a, b = cls(**given), cls(**given)
    for name, default in defaults.items():
        assert getattr(a, name) == default and type(getattr(a, name)) is type(default)
        if isinstance(default, (list, dict)):
            assert getattr(a, name) is not getattr(b, name), name


@pytest.mark.parametrize("cls", FROZEN, ids=[c.__name__ for c in FROZEN])
def test_frozen_records_are_values(cls):
    fields, _ = RECORDS[cls]
    a, b = cls(**fields), cls(*fields.values())
    name, value = OTHER[cls]
    c = cls(**dict(fields, **{name: value}))
    assert a == b and not a != b and a != c and a != fields
    if any(isinstance(v, dict) for v in fields.values()):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
        assert len({a, b, c}) == 2
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, name) is fields[name]
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and type(twin) is cls


@pytest.mark.parametrize("make, message", [
    (lambda: TreeVertex("v3", 0), "vertex v3: sign must be +1 or -1"),
    (lambda: FactoredInteger(4, ((4, 1),)), "4 is not prime"),
    (lambda: FactoredInteger(12, ((2, 1), (3, 1))),
     "factorization does not multiply back to the value"),
    (lambda: LieSeriesSpec("E8", 5, 1), f"unknown family 'E8'; choose from {LIE_FAMILIES}"),
    (lambda: LieSeriesSpec("G2", 9, 1), "9 is not prime"),
    (lambda: LieSeriesSpec("G2", 5, 0), "field exponent must be at least 1"),
    (lambda: SkewShape((2, 1), (1, 1, 1)), "(1, 1, 1) is not a subpartition of (2, 1)"),
    (lambda: SkewShape((1, 2), ()),
     "(1, 2) is not a partition (weakly decreasing positive parts)"),
    (lambda: SkewTableau(SkewShape((2, 1), ()), ((1, 1), (2, 3))),
     "row 1 must hold 1 entries, got 2"),
    (lambda: SkewTableau(SkewShape((2, 1), ()), ((1, 1),)),
     "one entry tuple per outer row is required"),
    (lambda: SkewTableau(SkewShape((1,), ()), ((0,),)), "entries must be positive integers"),
    (lambda: ModulePartition(2, (1,)), "2 is not an odd prime"),
    (lambda: ModulePartition(9, (1,)), "9 is not an odd prime"),
    (lambda: ModulePartition(3, (4, 1)), "parts of (4, 1) must be at most p=3"),
    (lambda: ModulePartition(3, (1, 2)),
     "(1, 2) is not a partition (weakly decreasing positive parts)"),
])
def test_constructor_checks(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_mutable_records_keep_their_equality():
    pa = PartialAugmentationVector(2, {"2a": 1, "2b": 0})
    assert pa == PartialAugmentationVector(2, {"2a": 1})  # zero entries do not count
    report = VerifierReport(3, [])
    assert report == VerifierReport(3, []) and report != VerifierReport(3, [None])
    for unhashable in (pa, report):
        with pytest.raises(TypeError):
            hash(unhashable)
    fields, _ = RECORDS[SieveResult]
    census = SieveResult(**fields)
    assert census == census and census != SieveResult(**fields)  # identity, no array truth
