"""The contract of the package's immutable value types.

Each of the thirteen classes compares and hashes on its field tuple, prints
as `Name(field=value, ...)`, refuses assignment and deletion with an
AttributeError, survives pickle, copy and deepcopy, and can be built from
keywords. The repr strings are the ones the classes printed as frozen
dataclasses, so the printed form stays as it was.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from seshadri.exact import QuadraticNumber, RationalInterval
from seshadri.region import Certificate
from seshadri.search import (
    BalancedPair,
    OracleReport,
    Outcome,
    VerificationReport,
    Verdict,
)
from seshadri.surface import CurveClass, MuInterval
from seshadri.thresholds import (
    CatalogCurve,
    Classification,
    CoverageReport,
    RationalityVerdict,
    ThresholdEntry,
)


def _pair():
    return BalancedPair(CurveClass(3, ((1, 8),), 12), 2)


def _verdict():
    return Verdict(4, QuadraticNumber.from_rational(4), Outcome.PASS_MU_MINUS_ABOVE_THRESHOLD)


def _catalog_curve():
    return CatalogCurve(13, CurveClass(4, ((1, 13),), 13), 2, "pencil")


def _locus():
    return MuInterval(QuadraticNumber(Fraction(13, 3), Fraction(-1, 6), 13), None)


# class -> (its compared fields in constructor order, a factory that builds a
# fresh instance on each call, and the instance's repr)
CASES = {
    RationalInterval: (
        ("lo", "hi"),
        lambda: RationalInterval(Fraction(1, 2), Fraction(3, 4)),
        "RationalInterval(lo=Fraction(1, 2), hi=Fraction(3, 4))",
    ),
    QuadraticNumber: (
        ("a", "b", "rad"),
        lambda: QuadraticNumber(Fraction(4), Fraction(-1, 3), 3),
        "QuadraticNumber('4 - 1/3*sqrt(3)')",
    ),
    CurveClass: (
        ("d", "runs", "r"),
        lambda: CurveClass(4, ((2, 1), (1, 10)), 11),
        "CurveClass(d=4, runs=((2, 1), (1, 10)), r=11)",
    ),
    MuInterval: (
        ("lo", "hi"),
        lambda: MuInterval(QuadraticNumber.sqrt(13), QuadraticNumber.from_rational(4)),
        "MuInterval(lo=QuadraticNumber('sqrt(13)'), hi=QuadraticNumber('4'))",
    ),
    BalancedPair: (
        ("curve", "t"),
        _pair,
        "BalancedPair(curve=CurveClass(d=3, runs=((1, 8),), r=12), t=2)",
    ),
    Verdict: (
        ("delta", "mu_minus", "outcome"),
        _verdict,
        "Verdict(delta=4, mu_minus=QuadraticNumber('4'), "
        "outcome=<Outcome.PASS_MU_MINUS_ABOVE_THRESHOLD: 'PassMuMinusAboveThreshold'>)",
    ),
    VerificationReport: (
        ("r", "mu0", "pairs"),
        lambda: VerificationReport(12, QuadraticNumber.sqrt(13), ((_pair(), _verdict()),)),
        "VerificationReport(r=12, mu0=QuadraticNumber('sqrt(13)'), "
        "pairs=((BalancedPair(curve=CurveClass(d=3, runs=((1, 8),), r=12), t=2), "
        "Verdict(delta=4, mu_minus=QuadraticNumber('4'), "
        "outcome=<Outcome.PASS_MU_MINUS_ABOVE_THRESHOLD: 'PassMuMinusAboveThreshold'>)),))",
    ),
    OracleReport: (
        ("r", "mu0", "pairs_checked", "counterexamples", "critical",
         "matches_enumeration"),
        lambda: OracleReport(12, QuadraticNumber.sqrt(13), 7, (), (_pair(),), True),
        "OracleReport(r=12, mu0=QuadraticNumber('sqrt(13)'), pairs_checked=7, "
        "counterexamples=(), critical=(BalancedPair(curve=CurveClass(d=3, "
        "runs=((1, 8),), r=12), t=2),), matches_enumeration=True)",
    ),
    ThresholdEntry: (
        ("r", "mu0"),
        lambda: ThresholdEntry(10, QuadraticNumber.from_rational(Fraction(77, 24))),
        "ThresholdEntry(r=10, mu0=QuadraticNumber('77/24'))",
    ),
    CatalogCurve: (
        ("r", "curve", "t", "source"),
        _catalog_curve,
        "CatalogCurve(r=13, curve=CurveClass(d=4, runs=((1, 13),), r=13), t=2, "
        "source='pencil')",
    ),
    CoverageReport: (
        ("r", "target_lo", "target_lo_closed", "chain", "gaps", "covered"),
        lambda: CoverageReport(
            13, QuadraticNumber(Fraction(13, 3), Fraction(-1, 6), 13), True,
            ((_catalog_curve(), _locus()),), (), True,
        ),
        "CoverageReport(r=13, target_lo=QuadraticNumber('13/3 - 1/6*sqrt(13)'), "
        "target_lo_closed=True, chain=((CatalogCurve(r=13, curve=CurveClass(d=4, "
        "runs=((1, 13),), r=13), t=2, source='pencil'), "
        "MuInterval(lo=QuadraticNumber('13/3 - 1/6*sqrt(13)'), hi=None)),), "
        "gaps=(), covered=True)",
    ),
    Classification: (
        ("r", "mu", "verdict", "witness", "witness_locus", "mu0", "mu_below_mu0",
         "l_squared", "l_squared_is_rational_square", "conditional_on_conjecture"),
        lambda: Classification(
            13, Fraction(4), RationalityVerdict.RATIONAL_WITH_WITNESS,
            _catalog_curve(), _locus(), QuadraticNumber.sqrt(13), False,
            Fraction(3), False, False,
        ),
        "Classification(r=13, mu=Fraction(4, 1), "
        "verdict=<RationalityVerdict.RATIONAL_WITH_WITNESS: 'RationalWithWitness'>, "
        "witness=CatalogCurve(r=13, curve=CurveClass(d=4, runs=((1, 13),), r=13), "
        "t=2, source='pencil'), witness_locus=MuInterval(lo=QuadraticNumber("
        "'13/3 - 1/6*sqrt(13)'), hi=None), mu0=QuadraticNumber('sqrt(13)'), "
        "mu_below_mu0=False, l_squared=Fraction(3, 1), "
        "l_squared_is_rational_square=False, conditional_on_conjecture=False)",
    ),
    Certificate: (
        ("r", "t0", "depth_limit", "sqrt_width", "mu_lo", "mu_hi", "max_depth",
         "leaf_count", "tree"),
        lambda: Certificate(
            10, 6, 40, Fraction(1, 2**32), Fraction(3), Fraction(7, 2), 0, 1,
            {"rule": "c_negative"},
        ),
        "Certificate(r=10, t0=6, depth_limit=40, sqrt_width=Fraction(1, 4294967296), "
        "mu_lo=Fraction(3, 1), mu_hi=Fraction(7, 2), max_depth=0, leaf_count=1, "
        "tree={'rule': 'c_negative'})",
    ),
}
CLASSES = list(CASES)
IDS = [cls.__name__ for cls in CLASSES]


def _values(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


def test_every_value_type_is_covered():
    assert len(CASES) == 13


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(cls):
    fields, make, _ = CASES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != _values(a, fields)  # another class never compares equal
    assert a.__eq__(object()) is NotImplemented
    if cls is Certificate:  # its tree is a dict
        with pytest.raises(TypeError):
            hash(a)
    elif cls is QuadraticNumber:  # equal to the rational it may be
        assert hash(a) == hash(b) == hash((a.a, a.b, a.rad))
        assert hash(QuadraticNumber(Fraction(1, 2))) == hash(Fraction(1, 2))
    else:
        assert hash(a) == hash(b) == hash(_values(a, fields))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_a_changed_field_breaks_equality(cls):
    fields, make, _ = CASES[cls]
    a = make()
    for name in fields:
        b = make()
        object.__setattr__(b, name, ("changed", getattr(a, name)))
        assert a != b and b != a, name


def test_curve_class_equality_ignores_total_multiplicity():
    a, b = CurveClass(4, ((2, 1), (1, 10)), 11), CurveClass(4, ((2, 1), (1, 10)), 11)
    assert a.total_multiplicity == 12
    object.__setattr__(b, "total_multiplicity", 99)
    assert a == b and hash(a) == hash(b)
    assert "total_multiplicity" not in repr(b)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr(cls):
    _, make, text = CASES[cls]
    assert repr(make()) == text


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields, make, _ = CASES[cls]
    a = make()
    for name in fields:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, before)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_pickle_copy_and_deepcopy_round_trip(cls):
    fields, make, text = CASES[cls]
    a = make()
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is cls and b == a and repr(b) == text
        assert _values(b, fields) == _values(a, fields)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_keyword_construction(cls):
    fields, make, _ = CASES[cls]
    a = make()
    assert cls(**dict(zip(fields, _values(a, fields)))) == a
