"""Curve classes, intersection numbers, and weakly-submaximal loci."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri.errors import ExceptionalClassUnsupported, InvalidMultiplicityIndex
from seshadri.exact import QuadraticNumber, compare
from seshadri.surface import (
    CurveClass,
    MuInterval,
    UniformPolarization,
    arithmetic_genus,
    degree_against,
    expected_dim,
    is_weakly_submaximal,
    parse_curve_class,
    self_intersection,
    submaximal_locus,
    submaximality_quadratic,
)

CUBIC_10 = CurveClass(3, ((1, 9),), 10)
PENCIL_10 = CurveClass(10, ((4, 1), (3, 9)), 10)
SEXTIC_8 = CurveClass(6, ((3, 1), (2, 7)), 8)


def test_curve_class_shapes():
    assert CUBIC_10.r == 10
    assert CUBIC_10.total_multiplicity == 9
    assert not CUBIC_10.is_exceptional
    e = CurveClass.exceptional(10)
    assert e.is_exceptional and e.total_multiplicity == -1
    assert CurveClass.from_multiplicities(3, (0,) + (1,) * 9) == CUBIC_10
    with pytest.raises(ValueError):
        CurveClass.from_multiplicities(2, (1, -1))
    with pytest.raises(ValueError):
        CurveClass.from_multiplicities(0, (-1, -1, 0))
    with pytest.raises(ValueError):
        CurveClass.from_multiplicities(-1, (0,))
    # runs must be canonical: distinct, nonzero, descending, counts >= 1,
    # at most r points in all
    for runs in (((1, 9), (2, 1)), ((1, 4), (1, 5)), ((2, 0),), ((1, 11),), ((0, 3),)):
        with pytest.raises(ValueError):
            CurveClass(3, runs, 10)
    with pytest.raises(ValueError):
        CurveClass(0, ((-1, 1),), 0)


def test_render():
    assert str(CUBIC_10) == "(3;1^9)"
    assert str(PENCIL_10) == "(10;4,3^9)"
    assert str(CurveClass(4, ((2, 1), (1, 11)), 12)) == "(4;2,1^11)"
    assert str(CurveClass(5, (), 10)) == "(5;)"
    assert str(CurveClass.exceptional(10)) == "E1"
    # the cost does not grow with r
    assert str(CurveClass(7, ((3, 10**18 - 1),), 10**18)) == f"(7;3^{10**18 - 1})"


def test_parse_round_trip():
    for text, r in (
        ("(3;1^9)", 10),
        ("(10;4,3^9)", 10),
        ("(13;4^8,3^4)", 12),
        ("E1", 10),
    ):
        c = parse_curve_class(text, r)
        assert str(c) == text
        assert c.r == r


def test_parse_accepts_variants():
    # explicit ^1 exponents, zero entries, any order, and the exceptional forms
    assert parse_curve_class("(4;2^1,1^11)", 12) == parse_curve_class("(4;2,1^11)", 12)
    assert parse_curve_class("(3;1^9,0)", 10) == CUBIC_10
    assert parse_curve_class("(10;3^4,4,3^5)", 10) == PENCIL_10
    assert parse_curve_class("(0;-1)", 10) == CurveClass.exceptional(10)
    assert parse_curve_class("E", 10) == CurveClass.exceptional(10)
    assert parse_curve_class("E10", 10) == CurveClass.exceptional(10)
    for text in ("(3;1^11)", "(3;1^10,0)", "3;1^9", "E0", "E11", "(3;1^-1)"):
        with pytest.raises(ValueError):
            parse_curve_class(text, 10)


@st.composite
def curve_classes(draw):
    """A class at up to 10^18 points: the exceptional divisor, or up to four
    runs with distinct multiplicities and random counts."""
    r = draw(st.integers(1, 10**18))
    if draw(st.integers(0, 9)) == 0:
        return CurveClass.exceptional(r)
    runs, left = [], r
    for m in sorted(draw(st.sets(st.integers(1, 10**6), max_size=4)), reverse=True):
        if left == 0:
            break
        e = draw(st.integers(1, left))
        runs.append((m, e))
        left -= e
    return CurveClass(draw(st.integers(1, 10**6)), tuple(runs), r)


@settings(max_examples=300, deadline=None, database=None)
@given(curve_classes())
def test_parse_inverts_render(c):
    assert parse_curve_class(c.render(), c.r) == c


def test_self_intersection_and_genus():
    assert self_intersection(CUBIC_10) == 0
    assert self_intersection(PENCIL_10) == 100 - 16 - 81
    assert self_intersection(CurveClass.exceptional(10)) == -1
    assert arithmetic_genus(CUBIC_10) == 1
    assert arithmetic_genus(SEXTIC_8) == 10 - 3 - 7
    with pytest.raises(ExceptionalClassUnsupported):
        arithmetic_genus(CurveClass.exceptional(5))


def test_expected_dim():
    assert expected_dim(CUBIC_10) == 0
    assert expected_dim(PENCIL_10) == 66 - 10 - 54 - 1
    # overdetermined system floors at -1
    assert expected_dim(CurveClass(1, ((1, 3),), 3)) == -1
    with pytest.raises(ExceptionalClassUnsupported):
        expected_dim(CurveClass.exceptional(4))


def test_permutation_invariance():
    rng = random.Random(31)
    for _ in range(200):
        r = rng.randrange(3, 12)
        d = rng.randrange(1, 15)
        mults = tuple(rng.randrange(0, 5) for _ in range(r))
        shuffled = list(mults)
        rng.shuffle(shuffled)
        a = CurveClass.from_multiplicities(d, mults)
        b = CurveClass.from_multiplicities(d, shuffled)
        assert expected_dim(a) == expected_dim(b)
        assert arithmetic_genus(a) == arithmetic_genus(b)
        assert self_intersection(a) == self_intersection(b)


def test_degree_against():
    l = UniformPolarization(10, QuadraticNumber.from_rational(Fraction(7, 2)))
    assert degree_against(l, CUBIC_10) == Fraction(3 * 7, 2) - 9
    assert degree_against(l, CurveClass.exceptional(10)) == 1
    with pytest.raises(ValueError):
        degree_against(l, CurveClass(1, ((1, 9),), 9))


def test_polarization_validation():
    with pytest.raises(ValueError):
        UniformPolarization(0, QuadraticNumber.from_rational(1))
    with pytest.raises(ValueError):
        UniformPolarization(10, QuadraticNumber.from_rational(0))


def test_quadratic_vanishes_at_locus_roots():
    """R(mu) factors through the locus endpoints for random classes."""
    rng = random.Random(61)
    found = 0
    while found < 60:
        r = rng.randrange(8, 14)
        d = rng.randrange(2, 12)
        t = rng.randrange(1, d)
        mults = tuple(rng.randrange(0, 4) for _ in range(r))
        c = CurveClass.from_multiplicities(d, mults)
        if d * d - t * t <= 0:
            continue
        intervals = submaximal_locus(c, t, r)
        if not intervals:
            continue
        found += 1
        iv = intervals[0]
        sqrt_r = QuadraticNumber.sqrt(r)
        # endpoints are roots of R unless clipped at sqrt(r)
        if compare(iv.lo, sqrt_r) != 0:
            assert submaximality_quadratic(c, t, r, iv.lo) == 0
        assert submaximality_quadratic(c, t, r, iv.hi) == 0


def test_quadratic_at_sqrt_r_is_a_square():
    """R(sqrt(r)) = (d sqrt(r) - M)^2, hence never negative."""
    rng = random.Random(13)
    for _ in range(100):
        r = rng.randrange(2, 20)
        d = rng.randrange(2, 10)
        t = rng.randrange(1, d)
        mults = tuple(rng.randrange(0, 4) for _ in range(r))
        c = CurveClass.from_multiplicities(d, mults)
        sqrt_r = QuadraticNumber.sqrt(r)
        value = submaximality_quadratic(c, t, r, sqrt_r)
        root = sqrt_r * d - c.total_multiplicity
        assert value == root * root
        assert compare(value, 0) >= 0


def test_locus_examples_exact():
    assert submaximal_locus(CUBIC_10, 1, 10) == [
        MuInterval(
            QuadraticNumber.from_rational(Fraction(13, 4)),
            QuadraticNumber.from_rational(Fraction(7, 2)),
        )
    ]
    assert submaximal_locus(PENCIL_10, 2, 10) == [
        MuInterval(
            QuadraticNumber.from_rational(Fraction(77, 24)),
            QuadraticNumber.from_rational(Fraction(13, 4)),
        )
    ]
    assert submaximal_locus(SEXTIC_8, 1, 8) == [
        MuInterval(
            QuadraticNumber.from_rational(Fraction(99, 35)),
            QuadraticNumber.from_rational(3),
        )
    ]
    # cubic at r = 9 touches sqrt(9) exactly
    cubic9 = CurveClass(3, ((1, 9),), 9)
    assert submaximal_locus(cubic9, 1, 9) == [
        MuInterval(
            QuadraticNumber.from_rational(3),
            QuadraticNumber.from_rational(Fraction(15, 4)),
        )
    ]
    quartic11 = CurveClass(4, ((2, 1), (1, 10)), 11)
    lo = QuadraticNumber(Fraction(4), Fraction(-1, 3), 3)
    hi = QuadraticNumber(Fraction(4), Fraction(1, 3), 3)
    assert submaximal_locus(quartic11, 2, 11) == [MuInterval(lo, hi)]


def test_locus_exceptional_ray():
    locus = submaximal_locus(CurveClass.exceptional(10), 1, 10)
    assert locus == [MuInterval(QuadraticNumber.sqrt(11), None)]
    assert locus[0].contains(QuadraticNumber.sqrt(11))
    assert locus[0].contains(100)
    assert not locus[0].contains(Fraction(33, 10))


def test_locus_empty_iff_negative_delta():
    rng = random.Random(571)
    for _ in range(300):
        r = rng.randrange(5, 14)
        d = rng.randrange(2, 10)
        t = rng.randrange(1, d)
        mults = tuple(rng.randrange(0, 4) for _ in range(r))
        c = CurveClass.from_multiplicities(d, mults)
        m_total = c.total_multiplicity
        delta = m_total * m_total - r * (d * d - t * t)
        assert bool(submaximal_locus(c, t, r)) == (delta >= 0)


def test_invalid_multiplicity_index():
    with pytest.raises(InvalidMultiplicityIndex):
        submaximal_locus(CUBIC_10, 3, 10)
    with pytest.raises(InvalidMultiplicityIndex):
        submaximal_locus(CUBIC_10, 0, 10)
    with pytest.raises(InvalidMultiplicityIndex):
        submaximal_locus(CurveClass.exceptional(10), 2, 10)
    with pytest.raises(ValueError):
        submaximal_locus(CUBIC_10, 1, 11)  # r mismatch


def test_weak_submaximality_examples():
    # cubic at mu = 7/2, r = 10: equality case (L.C)/1 = 3/2 = sqrt(49/4 - 10)
    l = UniformPolarization(10, QuadraticNumber.from_rational(Fraction(7, 2)))
    assert is_weakly_submaximal(CUBIC_10, 1, l)
    # strictly inside
    l2 = UniformPolarization(10, QuadraticNumber.from_rational(Fraction(27, 8)))
    assert is_weakly_submaximal(CUBIC_10, 1, l2)
    # outside the locus
    l3 = UniformPolarization(10, QuadraticNumber.from_rational(4))
    assert not is_weakly_submaximal(CUBIC_10, 1, l3)
    # below sqrt(r): L^2 <= 0 kills it regardless of the class
    l4 = UniformPolarization(10, QuadraticNumber.from_rational(3))
    assert not is_weakly_submaximal(CUBIC_10, 1, l4)


def test_weak_submaximality_degree_nonpositive_branch():
    """On the sextic the degree side d*mu - M dips below zero inside the
    strip; weak submaximality must hold there without consulting R."""
    c = SEXTIC_8
    mu = Fraction(17, 6)  # 6*mu - 17 = 0
    l = UniformPolarization(8, QuadraticNumber.from_rational(mu))
    assert degree_against(l, c) == 0
    assert is_weakly_submaximal(c, 1, l)
    below = Fraction(283, 100)  # degree side negative, mu^2 > 8
    lb = UniformPolarization(8, QuadraticNumber.from_rational(below))
    assert degree_against(lb, c) < 0
    assert is_weakly_submaximal(c, 1, lb)


def test_weak_submaximality_matches_locus_membership():
    """For mu with positive degree side, membership in the locus is exactly
    weak submaximality; where the degree side is negative the locus test
    does not apply (squaring flips), so those points are skipped."""
    rng = random.Random(4096)
    checked = 0
    while checked < 150:
        r = rng.randrange(8, 13)
        d = rng.randrange(2, 11)
        t = rng.randrange(1, d)
        mults = tuple(rng.randrange(0, 4) for _ in range(r))
        c = CurveClass.from_multiplicities(d, mults)
        mu = Fraction(rng.randrange(200, 700), 100)
        if mu * mu <= r:
            continue
        if d * mu - c.total_multiplicity < 0:
            continue
        checked += 1
        l = UniformPolarization(r, QuadraticNumber.from_rational(mu))
        member = any(iv.contains(mu) for iv in submaximal_locus(c, t, r))
        assert is_weakly_submaximal(c, t, l) == member


def test_mu_interval_semantics():
    iv = MuInterval(
        QuadraticNumber.from_rational(1),
        QuadraticNumber.from_rational(2),
        lo_closed=False,
    )
    assert not iv.contains(1)
    assert iv.contains(Fraction(3, 2))
    assert iv.contains(2)
    assert iv.render() == "(1, 2]"
    ray = MuInterval(QuadraticNumber.sqrt(11), None)
    assert ray.render() == "[sqrt(11), inf)"
    with pytest.raises(ValueError):
        MuInterval(QuadraticNumber.from_rational(2), QuadraticNumber.from_rational(1))
