"""Curve classes, their invariants, and weakly-submaximal loci."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri.errors import ExceptionalClassUnsupported, InvalidT
from seshadri.exact import QuadraticNumber, compare
from seshadri.surface import (
    CurveClass,
    MuInterval,
    arithmetic_genus,
    expected_dim,
    lower_root,
    parse_curve_class,
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
    assert str(CurveClass(4, ((2, 1),), 10)) == "(4;2)"
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


def _self_intersection(c):
    return c.d * c.d - sum(m * m * e for m, e in c.runs)


def test_self_intersection_and_genus():
    """Adjunction: 2 p_a - 2 = C^2 + K.C with K.C = -3d + M."""
    assert _self_intersection(CUBIC_10) == 0
    assert _self_intersection(PENCIL_10) == 100 - 16 - 81
    assert _self_intersection(CurveClass.exceptional(10)) == -1
    for c in (CUBIC_10, PENCIL_10, SEXTIC_8):
        assert 2 * arithmetic_genus(c) - 2 == (
            _self_intersection(c) - 3 * c.d + c.total_multiplicity
        )
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
        assert a.total_multiplicity == b.total_multiplicity


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
    with pytest.raises(InvalidT):
        submaximal_locus(CUBIC_10, 3, 10)
    with pytest.raises(InvalidT):
        submaximal_locus(CUBIC_10, 0, 10)
    with pytest.raises(InvalidT):
        submaximal_locus(CurveClass.exceptional(10), 2, 10)
    for t in (0, 3):
        with pytest.raises(InvalidT):
            lower_root(CUBIC_10, t)
    with pytest.raises(InvalidT):
        lower_root(CurveClass.exceptional(10), 1)
    with pytest.raises(ValueError):
        submaximal_locus(CUBIC_10, 1, 11)  # r mismatch


def _weakly_submaximal(c, t, r, mu):
    """(L(mu).C)/t <= sqrt(L(mu)^2), decided from its definition.

    False when L(mu)^2 = mu^2 - r <= 0.  For positive L^2 it holds outright
    when the degree side d*mu - M is nonpositive; otherwise both sides are
    positive and squaring reduces it to R(mu) <= 0."""
    mu = QuadraticNumber._coerce(mu)
    if compare(mu * mu - r, 0) <= 0:
        return False
    if compare(mu * c.d - c.total_multiplicity, 0) <= 0:
        return True
    return compare(submaximality_quadratic(c, t, r, mu), 0) <= 0


def _in_locus(c, t, r, mu):
    return any(iv.contains(mu) for iv in submaximal_locus(c, t, r))


def test_weak_submaximality_examples():
    for mu, expected in (
        (Fraction(7, 2), True),  # equality: (L.C)/1 = 3/2 = sqrt(49/4 - 10)
        (Fraction(27, 8), True),  # strictly inside
        (Fraction(4), False),  # outside the locus
        (Fraction(3), False),  # below sqrt(r): L^2 <= 0
    ):
        assert _weakly_submaximal(CUBIC_10, 1, 10, mu) == expected
        assert _in_locus(CUBIC_10, 1, 10, mu) == expected


def test_weak_submaximality_degree_nonpositive_branch():
    """On the sextic the degree side d*mu - M reaches zero and below inside
    the strip; weak submaximality holds there without consulting R, and the
    locus contains those points."""
    c = SEXTIC_8
    for mu in (Fraction(17, 6), Fraction(283, 100)):  # 6*mu - 17 = 0, then < 0
        assert 6 * mu - 17 <= 0 and mu * mu > 8
        assert _weakly_submaximal(c, 1, 8, mu)
        assert _in_locus(c, 1, 8, mu)


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
        assert _weakly_submaximal(c, t, r, mu) == _in_locus(c, t, r, mu)


def _locus_by_square_root(c, t, r):
    """The locus as built before the shared root route: both roots from
    QuadraticNumber.sqrt(Delta), then clipped at sqrt(r)."""
    d, m_total = c.d, c.total_multiplicity
    lead = d * d - t * t
    delta = m_total * m_total - r * lead
    if delta < 0:
        return []
    half_span = QuadraticNumber.sqrt(delta) * Fraction(t, lead)
    center = QuadraticNumber.from_rational(Fraction(d * m_total, lead))
    mu_minus, mu_plus = center - half_span, center + half_span
    sqrt_r = QuadraticNumber.sqrt(r)
    if compare(mu_plus, sqrt_r) < 0:
        return []
    return [MuInterval(mu_minus if compare(mu_minus, sqrt_r) >= 0 else sqrt_r, mu_plus)]


def test_locus_matches_the_square_root_route():
    """mu_+ from Vieta (2dM/(d^2 - t^2) - mu_-) is the same canonical number
    as (dM + t sqrt(Delta))/(d^2 - t^2), on random classes."""
    rng = random.Random(8085)
    nonempty = 0
    for _ in range(3000):
        r = rng.randrange(2, 40)
        d = rng.randrange(2, 16)
        t = rng.randrange(1, d)
        c = CurveClass.from_multiplicities(d, tuple(rng.randrange(0, 5) for _ in range(r)))
        locus = submaximal_locus(c, t, r)
        assert locus == _locus_by_square_root(c, t, r)
        for iv in locus:
            assert type(iv.hi.a) is type(iv.hi.b) is Fraction
        nonempty += bool(locus)
    assert nonempty > 300


def test_mu_interval_semantics():
    """Every locus is closed; hi = None is the ray [lo, inf)."""
    iv = MuInterval(QuadraticNumber.from_rational(1), QuadraticNumber.from_rational(2))
    assert iv.contains(1)
    assert iv.contains(Fraction(3, 2))
    assert iv.contains(2)
    assert not iv.contains(Fraction(99, 100))
    assert not iv.contains(Fraction(201, 100))
    assert iv.render() == "[1, 2]"
    assert str(iv) == "[1, 2]"
    ray = MuInterval(QuadraticNumber.sqrt(11), None)
    assert ray.render() == "[sqrt(11), inf)"
    assert ray.contains(QuadraticNumber.sqrt(11))
    assert ray.contains(10**30)
    assert not ray.contains(Fraction(33, 10))
    point = MuInterval(QuadraticNumber.sqrt(11), QuadraticNumber.sqrt(11))
    assert point.contains(QuadraticNumber.sqrt(11))
    assert point.render() == "[sqrt(11), sqrt(11)]"
    with pytest.raises(ValueError):
        MuInterval(QuadraticNumber.from_rational(2), QuadraticNumber.from_rational(1))
