"""Exact arithmetic layer: quadratic numbers, intervals, comparisons."""

import random
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seshadri import exact
from seshadri.errors import (
    DivisionByZeroInterval,
    IncompatibleRadicands,
    NegativeRadicand,
    NegativeRadicandInterval,
)
from seshadri.exact import (
    DEFAULT_SQRT_WIDTH,
    QuadraticNumber,
    RationalInterval,
    _field_sign,
    compare,
    parse_quadratic,
    read_rendered,
    sqrt_block,
    sqrt_enclosure,
    squarefree_block,
    squarefree_decomposition,
)


def test_squarefree_decomposition_basics():
    """n = f**2 * m with m squarefree, returned as (f, m)."""
    assert squarefree_decomposition(1) == (1, 1)
    assert squarefree_decomposition(8) == (2, 2)
    assert squarefree_decomposition(12) == (2, 3)
    assert squarefree_decomposition(49) == (7, 1)
    assert squarefree_decomposition(360) == (6, 10)


def _trial_division_decomposition(n):
    """Reference: trial division by every candidate up to sqrt of the cofactor."""
    f, m, p = 1, n, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            f *= p
        p += 1
    return f, m


def _primes_between(lo, hi):
    return [p for p in range(lo, hi) if all(p % d for d in range(2, isqrt(p) + 1))]


def test_squarefree_decomposition_cofactors_above_cube_root():
    """After the primes up to n^(1/3) are stripped, the cofactor is q, q1*q2
    or q^2 with large primes q; each shape against the trial-division route."""
    rng = random.Random(314)
    primes = _primes_between(1000, 4000)
    for _ in range(6):
        p, q = sorted(rng.sample(primes, 2))
        small = rng.choice([1, 2, 12, 45, 98])
        for n in (p * q, p * p, q * q, p * q * q, p * p * q, small * p * q, small * q * q):
            assert squarefree_decomposition(n) == _trial_division_decomposition(n), n


def test_squarefree_decomposition_large_primes():
    """Products of two primes near 10**9, far beyond trial division to sqrt(n)."""
    p, q = 998244353, 1000000007
    assert squarefree_decomposition(p * q) == (1, p * q)
    assert squarefree_decomposition(p * p) == (p, 1)
    assert squarefree_decomposition(12 * q * q) == (2 * q, 3)
    assert squarefree_decomposition(1000000000039) == (1, 1000000000039)


def test_squarefree_decomposition_random():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randrange(1, 10**6)
        f, m = squarefree_decomposition(n)
        assert f * f * m == n
        # m must carry no square factor
        for p in range(2, 50):
            assert m % (p * p) != 0


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def test_squarefree_block_matches_trial_division_up_to_20000():
    """The sieve against squarefree_decomposition on every n in 1..20,000,
    cut into blocks of several lengths at several offsets, so that blocks
    start and end on and off the multiples of each sieving prime."""
    want = [None] + [squarefree_decomposition(n) for n in range(1, 20001)]
    for length in (1, 2, 7, 64, 999, 20000):
        for start in sorted({1, 2, 1 + length // 3}):
            for lo in range(start, 20001, length):
                hi = min(lo + length - 1, 20000)
                assert squarefree_block(lo, hi) == want[lo:hi + 1], (lo, hi)


def _split_of_coprime(*parts):
    """The split of the product of pairwise coprime parts: the product of
    their splits, each part small enough for trial division."""
    f = m = 1
    for part in parts:
        pf, pm = squarefree_decomposition(part)
        f, m = f * pf, m * pm
    return f, m


def test_squarefree_block_on_planted_values_near_1e18():
    """Values near 10^18 built from their factors, so no 18-digit number is
    factored by trial division. p and q are primes just above the sieve's
    top, 10^6, so that a cofactor left after sieving is p^2 (not
    squarefree) or p*q (squarefree); f^2*m has f a prime just below 10^6
    and m a prime above it; 10^18 = (10^9)^2 and
    10^18 + 1 = 101 * 9901 * 999999000001, the last factor squarefree."""
    p, q, f, m = 1000003, 1000033, 999983, 1000003
    assert all(_is_prime(n) for n in (p, q, f, m, 101, 9901))
    s = 10**18 // (p * p)  # 999994 = 2 * 499997, coprime to p and q
    t = 10**18 // (p * q)  # 999964 = 2^2 * 249991
    planted = {
        p * p * s: _split_of_coprime(p * p, s),
        p * q * t: _split_of_coprime(p, q, t),
        f * f * m: (f, m),
        10**18: (10**9, 1),
        10**18 + 1: _split_of_coprime(101, 9901, 999999000001),
    }
    assert planted[10**18 + 1] == (1, 10**18 + 1)
    assert planted[p * p * s][0] % p == 0 and planted[p * q * t][1] % (p * q) == 0
    for n, split in planted.items():
        assert n <= 10**18 + 1 and 10**18 - n < 10**14, n
        assert split[0] ** 2 * split[1] == n
        assert squarefree_block(n, n) == [split], n
        assert squarefree_block(n - 4, n + 3)[4] == split, n


def test_squarefree_block_ending_at_1e18_plus_1():
    """The 20 values up to 10^18 + 1, against trial division itself."""
    lo, hi = 10**18 - 18, 10**18 + 1
    assert squarefree_block(lo, hi) == [squarefree_decomposition(n) for n in range(lo, hi + 1)]


def test_squarefree_block_refuses_an_empty_or_nonpositive_block():
    assert squarefree_block(1, 1) == [(1, 1)]
    for lo, hi in ((0, 5), (-3, 2), (5, 4)):
        with pytest.raises(ValueError):
            squarefree_block(lo, hi)


def test_sqrt_block_matches_sqrt():
    lo, hi = 1, 400
    assert sqrt_block(lo, hi) == [QuadraticNumber.sqrt(n) for n in range(lo, hi + 1)]
    assert sqrt_block(12, 12) == [QuadraticNumber.sqrt(12)]
    assert [x.render() for x in sqrt_block(10**18, 10**18 + 1)] == [
        "1000000000", "sqrt(1000000000000000001)"
    ]


def test_normalization_extracts_square_factors():
    x = QuadraticNumber(Fraction(0), Fraction(1), 8)
    assert x.rad == 2 and x.b == 2
    y = QuadraticNumber(Fraction(1), Fraction(3), 50)
    assert y.rad == 2 and y.b == 15
    # perfect square radicand collapses to a rational
    z = QuadraticNumber(Fraction(1), Fraction(2), 9)
    assert z.is_rational and z.a == 7 and z.b == 0 and z.rad == 0


def test_structural_equality_is_value_equality():
    assert QuadraticNumber.sqrt(8) == QuadraticNumber.sqrt(2) * 2
    assert QuadraticNumber.sqrt(Fraction(1, 2)) == QuadraticNumber.sqrt(2) / 2
    assert QuadraticNumber.from_rational(Fraction(7, 2)) == Fraction(7, 2)
    assert hash(QuadraticNumber.from_rational(Fraction(7, 2))) == hash(Fraction(7, 2))


def test_sqrt_of_rational():
    x = QuadraticNumber.sqrt(Fraction(9, 4))
    assert x == Fraction(3, 2)
    y = QuadraticNumber.sqrt(Fraction(2, 3))
    assert (y * y) == Fraction(2, 3)
    with pytest.raises(NegativeRadicand):
        QuadraticNumber.sqrt(-2)


def test_sqrt_of_int_equals_sqrt_of_fraction(monkeypatch):
    """The int route reads n as n/1 and gives the number the Fraction route
    gives, for n = 0..2000 with the real decomposition.  Near 10^18, where
    trial division up to the cube root makes the decomposition slow, a
    recording stand-in checks what differs between the routes: the integer
    each one decomposes and the number built from the answer."""
    for n in range(2001):
        x, y = QuadraticNumber.sqrt(n), QuadraticNumber.sqrt(Fraction(n))
        assert (x.a, x.b, x.rad) == (y.a, y.b, y.rad), n
    for n in (10**18 - 1, 10**18, 10**18 + 1):
        assert QuadraticNumber.sqrt(n) == QuadraticNumber.sqrt(Fraction(n))
    seen = []

    def recording(n):
        seen.append(n)
        return 1, n

    monkeypatch.setattr(exact, "squarefree_decomposition", recording)
    for n in range(10**18 - 500, 10**18 + 500):
        x, y = QuadraticNumber.sqrt(n), QuadraticNumber.sqrt(Fraction(n))
        assert (x.a, x.b, x.rad) == (y.a, y.b, y.rad) == (0, 1, n)
        assert seen == [n, n]
        seen.clear()


def test_sqrt_of_bool_and_negative_arguments():
    assert QuadraticNumber.sqrt(True) == QuadraticNumber.sqrt(1) == 1
    for x in (-5, Fraction(-5)):
        with pytest.raises(NegativeRadicand) as err:
            QuadraticNumber.sqrt(x)
        assert str(err.value) == "cannot take the square root of -5"


def test_arithmetic_in_a_fixed_field():
    rng = random.Random(7)
    for _ in range(200):
        rad = rng.choice([2, 3, 5, 7, 10, 13])
        a = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        b = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        c = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        d = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        x = QuadraticNumber(a, b, rad)
        y = QuadraticNumber(c, d, rad)
        # ring identities
        assert (x + y) - y == x
        assert x * y == y * x
        if y != 0:
            assert (x / y) * y == x
        # (a + b sqrt(n))(a - b sqrt(n)) = a^2 - b^2 n is rational
        conj = QuadraticNumber(a, -b, rad)
        assert (x * conj).is_rational


def test_division_by_conjugate_norm_zero_is_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadraticNumber.sqrt(2) / 0


def test_incompatible_radicands_rejected():
    with pytest.raises(IncompatibleRadicands):
        QuadraticNumber.sqrt(2) + QuadraticNumber.sqrt(3)
    with pytest.raises(IncompatibleRadicands):
        QuadraticNumber.sqrt(2) * QuadraticNumber.sqrt(3)
    # same squarefree part is fine even when written differently
    assert QuadraticNumber.sqrt(8) + QuadraticNumber.sqrt(2) == QuadraticNumber.sqrt(2) * 3


def test_compare_decides_order_exactly():
    # 99/70 is a convergent of sqrt(2): the gap is below 1e-4
    assert compare(QuadraticNumber.sqrt(2), Fraction(99, 70)) < 0
    assert compare(QuadraticNumber.sqrt(2), Fraction(140, 99)) > 0
    assert compare(QuadraticNumber.sqrt(2), QuadraticNumber.sqrt(2)) == 0
    # equal values in different clothing
    assert compare(QuadraticNumber.sqrt(18), QuadraticNumber.sqrt(2) * 3) == 0


def test_compare_random_against_float_oracle():
    rng = random.Random(99)
    for _ in range(300):
        rad = rng.choice([2, 3, 5, 6, 7, 10])
        x = QuadraticNumber(
            Fraction(rng.randrange(-50, 51), rng.randrange(1, 11)),
            Fraction(rng.randrange(-50, 51), rng.randrange(1, 11)),
            rad,
        )
        y = QuadraticNumber(
            Fraction(rng.randrange(-50, 51), rng.randrange(1, 11)),
            Fraction(rng.randrange(-50, 51), rng.randrange(1, 11)),
            rad,
        )
        got = compare(x, y)
        fx = float(x.a) + float(x.b) * rad**0.5
        fy = float(y.a) + float(y.b) * rad**0.5
        if abs(fx - fy) > 1e-9:
            assert got == (-1 if fx < fy else 1)
        else:
            assert got == 0 or abs(fx - fy) <= 1e-9


def test_rich_comparisons_and_sign():
    assert QuadraticNumber.sqrt(2) < Fraction(3, 2)
    assert QuadraticNumber.sqrt(2) > 1
    assert QuadraticNumber.sqrt(2).sign() == 1
    assert (-QuadraticNumber.sqrt(2)).sign() == -1
    assert QuadraticNumber.from_rational(0).sign() == 0


def test_sqrt_enclosure_brackets_and_width():
    rng = random.Random(5)
    for _ in range(200):
        x = Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**3))
        width = Fraction(1, 2 ** rng.randrange(4, 40))
        iv = sqrt_enclosure(x, width)
        assert iv.hi - iv.lo <= width
        assert iv.lo * iv.lo <= x <= iv.hi * iv.hi
        assert iv.lo >= 0


def test_sqrt_enclosure_exact_for_perfect_squares():
    iv = sqrt_enclosure(Fraction(9, 4), Fraction(1, 2**32))
    assert iv.lo == iv.hi == Fraction(3, 2)
    iv = sqrt_enclosure(49, Fraction(1, 2**10))
    assert iv.lo == iv.hi == 7


def test_interval_arithmetic_soundness_random():
    """Random expressions, random sample points: f(points) inside f(intervals)."""
    rng = random.Random(2024)
    for _ in range(250):
        lo1 = Fraction(rng.randrange(-100, 100), rng.randrange(1, 10))
        lo2 = Fraction(rng.randrange(-100, 100), rng.randrange(1, 10))
        w1 = Fraction(rng.randrange(0, 20), rng.randrange(1, 10))
        w2 = Fraction(rng.randrange(0, 20), rng.randrange(1, 10))
        x = RationalInterval(lo1, lo1 + w1)
        y = RationalInterval(lo2, lo2 + w2)
        px = lo1 + w1 * Fraction(rng.randrange(0, 11), 10)
        py = lo2 + w2 * Fraction(rng.randrange(0, 11), 10)
        assert (x + y).contains(px + py)
        assert (x - y).contains(px - py)
        assert (x * y).contains(px * py)
        assert (py - x).contains(py - px)  # a rational on the left: __rsub__
        if not (y.lo <= 0 <= y.hi):
            assert (x / y).contains(px / py)
        if not (x.lo <= 0 <= x.hi):
            assert (py / x).contains(py / px)  # __rtruediv__


def test_interval_division_by_zero_interval():
    with pytest.raises(DivisionByZeroInterval):
        RationalInterval(1, 2) / RationalInterval(-1, 1)


def test_interval_sqrt_clamps_and_rejects():
    iv = RationalInterval(Fraction(-1, 10**9), Fraction(4))
    s = iv.sqrt(Fraction(1, 2**20))
    assert s.lo == 0
    assert s.hi * s.hi >= 4
    with pytest.raises(NegativeRadicandInterval):
        RationalInterval(-4, -1).sqrt()


def test_intersect():
    a = RationalInterval(0, 2)
    b = RationalInterval(1, 3)
    assert a.intersect(b) == RationalInterval(1, 2)
    assert a.intersect(RationalInterval(5, 6)) is None


def test_enclosure_width_and_containment():
    rng = random.Random(11)
    for _ in range(100):
        x = QuadraticNumber(
            Fraction(rng.randrange(-30, 31), rng.randrange(1, 7)),
            Fraction(rng.randrange(-30, 31), rng.randrange(1, 7)),
            rng.choice([2, 3, 5, 11]),
        )
        width = Fraction(1, 2 ** rng.randrange(8, 48))
        iv = x.enclosure(width)
        assert iv.hi - iv.lo <= width
        assert compare(x, iv.lo) >= 0 and compare(x, iv.hi) <= 0


def test_render_canonical_forms():
    assert QuadraticNumber.from_rational(Fraction(77, 24)).render() == "77/24"
    assert QuadraticNumber.sqrt(13).render() == "sqrt(13)"
    assert (QuadraticNumber.sqrt(3) * Fraction(-1, 3) + 4).render() == "4 - 1/3*sqrt(3)"
    assert (QuadraticNumber.sqrt(2) * 2).render() == "2*sqrt(2)"
    assert (-QuadraticNumber.sqrt(5)).render() == "-sqrt(5)"


def test_parse_quadratic_rejects_garbage():
    for bad in ("", "sqrt", "1 +", "sqrt(-4)", "two"):
        with pytest.raises(ValueError):
            parse_quadratic(bad)


def test_parse_quadratic_zero_denominator_is_a_value_error():
    for bad in ("1/0", "1/0*sqrt(2)", "3 + 1/0*sqrt(2)", "1/0 + sqrt(2)", "-1/0*sqrt(3)"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_quadratic(bad)


RATIONAL_PARTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6),
)


@settings(max_examples=300, deadline=None, database=None)
@given(RATIONAL_PARTS, RATIONAL_PARTS, st.integers(min_value=0, max_value=10**6))
def test_render_parse_round_trip_random(a, b, radicand):
    """parse_quadratic(x.render()) == x, over negative, zero and unit parts,
    and so does read_rendered, which reads the parts without splitting the
    radicand."""
    x = QuadraticNumber(a, b, radicand)
    assert parse_quadratic(x.render()) == x
    assert read_rendered(x.render()) == x


def _render_oracle(x):
    """QuadraticNumber.render written in Fraction arithmetic."""
    if x.b == 0:
        return str(x.a)
    babs = abs(x.b)
    root = f"sqrt({x.rad})" if babs == 1 else f"{babs}*sqrt({x.rad})"
    if x.a == 0:
        return root if x.b > 0 else f"-{root}"
    op = "+" if x.b > 0 else "-"
    return f"{x.a} {op} {root}"


@settings(max_examples=300, deadline=None, database=None)
@given(RATIONAL_PARTS, RATIONAL_PARTS, st.integers(min_value=0, max_value=10**6))
@example(Fraction(0), Fraction(1), 13)
@example(Fraction(0), Fraction(-1), 13)
@example(Fraction(0), Fraction(1, 2), 2)
@example(Fraction(0), Fraction(-1, 2), 2)
@example(Fraction(7, 3), Fraction(1), 999983)
@example(Fraction(7, 3), Fraction(-1), 999983)
@example(Fraction(-5), Fraction(1, 2), 6)
@example(Fraction(-5), Fraction(-1, 2), 6)
@example(Fraction(0), Fraction(0), 0)
def test_render_matches_fraction_oracle(a, b, radicand):
    x = QuadraticNumber(a, b, radicand)
    assert x.render() == _render_oracle(x)


def test_render_parse_round_trip_near_1e18():
    for a, b, radicand in ((0, -1, 10**18 + 1), (Fraction(-7, 3), 1, 999999999999999989),
                           (5, Fraction(-2, 9), 10**18 - 1), (1, 1, 10**18)):
        x = QuadraticNumber(Fraction(a), Fraction(b), radicand)
        assert parse_quadratic(x.render()) == x
        assert read_rendered(x.render()) == x


def test_approx_decimal_matches_value():
    x = QuadraticNumber.sqrt(2)
    assert x.approx_decimal(6) == "1.414214"
    assert QuadraticNumber.from_rational(Fraction(77, 24)).approx_decimal(6) == "3.208333"
    assert (-QuadraticNumber.sqrt(2)).approx_decimal(3) == "-1.414"


def test_interval_eval_matches_direct_ops():
    """Point evaluation of sqrt(x^2 - 2)/(x + 1) at x = 2 by interval
    operations brackets the true value sqrt(2)/3."""
    point = RationalInterval.point(2)
    enc = (point * point - 2).sqrt(Fraction(1, 2**24)) / (point + 1)
    true = QuadraticNumber.sqrt(2) / 3
    assert compare(true, enc.lo) >= 0 and compare(true, enc.hi) <= 0


def test_default_sqrt_width():
    assert DEFAULT_SQRT_WIDTH == Fraction(1, 2**32)


def _oracle_enclosure(x, width):
    """[lo, hi] around x from sqrt_enclosure alone."""
    if x.b == 0:
        return x.a, x.a
    s = sqrt_enclosure(x.rad, width / abs(x.b))
    ends = (x.a + x.b * s.lo, x.a + x.b * s.hi)
    return min(ends), max(ends)


def _oracle_compare(x, y):
    """Structural equality first, then enclosures refined until they separate."""
    if (x.a, x.b, x.rad) == (y.a, y.b, y.rad):
        return 0
    width = Fraction(1, 2**8)
    while True:
        xlo, xhi = _oracle_enclosure(x, width)
        ylo, yhi = _oracle_enclosure(y, width)
        if xhi < ylo:
            return -1
        if yhi < xlo:
            return 1
        width = width * width


def _random_quadratic(rng, rads):
    return QuadraticNumber(
        Fraction(rng.randrange(-60, 61), rng.randrange(1, 13)),
        Fraction(rng.randrange(-60, 61), rng.randrange(1, 13)),
        rng.choice(rads),
    )


def test_compare_matches_enclosure_oracle_in_one_field():
    rng = random.Random(1234)
    for _ in range(400):
        rad = rng.choice([2, 3, 5, 6, 7, 10, 13, 1501])
        x = _random_quadratic(rng, [rad, 0])
        y = _random_quadratic(rng, [rad, 0])
        if rng.random() < 0.2:  # share the rational or the root part
            y = QuadraticNumber(x.a if rng.random() < 0.5 else y.a, y.b, y.rad)
        assert compare(x, y) == _oracle_compare(x, y), (x, y)


def test_compare_matches_enclosure_oracle_across_fields():
    rng = random.Random(4321)
    rads = [2, 3, 5, 6, 7, 10, 11, 13, 15, 1501]
    for _ in range(400):
        x = _random_quadratic(rng, rads)
        y = _random_quadratic(rng, rads)
        want = _oracle_compare(x, y)
        assert compare(x, y) == want, (x, y)
        assert (x <= y, x >= y) == (want <= 0, want >= 0), (x, y)


def _sqrt_convergents(n, count):
    """Continued-fraction convergents p/q of sqrt(n), n not a square."""
    a0 = isqrt(n)
    m, d, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    out = [(p, q)]
    for _ in range(count):
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append((p, q))
    return out


def _separates_at_2_16(x, y):
    xlo, xhi = _oracle_enclosure(x, Fraction(1, 2**16))
    ylo, yhi = _oracle_enclosure(y, Fraction(1, 2**16))
    return xhi < ylo or yhi < xlo


def test_compare_near_ties_pell_convergents():
    """p/q against sqrt(n) for convergents far closer than 2^-16."""
    near_ties = 0
    for n in (2, 3, 7, 13, 61, 1501):
        root = QuadraticNumber.sqrt(n)
        for p, q in _sqrt_convergents(n, 40):
            expected = (p * p > n * q * q) - (p * p < n * q * q)
            assert compare(Fraction(p, q), root) == expected
            assert compare(root, Fraction(p, q)) == -expected
            near_ties += not _separates_at_2_16(root, QuadraticNumber(Fraction(p, q)))
    assert near_ties > 100


def test_compare_near_ties_across_fields():
    """sqrt(m + 1) against sqrt(m) + 1/k^2 with m = k^4/4 + 1: a gap of
    order k^-6, decided against squaring by hand."""
    for j in (5, 20, 100, 1000):
        k = 2 * j
        m = 4 * j**4 + 1
        c = Fraction(1, k * k)
        x = QuadraticNumber.sqrt(m + 1)
        y = QuadraticNumber.sqrt(m) + c
        assert x.rad != y.rad and x.rad > 1 and y.rad > 1
        assert not _separates_at_2_16(x, y)
        # sqrt(m+1) > sqrt(m) + c  iff  1 - c^2 > 2c sqrt(m)  (both sides positive)
        lhs = 1 - c * c
        expected = 1 if lhs > 0 and lhs * lhs > 4 * c * c * m else -1
        assert compare(x, y) == expected
        assert compare(y, x) == -expected


def test_compare_antisymmetric_and_transitive():
    rng = random.Random(2718)
    rads = [0, 2, 3, 5, 13, 14]
    sample = [_random_quadratic(rng, rads) for _ in range(60)]
    sample += [QuadraticNumber(x.a, x.b, x.rad) for x in sample[:10]]  # exact ties
    for x in sample:
        for y in sample:
            assert compare(x, y) == -compare(y, x)
    ordered = sorted(sample, key=cmp_to_key(compare))
    for i, x in enumerate(ordered):
        for y in ordered[i + 1:]:
            assert compare(x, y) <= 0
    for x, y in zip(ordered, ordered[1:]):
        assert _oracle_compare(x, y) <= 0


def test_arithmetic_results_equal_public_constructor():
    """Operator results skip normalisation; they must still be canonical."""
    rng = random.Random(99991)
    for _ in range(300):
        n = rng.choice([2, 3, 8, 12, 18, 50, 1500])  # some carry square factors
        a1, b1, a2, b2 = (
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(4)
        )
        if rng.random() < 0.25:
            b2 = -b1  # the root parts cancel in x + y
        x = QuadraticNumber(a1, b1, n)
        y = QuadraticNumber(a2, b2, n)
        cases = [
            (x + y, QuadraticNumber(a1 + a2, b1 + b2, n)),
            (x - y, QuadraticNumber(a1 - a2, b1 - b2, n)),
            (-x, QuadraticNumber(-a1, -b1, n)),
            (x * y, QuadraticNumber(a1 * a2 + b1 * b2 * n, a1 * b2 + a2 * b1, n)),
            (x * 0, QuadraticNumber(0)),
            (x + a2, QuadraticNumber(a1 + a2, b1, n)),
        ]
        norm = a2 * a2 - b2 * b2 * n
        if norm != 0:
            cases.append(
                (x / y, QuadraticNumber((a1 * a2 - b1 * b2 * n) / norm, (a2 * b1 - a1 * b2) / norm, n))
            )
        for got, expected in cases:
            assert got == expected
            assert (got.a, got.b, got.rad) == (expected.a, expected.b, expected.rad)
            assert hash(got) == hash(expected)
            if got.is_rational:
                assert got.rad == 0 and hash(got) == hash(got.a)


def _field_sign_oracle(a, b, n):
    """_field_sign written with one sign helper per term."""
    def sign(x):
        return (x > 0) - (x < 0)

    sa, sb = sign(a), sign(b)
    if sb == 0 or n == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa * sign(a * a - b * b * n)


def test_field_sign_matches_oracle_on_small_integers():
    """Zeros, n = 0 and 1, and perfect squares (exact ties) included."""
    for n in range(51):
        for a in range(-30, 31):
            for b in range(-30, 31):
                assert _field_sign(a, b, n) == _field_sign_oracle(a, b, n), (a, b, n)


def test_field_sign_matches_oracle_on_pell_near_ties():
    """x - y*sqrt(n) with x^2 - n*y^2 = +-1, up to 10^18: |x - y*sqrt(n)| is
    about 1/(2x), so one squaring decides it and no enclosure would."""
    for n in (2, 3, 13):
        solutions = [(p, q) for p, q in _sqrt_convergents(n, 100)
                     if p <= 10**18 and abs(p * p - n * q * q) == 1]
        assert len(solutions) >= 6
        for x, y in solutions:
            expected = 1 if x * x - n * y * y > 0 else -1
            assert _field_sign(x, -y, n) == _field_sign_oracle(x, -y, n) == expected
            assert _field_sign(-x, y, n) == _field_sign_oracle(-x, y, n) == -expected
