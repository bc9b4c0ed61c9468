"""Interval certification of Q-negativity over the strip sqrt(r) <= mu <= sqrt(r+1)."""

import copy
import random
from fractions import Fraction
from math import isqrt

import pytest

from seshadri.errors import DepthLimitExceeded, InvalidT0, UnsupportedR
from seshadri.exact import (
    DEFAULT_SQRT_WIDTH,
    QuadraticNumber,
    RationalInterval,
    compare,
)
from seshadri.region import (
    CERTIFICATE_KIND,
    audit_certificate,
    discriminant_t,
    large_r_inequalities,
    m_bar_zero,
    m_bar_zero_at_sqrt_r,
    q_coefficients,
    q_exact,
    q_value,
    verify_t_bound,
    verify_large_r,
)

T0_BY_R = {10: 6, 11: 5, 12: 4, 13: 3}


def _strip_mu_samples(r, rng, count, denominator=10_000):
    """Rational mu strictly inside (sqrt(r), sqrt(r+1))."""
    lo = isqrt(r * denominator * denominator) + 1
    hi = isqrt((r + 1) * denominator * denominator)
    for _ in range(count):
        yield Fraction(rng.randrange(lo + 1, hi), denominator)


def test_q_exact_agrees_with_interval_route():
    rng = random.Random(811)
    for r in (10, 11, 12, 13):
        for mu in _strip_mu_samples(r, rng, 40):
            t = Fraction(rng.randrange(1, 7))
            m_bar = Fraction(rng.randrange(0, 130), 10)
            exact = q_exact(m_bar, t, r, mu)
            boxed = q_value(m_bar, t, r, RationalInterval.point(mu))
            assert compare(exact, boxed.lo) >= 0
            assert compare(exact, boxed.hi) <= 0
            assert boxed.width < Fraction(1, 2**20)


def test_q_exact_validation():
    with pytest.raises(ValueError):
        q_exact(1, 2, 10, Fraction(-1, 3))
    with pytest.raises(TypeError):
        q_exact("9/2", 5, 10, Fraction(331, 100))


def test_q_sign_witnesses_at_r_10():
    """t = 5 survives somewhere in the strip at r = 10 while t = 6 does not,
    so 6 is the smallest admissible cutoff there."""
    mu = Fraction(331, 100)
    positive = q_exact(Fraction(9, 2), 5, 10, mu)
    negative = q_exact(Fraction(9, 2), 6, 10, mu)
    assert compare(positive, 0) > 0
    assert compare(negative, 0) < 0


def test_q_coefficients_clamp():
    ev = q_coefficients(10, 6, RationalInterval(3, 4), clamp_to_strip=True)
    assert ev.a.hi <= 0
    with pytest.raises(ValueError):
        q_coefficients(10, 6, RationalInterval(5, 6), clamp_to_strip=True)


def test_discriminant_interval_contains_exact_value():
    rng = random.Random(277)
    for r in (10, 12):
        for mu in _strip_mu_samples(r, rng, 30):
            m_bar = Fraction(rng.randrange(0, 120), 10)
            boxed = discriminant_t(m_bar, r, RationalInterval.point(mu))
            s = QuadraticNumber.sqrt(mu * mu - r)
            exact = (
                -(s * (4 * r) + (4 * r * r - 12 * r * mu)) * m_bar
                + (s * (-6 * mu) + (15 * r + 10 * mu * mu))
            ) / (mu * mu)
            assert compare(exact, boxed.lo) >= 0
            assert compare(exact, boxed.hi) <= 0


def test_m_bar_zero_interval_contains_exact_value():
    rng = random.Random(409)
    for r in (10, 13):
        for mu in _strip_mu_samples(r, rng, 30):
            boxed = m_bar_zero(r, RationalInterval.point(mu))
            s = QuadraticNumber.sqrt(mu * mu - r)
            num = s * (-6 * mu) + (15 * r + 10 * mu * mu)
            den = s * (4 * r) + (4 * r * r - 12 * r * mu)
            exact = num / den
            assert compare(exact, boxed.lo) >= 0
            assert compare(exact, boxed.hi) <= 0


def test_m_bar_zero_is_root_of_discriminant():
    rng = random.Random(63)
    for mu in _strip_mu_samples(10, rng, 15):
        s = QuadraticNumber.sqrt(mu * mu - 10)
        num = s * (-6 * mu) + (150 + 10 * mu * mu)
        den = s * 40 + (400 - 120 * mu)
        root = num / den
        # D is linear in m_bar; enclosing D at a tight box around the root
        # must produce an interval straddling zero
        box = root.enclosure(Fraction(1, 2**40))
        d_box = discriminant_t(box.lo, 10, RationalInterval.point(mu))
        d_box = d_box.intersect(discriminant_t(box.hi, 10, RationalInterval.point(mu))) or d_box
        assert d_box.lo <= 0 or d_box.hi >= 0


def test_m_bar_zero_at_sqrt_r_closed_forms():
    assert m_bar_zero_at_sqrt_r(10) == QuadraticNumber(
        Fraction(25, 4), Fraction(15, 8), 10
    )
    assert m_bar_zero_at_sqrt_r(12) == QuadraticNumber(
        Fraction(25, 12), Fraction(25, 24), 3
    )
    assert m_bar_zero_at_sqrt_r(13) == QuadraticNumber(
        Fraction(25, 16), Fraction(75, 208), 13
    )
    with pytest.raises(UnsupportedR):
        m_bar_zero_at_sqrt_r(9)


def test_m_bar_zero_at_edge_matches_limit_of_interval_route():
    """Shrinking mu-boxes hugging sqrt(r) from inside the strip produce
    m_bar_zero enclosures converging onto the closed-form edge value."""
    for r in (10, 12):
        edge = m_bar_zero_at_sqrt_r(r)
        width = Fraction(1, 2**34)
        sqrt_box = QuadraticNumber.sqrt(r).enclosure(width)
        mu = RationalInterval(sqrt_box.lo, sqrt_box.hi)
        boxed = m_bar_zero(r, mu, sqrt_width=width)
        assert compare(edge, boxed.lo - Fraction(1, 2**20)) >= 0
        assert compare(edge, boxed.hi + Fraction(1, 2**20)) <= 0


def test_certificates_for_core_range():
    for r, t0 in T0_BY_R.items():
        cert = verify_t_bound(r, t0)
        assert cert.r == r and cert.t0 == t0
        assert cert.mu_lo * cert.mu_lo <= r
        assert cert.mu_hi * cert.mu_hi >= r + 1
        assert cert.leaf_count >= 1
        ok, problems = audit_certificate(cert.to_json_dict())
        assert ok, problems


def test_certificate_shape_r10():
    cert = verify_t_bound(10, 6)
    doc = cert.to_json_dict()
    assert doc["kind"] == CERTIFICATE_KIND
    assert set(doc) == {
        "kind", "r", "t0", "depth_limit", "sqrt_width",
        "mu_lo", "mu_hi", "max_depth", "leaf_count", "tree",
    }
    assert doc["max_depth"] <= 40


def test_verify_t_bound_errors():
    with pytest.raises(UnsupportedR):
        verify_t_bound(9, 6)
    with pytest.raises(InvalidT0):
        verify_t_bound(10, 1)
    with pytest.raises(ValueError):
        verify_t_bound(10, 6, depth_limit=0)
    with pytest.raises(DepthLimitExceeded):
        verify_t_bound(10, 6, depth_limit=1)


def _first_leaf(node):
    while "children" in node:
        node = node["children"][0]
    return node


def _last_leaf(node):
    while "children" in node:
        node = node["children"][1]
    return node


def test_audit_rejects_tampering():
    doc = verify_t_bound(12, 4).to_json_dict()

    bad = copy.deepcopy(doc)
    bad["kind"] = "something_else"
    ok, problems = audit_certificate(bad)
    assert not ok and any("kind" in p for p in problems)

    bad = copy.deepcopy(doc)
    del bad["tree"]
    ok, problems = audit_certificate(bad)
    assert not ok and any("missing" in p for p in problems)

    bad = copy.deepcopy(doc)
    bad["mu_lo"] = "4"  # 16 > 12: root no longer covers the strip
    ok, problems = audit_certificate(bad)
    assert not ok

    bad = copy.deepcopy(doc)
    leaf = _first_leaf(bad["tree"])
    leaf["rule"] = "vertex_negative" if leaf["rule"] != "vertex_negative" else "c_negative"
    ok, problems = audit_certificate(bad)
    assert not ok and any("rule" in p for p in problems)

    bad = copy.deepcopy(doc)
    leaf = _last_leaf(bad["tree"])
    key = next(iter(leaf["witnesses"]))
    leaf["witnesses"][key][0] = "0"
    ok, problems = audit_certificate(bad)
    assert not ok and any("witnesses do not match" in p for p in problems)

    bad = copy.deepcopy(doc)
    node = bad["tree"]
    assert "children" in node
    node["children"][0]["mu_hi"] = node["mu_hi"]  # split collides with parent end
    ok, problems = audit_certificate(bad)
    assert not ok and any("split" in p for p in problems)

    bad = copy.deepcopy(doc)
    bad["leaf_count"] = bad["leaf_count"] + 1
    ok, problems = audit_certificate(bad)
    assert not ok and any("leaf_count" in p for p in problems)


def test_audit_accepts_header_only_variants():
    """Optional count fields may be absent; the audit then skips them."""
    doc = verify_t_bound(13, 3).to_json_dict()
    del doc["leaf_count"]
    del doc["max_depth"]
    ok, problems = audit_certificate(doc)
    assert ok, problems


def test_large_r_inequalities():
    assert large_r_inequalities(19) == (False, True)
    assert large_r_inequalities(20) == (True, True)
    assert not verify_large_r(16)
    for r in (20, 25, 50, 101, 200):
        assert verify_large_r(r)


def test_large_r_inequalities_match_quadratic_formulation():
    """The integer forms against the inequalities as stated, in Q(sqrt(r))."""
    for r in range(1, 5001):
        sqrt_r = QuadraticNumber.sqrt(r)
        first = compare(Fraction(r - 6), sqrt_r * 3) > 0
        second = compare(Fraction(9 * r, r + 1) - 3, 9 / sqrt_r) > 0
        assert large_r_inequalities(r) == (first, second), r
