"""Interval certification of Q-negativity over the strip sqrt(r) <= mu <= sqrt(r+1)."""

import copy
import random
import re
from collections import Counter
from fractions import Fraction
from math import ceil, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seshadri.errors import DepthLimitExceeded, InvalidT0, UnsupportedR
from seshadri.exact import (
    DEFAULT_SQRT_WIDTH,
    QuadraticNumber,
    RationalInterval,
    compare,
    sqrt_enclosure,
)
from seshadri import region
from seshadri.region import (
    CERTIFICATE_KIND,
    MAX_DEPTH_LIMIT,
    MAX_NUMBER_LENGTH,
    _close,
    _lower_end,
    _upper_end,
    audit_certificate,
    large_r_inequalities,
    m_bar_zero_at_sqrt_r,
    q_coefficients,
    q_exact,
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
            t = rng.randrange(1, 7)
            m_bar = Fraction(rng.randrange(0, 130), 10)
            exact = q_exact(m_bar, t, r, mu)
            a, b, c = (
                RationalInterval(Fraction(*lo), Fraction(*hi))
                for lo, hi in q_coefficients(r, t, mu, mu, DEFAULT_SQRT_WIDTH)
            )
            boxed = (a * m_bar + b) * m_bar + c
            assert compare(exact, boxed.lo) >= 0
            assert compare(exact, boxed.hi) <= 0
            assert boxed.width < Fraction(1, 2**20)


def _reference_coefficients(r, t, mu, mu_sq, sqrt_width):
    """a, b, c by generic RationalInterval arithmetic, term by term."""
    s = (mu_sq - r).sqrt(sqrt_width)
    a = RationalInterval.point(r * r) / mu_sq - r
    b = (2 * r * t) * s / mu_sq + RationalInterval.point(3 * r) / mu - r
    c = RationalInterval.point(-r * t * t) / mu_sq + (3 * t) * s / mu - t + 6
    return a, b, c


def _reference_leaf_rule(r, t0, lo, hi, sqrt_width):
    """The leaf rule evaluated by generic interval arithmetic."""
    mu = RationalInterval(lo, hi)
    mu_sq = (mu * mu).intersect(RationalInterval(r, r + 1))
    if mu_sq is None:
        return {"rule": "outside_strip",
                "witnesses": {"mu_sq": [str((mu * mu).lo), str((mu * mu).hi)]}}
    a, b, c = _reference_coefficients(r, t0, mu, mu_sq, sqrt_width)
    witnesses = {name: [str(iv.lo), str(iv.hi)] for name, iv in zip("abc", (a, b, c))}
    if c.hi >= 0:
        return None
    if a.hi <= 0 and b.hi <= 0:
        return {"rule": "c_negative", "witnesses": witnesses}
    if a.hi < 0:
        vertex = c - (b * b) / (a * 4)
        if vertex.hi < 0:
            witnesses["vertex"] = [str(vertex.lo), str(vertex.hi)]
            return {"rule": "vertex_negative", "witnesses": witnesses}
    return None


def _dyadic_pieces(r, sqrt_width, rng, count):
    """Pieces of a bisection of the root cover at random depths, with a few
    pieces just past either end of it."""
    root_lo = sqrt_enclosure(r, sqrt_width).lo
    span = sqrt_enclosure(r + 1, sqrt_width).hi - root_lo
    for _ in range(count):
        depth = rng.randrange(0, 16)
        step = span / 2**depth
        inner = rng.randrange(2**depth)
        index = rng.choice((-1, 0, 1, inner, inner, inner, 2**depth - 1, 2**depth))
        yield root_lo + index * step, root_lo + (index + 1) * step


def test_endpoint_formulas_match_generic_interval_arithmetic(monkeypatch):
    """q_coefficients and the leaf rule give the same rationals, rules and
    witnesses as generic interval arithmetic, on every branch, and on both
    routes of each bound formula: with the bracket's denominator, or a's in
    the vertex bound, cancelled, and without (widths 1/3 and 1/1000)."""
    rng = random.Random(5)
    seen = Counter()
    b_at, c_at, quotient = region._b_at, region._c_at, region._minus_quarter_quotient

    def counted_b(r, t, mu_sq, s, mu):
        route = "clamped" if mu_sq[1] == 1 else mu_sq[1] % s[1] == 0
        seen[f"_b_at cancels: {route}"] += 1
        return b_at(r, t, mu_sq, s, mu)

    def counted_c(r, t, mu_sq, s, mu):
        seen[f"_c_at cancels: {mu[1] % s[1] == 0}"] += 1
        return c_at(r, t, mu_sq, s, mu)

    def counted_quotient(c, p, q, a):
        seen[f"_minus_quarter_quotient cancels: {q % a[1] == 0}"] += 1
        return quotient(c, p, q, a)

    monkeypatch.setattr(region, "_b_at", counted_b)
    monkeypatch.setattr(region, "_c_at", counted_c)
    monkeypatch.setattr(region, "_minus_quarter_quotient", counted_quotient)
    for width in (
        Fraction(1, 2**16), Fraction(1, 2**256), Fraction(1, 3), Fraction(1, 1000)
    ):
        for r in range(10, 20):
            for t in range(2, 7):
                for lo, hi in _dyadic_pieces(r, width, rng, 24):
                    expected = _reference_leaf_rule(r, t, lo, hi, width)
                    ends = (
                        _lower_end(r, lo.numerator, lo.denominator, width),
                        _upper_end(r, hi.numerator, hi.denominator, width),
                    )
                    assert _close(r, t, *ends) == expected, (r, t, lo, hi)
                    seen[expected["rule"] if expected else "open"] += 1
                    bounds = q_coefficients(r, t, lo, hi, width)
                    if expected and expected["rule"] == "outside_strip":
                        assert bounds is None
                        continue
                    mu = RationalInterval(lo, hi)
                    mu_sq = (mu * mu).intersect(RationalInterval(r, r + 1))
                    reference = _reference_coefficients(r, t, mu, mu_sq, width)
                    for (low, high), iv in zip(bounds, reference):
                        assert (Fraction(*low), Fraction(*high)) == (iv.lo, iv.hi)
                    a, b, c = reference
                    sign = "b >= 0" if b.lo >= 0 else "b <= 0" if b.hi <= 0 else "b straddles 0"
                    seen[sign] += 1
                    seen["|lo(b)| > hi(b) > 0"] += 0 < b.hi < -b.lo
                    seen["hi(a) >= 0"] += a.hi >= 0
                    seen["lo(s) = 0"] += (mu_sq - r).sqrt(width).lo == 0
                    seen["crosses r+1"] += hi * hi > r + 1
                    seen["hi(c) >= 0"] += c.hi >= 0
                    if c.hi < 0 and a.hi < 0 and b.hi > 0:
                        seen["vertex tested"] += 1
                        seen["vertex tested, b straddles 0"] += b.lo < 0
                        seen["vertex tested, |lo(b)| > hi(b)"] += -b.lo > b.hi
    branches = (
        "outside_strip", "c_negative", "vertex_negative", "open",
        "b >= 0", "b <= 0", "b straddles 0", "|lo(b)| > hi(b) > 0",
        "hi(a) >= 0", "lo(s) = 0", "crosses r+1", "hi(c) >= 0",
        "vertex tested", "vertex tested, b straddles 0",
        "vertex tested, |lo(b)| > hi(b)",
        "_b_at cancels: True", "_b_at cancels: False", "_b_at cancels: clamped",
        "_c_at cancels: True", "_c_at cancels: False",
        "_minus_quarter_quotient cancels: True",
        "_minus_quarter_quotient cancels: False",
    )
    assert all(seen[name] > 0 for name in branches), seen


def test_leaf_rule_needs_no_generic_interval_arithmetic(monkeypatch):
    """Neither the bisection nor its audit multiplies or divides a
    RationalInterval, and only a piece that closes builds witness strings."""
    calls = Counter()
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counting(self, other, _name=name, _fn=getattr(RationalInterval, name)):
            calls[_name] += 1
            return _fn(self, other)
        monkeypatch.setattr(RationalInterval, name, counting)
    built = []
    witnesses = region._witnesses
    monkeypatch.setattr(
        region, "_witnesses", lambda **bounds: built.append(1) or witnesses(**bounds)
    )

    cert = verify_t_bound(10, 6)
    assert audit_certificate(cert.to_json_dict()) == (True, [])
    assert sum(calls.values()) == 0, calls
    # a tree with more than one leaf has pieces that did not close
    assert cert.leaf_count > 1
    assert len(built) == 2 * cert.leaf_count


REGION_JOBS = ((10, 6), (11, 5), (12, 4), *((r, 3) for r in range(13, 20)))


def test_bisection_bounds_from_carried_records_match_q_coefficients(monkeypatch):
    """On every node of the ten criterion-5 trees, at widths 2^-16 and
    2^-256, the bounds the bisection builds from the endpoint records it
    carries equal q_coefficients on the node's endpoints, in value."""
    pieces = []
    close = region._close
    monkeypatch.setattr(
        region, "_close",
        lambda r, t0, lo, hi: pieces.append((lo, hi)) or close(r, t0, lo, hi),
    )

    def values(bounds):
        return bounds and [Fraction(*end) for bound in bounds for end in bound]

    for exponent in (16, 256):
        width = Fraction(1, 2**exponent)
        for r, t0 in REGION_JOBS:
            pieces.clear()
            cert = verify_t_bound(r, t0, sqrt_width=width)
            ends = [(Fraction(*lo[:2]), Fraction(*hi[:2])) for lo, hi in pieces]
            tree = cert.to_json_dict()["tree"]
            nodes, stack = [], [tree]
            while stack:
                node = stack.pop()
                nodes.append((Fraction(node["mu_lo"]), Fraction(node["mu_hi"])))
                stack.extend(reversed(node.get("children", ())))
            assert ends == nodes and len(nodes) == 2 * cert.leaf_count - 1
            for (lo, hi), (mu_lo, mu_hi) in zip(pieces, ends):
                assert values(region._bounds(r, t0, lo, hi)) == values(
                    q_coefficients(r, t0, mu_lo, mu_hi, width)
                ), (r, t0, exponent, mu_lo, mu_hi)


def test_each_endpoint_is_bracketed_once_and_parsed_once(monkeypatch):
    """The bisection and the audit bracket the square root at most once per
    endpoint, not at each piece's ends: a tree of L leaves has L + 1
    endpoints.  The audit parses the header's three rationals and each
    split, and no endpoint its parent already fixed."""
    brackets, parses = [], []
    bracket, parse = region.sqrt_bracket, region._parse_rational
    monkeypatch.setattr(
        region, "sqrt_bracket", lambda *args: brackets.append(1) or bracket(*args)
    )
    monkeypatch.setattr(
        region, "_parse_rational", lambda text: parses.append(1) or parse(text)
    )
    cert = verify_t_bound(10, 6)
    assert cert.leaf_count > 2
    assert len(brackets) <= cert.leaf_count + 1
    for r, t0 in REGION_JOBS:
        doc = verify_t_bound(r, t0).to_json_dict()
        parses.clear()
        brackets.clear()
        assert audit_certificate(doc) == (True, [])
        assert len(parses) == 3 + doc["leaf_count"] - 1, (r, t0)
        assert len(brackets) <= doc["leaf_count"] + 1, (r, t0)


def test_leaf_witnesses_reduce_with_one_small_gcd_per_end(monkeypatch):
    """Over the ten criterion-5 proofs at width 2^-256, the gcds that
    reduce the witnesses divide out at most half the 353,532 bits they did
    before the bracket's and a's denominators were cancelled where the
    bounds are built, still one gcd per end of each witness bound.  The
    gcds that reduce the bisection's midpoints are counted apart, two per
    split."""
    bits, midpoint_bits = [], []
    sink = [bits]  # where the gcd in progress is counted
    gcd, midpoint = region.gcd, region._midpoint

    def counting(m, n):
        g = gcd(m, n)
        sink[-1].append(g.bit_length())
        return g

    def counted_apart(lo, hi):
        sink.append(midpoint_bits)
        try:
            return midpoint(lo, hi)
        finally:
            sink.pop()

    monkeypatch.setattr(region, "gcd", counting)
    monkeypatch.setattr(region, "_midpoint", counted_apart)
    ends = splits = 0
    for r, t0 in REGION_JOBS:
        cert = verify_t_bound(r, t0, sqrt_width=Fraction(1, 2**256))
        splits += cert.leaf_count - 1
        stack = [cert.tree]
        while stack:
            node = stack.pop()
            stack.extend(node.get("children", ()))
            if node.get("rule") in ("c_negative", "vertex_negative"):
                ends += 2 * len(node["witnesses"])
    assert len(bits) == ends == 1162
    assert sum(bits) <= 353_532 // 2, sum(bits)
    assert len(midpoint_bits) == 2 * splits > 0


def test_bisection_and_audit_build_fractions_for_the_header_and_root_only(
    monkeypatch,
):
    """The bisection carries each endpoint as an integer pair and the audit
    parses each split to one, so a round trip builds as many Fractions on a
    tree of 94 leaves as on one of 2: those of the header and the root."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    counts = {}
    for r, t0 in REGION_JOBS:
        built.clear()
        doc = verify_t_bound(r, t0).to_json_dict()
        assert audit_certificate(doc) == (True, [])
        counts[doc["leaf_count"]] = len(built)
    assert min(counts) == 2 and max(counts) == 94
    assert len(set(counts.values())) == 1, counts


@pytest.mark.parametrize(("r", "leaves"), ((16, 6), (19, 4)))
def test_round_trip_at_a_width_that_is_not_a_power_of_two(r, leaves):
    """At width 1/3 the bracket's denominator 3 need not divide mu's, so
    the bounds keep it; the certificate still closes and audits clean."""
    cert = verify_t_bound(r, 3, sqrt_width=Fraction(1, 3))
    assert cert.leaf_count == leaves
    assert audit_certificate(cert.to_json_dict()) == (True, [])


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
    with pytest.raises(ValueError):
        verify_t_bound(10, 6, depth_limit=MAX_DEPTH_LIMIT + 1)
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


def _rejects(doc, fragment):
    ok, problems = audit_certificate(doc)
    return not ok and any(fragment in p for p in problems)


def test_audit_requires_depth_limit_and_enforces_it():
    doc = verify_t_bound(11, 5).to_json_dict()
    assert doc["max_depth"] >= 2

    bad = copy.deepcopy(doc)
    del bad["depth_limit"]
    assert _rejects(bad, "'depth_limit'")

    for value in (0, -3, MAX_DEPTH_LIMIT + 1):
        bad = copy.deepcopy(doc)
        bad["depth_limit"] = value
        assert _rejects(bad, "depth_limit")

    # leaves may sit at depth_limit, but no piece may split there
    bad = copy.deepcopy(doc)
    bad["depth_limit"] = doc["max_depth"] - 1
    assert _rejects(bad, "splits at depth")
    fine = copy.deepcopy(doc)
    fine["depth_limit"] = doc["max_depth"]
    assert audit_certificate(fine) == (True, [])


def _chain(mu_lo, mu_hi, levels):
    """A tree that splits its left piece `levels` times; the right pieces
    are not records."""
    root = node = {"mu_lo": str(mu_lo), "mu_hi": str(mu_hi)}
    lo, hi = mu_lo, mu_hi
    for _ in range(levels):
        hi = (lo + hi) / 2
        child = {"mu_lo": str(lo), "mu_hi": str(hi)}
        node["children"] = [child, None]
        node = child
    return root


def test_audit_walks_deep_trees_without_recursion():
    doc = verify_t_bound(12, 4).to_json_dict()
    mu_lo, mu_hi = Fraction(doc["mu_lo"]), Fraction(doc["mu_hi"])
    doc["tree"] = _chain(mu_lo, mu_hi, 3000)

    ok, problems = audit_certificate(doc)
    assert not ok and len(problems) == 41
    assert "splits at depth 40, depth_limit is 40" in problems[0]
    assert all(p.startswith("non-record node") for p in problems[1:])

    doc["depth_limit"] = MAX_DEPTH_LIMIT
    ok, problems = audit_certificate(doc)
    assert not ok and len(problems) == MAX_DEPTH_LIMIT + 1
    assert f"splits at depth {MAX_DEPTH_LIMIT}," in problems[0]


def test_audit_accepts_only_canonical_rationals():
    doc = verify_t_bound(12, 4).to_json_dict()
    for key in ("sqrt_width", "mu_lo", "mu_hi"):
        for text in ("1e-5", "1e999999", "0.5", " 1/2", "+1", "2/4", "-0", "1/0",
                     "1/00", "7/1", "0x10", "\u0663", "1" * (MAX_NUMBER_LENGTH + 1),
                     2, None):
            bad = copy.deepcopy(doc)
            bad[key] = text
            assert _rejects(bad, f"malformed header field {key!r}"), (key, text)
    for key in ("r", "t0", "depth_limit"):
        for value in ("12", 12.0, True, None, [12], 10**MAX_NUMBER_LENGTH):
            bad = copy.deepcopy(doc)
            bad[key] = value
            assert _rejects(bad, f"malformed header field {key!r}"), (key, value)

    node = copy.deepcopy(doc)
    node["tree"]["children"][0]["mu_hi"] = "1e-5"
    assert _rejects(node, "lacks an upper endpoint")
    node = copy.deepcopy(doc)
    leaf = _first_leaf(node["tree"])
    leaf["mu_lo"] = str(Fraction(leaf["mu_lo"]) * 2) + "/2"
    assert _rejects(node, "lacks rational endpoints")

    bad = copy.deepcopy(doc)
    bad["leaf_count"] = float(doc["leaf_count"])
    assert _rejects(bad, "leaf_count")


def _node_at(doc, path):
    node = doc["tree"]
    for index in path:
        node = node["children"][index]
    return node


def test_audit_refuses_respelled_endpoints_with_the_messages_it_gave():
    """An endpoint that spells the value its parent fixed in another form
    (unreduced, zero-padded, signed, padded or decimal), or that names
    another value, is refused with the message a parse of it gives: the
    audit's shortcut for a node that repeats its parent's texts changes no
    refusal."""
    base = verify_t_bound(11, 5).to_json_dict()
    # a right child that splits: no field of it is a split its parent parses
    inner = (1,)
    while "children" not in _node_at(base, inner):
        inner = inner[:-1] + (0, 1)
    leaf = ()
    while "children" in _node_at(base, leaf):
        leaf += (1,)
    assert len(leaf) > 1

    def lacks(path):
        node = _node_at(base, path)
        return f"node at [{node['mu_lo']}, {node['mu_hi']}] lacks rational endpoints"

    parent = _node_at(base, inner)
    split, hi = _node_at(base, inner + (1,))["mu_lo"], parent["mu_hi"]
    cases = [(path, key, lacks(path)) for path in ((), inner, leaf)
             for key in ("mu_lo", "mu_hi")]
    cases += [
        (inner + (0,), "mu_hi",
         f"left child of [{parent['mu_lo']}, {hi}] lacks an upper endpoint"),
        (inner + (1,), "mu_lo", lacks(inner + (1,))),
    ]
    for path, key, message in cases:
        spellings = _respellings(_node_at(base, path)[key])
        assert len(spellings) >= 4, spellings
        for text in spellings:
            doc = copy.deepcopy(base)
            _node_at(doc, path)[key] = text
            assert audit_certificate(doc) == (False, [message]), (path, key, text)

    # the right child names its parent's lower end: a canonical other value
    doc = copy.deepcopy(base)
    _node_at(doc, inner + (1,))["mu_lo"] = parent["mu_lo"]
    assert audit_certificate(doc) == (
        False, [f"node claims [{parent['mu_lo']}, {hi}], expected [{split}, {hi}]"]
    )


def test_audit_survives_oversized_numbers():
    """Numbers within the grammar but too large to recompute with, and a root
    piece reaching down to mu = 0, are reported problems, not exceptions."""
    doc = verify_t_bound(12, 4).to_json_dict()
    bad = copy.deepcopy(doc)
    bad["t0"] = 10**4000
    # no leaf closes, and a piece that does not close builds no witness
    # numeral, so nothing reaches the digit limit here
    assert _rejects(bad, "does not close under any rule")
    bad = copy.deepcopy(doc)
    bad["sqrt_width"] = "1/" + "9" * 4000
    assert _rejects(bad, "witnesses do not match")

    doc = verify_t_bound(50, 3).to_json_dict()
    assert "children" not in doc["tree"]
    root = 10**1900
    bad = copy.deepcopy(doc)
    bad["r"] = root * root
    bad["mu_lo"] = bad["tree"]["mu_lo"] = str(root)
    bad["mu_hi"] = bad["tree"]["mu_hi"] = str(root + 1)
    assert _rejects(bad, "cannot be recomputed")

    bad = copy.deepcopy(doc)
    bad["mu_lo"] = bad["tree"]["mu_lo"] = "0"
    assert _rejects(bad, "root lower end 0")


def _field_paths(doc):
    """Key/index paths to every field of a JSON document, in a fixed order."""
    paths = []
    stack = [((), doc)]
    while stack:
        path, value = stack.pop()
        if path:
            paths.append(path)
        if isinstance(value, dict):
            stack.extend((path + (k,), v) for k, v in value.items())
        elif isinstance(value, list):
            stack.extend((path + (i,), v) for i, v in enumerate(value))
    return sorted(paths, key=repr)


_MUTATION_BASE = verify_t_bound(12, 4).to_json_dict()
_MUTATION_PATHS = _field_paths(_MUTATION_BASE)
# absent counts are skipped by design (test_audit_accepts_header_only_variants)
_OPTIONAL = {("leaf_count",), ("max_depth",)}
_REPLACEMENTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.fractions().map(str),
    st.sampled_from(
        ["1e-5", "1e999999", "6/2", "-0", "1/0", "c_negative", "vertex_negative",
         "outside_strip", "9" * 5000]
    ),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.sampled_from(["mu_lo", "mu_hi", "rule"]), st.text(max_size=4)),
)


def _respellings(value):
    """Other spellings of the rational that a canonical string spells:
    unreduced, zero-padded, with an explicit sign or denominator 1, and in
    decimal form when the denominator is a power of two."""
    if not (isinstance(value, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value)):
        return []
    x = Fraction(value)
    n, d = x.numerator, x.denominator
    spellings = [f"{2 * n}/{2 * d}", f"{n}/{d}", f"+{value}", value + " "]
    spellings.append(f"-0{-n}/{d}" if n < 0 else f"0{n}/{d}")
    k = d.bit_length() - 1
    if d == 1 << k:
        digits = str(abs(n) * 5**k).rjust(k + 1, "0")
        sign = "-" if n < 0 else ""
        spellings.append(f"{sign}{digits[:len(digits) - k]}.{digits[len(digits) - k:]}")
    return [text for text in spellings if text != value]


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_audit_rejects_every_single_field_mutation(data):
    """One field of a valid certificate deleted, replaced, or respelled as
    the same rational in another form: the audit rejects it and never
    raises.  Two replacements certify the same statement and are left out:
    a larger depth_limit, and a sqrt_width with the same ceil(1/width), the
    only way the enclosures depend on the width."""
    doc = copy.deepcopy(_MUTATION_BASE)
    path = data.draw(st.sampled_from(_MUTATION_PATHS))
    owner = doc
    for step in path[:-1]:
        owner = owner[step]
    key = path[-1]
    old = owner[key]
    if path not in _OPTIONAL and data.draw(st.booleans()):
        del owner[key]
    else:
        respellings = _respellings(old)
        if respellings and data.draw(st.booleans()):
            new = data.draw(st.sampled_from(respellings))
        else:
            new = data.draw(_REPLACEMENTS)
        assume(type(new) is not type(old) or new != old)
        if path == ("depth_limit",) and type(new) is int:
            assume(new < _MUTATION_BASE["max_depth"])
        if path == ("sqrt_width",) and isinstance(new, str):
            if re.fullmatch(r"[0-9]{1,40}/[1-9][0-9]{0,40}", new):
                width = Fraction(new)
                assume(width == 0 or ceil(1 / width) != ceil(1 / Fraction(old)))
        owner[key] = new
    ok, problems = audit_certificate(doc)
    assert not ok and problems


def test_large_r_inequalities():
    assert large_r_inequalities(19) == (False, True)
    assert large_r_inequalities(20) == (True, True)
    assert not verify_large_r(16)
    for r in (20, 25, 50, 101, 200):
        assert verify_large_r(r)


def test_t0_three_certificate_closes_at_its_root_from_r_20():
    """For r >= 20 the whole strip is one c_negative leaf at t0 = 3, whose
    conditions are the large-r inequalities: the fact t_range's {1, 2}
    rests on there. At r = 19, where (i) fails, the root must split."""
    for r in [*range(20, 3020), 10**6, 10**12, 10**18 - 1, 10**18]:
        cert = verify_t_bound(r, 3)
        assert (cert.leaf_count, cert.max_depth, cert.tree["rule"]) == (
            1, 0, "c_negative"), r
        assert verify_large_r(r), r
    cert = verify_t_bound(19, 3)
    assert (cert.leaf_count, cert.max_depth) == (2, 1)
    assert "rule" not in cert.tree


def test_large_r_inequalities_match_the_squared_tests():
    """The field-sign tests decide what the squared integer tests decided,
    for r = 1..20000, 2000 seeded random r below 10^18, 10^18 - 1 and 10^18."""
    rng = random.Random(1901)
    rs = [*range(1, 20001), *(rng.randrange(1, 10**18) for _ in range(2000))]
    for r in rs + [10**18 - 1, 10**18]:
        first = r > 6 and (r - 6) ** 2 > 9 * r
        second = (6 * r - 3) ** 2 * r > 81 * (r + 1) ** 2
        assert large_r_inequalities(r) == (first, second), r


def test_large_r_inequalities_match_quadratic_formulation():
    """The integer forms against the inequalities as stated, in Q(sqrt(r))."""
    for r in range(1, 5001):
        sqrt_r = QuadraticNumber.sqrt(r)
        first = compare(Fraction(r - 6), sqrt_r * 3) > 0
        second = compare(Fraction(9 * r, r + 1) - 3, 9 / sqrt_r) > 0
        assert large_r_inequalities(r) == (first, second), r
