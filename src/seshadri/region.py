"""Interval certification of the multiplicity cut-off on the strip.

For mu in the strip [sqrt(r), sqrt(r+1)) and a class with mean multiplicity
m_bar = M/r carrying a point of multiplicity t, combining the
expected-dimension count with weak submaximality yields the quadratic

    Q(m_bar, t) = a(mu) m_bar^2 + b(mu) m_bar + c(mu),

    a = r^2/mu^2 - r,
    b = 2 r t sqrt(mu^2 - r)/mu^2 + 3 r/mu - r,
    c = -r t^2/mu^2 + 3 t sqrt(mu^2 - r)/mu - t + 6,

which must be positive for a counterexample with that t to exist.  Showing
Q(., t0) < 0 for every m_bar and every mu in the strip therefore excludes
multiplicity t0, which is where the caps in search.t_range come from.

The proof obligation is verified by adaptive bisection of the strip in mu.
On each piece the coefficients are enclosed in rational intervals (square
roots by outward rounding, everything else exact), and a piece is closed by
one of two sign rules:

* c_negative: hi(a) <= 0, hi(b) <= 0 and hi(c) < 0, so Q <= c < 0 for every
  m_bar >= 0;
* vertex_negative: hi(a) < 0, hi(c) < 0 and the vertex value c - b^2/(4a)
  has negative upper bound, so the downward parabola is negative everywhere.

The result is a machine-checkable certificate tree; audit_certificate
replays it from scratch.

verify_large_r decides the two closed-form inequalities that take over for
large r, where no bisection is needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import DepthLimitExceeded, InvalidT0, UnsupportedR
from .exact import (
    DEFAULT_SQRT_WIDTH,
    QuadraticNumber,
    RationalInterval,
    RationalLike,
    sqrt_enclosure,
    _as_fraction,
)

DEFAULT_DEPTH_LIMIT = 40
# Deepest bisection allowed.  Past about 3000 levels the witness numerals
# outgrow the interpreter's 4300-digit limit on int-to-string conversion;
# an open piece at r = 10 takes about 2.5 s to reach 2000 levels.
MAX_DEPTH_LIMIT = 2000

CERTIFICATE_KIND = "q_negativity_certificate"

# Longest numeral an audit reads, in decimal digits; keeps every number it
# parses or prints below the interpreter's 4300-digit conversion limit.
MAX_NUMBER_LENGTH = 4096
_MAX_INTEGER = 10**MAX_NUMBER_LENGTH
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def q_coefficients(
    r: int,
    t: RationalLike,
    mu: RationalInterval,
    mu_sq: RationalInterval,
    sqrt_width: RationalLike,
) -> tuple[RationalInterval, RationalInterval, RationalInterval]:
    """Enclosures of a, b, c over the mu-interval, given an enclosure mu_sq
    of mu^2; needs lo(mu) > 0 and hi(mu_sq) >= r.

    The leaf rule passes mu^2 intersected with [r, r+1], which is sound for
    mu restricted to the strip and keeps hi(a) from leaking above 0 at the
    left edge.
    """
    s = (mu_sq - r).sqrt(sqrt_width)
    a = RationalInterval.point(r * r) / mu_sq - r
    b = (2 * r * t) * s / mu_sq + RationalInterval.point(3 * r) / mu - r
    c = (
        RationalInterval.point(-r * t * t) / mu_sq
        + (3 * t) * s / mu
        - t
        + 6
    )
    return a, b, c


def q_exact(
    m_bar: RationalLike, t: RationalLike, r: int, mu: RationalLike
) -> QuadraticNumber:
    """Q(m_bar, t) as an exact element of Q(sqrt(mu^2 - r)) for rational mu.

    Independent of the interval route: tests pin the two against each other.
    Needs mu > 0 and mu^2 >= r (NegativeRadicand otherwise).
    """
    m_bar = _as_fraction(m_bar)
    t = _as_fraction(t)
    mu = _as_fraction(mu)
    if mu <= 0:
        raise ValueError(f"need mu > 0, got {mu}")
    mu_sq = mu * mu
    s = QuadraticNumber.sqrt(mu_sq - r)
    a = QuadraticNumber.from_rational(Fraction(r * r) / mu_sq - r)
    b = s * ((2 * r * t) / mu_sq) + (Fraction(3 * r) / mu - r)
    c = s * ((3 * t) / mu) + ((-r * t * t) / mu_sq - t + 6)
    return (a * m_bar + b) * m_bar + c


def m_bar_zero_at_sqrt_r(r: int) -> QuadraticNumber:
    """Exact value of m_bar_0 at the left edge mu = sqrt(r): 25r/(4r^2 - 12r sqrt(r)).

    At mu = sqrt(r) the radical sqrt(mu^2 - r) vanishes and the formula
    collapses to 25/(4r - 12 sqrt(r)), an exact quadratic number.  This is
    also the quantity whose floor is total_multiplicity_bound(r)/r-adjacent:
    M/r <= m_bar_0(sqrt(r)) recovers the cap 4rM - 25r <= 12M sqrt(r).
    """
    if r < 10:
        raise UnsupportedR(f"need r >= 10, got {r}")
    return 25 / (QuadraticNumber.sqrt(r) * (-12) + 4 * r)


@dataclass(frozen=True)
class Certificate:
    """Bisection certificate that Q(., t0) < 0 on the whole strip at r."""

    r: int
    t0: int
    depth_limit: int
    sqrt_width: Fraction
    mu_lo: Fraction
    mu_hi: Fraction
    max_depth: int
    leaf_count: int
    tree: dict

    def to_json_dict(self) -> dict:
        return {
            "kind": CERTIFICATE_KIND,
            "r": self.r,
            "t0": self.t0,
            "depth_limit": self.depth_limit,
            "sqrt_width": str(self.sqrt_width),
            "mu_lo": str(self.mu_lo),
            "mu_hi": str(self.mu_hi),
            "max_depth": self.max_depth,
            "leaf_count": self.leaf_count,
            "tree": self.tree,
        }


def _interval_strings(iv: RationalInterval) -> list[str]:
    return [str(iv.lo), str(iv.hi)]


def _leaf_rule(
    r: int, t0: int, lo: Fraction, hi: Fraction, sqrt_width: Fraction
) -> dict | None:
    """Try to close [lo, hi] with one sign rule; None if inconclusive."""
    mu = RationalInterval(lo, hi)
    mu_sq = (mu * mu).intersect(RationalInterval(r, r + 1))
    if mu_sq is None:
        return {"rule": "outside_strip", "witnesses": {"mu_sq": _interval_strings(mu * mu)}}
    a, b, c = q_coefficients(r, t0, mu, mu_sq, sqrt_width)
    witnesses = {
        "a": _interval_strings(a),
        "b": _interval_strings(b),
        "c": _interval_strings(c),
    }
    if c.hi >= 0:
        return None
    if a.hi <= 0 and b.hi <= 0:
        return {"rule": "c_negative", "witnesses": witnesses}
    if a.hi < 0:
        vertex = c - (b * b) / (a * 4)
        if vertex.hi < 0:
            witnesses["vertex"] = _interval_strings(vertex)
            return {"rule": "vertex_negative", "witnesses": witnesses}
    return None


def verify_t_bound(
    r: int,
    t0: int,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    sqrt_width: RationalLike = DEFAULT_SQRT_WIDTH,
) -> Certificate:
    """Prove Q(m_bar, t0) < 0 for all m_bar >= 0 and all mu in the strip.

    Bisects an outward rational cover of [sqrt(r), sqrt(r+1)] until every
    piece closes under a sign rule, and returns the certificate tree.
    Raises DepthLimitExceeded as soon as any piece reaches depth_limit
    without closing: the attempt is inconclusive, not a refutation.
    depth_limit must lie in 1..MAX_DEPTH_LIMIT.
    """
    if r < 10:
        raise UnsupportedR(f"need r >= 10, got {r}")
    if t0 < 2:
        raise InvalidT0(f"need t0 >= 2, got {t0}")
    if not 1 <= depth_limit <= MAX_DEPTH_LIMIT:
        raise ValueError(
            f"need 1 <= depth_limit <= {MAX_DEPTH_LIMIT}, got {depth_limit}"
        )
    sqrt_width = _as_fraction(sqrt_width)
    root_lo = sqrt_enclosure(r, sqrt_width).lo
    root_hi = sqrt_enclosure(r + 1, sqrt_width).hi

    tree: dict = {"mu_lo": str(root_lo), "mu_hi": str(root_hi)}
    max_depth = leaf_count = 0
    # explicit stack, left piece on top: the pieces are visited in pre-order
    stack = [(tree, root_lo, root_hi, 0)]
    while stack:
        node, lo, hi, depth = stack.pop()
        leaf = _leaf_rule(r, t0, lo, hi, sqrt_width)
        if leaf is not None:
            node.update(leaf)
            max_depth = max(max_depth, depth)
            leaf_count += 1
            continue
        if depth >= depth_limit:
            raise DepthLimitExceeded(
                f"piece [{lo}, {hi}] still open at depth {depth} (r={r}, t0={t0})"
            )
        mid = (lo + hi) / 2
        left = {"mu_lo": str(lo), "mu_hi": str(mid)}
        right = {"mu_lo": str(mid), "mu_hi": str(hi)}
        node["children"] = [left, right]
        stack.append((right, mid, hi, depth + 1))
        stack.append((left, lo, mid, depth + 1))

    return Certificate(
        r=r,
        t0=t0,
        depth_limit=depth_limit,
        sqrt_width=sqrt_width,
        mu_lo=root_lo,
        mu_hi=root_hi,
        max_depth=max_depth,
        leaf_count=leaf_count,
        tree=tree,
    )


def _parse_rational(text: Any) -> Fraction | None:
    """The rational a certificate field spells, or None.

    Only the canonical form that str(Fraction) writes is accepted: an
    optional minus sign, digits, and optionally a slash and a denominator,
    in lowest terms, at most MAX_NUMBER_LENGTH characters.  Decimal and
    exponent forms, which Fraction(str) would take, are refused before any
    number is built.
    """
    if not isinstance(text, str) or len(text) > MAX_NUMBER_LENGTH:
        return None
    if not _RATIONAL_RE.fullmatch(text):
        return None
    value = Fraction(text)
    return value if str(value) == text else None


def _is_integer(value: Any) -> bool:
    """A JSON integer (not a bool or float) of at most MAX_NUMBER_LENGTH digits."""
    return type(value) is int and abs(value) < _MAX_INTEGER


def audit_certificate(doc: Any) -> tuple[bool, list[str]]:
    """Replay a certificate document from scratch.

    Checks the document shape, that the root interval covers the strip, that
    children partition their parent exactly, that no piece splits at depth
    depth_limit or deeper, and that every leaf's rule really holds when its
    intervals are recomputed at the recorded sqrt_width (recorded witnesses
    must match the recomputation bit for bit).  Integer fields must be JSON
    integers of at most MAX_NUMBER_LENGTH digits and rational fields
    canonical strings (see _parse_rational).  Never raises on a document
    that json.loads returns: returns (ok, problems), where problems lists
    every defect found.
    """
    problems: list[str] = []

    def fail(msg: str) -> None:
        problems.append(msg)

    if not isinstance(doc, dict):
        return False, ["certificate is not a JSON object"]
    for key in (
        "kind", "r", "t0", "depth_limit", "sqrt_width", "mu_lo", "mu_hi", "tree"
    ):
        if key not in doc:
            fail(f"missing top-level key {key!r}")
    if problems:
        return False, problems
    if doc["kind"] != CERTIFICATE_KIND:
        fail(f"unexpected kind {doc['kind']!r}")
        return False, problems
    for key in ("r", "t0", "depth_limit"):
        if not _is_integer(doc[key]):
            fail(f"malformed header field {key!r}: not an integer")
    rationals = {
        key: _parse_rational(doc[key]) for key in ("sqrt_width", "mu_lo", "mu_hi")
    }
    for key, value in rationals.items():
        if value is None:
            fail(f"malformed header field {key!r}: not a canonical rational")
    if problems:
        return False, problems
    r, t0, depth_limit = doc["r"], doc["t0"], doc["depth_limit"]
    sqrt_width, mu_lo, mu_hi = rationals.values()
    if r < 10:
        fail(f"r = {r} out of range")
    if t0 < 2:
        fail(f"t0 = {t0} out of range")
    if not 1 <= depth_limit <= MAX_DEPTH_LIMIT:
        fail(f"depth_limit = {depth_limit} out of range")
    if sqrt_width <= 0:
        fail(f"sqrt_width = {sqrt_width} not positive")
    if mu_lo <= 0 or mu_lo * mu_lo > r:
        fail(f"root lower end {mu_lo} does not sit in (0, sqrt({r})]")
    if mu_hi * mu_hi < r + 1:
        fail(f"root upper end {mu_hi} does not sit at or above sqrt({r + 1})")
    if problems:
        return False, problems

    leaves = 0
    deepest = 0
    # explicit stack, left child on top: nodes are checked in pre-order
    stack: list[tuple[Any, Fraction, Fraction, int]] = [(doc["tree"], mu_lo, mu_hi, 0)]
    while stack:
        node, lo, hi, depth = stack.pop()
        if not isinstance(node, dict):
            fail(f"non-record node at [{lo}, {hi}]")
            continue
        node_lo = _parse_rational(node.get("mu_lo"))
        node_hi = _parse_rational(node.get("mu_hi"))
        if node_lo is None or node_hi is None:
            fail(f"node at [{lo}, {hi}] lacks rational endpoints")
            continue
        if node_lo != lo or node_hi != hi:
            fail(f"node claims [{node_lo}, {node_hi}], expected [{lo}, {hi}]")
            continue
        if "children" in node:
            if depth >= depth_limit:
                fail(
                    f"node at [{lo}, {hi}] splits at depth {depth}, "
                    f"depth_limit is {depth_limit}"
                )
                continue
            kids = node["children"]
            if not (isinstance(kids, list) and len(kids) == 2):
                fail(f"node at [{lo}, {hi}] must have exactly two children")
                continue
            left = kids[0]
            split = _parse_rational(left.get("mu_hi")) if isinstance(left, dict) else None
            if split is None:
                fail(f"left child of [{lo}, {hi}] lacks an upper endpoint")
                continue
            if not lo < split < hi:
                fail(f"split {split} outside ({lo}, {hi})")
                continue
            stack.append((kids[1], split, hi, depth + 1))
            stack.append((left, lo, split, depth + 1))
            continue
        leaves += 1
        deepest = max(deepest, depth)
        try:
            recomputed = _leaf_rule(r, t0, lo, hi, sqrt_width)
        except ValueError as exc:  # a witness past the digit limit
            fail(f"leaf [{lo}, {hi}] cannot be recomputed: {exc}")
            continue
        if recomputed is None:
            fail(f"leaf [{lo}, {hi}] does not close under any rule")
            continue
        if node.get("rule") != recomputed["rule"]:
            fail(
                f"leaf [{lo}, {hi}] records rule {node.get('rule')!r}, "
                f"recomputation gives {recomputed['rule']!r}"
            )
            continue
        if node.get("witnesses") != recomputed["witnesses"]:
            fail(f"leaf [{lo}, {hi}] witnesses do not match recomputation")

    if not problems:
        for key, actual in (("leaf_count", leaves), ("max_depth", deepest)):
            if key in doc and not (_is_integer(doc[key]) and doc[key] == actual):
                fail(f"{key} does not match the tree's {actual}")
    return not problems, problems


def large_r_inequalities(r: int) -> tuple[bool, bool]:
    """Decide the two closed-form large-r inequalities exactly:

        (i)   r - 6 > 3 sqrt(r),
        (ii)  9r/(r+1) - 3 > 9/sqrt(r).

    (i) forces the maximal M satisfying (**) past the enumeration bound in
    every degree d >= 5, so no critical pair survives there; (ii) makes the
    five small-degree pairs harmless (negative Delta).  (i) holds from
    r = 20 on and fails at r = 19.

    Both are decided in integers.  (i): 3 sqrt(r) > 0, so it needs r > 6,
    and then both sides are positive and squaring gives (r - 6)^2 > 9r.
    (ii): multiplying through by (r + 1) sqrt(r) > 0 gives
    (6r - 3) sqrt(r) > 9(r + 1); the right side is positive and so is
    6r - 3 for r >= 1, so squaring gives (6r - 3)^2 r > 81 (r + 1)^2.
    """
    if r < 1:
        raise UnsupportedR(f"need r >= 1, got {r}")
    first = r > 6 and (r - 6) ** 2 > 9 * r
    second = (6 * r - 3) ** 2 * r > 81 * (r + 1) ** 2
    return first, second


def verify_large_r(r: int) -> bool:
    """True when both large-r inequalities hold (r >= 20 in practice)."""
    return all(large_r_inequalities(r))
