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
On each piece [lo, hi] the coefficients are enclosed by rational bounds:
mu^2 is enclosed by [lo^2, hi^2] clamped to [r, r+1], s = sqrt(mu^2 - r) by
outward-rounded square roots of its ends, and each bound of a coefficient
is its formula at the corner of that box where the formula is smallest or
largest.  The formulas are monotone in each variable on the strip, so these
are exactly the bounds that generic rational interval arithmetic yields
(see q_coefficients).  A piece is closed by one of two sign rules:

* c_negative: hi(a) <= 0, hi(b) <= 0 and hi(c) < 0, so Q <= c < 0 for every
  m_bar >= 0;
* vertex_negative: hi(a) < 0, hi(c) < 0 and the vertex value c - b*b/(4a)
  has negative upper bound, so the downward parabola is negative everywhere.

Every sign is decided on an integer numerator over a positive denominator,
hi(c) first; the bounds of a piece that closes are reduced once, and are
written into the tree as its witnesses.

The result is a machine-checkable certificate tree; audit_certificate
replays it from scratch.

verify_large_r decides the two closed-form inequalities that take over for
large r, where no bisection is needed.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DepthLimitExceeded, InvalidT0, UnsupportedR
from .exact import (
    DEFAULT_SQRT_WIDTH,
    Frozen,
    QuadraticNumber,
    RationalLike,
    sqrt_bracket,
    sqrt_enclosure,
    _as_fraction,
    _field_sign,
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


IntFraction = tuple[int, int]  # (numerator, denominator > 0), not reduced


def q_coefficients(
    r: int, t: int, mu_lo: Fraction, mu_hi: Fraction, sqrt_width: Fraction
) -> tuple[tuple[IntFraction, IntFraction], ...] | None:
    """Bounds (lo, hi) of each of a, b, c over the piece [mu_lo, mu_hi] of
    the strip, or None when the piece misses the strip.  Needs mu_lo > 0
    and t > 0.

    The enclosures are those of rational interval arithmetic on the
    formulas: mu^2 lies in [mu_lo^2, mu_hi^2] intersected with [r, r+1]
    (sound for mu in the strip, and it keeps hi(a) from leaking above 0 at
    the left edge), and s = sqrt(mu^2 - r) in [low end of
    sqrt_enclosure(lo(mu^2) - r), high end of sqrt_enclosure(hi(mu^2) - r)]
    at sqrt_width.  Interval arithmetic treats mu^2, s and mu as independent
    variables.  On the strip every operand has a known sign (mu > 0,
    mu^2 >= r > 0, s >= 0, t > 0), so each coefficient is monotone in each
    variable:

        a = r^2/mu^2 - r                  falls with mu^2;
        b = 2rt s/mu^2 + 3r/mu - r        falls with mu^2 and mu, rises with s;
        c = -rt^2/mu^2 + 3t s/mu - t + 6  rises with mu^2 and s, falls with mu.

    Each bound is therefore the formula at one corner of the box, e.g.
    hi(c) = c(hi(mu^2), hi(s), lo(mu)).  This equals the generic interval
    evaluation bit for bit: with the signs known, every product and
    quotient of intervals takes its minimum and maximum at the endpoints
    this monotonicity names, a sum of intervals adds the like endpoints, and
    no variable enters one formula in two opposite directions.  Both routes
    compute exact rationals, so they yield the same numbers and, once
    reduced, the same strings.

    Each bound is an integer pair (numerator, positive denominator), not in
    lowest terms: the leaf rule decides signs from numerators and reduces
    only the witnesses of the pieces it closes.
    """
    ln, ld = mu_lo.numerator, mu_lo.denominator
    hn, hd = mu_hi.numerator, mu_hi.denominator
    sq_lo = (ln * ln, ld * ld) if ln * ln > r * ld * ld else (r, 1)
    sq_hi = (hn * hn, hd * hd) if hn * hn < (r + 1) * hd * hd else (r + 1, 1)
    if sq_lo[0] * sq_hi[1] > sq_hi[0] * sq_lo[1]:
        return None
    s_lo = sqrt_bracket(sq_lo[0] - r * sq_lo[1], sq_lo[1], sqrt_width)[0]
    s_hi = sqrt_bracket(sq_hi[0] - r * sq_hi[1], sq_hi[1], sqrt_width)[1]
    return (
        (_a_at(r, sq_hi), _a_at(r, sq_lo)),
        (_b_at(r, t, sq_hi, s_lo, (hn, hd)), _b_at(r, t, sq_lo, s_hi, (ln, ld))),
        (_c_at(r, t, sq_lo, s_lo, (hn, hd)), _c_at(r, t, sq_hi, s_hi, (ln, ld))),
    )


def _a_at(r: int, mu_sq: IntFraction) -> IntFraction:
    qn, qd = mu_sq
    return r * (r * qd - qn), qn


def _b_at(
    r: int, t: int, mu_sq: IntFraction, s: IntFraction, mu: IntFraction
) -> IntFraction:
    (qn, qd), (sn, sd), (mn, md) = mu_sq, s, mu
    return 2 * r * t * sn * qd * mn + r * (3 * md - mn) * sd * qn, sd * qn * mn


def _c_at(
    r: int, t: int, mu_sq: IntFraction, s: IntFraction, mu: IntFraction
) -> IntFraction:
    (qn, qd), (sn, sd), (mn, md) = mu_sq, s, mu
    den = qn * sd * mn
    return -r * t * t * qd * sd * mn + 3 * t * sn * md * qn + (6 - t) * den, den


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
    collapses to 25/(4r - 12 sqrt(r)), an exact quadratic number.
    total_multiplicity_bound(r) is the floor of r times it: M/r <=
    m_bar_0(sqrt(r)) is the cap 4rM - 25r <= 12M sqrt(r).
    """
    if r < 10:
        raise UnsupportedR(f"need r >= 10, got {r}")
    return 25 / (QuadraticNumber.sqrt(r) * (-12) + 4 * r)


class Certificate(Frozen):
    """Bisection certificate that Q(., t0) < 0 on the whole strip at r."""

    __slots__ = _fields = (
        "r", "t0", "depth_limit", "sqrt_width", "mu_lo", "mu_hi", "max_depth",
        "leaf_count", "tree",
    )

    def __init__(
        self,
        r: int,
        t0: int,
        depth_limit: int,
        sqrt_width: Fraction,
        mu_lo: Fraction,
        mu_hi: Fraction,
        max_depth: int,
        leaf_count: int,
        tree: dict,
    ) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "depth_limit", depth_limit)
        object.__setattr__(self, "sqrt_width", sqrt_width)
        object.__setattr__(self, "mu_lo", mu_lo)
        object.__setattr__(self, "mu_hi", mu_hi)
        object.__setattr__(self, "max_depth", max_depth)
        object.__setattr__(self, "leaf_count", leaf_count)
        object.__setattr__(self, "tree", tree)

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


def _witnesses(**bounds: tuple[IntFraction, IntFraction]) -> dict[str, list[str]]:
    return {
        name: [str(Fraction(*lo)), str(Fraction(*hi))]
        for name, (lo, hi) in bounds.items()
    }


def _minus_quarter_quotient(
    c: IntFraction, p: int, q: int, a: IntFraction
) -> IntFraction:
    """c - (p/q)/(4a) for q > 0 and a < 0."""
    (cn, cd), (an, ad) = c, a
    den = -4 * q * an
    return cn * den + p * ad * cd, cd * den


def _leaf_rule(
    r: int, t0: int, lo: Fraction, hi: Fraction, sqrt_width: Fraction
) -> dict | None:
    """Try to close [lo, hi] with one sign rule; None if inconclusive.

    Every test is a sign test on an integer numerator over a positive
    denominator; witness strings are built only for a piece that closes.
    """
    bounds = q_coefficients(r, t0, lo, hi, sqrt_width)
    if bounds is None:
        return {
            "rule": "outside_strip",
            "witnesses": {"mu_sq": [str(lo * lo), str(hi * hi)]},
        }
    a, b, c = bounds
    (a_lo, a_hi), (b_lo, b_hi), (c_lo, c_hi) = bounds
    if c_hi[0] >= 0:
        return None
    if a_hi[0] <= 0 and b_hi[0] <= 0:
        return {"rule": "c_negative", "witnesses": _witnesses(a=a, b=b, c=c)}
    if a_hi[0] >= 0:
        return None
    # vertex = c - (b*b)/(4a) in interval arithmetic.  Here a < 0 and
    # hi(b) > 0, so hi(b*b) is the square of the end of b larger in size and
    # lo(b*b) is lo(b)^2 when b >= 0, else lo(b)*hi(b) < 0; dividing by the
    # negative 4a pairs hi(b*b) with hi(a), and lo(b*b) with lo(a) when it is
    # >= 0, else with hi(a).
    big = b_lo if b_lo[0] * b_hi[1] + b_hi[0] * b_lo[1] < 0 else b_hi
    vertex_hi = _minus_quarter_quotient(c_hi, big[0] ** 2, big[1] ** 2, a_hi)
    if vertex_hi[0] >= 0:
        return None
    if b_lo[0] >= 0:
        vertex_lo = _minus_quarter_quotient(c_lo, b_lo[0] ** 2, b_lo[1] ** 2, a_lo)
    else:
        vertex_lo = _minus_quarter_quotient(
            c_lo, b_lo[0] * b_hi[0], b_lo[1] * b_hi[1], a_hi
        )
    return {
        "rule": "vertex_negative",
        "witnesses": _witnesses(a=a, b=b, c=c, vertex=(vertex_lo, vertex_hi)),
    }


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


def _parse_rational(text: object) -> Fraction | None:
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


def _is_integer(value: object) -> bool:
    """A JSON integer (not a bool or float) of at most MAX_NUMBER_LENGTH digits."""
    return type(value) is int and abs(value) < _MAX_INTEGER


def audit_certificate(doc: object) -> tuple[bool, list[str]]:
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
    stack: list[tuple[object, Fraction, Fraction, int]] = [(doc["tree"], mu_lo, mu_hi, 0)]
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

    Both are decided exactly, as signs of a + b sqrt(r): (i) is
    (r - 6) - 3 sqrt(r) > 0, and (ii), multiplied through by
    (r + 1) sqrt(r) > 0, is -9(r + 1) + (6r - 3) sqrt(r) > 0.
    """
    if r < 1:
        raise UnsupportedR(f"need r >= 1, got {r}")
    first = _field_sign(r - 6, -3, r) > 0
    second = _field_sign(-9 * (r + 1), 6 * r - 3, r) > 0
    return first, second


def verify_large_r(r: int) -> bool:
    """True when both large-r inequalities hold (r >= 20 in practice)."""
    return all(large_r_inequalities(r))
