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

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import DepthLimitExceeded, InvalidT0, UnsupportedR
from .exact import (
    DEFAULT_SQRT_WIDTH,
    QuadraticNumber,
    RationalInterval,
    RationalLike,
    Var,
    interval_eval,
    sqrt_enclosure,
    _as_fraction,
)

DEFAULT_DEPTH_LIMIT = 40

CERTIFICATE_KIND = "q_negativity_certificate"


@dataclass(frozen=True)
class QEvaluation:
    """Interval enclosures of the three coefficients of Q at fixed (r, t)."""

    r: int
    t: Fraction
    a: RationalInterval
    b: RationalInterval
    c: RationalInterval


def _coefficients(
    r: int,
    t: Fraction,
    mu: RationalInterval,
    mu_sq: RationalInterval,
    sqrt_width: RationalLike,
) -> QEvaluation:
    s = (mu_sq - r).sqrt(sqrt_width)
    a = RationalInterval.point(r * r) / mu_sq - r
    b = (2 * r * t) * s / mu_sq + RationalInterval.point(3 * r) / mu - r
    c = (
        RationalInterval.point(-r * t * t) / mu_sq
        + (3 * t) * s / mu
        - t
        + 6
    )
    return QEvaluation(r, t, a, b, c)


def q_coefficients(
    r: int,
    t: RationalLike,
    mu: RationalInterval,
    sqrt_width: RationalLike = DEFAULT_SQRT_WIDTH,
    clamp_to_strip: bool = False,
) -> QEvaluation:
    """Enclose a, b, c over the mu-interval; needs lo(mu) > 0.

    With clamp_to_strip the square mu^2 is intersected with [r, r+1] first,
    which is sound for enclosures over mu restricted to the strip and keeps
    hi(a) from leaking above 0 at the left edge.  Raises ValueError when the
    intersection is empty (the interval misses the strip entirely).
    """
    t = _as_fraction(t)
    mu_sq = mu * mu
    if clamp_to_strip:
        clamped = mu_sq.intersect(RationalInterval(r, r + 1))
        if clamped is None:
            raise ValueError(f"mu interval {mu} does not meet the strip at r={r}")
        mu_sq = clamped
    return _coefficients(r, t, mu, mu_sq, sqrt_width)


def q_value(
    m_bar: RationalLike,
    t: RationalLike,
    r: int,
    mu: RationalInterval,
    sqrt_width: RationalLike = DEFAULT_SQRT_WIDTH,
) -> RationalInterval:
    """Enclosure of Q(m_bar, t) over the mu-interval (no strip clamping)."""
    m_bar = _as_fraction(m_bar)
    ev = q_coefficients(r, t, mu, sqrt_width)
    return (ev.a * m_bar + ev.b) * m_bar + ev.c


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


def discriminant_t(
    m_bar: RationalLike,
    r: int,
    mu: RationalInterval,
    sqrt_width: RationalLike = DEFAULT_SQRT_WIDTH,
) -> RationalInterval:
    """Enclosure of the t-discriminant of Q at fixed m_bar:

        D(m_bar) = (1/mu^2) (-(4r^2 - 12 r mu + 4 r sqrt(mu^2 - r)) m_bar
                             + 15 r + 10 mu^2 - 6 mu sqrt(mu^2 - r)).

    Q(m_bar, .) admits a real root in t exactly when D(m_bar) >= 0, so the
    sign of D governs whether any multiplicity can be obstructed at this
    m_bar.  Evaluated through the expression AST as a second, structurally
    distinct route to the same numbers used by the coefficient functions.
    """
    m_bar = _as_fraction(m_bar)
    x = Var("mu")
    s = (x * x - r).sqrt()
    numerator = (
        -(4 * r * r - (12 * r) * x + (4 * r) * s) * m_bar
        + (15 * r + 10 * x * x - 6 * x * s)
    )
    return interval_eval(numerator / (x * x), {"mu": mu}, sqrt_width)


def m_bar_zero(
    r: int,
    mu: RationalInterval,
    sqrt_width: RationalLike = DEFAULT_SQRT_WIDTH,
) -> RationalInterval:
    """Enclosure of the zero of the t-discriminant in m_bar:

        m_bar_0(mu) = (15 r + 10 mu^2 - 6 mu sqrt(mu^2 - r))
                      / (4 r^2 - 12 r mu + 4 r sqrt(mu^2 - r)).

    Mean multiplicities above m_bar_0 admit no obstructed t at all.  The
    denominator enclosure must exclude zero (true on the strip for r >= 10);
    DivisionByZeroInterval propagates otherwise.
    """
    x = Var("mu")
    s = (x * x - r).sqrt()
    numerator = 15 * r + 10 * x * x - 6 * x * s
    denominator = 4 * r * r - (12 * r) * x + (4 * r) * s
    return interval_eval(numerator / denominator, {"mu": mu}, sqrt_width)


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
    ev = _coefficients(r, Fraction(t0), mu, mu_sq, sqrt_width)
    witnesses = {
        "a": _interval_strings(ev.a),
        "b": _interval_strings(ev.b),
        "c": _interval_strings(ev.c),
    }
    if ev.c.hi >= 0:
        return None
    if ev.a.hi <= 0 and ev.b.hi <= 0:
        return {"rule": "c_negative", "witnesses": witnesses}
    if ev.a.hi < 0:
        vertex = ev.c - (ev.b * ev.b) / (ev.a * 4)
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
    """
    if r < 10:
        raise UnsupportedR(f"need r >= 10, got {r}")
    if t0 < 2:
        raise InvalidT0(f"need t0 >= 2, got {t0}")
    if depth_limit < 1:
        raise ValueError(f"need depth_limit >= 1, got {depth_limit}")
    sqrt_width = _as_fraction(sqrt_width)
    root_lo = sqrt_enclosure(r, sqrt_width).lo
    root_hi = sqrt_enclosure(r + 1, sqrt_width).hi

    def certify(lo: Fraction, hi: Fraction, depth: int) -> tuple[dict, int, int]:
        node: dict = {"mu_lo": str(lo), "mu_hi": str(hi)}
        leaf = _leaf_rule(r, t0, lo, hi, sqrt_width)
        if leaf is not None:
            node.update(leaf)
            return node, depth, 1
        if depth >= depth_limit:
            raise DepthLimitExceeded(
                f"piece [{lo}, {hi}] still open at depth {depth} (r={r}, t0={t0})"
            )
        mid = (lo + hi) / 2
        left, left_depth, left_leaves = certify(lo, mid, depth + 1)
        right, right_depth, right_leaves = certify(mid, hi, depth + 1)
        node["children"] = [left, right]
        return node, max(left_depth, right_depth), left_leaves + right_leaves

    tree, max_depth, leaf_count = certify(root_lo, root_hi, 0)
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


def audit_certificate(doc: dict) -> tuple[bool, list[str]]:
    """Replay a certificate document from scratch.

    Checks the document shape, that the root interval covers the strip, that
    children partition their parent exactly, and that every leaf's rule
    really holds when its intervals are recomputed at the recorded
    sqrt_width (recorded witnesses must match the recomputation bit for
    bit).  Returns (ok, problems); problems lists every defect found.
    """
    problems: list[str] = []

    def fail(msg: str) -> None:
        problems.append(msg)

    for key in ("kind", "r", "t0", "sqrt_width", "mu_lo", "mu_hi", "tree"):
        if key not in doc:
            fail(f"missing top-level key {key!r}")
    if problems:
        return False, problems
    if doc["kind"] != CERTIFICATE_KIND:
        fail(f"unexpected kind {doc['kind']!r}")
        return False, problems
    try:
        r = int(doc["r"])
        t0 = int(doc["t0"])
        sqrt_width = Fraction(doc["sqrt_width"])
        mu_lo = Fraction(doc["mu_lo"])
        mu_hi = Fraction(doc["mu_hi"])
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        fail(f"malformed header field: {exc}")
        return False, problems
    if r < 10:
        fail(f"r = {r} out of range")
    if t0 < 2:
        fail(f"t0 = {t0} out of range")
    if sqrt_width <= 0:
        fail(f"sqrt_width = {sqrt_width} not positive")
    if mu_lo < 0 or mu_lo * mu_lo > r:
        fail(f"root lower end {mu_lo} does not sit at or below sqrt({r})")
    if mu_hi * mu_hi < r + 1:
        fail(f"root upper end {mu_hi} does not sit at or above sqrt({r + 1})")
    if problems:
        return False, problems

    leaves = 0
    deepest = 0

    def walk(node: Any, lo: Fraction, hi: Fraction, depth: int) -> None:
        nonlocal leaves, deepest
        if not isinstance(node, dict):
            fail(f"non-record node at [{lo}, {hi}]")
            return
        try:
            node_lo = Fraction(node["mu_lo"])
            node_hi = Fraction(node["mu_hi"])
        except (KeyError, ValueError, TypeError, ZeroDivisionError):
            fail(f"node at [{lo}, {hi}] lacks rational endpoints")
            return
        if node_lo != lo or node_hi != hi:
            fail(f"node claims [{node_lo}, {node_hi}], expected [{lo}, {hi}]")
            return
        if "children" in node:
            kids = node["children"]
            if not (isinstance(kids, list) and len(kids) == 2):
                fail(f"node at [{lo}, {hi}] must have exactly two children")
                return
            try:
                split = Fraction(kids[0]["mu_hi"])
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                fail(f"left child of [{lo}, {hi}] lacks an upper endpoint")
                return
            if not lo < split < hi:
                fail(f"split {split} outside ({lo}, {hi})")
                return
            walk(kids[0], lo, split, depth + 1)
            walk(kids[1], split, hi, depth + 1)
            return
        leaves += 1
        deepest = max(deepest, depth)
        recomputed = _leaf_rule(r, t0, lo, hi, sqrt_width)
        if recomputed is None:
            fail(f"leaf [{lo}, {hi}] does not close under any rule")
            return
        if node.get("rule") != recomputed["rule"]:
            fail(
                f"leaf [{lo}, {hi}] records rule {node.get('rule')!r}, "
                f"recomputation gives {recomputed['rule']!r}"
            )
            return
        if node.get("witnesses") != recomputed["witnesses"]:
            fail(f"leaf [{lo}, {hi}] witnesses do not match recomputation")

    walk(doc["tree"], mu_lo, mu_hi, 0)
    if not problems:
        if "leaf_count" in doc and doc["leaf_count"] != leaves:
            fail(f"leaf_count {doc['leaf_count']} != actual {leaves}")
        if "max_depth" in doc and doc["max_depth"] != deepest:
            fail(f"max_depth {doc['max_depth']} != actual {deepest}")
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
