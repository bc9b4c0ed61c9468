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

Every endpoint of the bisection is an integer pair in lowest terms, not a
Fraction (_midpoint), and gets one record, computed once: mu as that pair,
mu^2 clamped as a lower and as an upper end, and the matching ends of the
square-root bracket.  A piece reads its box from the records of its two
ends, so a split computes only the record of its midpoint.

Every sign is decided on an unreduced integer numerator over a positive
denominator, hi(c) first, so a piece that does not close reduces nothing.
A piece that closes reduces each bound of a, b and c once, by one gcd per
end; a vertex leaf computes its vertex bounds from the reduced a, b and c
and reduces those once.  The reduced bounds are written into the tree as
the leaf's witnesses.  Two factors known in advance are cancelled where the
bounds are built, so that the products, sign tests and gcds after them run
on smaller integers: the bracket's denominator (2^e at a width 2^-e) from
b and c wherever it divides mu's denominator, or in b its square, which it
does at nearly every end of a dyadic bisection; and a's denominator from
the vertex bound wherever it divides the square of b's.  Dividing a
numerator and its positive denominator by one positive integer keeps the
sign, and lowest terms are unique, so no rule and no witness text depends
on either cancellation.

The result is a machine-checkable certificate tree; audit_certificate
replays it from scratch, carrying endpoint records down its walk as the
bisection does.  It parses each split to an integer pair and quotes each
endpoint by the text it carries, so it builds no Fraction below the header.

verify_large_r decides the two closed-form inequalities that take over for
large r, where the t0 = 3 certificate is a single leaf.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
# an open piece at r = 10 (t0 = 2 never closes there) reaches 2000 levels
# in about 0.11 s (CPython 3.11, 2 vCPUs).
MAX_DEPTH_LIMIT = 2000

CERTIFICATE_KIND = "q_negativity_certificate"

# Longest numeral an audit reads, in decimal digits; keeps every number it
# parses or prints below the interpreter's 4300-digit conversion limit.
MAX_NUMBER_LENGTH = 4096
_MAX_INTEGER = 10**MAX_NUMBER_LENGTH


IntFraction = tuple[int, int]  # (numerator, denominator > 0), not reduced
Bound = tuple[IntFraction, IntFraction]  # (lo, hi) of one coefficient
# One end of a piece as that piece sees it: mu = n/d in lowest terms, the
# bound of mu^2 clamped to [r, r+1], and the matching end of the bracket of
# sqrt(mu^2 - r).  The bracket end is None where every piece with this end
# misses the strip.
End = tuple[int, int, IntFraction, IntFraction | None]


def _lower_end(r: int, n: int, d: int, sqrt_width: Fraction) -> End:
    """mu = n/d as the lower end of a piece: lo(mu^2) = max(mu^2, r), and the
    low end of the bracket of sqrt(lo(mu^2) - r), None when lo(mu^2) > r + 1."""
    nn, dd = n * n, d * d
    if nn <= r * dd:
        return n, d, (r, 1), (0, 1)  # sqrt_bracket's own pair for sqrt(0)
    if nn > (r + 1) * dd:
        return n, d, (nn, dd), None
    return n, d, (nn, dd), sqrt_bracket(nn - r * dd, dd, sqrt_width)[0]


def _upper_end(r: int, n: int, d: int, sqrt_width: Fraction) -> End:
    """mu = n/d as the upper end of a piece: hi(mu^2) = min(mu^2, r + 1), and
    the high end of the bracket of sqrt(hi(mu^2) - r), None when hi(mu^2) < r."""
    nn, dd = n * n, d * d
    if nn >= (r + 1) * dd:
        return n, d, (r + 1, 1), (1, 1)  # sqrt_bracket's own pair for sqrt(1)
    if nn < r * dd:
        return n, d, (nn, dd), None
    return n, d, (nn, dd), sqrt_bracket(nn - r * dd, dd, sqrt_width)[1]


def _endpoint(r: int, n: int, d: int, sqrt_width: Fraction) -> tuple[End, End]:
    """The record of a bisection endpoint mu = n/d in lowest terms: mu as a
    lower and as an upper end.  Computed once, it serves every piece that
    ends at mu.

    Strictly inside the strip both ends bracket the same sqrt(mu^2 - r), so
    it is bracketed once and each end takes its side.  On the strip's edges
    and outside it one end at most needs a bracket (_lower_end,
    _upper_end).
    """
    nn, dd = n * n, d * d
    if r * dd < nn < (r + 1) * dd:
        mu_sq = nn, dd
        s_lo, s_hi = sqrt_bracket(nn - r * dd, dd, sqrt_width)
        return (n, d, mu_sq, s_lo), (n, d, mu_sq, s_hi)
    return _lower_end(r, n, d, sqrt_width), _upper_end(r, n, d, sqrt_width)


def _midpoint(lo: End, hi: End) -> IntFraction:
    """The mean of the mu of two ends, in lowest terms: over 2*ld*hd/g with
    g = gcd(ld, hd), the numerator shares at most a factor of 2g, as in
    Fraction's sum (3 times faster at 2000 levels than one gcd of the
    unreduced pair, which is twice as long)."""
    ln, ld, hn, hd = lo[0], lo[1], hi[0], hi[1]
    g = gcd(ld, hd)
    s = ld // g
    n = ln * (hd // g) + hn * s
    h = gcd(n, 2 * g)
    return n // h, 2 * s * hd // h


def q_coefficients(
    r: int, t: int, mu_lo: Fraction, mu_hi: Fraction, sqrt_width: Fraction
) -> tuple[Bound, Bound, Bound] | None:
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

    Every lo(...) of the box comes from mu_lo and every hi(...) from mu_hi,
    so the box is read from two ends (_lower_end of mu_lo's integer pair,
    _upper_end of mu_hi's).  The bisection keeps one record per endpoint
    (_endpoint) and reads each piece's box from the records of its two
    ends; this function builds the two ends it needs and takes the same
    route.

    Each bound is an integer pair (numerator, positive denominator), not in
    lowest terms: the leaf rule decides signs from numerators and reduces
    only the witnesses of the pieces it closes.
    """
    return _bounds(
        r,
        t,
        _lower_end(r, mu_lo.numerator, mu_lo.denominator, sqrt_width),
        _upper_end(r, mu_hi.numerator, mu_hi.denominator, sqrt_width),
    )


def _bounds(r: int, t: int, lo: End, hi: End) -> tuple[Bound, Bound, Bound] | None:
    """q_coefficients on the piece from the lower end lo to the upper end hi."""
    ln, ld, sq_lo, s_lo = lo
    hn, hd, sq_hi, s_hi = hi
    # in the strip both bracket ends exist: s_lo is None only when
    # lo(mu^2) > r + 1 >= hi(mu^2), and s_hi only when hi(mu^2) < r <= lo(mu^2)
    if sq_lo[0] * sq_hi[1] > sq_hi[0] * sq_lo[1]:
        return None
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
    # mu_sq and mu come from the same end; qd > 1 means mu_sq = mn^2/md^2
    # unclamped, so mn divides the numerator and the denominator and is
    # cancelled, which shrinks the gcd of a closing piece's witness
    if qd != 1:
        # the bracket's denominator (2^e at a width 2^-e) divides qd = md^2
        # at nearly every dyadic end, and is cancelled as well
        k, rest = divmod(qd, sd)
        if not rest:
            return 2 * r * t * sn * k + r * (3 * md - mn) * mn, qn
        return 2 * r * t * sn * qd + r * (3 * md - mn) * sd * mn, sd * qn
    return 2 * r * t * sn * qd * mn + r * (3 * md - mn) * sd * qn, sd * qn * mn


def _c_at(
    r: int, t: int, mu_sq: IntFraction, s: IntFraction, mu: IntFraction
) -> IntFraction:
    (qn, qd), (sn, sd), (mn, md) = mu_sq, s, mu
    # s is the only term over sd; where sd divides md it is cancelled from
    # the numerator and the denominator alike
    k, rest = divmod(md, sd)
    if not rest:
        den = qn * mn
        return -r * t * t * qd * mn + 3 * t * sn * k * qn + (6 - t) * den, den
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
    m_bar_0(sqrt(r)) is the cap 4rM - 25r <= 12M sqrt(r).  No command calls
    this; it is the independent test oracle of total_multiplicity_bound
    (test_bound_matches_m_bar_zero_floor in tests/test_search.py).
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


def _lowest(bound: Bound) -> Bound:
    """A bound (lo, hi) in lowest terms, one gcd per end."""
    (ln, ld), (hn, hd) = bound
    g, h = gcd(ln, ld), gcd(hn, hd)
    return (ln // g, ld // g), (hn // h, hd // h)


def _text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for n/d in lowest terms with d > 0."""
    return str(n) if d == 1 else f"{n}/{d}"


def _witnesses(**bounds: Bound) -> dict[str, list[str]]:
    """The witness strings of bounds already in lowest terms."""
    return {name: [_text(*lo), _text(*hi)] for name, (lo, hi) in bounds.items()}


def _minus_quarter_quotient(
    c: IntFraction, p: int, q: int, a: IntFraction
) -> IntFraction:
    """c - (p/q)/(4a) for q > 0 and a < 0."""
    (cn, cd), (an, ad) = c, a
    # (p/q)/(4a) = p*ad/(4*q*an), and q is the square of b's denominator,
    # which shares mu^2's numerator with a's: where ad divides q it cancels
    k, rest = divmod(q, ad)
    if not rest:
        den = -4 * k * an
        return cn * den + p * cd, cd * den
    den = -4 * q * an
    return cn * den + p * ad * cd, cd * den


def _vertex_hi(a: Bound, b: Bound, c: Bound) -> IntFraction:
    """hi(c - (b*b)/(4a)) in interval arithmetic, for hi(a) < 0 and
    hi(b) > 0.  hi(b*b) is the square of the end of b larger in size, and
    dividing by the negative 4a pairs it with hi(a)."""
    b_lo, b_hi = b
    big = b_lo if b_lo[0] * b_hi[1] + b_hi[0] * b_lo[1] < 0 else b_hi
    return _minus_quarter_quotient(c[1], big[0] ** 2, big[1] ** 2, a[1])


def _vertex_lo(a: Bound, b: Bound, c: Bound) -> IntFraction:
    """lo(c - (b*b)/(4a)), as _vertex_hi.  lo(b*b) is lo(b)^2 when b >= 0,
    else lo(b)*hi(b) < 0; dividing by 4a pairs it with lo(a) when it is
    >= 0, else with hi(a)."""
    b_lo, b_hi = b
    if b_lo[0] >= 0:
        return _minus_quarter_quotient(c[0], b_lo[0] ** 2, b_lo[1] ** 2, a[0])
    return _minus_quarter_quotient(c[0], b_lo[0] * b_hi[0], b_lo[1] * b_hi[1], a[1])


def _close(r: int, t0: int, lo: End, hi: End) -> dict | None:
    """The leaf rule on the piece from the lower end lo to the upper end hi.

    Every test is a sign test on an integer numerator over a positive
    denominator, made on the unreduced bounds, so a piece that does not
    close reduces nothing.  A piece that closes reduces each of its a, b
    and c bounds once; a vertex leaf then computes its vertex bounds from
    the reduced a, b and c, which are smaller, and reduces those once.
    """
    bounds = _bounds(r, t0, lo, hi)
    if bounds is None:
        # mu = n/d is in lowest terms, and so is n^2/d^2
        (ln, ld), (hn, hd) = lo[:2], hi[:2]
        return {
            "rule": "outside_strip",
            "witnesses": {"mu_sq": [_text(ln * ln, ld * ld), _text(hn * hn, hd * hd)]},
        }
    a, b, c = bounds
    if c[1][0] >= 0:
        return None
    if a[1][0] <= 0 and b[1][0] <= 0:
        a, b, c = map(_lowest, bounds)
        return {"rule": "c_negative", "witnesses": _witnesses(a=a, b=b, c=c)}
    if a[1][0] >= 0 or _vertex_hi(a, b, c)[0] >= 0:
        return None
    a, b, c = map(_lowest, bounds)
    vertex = _lowest((_vertex_lo(a, b, c), _vertex_hi(a, b, c)))
    return {
        "rule": "vertex_negative",
        "witnesses": _witnesses(a=a, b=b, c=c, vertex=vertex),
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
    # explicit stack, left piece on top: the pieces are visited in pre-order.
    # Each carries the records of its two ends, so a split computes only the
    # record and the text of its midpoint.
    stack = [(
        tree,
        _endpoint(r, root_lo.numerator, root_lo.denominator, sqrt_width),
        _endpoint(r, root_hi.numerator, root_hi.denominator, sqrt_width),
        0,
    )]
    while stack:
        node, lo, hi, depth = stack.pop()
        leaf = _close(r, t0, lo[0], hi[1])  # lo as a lower end, hi as an upper
        if leaf is not None:
            node.update(leaf)
            max_depth = max(max_depth, depth)
            leaf_count += 1
            continue
        if depth >= depth_limit:
            raise DepthLimitExceeded(
                f"piece [{node['mu_lo']}, {node['mu_hi']}] still open at depth "
                f"{depth} (r={r}, t0={t0})"
            )
        n, d = _midpoint(lo[0], hi[1])
        mid = _endpoint(r, n, d, sqrt_width)
        text = _text(n, d)
        left = {"mu_lo": node["mu_lo"], "mu_hi": text}
        right = {"mu_lo": text, "mu_hi": node["mu_hi"]}
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


def _parse_rational(text: object) -> IntFraction | None:
    """The rational a certificate field spells, as an integer pair in lowest
    terms, or None.

    Only the canonical form that str(Fraction) writes is accepted: an
    optional minus sign, digits, and optionally a slash and a denominator,
    in lowest terms, at most MAX_NUMBER_LENGTH characters.  Each part must
    read back as str(int) writes it, which refuses any other sign, spaces,
    underscores, leading zeros and "-0"; decimal and exponent forms, which
    Fraction(str) would take, build no number.
    """
    if not isinstance(text, str) or len(text) > MAX_NUMBER_LENGTH:
        return None
    numerator, slash, denominator = text.partition("/")
    try:
        n, d = int(numerator), int(denominator) if slash else 1
    except ValueError:
        return None
    if str(n) != numerator or slash and (
        str(d) != denominator or d < 2 or gcd(n, d) != 1
    ):
        return None
    return n, d


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
    sqrt_width, mu_lo, mu_hi = (Fraction(*pair) for pair in rationals.values())
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
    # explicit stack, left child on top: nodes are checked in pre-order.
    # Each entry carries the records of its two ends (_endpoint), so a split
    # computes only the record of its midpoint, and the endpoint texts its
    # parent fixed, canonical since they were parsed; a node that repeats
    # them needs no parse of its own, and every message quotes them.
    stack: list[tuple[object, tuple, tuple, str, str, int]] = [(
        doc["tree"],
        _endpoint(r, *rationals["mu_lo"], sqrt_width),
        _endpoint(r, *rationals["mu_hi"], sqrt_width),
        doc["mu_lo"], doc["mu_hi"], 0,
    )]
    while stack:
        node, lo_end, hi_end, lo, hi, depth = stack.pop()
        if not isinstance(node, dict):
            fail(f"non-record node at [{lo}, {hi}]")
            continue
        node_lo, node_hi = node.get("mu_lo"), node.get("mu_hi")
        if node_lo != lo or node_hi != hi:
            # canonical texts that differ name different values
            if _parse_rational(node_lo) is None or _parse_rational(node_hi) is None:
                fail(f"node at [{lo}, {hi}] lacks rational endpoints")
            else:
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
            split = left.get("mu_hi") if isinstance(left, dict) else None
            pair = _parse_rational(split)
            if pair is None:
                fail(f"left child of [{lo}, {hi}] lacks an upper endpoint")
                continue
            # lo < split < hi, each a numerator over a positive denominator
            (n, d), (ln, ld), (hn, hd) = pair, lo_end[0][:2], hi_end[1][:2]
            if not (ln * d < n * ld and n * hd < hn * d):
                fail(f"split {split} outside ({lo}, {hi})")
                continue
            mid = _endpoint(r, n, d, sqrt_width)
            stack.append((kids[1], mid, hi_end, split, hi, depth + 1))
            stack.append((left, lo_end, mid, lo, split, depth + 1))
            continue
        leaves += 1
        deepest = max(deepest, depth)
        try:
            recomputed = _close(r, t0, lo_end[0], hi_end[1])
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

    They are the c_negative rule at t0 = 3 on the whole strip as one box:
    hi(a) = 0, hi(b) = 6 + 3 sqrt(r) - r < 0 is (i) and hi(c) =
    3 - 9r/(r+1) + 9/sqrt(r) < 0 is (ii).  So, up to enclosure rounding,
    verify_t_bound(r, 3) is one leaf exactly when both hold, which caps
    search.t_range at {1, 2} for r >= 20 (pinned in tests/test_region.py).
    (i) also puts the maximal M satisfying (**) past the enumeration bound
    in every degree d >= 5.  (i) holds from r = 20 on and fails at r = 19;
    the small-degree Deltas are checked one by one, not through (ii).

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
