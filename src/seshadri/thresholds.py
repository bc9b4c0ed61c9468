"""Rationality thresholds, the witness catalog, and classification.

For r >= 10 very general points the Seshadri function mu -> epsilon(mu) on
the ray L(mu) = mu*H - sum(E_i) is linear (hence rational) wherever some
curve class computes it.  The threshold mu_0(r) is the explicitly known
value above which a catalog of witness curves covers the whole ray: their
weakly-submaximal loci chain into [mu_0(r), inf) with no gap.  Below the
threshold, inside (sqrt(r), mu_0(r)), no witness is known; there epsilon(mu)
= sqrt(mu^2 - r) would follow from the standard submaximality conjecture,
and rationality of epsilon(mu) is equivalent to mu^2 - r being a square.

The catalog is small: the exceptional ray [sqrt(r+1), inf) exists for every
r, and a handful of curves and pencils close the remaining gap down to
mu_0(r) for r in {8, 9, 10, 11, 13}.  At r = 12 and for every r >= 14 the
exceptional ray alone suffices, since mu_0(r) = sqrt(r+1) there.  At r = 13
it does not: mu_0(13) = (26 - sqrt(13))/6 ~ 3.732 < sqrt(14), and the
pencil (4;1^13), t = 2 covers the difference.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import cmp_to_key
from math import isqrt

from .errors import NotAboveSqrtR, UnsupportedR
from .exact import (
    Frozen,
    QuadraticNumber,
    RationalLike,
    _as_fraction,
    _field_sign,
    compare,
)
from .surface import CurveClass, MuInterval, submaximal_locus


class ThresholdEntry(Frozen):
    """Threshold mu_0(r) at r points."""

    __slots__ = _fields = ("r", "mu0")

    def __init__(self, r: int, mu0: QuadraticNumber) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mu0", mu0)
        self.__post_init__()

    def __post_init__(self) -> None:
        mu0 = QuadraticNumber._coerce(self.mu0)
        object.__setattr__(self, "mu0", mu0)
        # With D = den(a)*den(b), D*mu0 = A + B*sqrt(n) for integers A, B, and
        # D^2*(mu0^2 - r) = (A^2 + B^2*n - r*D^2) + 2AB*sqrt(n): both signs
        # are one-field tests in integers, with no Fraction squaring.
        a, b, n = mu0.a, mu0.b, mu0.rad
        d = a.denominator * b.denominator
        big_a = a.numerator * b.denominator
        big_b = b.numerator * a.denominator
        if (
            _field_sign(big_a, big_b, n) <= 0
            or _field_sign(big_a * big_a + big_b * big_b * n - self.r * d * d,
                           2 * big_a * big_b, n) < 0
        ):
            raise ValueError(f"mu0 = {mu0} sits below sqrt({self.r})")


# mu_0(r) at the r >= 10 where it is not sqrt(r + 1).
_TABLED_MU0 = {
    10: QuadraticNumber.from_rational(Fraction(77, 24)),
    11: QuadraticNumber(Fraction(4), Fraction(-1, 3), 3),
    13: QuadraticNumber(Fraction(13, 3), Fraction(-1, 6), 13),
}


def _mu0(r: int, sqrt_r_plus_1: QuadraticNumber) -> QuadraticNumber:
    """mu_0(r) for r >= 10, the one statement of the rule: the table entry
    at r = 10, 11 and 13, else sqrt(r + 1), which the caller has built."""
    return _TABLED_MU0.get(r, sqrt_r_plus_1)


def threshold(r: int) -> ThresholdEntry:
    """mu_0(r): 77/24, 4 - sqrt(3)/3, sqrt(13), (26 - sqrt(13))/6 for
    r = 10..13, and sqrt(r+1) from r = 14 on.

    sqrt(r + 1) is built here, from r; classify and verify_coverage build it
    once themselves, for mu_0 and the exceptional ray together.
    """
    if r < 10:
        raise UnsupportedR(f"thresholds start at r = 10, got {r}")
    return ThresholdEntry(r, _mu0(r, QuadraticNumber.sqrt(r + 1)))


class CatalogCurve(Frozen):
    """A witness curve: its class, the multiplicity t it is used with, and a
    plain-language description of the geometry."""

    __slots__ = _fields = ("r", "curve", "t", "source")

    def __init__(self, r: int, curve: CurveClass, t: int, source: str) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "source", source)


# The interior witness curves, in ascending degree: the point counts r each
# serves, then its degree, runs, multiplicity t and description.
_INTERIOR_WITNESSES = (
    ((9, 10), 3, ((1, 9),), 1, "cubic through nine of the points"),
    ((11,), 4, ((2, 1), (1, 10)), 2, "pencil of quartics with one double point"),
    ((13,), 4, ((1, 13),), 2, "pencil of quartics through all thirteen points"),
    ((8,), 6, ((3, 1), (2, 7)), 1, "sextic with one triple point and seven double points"),
    ((10,), 10, ((4, 1), (3, 9)), 2,
     "pencil of decics with one quadruple point and nine triple points"),
)


def catalog(r: int) -> list[CatalogCurve]:
    """Witness curves at r, exceptional ray first, then by ascending degree.

    Every entry has a nonempty weakly-submaximal locus; for r <= 7 only the
    exceptional ray is cataloged.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    entries = [
        CatalogCurve(
            r, CurveClass.exceptional(r), 1, "exceptional divisor of one blown-up point"
        )
    ]
    for points, d, runs, t, source in _INTERIOR_WITNESSES:
        if r in points:
            entries.append(CatalogCurve(r, CurveClass(d, runs, r), t, source))
    return entries


class CoverageReport(Frozen):
    """Result of chaining the catalog loci against the target ray."""

    __slots__ = _fields = (
        "r", "target_lo", "target_lo_closed", "chain", "gaps", "covered",
    )

    def __init__(
        self,
        r: int,
        target_lo: QuadraticNumber,
        target_lo_closed: bool,
        chain: tuple[tuple[CatalogCurve, MuInterval], ...],
        gaps: tuple[tuple[QuadraticNumber, QuadraticNumber], ...],
        covered: bool,
    ) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "target_lo", target_lo)
        object.__setattr__(self, "target_lo_closed", target_lo_closed)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "covered", covered)

    def to_json_dict(self) -> dict:
        left = "[" if self.target_lo_closed else "("
        return {
            "r": self.r,
            "target": f"{left}{self.target_lo.render()}, inf)",
            "covered": self.covered,
            "chain": [
                {"class": str(cc.curve), "t": cc.t, "locus": iv.render()}
                for cc, iv in self.chain
            ],
            "gaps": [[lo.render(), hi.render()] for lo, hi in self.gaps],
        }


def _coverage_target(
    r: int, sqrt_r_plus_1: QuadraticNumber
) -> tuple[QuadraticNumber, bool]:
    """Ray the catalog is expected to cover at this r.

    r >= 10: [mu_0(r), inf).  r = 9: the ample range (3, inf).  r = 8: the
    ample range (17/6, inf).  r <= 7: only the exceptional ray
    [sqrt(r+1), inf) is claimed.
    """
    if r >= 10:
        return _mu0(r, sqrt_r_plus_1), True
    if r == 9:
        return QuadraticNumber.from_rational(3), False
    if r == 8:
        return QuadraticNumber.from_rational(Fraction(17, 6)), False
    return sqrt_r_plus_1, True


def _catalog_loci(
    r: int, sqrt_r_plus_1: QuadraticNumber
) -> list[tuple[CatalogCurve, MuInterval]]:
    """Each catalog curve at r with each interval of its locus, in catalog
    order. The exceptional ray is [sqrt(r+1), inf), from the caller's
    sqrt_r_plus_1; the interior loci come from submaximal_locus."""
    loci = []
    for cc in catalog(r):
        if cc.curve.is_exceptional:
            loci.append((cc, MuInterval(sqrt_r_plus_1, None)))
        else:
            loci += [(cc, iv) for iv in submaximal_locus(cc.curve, cc.t, r)]
    return loci


def verify_coverage(r: int) -> CoverageReport:
    """Sweep the catalog loci left to right and report gaps.

    Starting from the target's left end, each locus must begin no later than
    the point already reached; the sweep succeeds when some locus is
    unbounded above and no gap was recorded.  All loci are closed, so
    touching endpoints chain.  sqrt(r + 1) is built once, for the target and
    the exceptional ray.
    """
    sqrt_r_plus_1 = QuadraticNumber.sqrt(r + 1)
    target_lo, target_closed = _coverage_target(r, sqrt_r_plus_1)
    loci = _catalog_loci(r, sqrt_r_plus_1)
    loci.sort(key=cmp_to_key(lambda p, q: compare(p[1].lo, q[1].lo)))
    reach = target_lo
    unbounded = False
    gaps: list[tuple[QuadraticNumber, QuadraticNumber]] = []
    for _, iv in loci:
        if unbounded:
            break
        if compare(iv.lo, reach) > 0:
            gaps.append((reach, iv.lo))
        if iv.hi is None:
            unbounded = True
        elif compare(iv.hi, reach) > 0:
            reach = iv.hi
    return CoverageReport(
        r=r,
        target_lo=target_lo,
        target_lo_closed=target_closed,
        chain=tuple(loci),
        gaps=tuple(gaps),
        covered=unbounded and not gaps,
    )


class RationalityVerdict(enum.Enum):
    RATIONAL_WITH_WITNESS = "RationalWithWitness"
    RATIONAL_SQRT = "RationalSqrt"
    CONDITIONALLY_IRRATIONAL = "ConditionallyIrrational"


class Classification(Frozen):
    """Rationality status of epsilon(mu) at one rational mu > sqrt(r)."""

    __slots__ = _fields = (
        "r", "mu", "verdict", "witness", "witness_locus", "mu0", "mu_below_mu0",
        "l_squared", "l_squared_is_rational_square", "conditional_on_conjecture",
    )

    def __init__(
        self,
        r: int,
        mu: Fraction,
        verdict: RationalityVerdict,
        witness: CatalogCurve | None,
        witness_locus: MuInterval | None,
        mu0: QuadraticNumber,
        mu_below_mu0: bool,
        l_squared: Fraction,
        l_squared_is_rational_square: bool,
        conditional_on_conjecture: bool,
    ) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "witness_locus", witness_locus)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "mu_below_mu0", mu_below_mu0)
        object.__setattr__(self, "l_squared", l_squared)
        object.__setattr__(
            self, "l_squared_is_rational_square", l_squared_is_rational_square
        )
        object.__setattr__(self, "conditional_on_conjecture", conditional_on_conjecture)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "mu": str(self.mu),
            "verdict": self.verdict.value,
            "witness": (
                None
                if self.witness is None
                else {
                    "class": str(self.witness.curve),
                    "t": self.witness.t,
                    "locus": self.witness_locus.render()
                    if self.witness_locus is not None
                    else None,
                    "source": self.witness.source,
                }
            ),
            "mu0": self.mu0.render(),
            "mu_below_mu0": self.mu_below_mu0,
            "l_squared": str(self.l_squared),
            "l_squared_is_rational_square": self.l_squared_is_rational_square,
            "conditional_on_conjecture": self.conditional_on_conjecture,
        }


def _is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    num, den = x.numerator, x.denominator
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


def classify(r: int, mu: RationalLike) -> Classification:
    """Classify rationality of epsilon(mu) at rational mu.

    Above the threshold a catalog curve whose locus contains mu witnesses
    rationality outright (interior curves in ascending degree are preferred
    over the exceptional ray when several apply).  Below the threshold the
    verdict rides on the submaximality conjecture: epsilon(mu) would equal
    sqrt(mu^2 - r), rational exactly when mu^2 - r is a rational square.
    sqrt(r + 1) is built once, for the threshold and the exceptional ray.
    """
    if r < 10:
        raise UnsupportedR(f"classification starts at r = 10, got {r}")
    mu = _as_fraction(mu)
    l_squared = mu * mu - r
    if mu <= 0 or l_squared <= 0:
        raise NotAboveSqrtR(f"need mu > sqrt({r}), got {mu}")
    sqrt_r_plus_1 = QuadraticNumber.sqrt(r + 1)
    mu0 = _mu0(r, sqrt_r_plus_1)
    below = compare(mu, mu0) < 0
    square = _is_rational_square(l_squared)
    if below:
        witness = witness_locus = None
        verdict = (
            RationalityVerdict.RATIONAL_SQRT
            if square
            else RationalityVerdict.CONDITIONALLY_IRRATIONAL
        )
    else:
        loci = sorted(
            _catalog_loci(r, sqrt_r_plus_1),
            key=lambda p: (p[0].curve.is_exceptional, p[0].curve.d),
        )
        for witness, witness_locus in loci:
            if witness_locus.contains(mu):
                break
        else:
            raise RuntimeError(
                f"coverage invariant violated: no witness at r={r}, mu={mu}"
            )
        verdict = RationalityVerdict.RATIONAL_WITH_WITNESS
    return Classification(
        r=r,
        mu=mu,
        verdict=verdict,
        witness=witness,
        witness_locus=witness_locus,
        mu0=mu0,
        mu_below_mu0=below,
        l_squared=l_squared,
        l_squared_is_rational_square=square,
        conditional_on_conjecture=verdict
        is RationalityVerdict.CONDITIONALLY_IRRATIONAL,
    )
