"""Divisor classes on the blow-up of P^2 at r very general points.

Classes are written dH - sum(m_i E_i) against the line pull-back H and the
exceptional divisors E_i, with the intersection pairing H^2 = 1, E_i^2 = -1,
H.E_i = 0.  The points are very general, so nothing here depends on which
point carries which multiplicity: a CurveClass stores d and the run lengths
of its multiplicities, and every invariant sums over those runs.  The
uniform polarization is L(mu) = mu*H - (E_1 + ... + E_r).

The central computation is the weakly-submaximal locus of a class C with a
point of multiplicity t: the set of mu >= sqrt(r) where
(L(mu).C)/t <= sqrt(L(mu)^2) = sqrt(mu^2 - r).  After squaring (valid where
the degree side d*mu - M is nonnegative) this is controlled by the quadratic

    R(mu) = (d^2 - t^2) mu^2 - 2 d M mu + (M^2 + t^2 r) <= 0,

whose roots mu_± = (dM ± t sqrt(Delta))/(d^2 - t^2), Delta = M^2 - r(d^2-t^2),
are exact quadratic numbers.  R(sqrt(r)) = (d sqrt(r) - M)^2 >= 0, so the root
interval never straddles sqrt(r); it lies entirely on one side.  lower_root
builds Delta and mu_- for both the locus and the search's pair check;
mu_+ = 2dM/(d^2 - t^2) - mu_- follows by Vieta.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import comb

from .errors import ExceptionalClassUnsupported, InvalidT
from .exact import (
    Frozen,
    QuadraticLike,
    QuadraticNumber,
    compare,
    squarefree_decomposition,
)


class CurveClass(Frozen):
    """Class dH - sum(m_i E_i) at r points, stored as runs.

    runs holds (multiplicity, count) pairs with distinct, nonzero
    multiplicities in descending order and counts >= 1 summing to at most r;
    the remaining points have multiplicity 0.  Every invariant depends on d
    and on how many points carry each multiplicity, never on which points, so
    a class costs the same whatever r is.  Interior classes have d >= 1 and
    positive multiplicities.  The exceptional divisor is d = 0 with runs
    ((-1, 1),).
    """

    _fields = ("d", "runs", "r")
    # total_multiplicity is M = sum(m_i), derived from runs in __post_init__;
    # it is neither compared nor printed
    __slots__ = _fields + ("total_multiplicity",)

    def __init__(self, d: int, runs: tuple[tuple[int, int], ...], r: int) -> None:
        _CC_D(self, d)
        _CC_RUNS(self, runs)
        _CC_R(self, r)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"need r >= 1, got {self.r}")
        if self.d == 0:
            if self.runs != ((-1, 1),):
                raise ValueError("d = 0 encodes an exceptional divisor: runs ((-1, 1),)")
            _CC_TOTAL(self, -1)
            return
        if self.d < 0:
            raise ValueError(f"degree must be nonnegative, got {self.d}")
        placed = total = 0
        above = None
        for m, e in self.runs:
            if m < 1 or e < 1 or (above is not None and m >= above):
                raise ValueError(
                    "interior runs need distinct multiplicities >= 1 in "
                    f"descending order and counts >= 1, got {self.runs}"
                )
            placed += e
            total += m * e
            above = m
        if placed > self.r:
            raise ValueError(f"{placed} multiplicities exceed r={self.r}")
        _CC_TOTAL(self, total)

    @classmethod
    def from_multiplicities(cls, d: int, mults: Sequence[int]) -> CurveClass:
        """The class with multiplicity mults[i] at point i + 1; r = len(mults)."""
        return cls(d, _canonical_runs((m, 1) for m in mults), len(mults))

    @property
    def is_exceptional(self) -> bool:
        return self.d == 0

    @staticmethod
    def exceptional(r: int) -> CurveClass:
        return CurveClass(0, ((-1, 1),), r)

    def render(self) -> str:
        """Class syntax "(d;m1^e1,m2^e2,...)": multiplicities descending,
        exponents counting repetition, ^1 and zero entries omitted; "E1" for
        the exceptional divisor."""
        if self.d == 0:
            return "E1"
        runs = self.runs
        if len(runs) == 1:
            m, e = runs[0]
            return f"({self.d};{m}^{e})" if e > 1 else f"({self.d};{m})"
        groups = [f"{m}^{e}" if e > 1 else repr(m) for m, e in runs]
        return f"({self.d};{','.join(groups)})"

    def __str__(self) -> str:
        return self.render()


# Slot setters bound once: verify builds several classes per r, and a
# member descriptor's __set__ skips the name lookup of object.__setattr__.
_CC_D = CurveClass.d.__set__
_CC_RUNS = CurveClass.runs.__set__
_CC_R = CurveClass.r.__set__
_CC_TOTAL = CurveClass.total_multiplicity.__set__


def _canonical_runs(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Runs from (multiplicity, count) pairs: equal multiplicities merged,
    zero multiplicities and zero counts dropped, descending."""
    counts: dict[int, int] = {}
    for m, e in pairs:
        if m and e:
            counts[m] = counts.get(m, 0) + e
    return tuple(sorted(counts.items(), reverse=True))


_CLASS_RE = re.compile(r"^\(\s*(?P<d>\d+)\s*;(?P<mults>[^)]*)\)$")
_EXC_RE = re.compile(r"^E(?P<i>\d+)?$")


def parse_curve_class(text: str, r: int) -> CurveClass:
    """Inverse of CurveClass.render at r points.

    Also accepts "^1" exponents, explicit zero entries such as "(3;1^9,0)",
    the padded exceptional form "(0;-1)", and "E<i>" for 1 <= i <= r, which
    names the exceptional class like "E1" does.
    """
    s = text.strip()
    m = _EXC_RE.match(s)
    if m:
        if m.group("i") and not 1 <= int(m.group("i")) <= r:
            raise ValueError(f"{s} is out of range for r={r}")
        return CurveClass.exceptional(r)
    m = _CLASS_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse curve class from {text!r}")
    entries: list[tuple[int, int]] = []
    body = m.group("mults").strip()
    if body:
        for part in body.split(","):
            base, _, exp = part.strip().partition("^")
            count = int(exp) if exp else 1
            if count < 0:
                raise ValueError(f"negative exponent in {text!r}")
            entries.append((int(base), count))
    placed = sum(e for _, e in entries)
    if placed > r:
        raise ValueError(f"{placed} multiplicities exceed r={r}")
    return CurveClass(int(m.group("d")), _canonical_runs(entries), r)


class MuInterval(Frozen):
    """Closed interval [lo, hi] of mu values; hi = None means [lo, inf)."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: QuadraticNumber, hi: QuadraticNumber | None) -> None:
        lo = QuadraticNumber._coerce(lo)
        if hi is not None:
            hi = QuadraticNumber._coerce(hi)
            if compare(lo, hi) > 0:
                raise ValueError(f"empty interval: {lo} > {hi}")
        _MI_LO(self, lo)
        _MI_HI(self, hi)

    def contains(self, mu: QuadraticLike) -> bool:
        return compare(mu, self.lo) >= 0 and (self.hi is None or compare(mu, self.hi) <= 0)

    def render(self) -> str:
        if self.hi is None:
            return f"[{self.lo.render()}, inf)"
        return f"[{self.lo.render()}, {self.hi.render()}]"

    def __str__(self) -> str:
        return self.render()


# Slot setters bound once, as for CurveClass.
_MI_LO = MuInterval.lo.__set__
_MI_HI = MuInterval.hi.__set__


def _require_interior(c: CurveClass) -> None:
    if c.is_exceptional:
        raise ExceptionalClassUnsupported(f"{c} is not an interior class")


def expected_dim(c: CurveClass) -> int:
    """max{C(d+2,2) - sum C(m_i+1,2) - 1, -1}."""
    _require_interior(c)
    edim = comb(c.d + 2, 2) - sum(e * comb(m + 1, 2) for m, e in c.runs) - 1
    return max(edim, -1)


def arithmetic_genus(c: CurveClass) -> int:
    """(d-1)(d-2)/2 - sum m_i(m_i-1)/2."""
    _require_interior(c)
    return (c.d - 1) * (c.d - 2) // 2 - sum(e * comb(m, 2) for m, e in c.runs)


def submaximality_quadratic(
    c: CurveClass, t: int, r: int, mu: QuadraticLike
) -> QuadraticNumber:
    """R(mu) = (d^2-t^2) mu^2 - 2dM mu + (M^2 + t^2 r).

    Nonpositivity of R certifies weak submaximality wherever d*mu - M >= 0.
    """
    if c.r != r:
        raise ValueError(f"class has r={c.r}, expected {r}")
    mu = QuadraticNumber._coerce(mu)
    d, m_total = c.d, c.total_multiplicity
    return (
        mu * mu * (d * d - t * t)
        - mu * (2 * d * m_total)
        + (m_total * m_total + t * t * r)
    )


def lower_root(c: CurveClass, t: int) -> tuple[int, QuadraticNumber | None]:
    """(Delta, mu_-) for an interior class and 1 <= t < d: Delta = M^2 -
    r(d^2 - t^2), and mu_- = (dM - t sqrt(Delta))/(d^2 - t^2), the lower root
    of R, or None when Delta < 0 and R has no real root.

    mu_- is built from one squarefree split Delta = f^2 * rad: it is
    dM/lead - (t f/lead) sqrt(rad) with lead = d^2 - t^2 > 0, already in
    canonical form when rad >= 2.  When rad <= 1 (Delta = 0 gives rad = 0,
    a perfect square gives rad = 1) sqrt(Delta) = f * rad and mu_- is the
    rational (dM - t f rad)/lead.
    """
    d, m_total = c.d, c.total_multiplicity
    if not 1 <= t < d:
        raise InvalidT(f"need 1 <= t < d = {d}, got t = {t}")
    lead = d * d - t * t
    delta = m_total * m_total - c.r * lead
    if delta < 0:
        return delta, None
    f, rad = squarefree_decomposition(delta)
    if rad <= 1:
        return delta, QuadraticNumber._coerce(Fraction(d * m_total - t * f * rad, lead))
    return delta, QuadraticNumber._canonical(
        Fraction(d * m_total, lead), Fraction(-t * f, lead), rad
    )


def submaximal_locus(c: CurveClass, t: int, r: int) -> list[MuInterval]:
    """Locus {mu >= sqrt(r)} cut out by R(mu) <= 0; endpoints are R's roots.

    Exceptional class: [sqrt(r+1), inf), with sqrt(r+1) built here from r.
    Interior: [mu_-, mu_+] clipped at sqrt(r), empty when
    Delta < 0 or the root interval sits below sqrt(r).  Endpoints attain
    equality, so intervals are closed (boundary points have rational
    sqrt(L^2)); restricting to the ample range is the caller's job.
    """
    if c.r != r:
        raise ValueError(f"class has r={c.r}, expected {r}")
    if c.is_exceptional:
        if t != 1:
            raise InvalidT(f"exceptional class needs t = 1, got {t}")
        return [MuInterval(QuadraticNumber.sqrt(r + 1), None)]
    _, mu_minus = lower_root(c, t)
    if mu_minus is None:
        return []
    # Vieta: mu_- + mu_+ = 2dM/(d^2 - t^2)
    d = c.d
    mu_plus = Fraction(2 * d * c.total_multiplicity, d * d - t * t) - mu_minus
    sqrt_r = QuadraticNumber.sqrt(r)
    if compare(mu_plus, sqrt_r) < 0:
        return []
    lo = mu_minus if compare(mu_minus, sqrt_r) >= 0 else sqrt_r
    return [MuInterval(lo, mu_plus)]
