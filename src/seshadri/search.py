"""Enumeration of balanced critical pairs and the counterexample search.

A candidate counterexample to rationality of the Seshadri function on the
blow-up at r >= 10 very general points is a pair (C, t): an effective class
C = (d; m_1, ..., m_r) carrying a point of multiplicity t, weakly submaximal
for some mu in [sqrt(r), sqrt(r+1)).  Two reductions cut the search space to
finitely many pairs:

* Balancing.  Replacing multiplicities (m_1, m_r) by (m_1 - 1, m_r + 1)
  (largest decremented, smallest incremented) preserves both the
  submaximality condition, which depends on C only through d and
  M = sum(m_i), and the expected-dimension condition (**) below, whose left
  side can only grow.  So only balanced classes (m^s, (m-1)^(r-s)) matter.

* Criticality.  For fixed (d, t) the relevant class maximizes M subject to

      (**)  C(d+2,2) - sum C(m_i+1,2) > max{C(t+1,2) - 2, 0},

  and the pair survives only if t is extremal too: either t = d - 1 or (**)
  fails with t replaced by t + 1.  Larger t values are capped by t_range,
  and M is capped by total_multiplicity_bound; both caps come from the
  geometry of the strip [sqrt(r), sqrt(r+1)).

On the balanced class of total M, with (m, s) = balanced_split(M, r), the
left side of (**) has the closed form

      C(d+2,2) - s*C(m+1,2) - (r-s)*C(m,2),

so the d-scan works on (d, M, r) alone and builds a class (two runs, see
balanced_class) only for each pair it keeps.  That left side strictly
decreases in M (one more unit on a smallest multiplicity m adds m + 1 >= 1
to sum C(m_i+1,2)) and, at fixed M, grows with d, so the maximal M at d + 1
is at least the one at d.  The scan over d therefore resumes the M-scan
where the previous d left it: for each t it costs O(d_max + B) evaluations
of (**), B = total_multiplicity_bound(r), rather than O(d_max * B).  Each
evaluation costs O(1), and d_max and B are bounded by the caps above, so
the search cost per r does not depend on r.

Each critical pair is then checked against a threshold mu_0: with
Delta = M^2 - r(d^2 - t^2), the pair is harmless when Delta < 0 (the class
is never submaximal on the strip) or when mu_- = (dM - t*sqrt(Delta))/(d^2
- t^2) >= mu_0, i.e. submaximality starts only above the threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb, isqrt

from .errors import ExceptionalClassUnsupported, InvalidT, UnsupportedR
from .exact import QuadraticLike, QuadraticNumber, _field_sign, compare
from .surface import CurveClass, lower_root
from . import thresholds as _thresholds


@dataclass(frozen=True)
class BalancedPair:
    """A balanced class (d; m^s, (m-1)^(r-s)), d >= 2 and M >= 1, with a
    marked multiplicity t; balanced_class builds the class."""

    curve: CurveClass
    t: int

    def __post_init__(self) -> None:
        c = self.curve
        if c.d < 2:
            raise ValueError(f"need d >= 2, got {c.d}")
        total = c.total_multiplicity
        if total < 1 or c.runs != _balanced_runs(total, c.r):
            raise ValueError(f"{c} is not a balanced class with M >= 1")
        if not 1 <= self.t < c.d:
            raise InvalidT(f"need 1 <= t < d = {c.d}, got t = {self.t}")

    @property
    def d(self) -> int:
        return self.curve.d

    @property
    def r(self) -> int:
        return self.curve.r

    @property
    def total_multiplicity(self) -> int:
        return self.curve.total_multiplicity

    def __str__(self) -> str:
        return f"({self.curve}, t={self.t})"


class Outcome(enum.Enum):
    PASS_NEGATIVE_DELTA = "PassNegativeDelta"
    PASS_MU_MINUS_ABOVE_THRESHOLD = "PassMuMinusAboveThreshold"
    COUNTEREXAMPLE = "Counterexample"


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one pair; mu_minus is present iff delta >= 0."""

    delta: int
    mu_minus: QuadraticNumber | None
    outcome: Outcome

    def __post_init__(self) -> None:
        if (self.delta >= 0) != (self.mu_minus is not None):
            raise ValueError("mu_minus must be present exactly when delta >= 0")

    @property
    def passed(self) -> bool:
        return self.outcome is not Outcome.COUNTEREXAMPLE


@dataclass(frozen=True)
class VerificationReport:
    r: int
    mu0: QuadraticNumber
    pairs: tuple[tuple[BalancedPair, Verdict], ...]

    @property
    def all_pass(self) -> bool:
        return all(v.passed for _, v in self.pairs)

    @property
    def counterexamples(self) -> tuple[tuple[BalancedPair, Verdict], ...]:
        return tuple((p, v) for p, v in self.pairs if not v.passed)


def balanced_split(total: int, r: int) -> tuple[int, int]:
    """The unique (m, s), 1 <= s <= r, with s*m + (r-s)*(m-1) = total.

    Multiplicities as equal as possible: m = floor((total-1)/r) + 1 and
    s = total - (m-1)*r.  Needs total >= 1.
    """
    if total < 1:
        raise ValueError(f"need total >= 1, got {total}")
    m = (total - 1) // r + 1
    s = total - (m - 1) * r
    return m, s


def _balanced_runs(total: int, r: int) -> tuple[tuple[int, int], ...]:
    m, s = balanced_split(total, r)
    if m == 1 or s == r:
        return ((m, s),)
    return ((m, s), (m - 1, r - s))


def balanced_class(d: int, total: int, r: int) -> CurveClass:
    """The balanced class (d; m^s, (m-1)^(r-s)) of total multiplicity total,
    with (m, s) = balanced_split(total, r): at most two runs, whatever r is."""
    return CurveClass(d, _balanced_runs(total, r), r)


def balancing_move(mults: tuple[int, ...]) -> tuple[int, ...]:
    """Decrement one largest multiplicity, increment one smallest.

    The move that drives any class to its balanced representative while
    preserving the total.  Needs max - min >= 2 to produce a genuinely
    different class; callers enforce that when it matters.
    """
    out = list(mults)
    out[out.index(max(out))] -= 1
    out[out.index(min(out))] += 1
    return tuple(sorted(out, reverse=True))


def _edim_lhs(c: CurveClass) -> int:
    return comb(c.d + 2, 2) - sum(e * comb(m + 1, 2) for m, e in c.runs)


def edim_condition(c: CurveClass, t: int) -> bool:
    """(**): C(d+2,2) - sum C(m_i+1,2) > max{C(t+1,2) - 2, 0}.

    Guarantees a curve in |C| with an ordinary point of multiplicity t can be
    found through the r general points.
    """
    if c.is_exceptional:
        raise ExceptionalClassUnsupported("(**) applies to interior classes only")
    if t < 1:
        raise InvalidT(f"need t >= 1, got {t}")
    return _edim_lhs(c) > max(comb(t + 1, 2) - 2, 0)


def t_range(r: int) -> frozenset[int]:
    """Multiplicities t worth searching at this r.

    The table is {1..5} at r = 10, {1..4} at r = 11, {1..3} at r = 12 and
    {1, 2} from r = 13 on.  It is not derived here.  For r = 10..19 it rests
    on the region certificates (region.verify_t_bound) at t0 = max + 1 that
    acceptance criterion 5 in tests/test_acceptance.py closes; for r >= 20
    it is still assumed (ROADMAP item 1).
    """
    if r < 10:
        raise UnsupportedR(f"need r >= 10, got {r}")
    if r == 10:
        return frozenset({1, 2, 3, 4, 5})
    if r == 11:
        return frozenset({1, 2, 3, 4})
    if r == 12:
        return frozenset({1, 2, 3})
    return frozenset({1, 2})


def total_multiplicity_bound(r: int) -> int:
    """Largest M compatible with submaximality somewhere on the strip.

    A weakly submaximal class on [sqrt(r), sqrt(r+1)) satisfies
    4rM - 25r <= 12M sqrt(r), so the bound is the largest M with that
    inequality, i.e. floor(25r / (4r - 12 sqrt(r))).  Decided exactly, as
    the sign of (25r - 4rM) + 12M sqrt(r) >= 0.
    """
    if r < 10:
        raise UnsupportedR(f"need r >= 10, got {r}")

    def holds(m_total: int) -> bool:
        return _field_sign(25 * r - 4 * r * m_total, 12 * m_total, r) >= 0

    m_total = 1
    while holds(m_total + 1):
        m_total += 1
    return m_total


def _balanced_edim_lhs(d: int, m_total: int, r: int) -> int:
    """Left side of (**) on the balanced class of total m_total at r."""
    m, s = balanced_split(m_total, r)
    return comb(d + 2, 2) - s * comb(m + 1, 2) - (r - s) * comb(m, 2)


def _max_total_satisfying_edim(
    d: int, t: int, r: int, start: int = 1
) -> tuple[int, int]:
    """(M, lhs): the largest M whose balanced class satisfies (**) at t, and
    the left side of (**) there.

    M = 1 always satisfies (**) when 1 <= t < d: its left side is
    C(d+2,2) - 1 > C(t+1,2) - 2.  The left side strictly decreases in M, so
    the scan stops at the first M that fails.  It starts at M = start >= 1,
    which must satisfy (**) at (d, t); a start that fails raises
    RuntimeError, since the scan would then return a wrong maximum.  lhs is
    the value the scan computed last before that failing M, so
    _is_t_critical need not recompute it.
    """
    rhs = max(comb(t + 1, 2) - 2, 0)
    lhs = _balanced_edim_lhs(d, start, r)
    if lhs <= rhs:
        raise RuntimeError(f"maximal M not monotone in d at r={r}, t={t}, d={d}")
    m_total = start
    while (following := _balanced_edim_lhs(d, m_total + 1, r)) > rhs:
        m_total += 1
        lhs = following
    return m_total, lhs


def _is_t_critical(d: int, t: int, lhs: int) -> bool:
    """t = d - 1, or (**) fails once t is bumped to t + 1; lhs is the left
    side of (**) at (d, M)."""
    if t == d - 1:
        return True
    return lhs <= max(comb(t + 2, 2) - 2, 0)


def enumerate_critical_pairs(r: int) -> tuple[BalancedPair, ...]:
    """All critical pairs with M <= total_multiplicity_bound(r), sorted (t, d).

    For fixed t the maximal M satisfying (**) grows with d (the left side of
    (**) gains a full row of C(d+2,2) while the balanced sum is unchanged),
    so the d-scan stops at the first d whose maximal M exceeds the bound,
    and each d's M-scan starts at the previous d's maximal M.  Monotonicity
    is checked on every step: as the left side strictly decreases in M, the
    maximal M at d is at least the previous one exactly when the previous
    one still satisfies (**) at d, which _max_total_satisfying_edim tests
    before it scans (RuntimeError otherwise).  The first d starts at M = 1.
    """
    bound = total_multiplicity_bound(r)
    pairs: list[BalancedPair] = []
    for t in sorted(t_range(r)):
        m_total = 1
        d = t + 1
        while True:
            m_total, lhs = _max_total_satisfying_edim(d, t, r, m_total)
            if m_total > bound:
                break
            if _is_t_critical(d, t, lhs):
                pairs.append(BalancedPair(balanced_class(d, m_total, r), t))
            d += 1
    return tuple(pairs)


def check_pair(pair: BalancedPair, mu0: QuadraticLike) -> Verdict:
    """Check one pair against the threshold mu0.

    Delta < 0 means the class is nowhere submaximal above sqrt(r).  Otherwise
    submaximality starts at mu_- = (dM - t sqrt(Delta))/(d^2 - t^2) and the
    pair passes iff mu_- >= mu0 (equality passes: rationality at mu_- itself
    is witnessed by this very class).

    surface.lower_root computes Delta and mu_-.
    """
    delta, mu_minus = lower_root(pair.curve, pair.t)
    if mu_minus is None:
        return Verdict(delta, None, Outcome.PASS_NEGATIVE_DELTA)
    if compare(mu_minus, mu0) >= 0:
        return Verdict(delta, mu_minus, Outcome.PASS_MU_MINUS_ABOVE_THRESHOLD)
    return Verdict(delta, mu_minus, Outcome.COUNTEREXAMPLE)


def verify_no_counterexample(
    r: int, mu0: QuadraticLike | None = None
) -> VerificationReport:
    """Check every critical pair at r against mu0 (default: threshold(r))."""
    if r < 10:
        raise UnsupportedR(f"need r >= 10, got {r}")
    if mu0 is None:
        mu0 = _thresholds.threshold(r).mu0
    mu0 = QuadraticNumber._coerce(mu0)
    pairs = tuple(
        (pair, check_pair(pair, mu0)) for pair in enumerate_critical_pairs(r)
    )
    return VerificationReport(r, mu0, pairs)


def small_degree_pairs(r: int) -> tuple[BalancedPair, ...]:
    """The five balanced pairs with d <= 4 that are critical for every large r.

    For r >= 20 these are the only critical pairs in degrees d < 5, and each
    has Delta = M^2 - r(d^2 - t^2) < 0 there, which is what the large-r
    verification consumes.
    """
    if r < 14:
        raise UnsupportedR(f"need r >= 14 to host 14 simple points, got {r}")
    return tuple(
        BalancedPair(balanced_class(d, total, r), t)
        for d, total, t in ((2, 5, 1), (3, 9, 1), (4, 14, 1), (3, 8, 2), (4, 13, 2))
    )


@dataclass(frozen=True)
class OracleReport:
    """Result of the independent brute-force sweep at one r."""

    r: int
    mu0: QuadraticNumber
    pairs_checked: int
    counterexamples: tuple[tuple[BalancedPair, Verdict], ...]
    critical: tuple[BalancedPair, ...]
    matches_enumeration: bool

    @property
    def all_pass(self) -> bool:
        return not self.counterexamples and self.matches_enumeration


def brute_force_oracle(r: int, mu0: QuadraticLike | None = None) -> OracleReport:
    """Exhaustive sweep over balanced pairs, independent of the d-scan cutoff.

    Scans every balanced pair (d, t, M) with 2 <= d <= d_max, 1 <= t <
    min(d, max t_range) and 1 <= M <= total_multiplicity_bound(r) that
    satisfies (**), checking each against mu0 and recording which are
    critical.  The finite d_max genuinely covers all d >= 2:

    * a Counterexample needs Delta >= 0, i.e. d^2 <= M^2/r + t^2, so no
      counterexample exists beyond d_ce = isqrt(B^2/r + t_max^2) + 1;
    * criticality needs (**) to fail at M + 1 <= B + 1, impossible once
      C(d+2,2) exceeds max{C(t+1,2)-2, 0} + sum C(m_i+1,2) evaluated on the
      balanced class of B + 1, since the left side of (**) then stays
      positive for every M <= B.
    """
    if r < 10:
        raise UnsupportedR(f"need r >= 10, got {r}")
    if mu0 is None:
        mu0 = _thresholds.threshold(r).mu0
    mu0 = QuadraticNumber._coerce(mu0)
    bound = total_multiplicity_bound(r)
    t_max = max(t_range(r))

    d_ce = isqrt(bound * bound // r + t_max * t_max) + 1
    m, s = balanced_split(bound + 1, r)
    rhs_cap = max(comb(t_max + 1, 2) - 2, 0) + s * comb(m + 1, 2) + (r - s) * comb(m, 2)
    d_crit = 2
    while comb(d_crit + 3, 2) <= rhs_cap:
        d_crit += 1
    d_max = max(d_ce, d_crit)

    pairs_checked = 0
    counterexamples: list[tuple[BalancedPair, Verdict]] = []
    critical: list[BalancedPair] = []
    for d in range(2, d_max + 1):
        for t in range(1, min(d, t_max + 1)):
            for m_total in range(1, bound + 1):
                c = balanced_class(d, m_total, r)
                if not edim_condition(c, t):
                    continue
                pair = BalancedPair(c, t)
                pairs_checked += 1
                verdict = check_pair(pair, mu0)
                if not verdict.passed:
                    counterexamples.append((pair, verdict))
                m_critical = not edim_condition(balanced_class(d, m_total + 1, r), t)
                t_critical = t == d - 1 or not edim_condition(c, t + 1)
                if m_critical and t_critical:
                    critical.append(pair)
    critical.sort(key=lambda p: (p.t, p.d))
    matches = tuple(critical) == enumerate_critical_pairs(r)
    return OracleReport(
        r, mu0, pairs_checked, tuple(counterexamples), tuple(critical), matches
    )
