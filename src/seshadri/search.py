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

On the balanced class of total M = (m-1)*r + s, with (m, s) =
balanced_split(M, r), the sum in (**) is

      S(M) = s*C(m+1,2) + (r-s)*C(m,2) = r*C(m,2) + s*m,

so the d-scan works on (d, M, r) alone and builds a class (two runs, see
balanced_class) only for each pair it keeps.  S strictly increases in M (one
more unit on a smallest multiplicity m adds m >= 1), so for fixed (d, t) the
maximal M is the largest one with S(M) < C(d+2,2) - max{C(t+1,2) - 2, 0}.
That is solved in closed form: m from one integer square root of the
quadratic r*C(m,2) + m < target, made exact by integer +-1 steps, then s by
one division.  Each (d, t) costs O(1) evaluations, and the d-scan for a t
stops at the first d whose maximal M exceeds B = total_multiplicity_bound(r),
so a t costs O(d_max) of them.  The d-scan is the route for r = 10..19 only.

From r = 20 on no scan runs: the critical pairs are the small-degree pairs
(_SMALL_DEGREE) whose M is at most B, one bound and at most five classes
per r.  t_range is {1, 2} there, and the d = 2..4 pairs are fixed because
for M <= r every multiplicity is 0 or 1, so the left side of (**) is
C(d+2,2) - M, which does not depend on r.  The five are built once, by the
d-scan at r = 20 through the checked constructors, and each r re-seats
them (_reseated): a re-seat copies what does not depend on r and re-runs
every check that reads r.  For d >= 5 the maximal M already exceeds B by
large_r_inequalities (i), r - 6 > 3 sqrt(r), which holds from r = 20 on,
and that M rises in d, so no higher degree survives.  The tests hold this
route equal to the d-scan (_scan_critical_pairs) on r = 20..3000 and at
10^6, 10^12 and 10^18.

Each critical pair is then checked against a threshold mu_0: with
Delta = M^2 - r(d^2 - t^2), the pair is harmless when Delta < 0 (the class
is never submaximal on the strip) or when mu_- = (dM - t*sqrt(Delta))/(d^2
- t^2) >= mu_0, i.e. submaximality starts only above the threshold.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from math import comb, isqrt

from .errors import ExceptionalClassUnsupported, InvalidT, UnsupportedR
from .exact import Frozen, QuadraticLike, QuadraticNumber, _field_sign, compare
from .surface import _CC_D, _CC_R, _CC_RUNS, _CC_TOTAL, CurveClass, lower_root
from . import thresholds as _thresholds


class BalancedPair(Frozen):
    """A balanced class (d; m^s, (m-1)^(r-s)), d >= 2 and M >= 1, with a
    marked multiplicity t; balanced_class builds the class."""

    __slots__ = _fields = ("curve", "t")

    def __init__(self, curve: CurveClass, t: int) -> None:
        if curve.d < 2:
            raise ValueError(f"need d >= 2, got {curve.d}")
        if not _is_balanced(curve.runs, curve.r):
            raise ValueError(f"{curve} is not a balanced class with M >= 1")
        if not 1 <= t < curve.d:
            raise InvalidT(f"need 1 <= t < d = {curve.d}, got t = {t}")
        _BP_CURVE(self, curve)
        _BP_T(self, t)

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


# The outcomes bound once: check_pair picks one, and Verdict checks it, for
# every row verify prints.
_PASS_NEGATIVE_DELTA = Outcome.PASS_NEGATIVE_DELTA
_PASS_ABOVE_THRESHOLD = Outcome.PASS_MU_MINUS_ABOVE_THRESHOLD
_COUNTEREXAMPLE = Outcome.COUNTEREXAMPLE


class Verdict(Frozen):
    """Outcome of checking one pair; mu_minus is present, and the outcome is
    other than PASS_NEGATIVE_DELTA, iff delta >= 0."""

    __slots__ = _fields = ("delta", "mu_minus", "outcome")

    def __init__(
        self, delta: int, mu_minus: QuadraticNumber | None, outcome: Outcome
    ) -> None:
        if (delta >= 0) != (mu_minus is not None):
            raise ValueError("mu_minus must be present exactly when delta >= 0")
        if (delta < 0) != (outcome is _PASS_NEGATIVE_DELTA):
            raise ValueError(f"{outcome} contradicts delta = {delta}")
        _V_DELTA(self, delta)
        _V_MU_MINUS(self, mu_minus)
        _V_OUTCOME(self, outcome)

    @property
    def passed(self) -> bool:
        return self.outcome is not _COUNTEREXAMPLE


# Slot setters bound once, as in surface.CurveClass: verify builds a pair and
# a verdict for each critical pair at each r.
_BP_CURVE = BalancedPair.curve.__set__
_BP_T = BalancedPair.t.__set__
_V_DELTA = Verdict.delta.__set__
_V_MU_MINUS = Verdict.mu_minus.__set__
_V_OUTCOME = Verdict.outcome.__set__


class VerificationReport(Frozen):
    __slots__ = _fields = ("r", "mu0", "pairs")

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


def _is_balanced(runs: tuple[tuple[int, int], ...], r: int) -> bool:
    """Whether the runs of an interior class at r are _balanced_runs(M, r)
    for their total M >= 1: one run (m, s) with m = 1 or s = r, or two runs
    (m, s), (m - 1, r - s).

    CurveClass keeps multiplicities >= 1 descending and counts >= 1 summing
    to at most r, so these are exactly the shapes _balanced_runs returns,
    and a class of either shape has M = (m - 1)*r + s with 1 <= s <= r.
    """
    if len(runs) == 1:
        m, s = runs[0]
        return m == 1 or s == r
    if len(runs) == 2:
        (m, s), second = runs
        return second == (m - 1, r - s)
    return False


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
    {1, 2} from r = 13 on.  It is not derived here.  Each cap rests on a
    region certificate (region.verify_t_bound) at t0 = max + 1.  For
    r = 10..19 these are the certificates that acceptance criterion 5 in
    tests/test_acceptance.py closes.  For r >= 20 it is the t0 = 3
    certificate, which closes at its root by the two large-r inequalities
    (region.large_r_inequalities) that verify decides at each such r;
    tests/test_region.py pins that root leaf.  That a certificate at t0
    also excludes every larger t is still assumed (ROADMAP item 1).
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
    the sign of (25r - 4rM) + 12M sqrt(r) >= 0, stepping up from an integer
    lower estimate of that floor: at most three sign tests for any r.
    """
    if r < 10:
        raise UnsupportedR(f"need r >= 10, got {r}")
    # sqrt(r) >= q / 2^32, so this floor is at most 25r / (4r - 12 sqrt(r))
    # and less than one unit below it for every r >= 10.
    q = isqrt(r << 64)
    m_total = (25 * r << 32) // ((4 * r << 32) - 12 * q)
    # a + b sqrt(r) at M = m_total; one step up in M adds -4r to a and 12 to b
    a, b, step = 25 * r - 4 * r * m_total, 12 * m_total, 4 * r
    if _field_sign(a, b, r) < 0:
        raise RuntimeError(f"multiplicity bound start {m_total} fails at r={r}")
    while _field_sign(a - step, b + 12, r) >= 0:
        m_total += 1
        a -= step
        b += 12
    return m_total


def _max_total_satisfying_edim(d: int, t: int, r: int) -> tuple[int, int]:
    """(M, lhs): the largest M whose balanced class satisfies (**) at t, and
    the left side of (**) there.

    With target = C(d+2,2) - max{C(t+1,2) - 2, 0}, M = (m-1)*r + s is the
    largest total with S(M) = r*C(m,2) + s*m < target.  m is the largest
    value with r*C(m,2) + m < target, the root of r*m^2 + (2-r)*m - 2*target
    rounded down; isqrt estimates it and exact +-1 steps settle it, whatever
    the estimate.  s is then the largest value in 1..r that keeps S below
    target.  M = 1 satisfies (**) whenever 1 <= t < d (its left side is
    C(d+2,2) - 1 > C(t+1,2) - 2); a (d, t) where it fails raises
    RuntimeError.  lhs is returned so that _is_t_critical need not
    recompute it.
    """
    full = comb(d + 2, 2)
    target = full - max(comb(t + 1, 2) - 2, 0)
    if target <= 1:
        raise RuntimeError(f"M = 1 fails (**) at r={r}, t={t}, d={d}")
    m = ((r - 2) + isqrt((r - 2) ** 2 + 8 * r * target)) // (2 * r)
    while m > 1 and r * comb(m, 2) + m >= target:
        m -= 1
    while r * comb(m + 1, 2) + m + 1 < target:
        m += 1
    base = r * comb(m, 2)
    s = min(r, (target - 1 - base) // m)
    return (m - 1) * r + s, full - base - s * m


def _is_t_critical(d: int, t: int, lhs: int) -> bool:
    """t = d - 1, or (**) fails once t is bumped to t + 1; lhs is the left
    side of (**) at (d, M)."""
    if t == d - 1:
        return True
    return lhs <= max(comb(t + 2, 2) - 2, 0)


def enumerate_critical_pairs(r: int) -> tuple[BalancedPair, ...]:
    """All critical pairs with M <= total_multiplicity_bound(r), sorted (t, d).

    For r = 10..19 this is the d-scan of _scan_critical_pairs.  From r = 20
    on it is the small-degree pairs (_SMALL_DEGREE) whose M is at most the
    bound, with no scan: no degree d >= 5 survives, since there the maximal
    M exceeds the bound by large_r_inequalities (i) and M rises in d; and
    for d <= 4 and M <= r the left side of (**) is C(d+2,2) - M, whatever r
    is.  Each class (d; 1^M) is balanced because M <= 14 <= r.  The kept
    pairs are re-seated at r (_reseated).
    """
    if r < 20:
        return _scan_critical_pairs(r)
    bound = total_multiplicity_bound(r)
    return _reseated([p for p in _SMALL_DEGREE if p.curve.total_multiplicity <= bound], r)


def _scan_critical_pairs(r: int) -> tuple[BalancedPair, ...]:
    """The d-scan: all critical pairs with M <= total_multiplicity_bound(r),
    sorted (t, d), for any r >= 10.

    Each (d, t) gets its maximal M from the closed form of
    _max_total_satisfying_edim.  For fixed t that M never decreases in d:
    the target C(d+2,2) - max{C(t+1,2) - 2, 0} grows with d while S(M) does
    not depend on d.  So the d-scan stops at the first d whose maximal M
    exceeds the bound.  The scan checks that premise on every step and
    raises RuntimeError if a later d ever gives a smaller M.
    """
    bound = total_multiplicity_bound(r)
    pairs: list[BalancedPair] = []
    for t in sorted(t_range(r)):
        previous = 1
        d = t + 1
        while True:
            m_total, lhs = _max_total_satisfying_edim(d, t, r)
            if m_total < previous:
                raise RuntimeError(f"maximal M not monotone in d at r={r}, t={t}, d={d}")
            if m_total > bound:
                break
            if _is_t_critical(d, t, lhs):
                pairs.append(BalancedPair(balanced_class(d, m_total, r), t))
            previous = m_total
            d += 1
    return tuple(pairs)


# The five balanced pairs (d; 1^M) with d <= 4 that are critical for every
# r >= 14, in (t, d) order: the d-scan's critical pairs at r = 20, the first
# r past the scan, built there through the checked constructors. Their M is
# the maximal M of (**) when M <= r, namely C(d+2,2) - 1 at t = 1 and
# C(d+2,2) - 2 at t = 2, whatever r is; the tests pin the table. Each r
# re-seats them (_reseated).
_SMALL_DEGREE = _scan_critical_pairs(20)

# An instance with no slot set, for _reseated to fill through the setters.
_new = object.__new__


def _reseated(pairs: Iterable[BalancedPair], r: int) -> tuple[BalancedPair, ...]:
    """The pairs at r points.  Each new pair copies an old one's d, runs, M
    and t, sets r, and re-runs every check that reads r, with the
    constructors' messages: r >= 1 and at most r points placed
    (CurveClass), balance at r (BalancedPair).  No other check reads r, and
    each held when the pair was built, so none runs again.

    A balanced class of two runs (m, s), (m - 1, r' - s) places every one of
    its r' points, so it is placed and balanced at r exactly when r = r'.
    One run (m, s) places s points and is balanced when m = 1 or s = r.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    out = []
    append = out.append
    for pair in pairs:
        curve = pair.curve
        runs = curve.runs
        if len(runs) == 1:
            m, placed = runs[0]
            balanced = m == 1 or placed == r
        else:
            placed = curve.r
            balanced = placed == r
        if placed > r:
            raise ValueError(f"{placed} multiplicities exceed r={r}")
        if not balanced:
            raise ValueError(f"{curve} is not a balanced class with M >= 1")
        c = _new(CurveClass)
        _CC_D(c, curve.d)
        _CC_RUNS(c, runs)
        _CC_R(c, r)
        _CC_TOTAL(c, curve.total_multiplicity)
        p = _new(BalancedPair)
        _BP_CURVE(p, c)
        _BP_T(p, pair.t)
        append(p)
    return tuple(out)


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
        return Verdict(delta, None, _PASS_NEGATIVE_DELTA)
    if compare(mu_minus, mu0) >= 0:
        return Verdict(delta, mu_minus, _PASS_ABOVE_THRESHOLD)
    return Verdict(delta, mu_minus, _COUNTEREXAMPLE)


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

    They are the pairs of _SMALL_DEGREE re-seated at r (_reseated).  For
    r >= 20 the critical pairs are exactly those of them with
    M <= total_multiplicity_bound(r) (see enumerate_critical_pairs), and
    each has Delta = M^2 - r(d^2 - t^2) < 0 there, which is what the
    large-r verification consumes.
    """
    if r < 14:
        raise UnsupportedR(f"need r >= 14 to host 14 simple points, got {r}")
    return _reseated(_SMALL_DEGREE, r)


class OracleReport(Frozen):
    """Result of the independent brute-force sweep at one r."""

    __slots__ = _fields = (
        "r", "mu0", "pairs_checked", "counterexamples", "critical",
        "matches_enumeration",
    )

    @property
    def all_pass(self) -> bool:
        return not self.counterexamples and self.matches_enumeration


def brute_force_oracle(r: int, mu0: QuadraticLike | None = None) -> OracleReport:
    """Exhaustive sweep over balanced pairs, independent of the d-scan cutoff.

    Scans every balanced pair (d, t, M) with 2 <= d <= d_max, 1 <= t <=
    min(d - 1, max t_range) and 1 <= M <= total_multiplicity_bound(r) that
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
