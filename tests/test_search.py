"""Critical-pair enumeration and the finite verification sweep."""

import json
import random
from fractions import Fraction
from math import comb

import pytest

from seshadri import cli, exact, search, surface
from seshadri.errors import ExceptionalClassUnsupported, InvalidT, UnsupportedR
from seshadri.exact import QuadraticNumber, compare
from seshadri.search import (
    BalancedPair,
    Outcome,
    Verdict,
    balanced_class,
    balanced_split,
    balancing_move,
    brute_force_oracle,
    check_pair,
    edim_condition,
    enumerate_critical_pairs,
    small_degree_pairs,
    t_range,
    total_multiplicity_bound,
    verify_no_counterexample,
)
from seshadri.surface import CurveClass, submaximal_locus, submaximality_quadratic
from seshadri.thresholds import threshold


def test_balanced_split_inverse():
    rng = random.Random(17)
    for _ in range(400):
        r = rng.randrange(2, 40)
        total = rng.randrange(1, 500)
        m, s = balanced_split(total, r)
        assert 1 <= s <= r
        assert s * m + (r - s) * (m - 1) == total
        # all parts differ by at most one
        parts = [m] * s + [m - 1] * (r - s)
        assert max(parts) - min(parts) <= 1


def test_balancing_move():
    assert balancing_move((3, 1, 1)) == (2, 2, 1)
    assert balancing_move((2, 2, 1)) == (2, 2, 1)  # already balanced
    assert balancing_move((4, 0)) == (3, 1)
    rng = random.Random(23)
    for _ in range(200):
        mults = tuple(rng.randrange(0, 6) for _ in range(rng.randrange(2, 10)))
        moved = balancing_move(mults)
        assert sum(moved) == sum(mults)
        assert sorted(moved, reverse=True) == list(moved)


def test_balancing_never_increases_condition_count():
    """The Z/2-weighted count sum C(m_i+1, 2) is Schur convex, so each
    balancing step weakly decreases it.  This is what lets the sweep
    restrict to balanced multiplicity vectors."""
    rng = random.Random(97)
    for _ in range(500):
        r = rng.randrange(2, 14)
        mults = tuple(rng.randrange(0, 7) for _ in range(r))
        moved = balancing_move(mults)
        before = sum(comb(m + 1, 2) for m in mults)
        after = sum(comb(m + 1, 2) for m in moved)
        assert after <= before


def test_balanced_minimizes_condition_count():
    rng = random.Random(101)
    for _ in range(300):
        r = rng.randrange(2, 12)
        mults = tuple(rng.randrange(0, 6) for _ in range(r))
        total = sum(mults)
        if total == 0:
            continue
        m, s = balanced_split(total, r)
        balanced = (m,) * s + (m - 1,) * (r - s)
        assert sum(comb(x + 1, 2) for x in balanced) <= sum(
            comb(x + 1, 2) for x in mults
        )


def test_edim_condition_examples():
    # cubic through nine general points: 10 - 9 = 1 exceeds max{1 - 2, 0}
    assert edim_condition(CurveClass(3, ((1, 9),), 10), 1)
    # a tenth simple point exhausts the linear system
    assert not edim_condition(CurveClass(3, ((1, 10),), 10), 1)
    # a conic through three points has room to spare
    assert edim_condition(CurveClass(2, ((1, 3),), 5), 1)
    with pytest.raises(ExceptionalClassUnsupported):
        edim_condition(CurveClass.exceptional(10), 1)
    with pytest.raises(InvalidT):
        edim_condition(CurveClass(3, ((1, 9),), 9), 0)


def test_t_range():
    assert t_range(10) == frozenset({1, 2, 3, 4, 5})
    assert t_range(11) == frozenset({1, 2, 3, 4})
    assert t_range(12) == frozenset({1, 2, 3})
    assert t_range(13) == frozenset({1, 2})
    assert t_range(14) == frozenset({1, 2})
    assert t_range(100) == frozenset({1, 2})
    with pytest.raises(UnsupportedR):
        t_range(9)


def test_total_multiplicity_bound_values():
    assert total_multiplicity_bound(10) == 121
    assert total_multiplicity_bound(11) == 65
    assert total_multiplicity_bound(12) == 46
    assert total_multiplicity_bound(13) == 37
    assert total_multiplicity_bound(20) == 18
    assert total_multiplicity_bound(200) == 7


def test_total_multiplicity_bound_squaring_crosscheck():
    """M is admissible iff 4rM - 25r <= 12M sqrt(r); check the returned
    value and its successor against the exact quadratic comparison."""
    for r in range(10, 60):
        bound = total_multiplicity_bound(r)
        sqrt_r = QuadraticNumber.sqrt(r)

        def ok(m: int) -> bool:
            return compare(4 * r * m - 25 * r, sqrt_r * (12 * m)) <= 0

        assert ok(bound)
        assert not ok(bound + 1)


def test_total_multiplicity_bound_matches_the_squared_test():
    """The field-sign test gives the bound the squared integer test gave, for
    r = 10..20000, 2000 seeded random r below 10^18, 10^18 - 1 and 10^18."""
    def old_bound(r):
        def holds(m_total):
            lhs = 4 * r * m_total - 25 * r
            return lhs <= 0 or lhs * lhs <= 144 * m_total * m_total * r

        m_total = 1
        while holds(m_total + 1):
            m_total += 1
        return m_total

    rng = random.Random(1901)
    rs = [*range(10, 20001), *(rng.randrange(10, 10**18) for _ in range(2000))]
    for r in rs + [10**18 - 1, 10**18]:
        assert total_multiplicity_bound(r) == old_bound(r), r


def test_bound_matches_m_bar_zero_floor():
    """r * m_bar_0(sqrt(r)) sits in [bound, bound + 1)."""
    from seshadri.region import m_bar_zero_at_sqrt_r

    for r in (10, 11, 12, 13, 20, 50):
        bound = total_multiplicity_bound(r)
        value = m_bar_zero_at_sqrt_r(r) * r
        assert compare(value, bound) >= 0
        assert compare(value, bound + 1) < 0


def test_balanced_pair_validation():
    p = BalancedPair(balanced_class(3, 9, 10), 1)
    assert (p.d, p.r, p.total_multiplicity) == (3, 10, 9)
    assert p.curve == CurveClass(3, ((1, 9),), 10)
    with pytest.raises(InvalidT):
        BalancedPair(balanced_class(3, 9, 10), 3)
    with pytest.raises(ValueError):
        BalancedPair(balanced_class(1, 9, 10), 1)
    # not balanced: multiplicities 2 and 0, or 3 and 1, side by side
    with pytest.raises(ValueError):
        BalancedPair(CurveClass(3, ((2, 1), (1, 1)), 10), 1)
    with pytest.raises(ValueError):
        BalancedPair(CurveClass(3, ((3, 2), (1, 8)), 10), 1)
    with pytest.raises(ValueError):
        BalancedPair(CurveClass(3, (), 10), 1)


def test_balanced_pair_accepts_exactly_the_balanced_runs():
    # every interior class of at most two runs with multiplicities up to 5 at
    # r = 1..40; the degree does not enter, so d = 2 stands for every d >= 2
    accepted = 0
    for r in range(1, 41):
        shapes = [()]
        shapes += [((m, e),) for m in range(1, 6) for e in range(1, r + 1)]
        shapes += [
            ((m, e), (n, f))
            for m in range(2, 6)
            for n in range(1, m)
            for e in range(1, r)
            for f in range(1, r - e + 1)
        ]
        for runs in shapes:
            curve = CurveClass(2, runs, r)
            total = curve.total_multiplicity
            balanced = total >= 1 and runs == search._balanced_runs(total, r)
            try:
                BalancedPair(curve, 1)
            except ValueError:
                assert not balanced, (runs, r)
            else:
                assert balanced, (runs, r)
                accepted += 1
    # one balanced class for each M = 1..5r at each r
    assert accepted == 5 * sum(range(1, 41))


def _critical_pair_for(d, t, r):
    """The enumerated critical pair at (d, t), or None."""
    return next((p for p in enumerate_critical_pairs(r) if (p.d, p.t) == (d, t)), None)


def test_critical_pair_for_examples():
    p = _critical_pair_for(3, 1, 10)
    assert p is not None
    assert p.curve == CurveClass(3, ((1, 9),), 10)
    q = _critical_pair_for(10, 2, 10)
    assert q is not None
    assert q.curve == CurveClass(10, ((4, 1), (3, 9)), 10)
    with pytest.raises(UnsupportedR):
        enumerate_critical_pairs(9)


def test_enumeration_counts_and_order():
    expected_counts = {10: 100, 11: 51, 12: 27, 13: 13}
    for r, count in expected_counts.items():
        pairs = enumerate_critical_pairs(r)
        assert len(pairs) == count
        keys = [(p.t, p.d) for p in pairs]
        assert keys == sorted(keys)
        assert all(p.total_multiplicity <= total_multiplicity_bound(r) for p in pairs)
        assert {p.t for p in pairs} <= t_range(r)


def test_criticality_sandwich():
    """Each enumerated pair satisfies the dimension condition at its own
    total M and fails it at M + 1 (M is maximal), and fails it at t + 1
    unless the pair is forced by t = d - 1 (t is extremal)."""
    for r in (10, 11, 12, 13):
        for p in enumerate_critical_pairs(r):
            assert edim_condition(p.curve, p.t)
            m_next, s_next = balanced_split(p.total_multiplicity + 1, r)
            bigger = CurveClass.from_multiplicities(
                p.d, (m_next,) * s_next + (m_next - 1,) * (r - s_next)
            )
            assert not edim_condition(bigger, p.t)
            if p.t < p.d - 1:
                assert not edim_condition(p.curve, p.t + 1)


def test_increment_smallest_is_balanced_successor():
    rng = random.Random(307)
    for _ in range(200):
        r = rng.randrange(2, 20)
        total = rng.randrange(1, 200)
        m, s = balanced_split(total, r)
        mults = [m] * s + [m - 1] * (r - s)
        mults[-1] += 1
        m2, s2 = balanced_split(total + 1, r)
        assert sorted(mults, reverse=True) == [m2] * s2 + [m2 - 1] * (r - s2)


def test_verdict_invariant():
    with pytest.raises(ValueError):
        Verdict(delta=-1, mu_minus=QuadraticNumber.from_rational(3), outcome=Outcome.PASS_NEGATIVE_DELTA)
    with pytest.raises(ValueError):
        Verdict(delta=4, mu_minus=None, outcome=Outcome.PASS_MU_MINUS_ABOVE_THRESHOLD)
    # the outcome must agree with delta: PASS_NEGATIVE_DELTA exactly when delta < 0
    with pytest.raises(ValueError):
        Verdict(delta=539, mu_minus=QuadraticNumber.sqrt(11), outcome=Outcome.PASS_NEGATIVE_DELTA)
    with pytest.raises(ValueError):
        Verdict(delta=-1, mu_minus=None, outcome=Outcome.PASS_MU_MINUS_ABOVE_THRESHOLD)
    with pytest.raises(ValueError):
        Verdict(delta=-1, mu_minus=None, outcome=Outcome.COUNTEREXAMPLE)


def test_check_pair_exact_values():
    mu0 = threshold(12).mu0  # sqrt(13)
    p = _critical_pair_for(3, 2, 12)
    assert p is not None and p.total_multiplicity == 8
    v = check_pair(p, mu0)
    assert v.delta == 64 - 12 * 5
    assert v.outcome is Outcome.PASS_MU_MINUS_ABOVE_THRESHOLD
    assert v.mu_minus == QuadraticNumber.from_rational(4)
    neg = _critical_pair_for(2, 1, 12)
    assert neg is not None
    vn = check_pair(neg, mu0)
    assert vn.delta < 0 and vn.mu_minus is None
    assert vn.outcome is Outcome.PASS_NEGATIVE_DELTA
    # an artificially high mu0 flips the verdict to a counterexample
    bad = check_pair(p, QuadraticNumber.from_rational(Fraction(9, 2)))
    assert bad.outcome is Outcome.COUNTEREXAMPLE
    assert not bad.passed


def test_mu_minus_is_root_of_submaximality_quadratic():
    for r in (10, 11, 12, 13):
        mu0 = threshold(r).mu0
        for p in enumerate_critical_pairs(r):
            v = check_pair(p, mu0)
            if v.mu_minus is None:
                continue
            value = submaximality_quadratic(p.curve, p.t, r, v.mu_minus)
            assert value == 0
            # and it is the smaller root: at mu slightly larger R goes negative
            assert compare(v.mu_minus, QuadraticNumber.sqrt(r)) >= 0


def test_verify_no_counterexample_core_range():
    for r in (10, 11, 12, 13):
        report = verify_no_counterexample(r)
        assert report.all_pass
        assert not report.counterexamples
        assert len(report.pairs) == len(enumerate_critical_pairs(r))
        assert report.mu0 == threshold(r).mu0


def test_verify_minimum_mu_minus_attains_threshold():
    """The sweep is sharp for r = 10, 11, 13: some critical pair has
    mu_minus exactly equal to the threshold.  For r = 12 the minimum is 4,
    strictly above sqrt(13)."""
    for r in (10, 11, 13):
        report = verify_no_counterexample(r)
        values = [v.mu_minus for _, v in report.pairs if v.mu_minus is not None]
        smallest = min(values, key=lambda x: x.enclosure().lo)
        assert smallest == report.mu0
    report12 = verify_no_counterexample(12)
    values12 = [v.mu_minus for _, v in report12.pairs if v.mu_minus is not None]
    smallest12 = min(values12, key=lambda x: x.enclosure().lo)
    assert smallest12 == QuadraticNumber.from_rational(4)
    assert compare(smallest12, report12.mu0) > 0


def test_verify_with_explicit_mu0():
    ok = verify_no_counterexample(12, QuadraticNumber.from_rational(Fraction(7, 2)))
    assert ok.all_pass
    bad = verify_no_counterexample(12, QuadraticNumber.from_rational(Fraction(9, 2)))
    assert not bad.all_pass
    assert all(v.outcome is Outcome.COUNTEREXAMPLE for _, v in bad.counterexamples)


# (d, M, t) of (2;1^5), (3;1^9), (4;1^14) at t = 1 and (3;1^8), (4;1^13) at
# t = 2, written out by hand: the oracle of the derived small-degree table.
SMALL_DEGREE_ORACLE = ((2, 5, 1), (3, 9, 1), (4, 14, 1), (3, 8, 2), (4, 13, 2))


def test_small_degree_table_is_derived():
    """The table search derives from the d-scan at r = 20 is the
    hand-written one: the pairs (d; 1^M) at t, built at r = 20."""
    assert search._SMALL_DEGREE == tuple(
        BalancedPair(CurveClass(d, ((1, total),), 20), t) for d, total, t in SMALL_DEGREE_ORACLE
    )
    derived = tuple((p.d, p.total_multiplicity, p.t) for p in search._scan_critical_pairs(20))
    assert derived == SMALL_DEGREE_ORACLE


def test_small_degree_pairs():
    pairs = small_degree_pairs(20)
    shapes = [(str(p.curve), p.total_multiplicity, p.t) for p in pairs]
    assert shapes == [("(2;1^5)", 5, 1), ("(3;1^9)", 9, 1), ("(4;1^14)", 14, 1),
                      ("(3;1^8)", 8, 2), ("(4;1^13)", 13, 2)]
    mu0 = threshold(20).mu0
    deltas = [check_pair(p, mu0).delta for p in pairs]
    r = 20
    assert deltas == [25 - 3 * r, 81 - 8 * r, 196 - 15 * r, 64 - 5 * r, 169 - 12 * r]
    with pytest.raises(UnsupportedR):
        small_degree_pairs(13)


def _constructed(d, total, t, r):
    return BalancedPair(CurveClass(d, ((1, total),), r), t)


def _same_pairs(got, want):
    """Equal pairs with equal M: M is derived, so equality does not read it."""
    assert got == want
    assert [p.total_multiplicity for p in got] == [p.total_multiplicity for p in want]


def test_reseated_pairs_equal_the_constructed_ones():
    """Both readers of the small-degree table re-seat its pairs at r, and
    what they return is the pair the checked constructors build at r."""
    for r in [*range(14, 3001), 10**6, 10**12, 10**18]:
        want = tuple(_constructed(*entry, r) for entry in SMALL_DEGREE_ORACLE)
        _same_pairs(small_degree_pairs(r), want)
        if r >= 20:
            bound = total_multiplicity_bound(r)
            kept = tuple(p for p in want if p.total_multiplicity <= bound)
            _same_pairs(enumerate_critical_pairs(r), kept)
    for r in (13, 10, 1, 0):
        with pytest.raises(UnsupportedR):
            small_degree_pairs(r)


def _refusal(build):
    with pytest.raises(ValueError) as caught:
        build()
    return str(caught.value)


@pytest.mark.parametrize("d, total, t, r, at", [
    (5, 25, 1, 20, 21),  # (5;2^5,1^15): two runs, unbalanced at 21
    (5, 25, 1, 20, 19),  # and 20 points placed at 19
    (7, 40, 1, 20, 21),  # (7;2^20): one run of 2s, unbalanced at 21
    (5, 20, 1, 20, 19),  # (5;1^20): M > r
    (5, 20, 1, 20, 0),  # r < 1
])
def test_reseating_refuses_what_the_constructors_refuse(monkeypatch, d, total, t, r, at):
    """A table entry re-seated at an r where its class is not placed or not
    balanced raises the ValueError the constructors raise there, with the
    same message, through small_degree_pairs as through _reseated."""
    entry = BalancedPair(balanced_class(d, total, r), t)
    want = _refusal(lambda: BalancedPair(CurveClass(d, entry.curve.runs, at), t))
    assert _refusal(lambda: search._reseated([entry], at)) == want
    if at >= 14:
        monkeypatch.setattr(search, "_SMALL_DEGREE", (entry,))
        assert _refusal(lambda: small_degree_pairs(at)) == want
    # at its own r the entry re-seats to itself
    _same_pairs(search._reseated([entry], r), (entry,))


def _small_degree_critical_pairs(r):
    """Every critical pair with d <= 4 and t in {1, 2}, by the oracle's
    route: (**) by edim_condition on balanced_class, at M and at M + 1, and
    at t + 1 unless t = d - 1. The left side of (**) falls below 0 before
    M = C(d+2,2), so the M-scan stops there."""
    pairs = []
    for d in range(2, 5):
        for t in range(1, min(d, 3)):
            for m_total in range(1, comb(d + 2, 2)):
                c = balanced_class(d, m_total, r)
                if (
                    edim_condition(c, t)
                    and not edim_condition(balanced_class(d, m_total + 1, r), t)
                    and (t == d - 1 or not edim_condition(c, t + 1))
                ):
                    pairs.append(BalancedPair(c, t))
    return tuple(sorted(pairs, key=lambda p: (p.t, p.d)))


def test_enumeration_at_r_20_is_the_small_degree_list():
    """small_degree_pairs(r) is every critical pair with d <= 4 and t <= 2
    for r = 14..3000 and at 10^6, 10^12 and 10^18; from r = 20 on the
    enumeration, built from that list without a scan, equals the d-scan."""
    assert enumerate_critical_pairs(20) == small_degree_pairs(20)
    for r in (*range(14, 3001), 10**6, 10**12, 10**18):
        small = small_degree_pairs(r)
        assert _small_degree_critical_pairs(r) == small, r
        if r >= 20:
            pairs = enumerate_critical_pairs(r)
            assert pairs == search._scan_critical_pairs(r), r
            assert set(pairs) <= set(small), r


def test_small_degree_pair_counts_where_the_set_shrinks():
    """From r = 20 on the bound drops one small-degree pair at a time:
    (4;1^14) at r = 30, (4;1^13) at 34, (3;1^9) at 97 and (3;1^8) at 189,
    leaving (2;1^5)."""
    counts = {20: 5, 29: 5, 30: 4, 33: 4, 34: 3, 96: 3, 97: 2, 188: 2, 189: 1}
    for r, count in counts.items():
        assert len(enumerate_critical_pairs(r)) == count, r
        assert len(search._scan_critical_pairs(r)) == count, r
    assert [str(p) for p in enumerate_critical_pairs(189)] == ["((2;1^5), t=1)"]


def _balanced_edim_lhs(d, m_total, r):
    """Left side of (**) on the balanced class of total m_total at r, term
    by term: the reference the closed form of _max_total_satisfying_edim is
    tested against."""
    m, s = balanced_split(m_total, r)
    return comb(d + 2, 2) - s * comb(m + 1, 2) - (r - s) * comb(m, 2)


def test_balanced_edim_lhs_matches_materialised_class():
    rng = random.Random(2019)
    for _ in range(300):
        r = rng.randrange(10, 3001)
        d = rng.randrange(2, 200)
        below = rng.randrange(1, r)
        multiple = r * rng.randrange(1, 6)
        for m_total in (below, multiple):
            m, s = balanced_split(m_total, r)
            c = CurveClass.from_multiplicities(d, (m,) * s + (m - 1,) * (r - s))
            assert balanced_class(d, m_total, r) == c
            assert _balanced_edim_lhs(d, m_total, r) == search._edim_lhs(c)
        assert balanced_split(multiple, r)[1] == r


def test_balanced_class_render():
    for r in (10, 11, 12, 13, 14, 19, 20, 37, 100, 1000):
        pairs = enumerate_critical_pairs(r)
        if r >= 14:
            pairs += small_degree_pairs(r)
        for p in pairs:
            assert str(p) == f"({p.curve}, t={p.t})"
    for (d, total, r), text in (
        ((5, 3, 12), "(5;1^3)"),  # m = 1: the zero multiplicities vanish
        ((5, 12, 12), "(5;1^12)"),  # m = 1 and s = r
        ((11, 36, 12), "(11;3^12)"),  # s = r: no second group
        ((11, 37, 12), "(11;4,3^11)"),  # single top entry: no ^1
        ((7, 23, 12), "(7;2^11,1)"),  # single lower entry: no ^1
    ):
        assert balanced_class(d, total, r).render() == text


def test_search_builds_one_class_per_kept_pair(capsys, monkeypatch):
    """The d-scan stays O(1) per candidate: a class (two runs) is built for
    each pair it keeps and for nothing else.  r = 10..13 reach the
    t-criticality test with t < d - 1; r = 1000 is the large-r path, where
    the kept pairs are re-seated (search._reseated) and no class goes
    through the constructor.  verify at each r >= 20 builds the five
    small-degree classes once, by the re-seat.  Written as JSON over
    20..69, it renders the five once per template key, at the first r of
    each (20, 30 and 34, where the row set shrinks), and none at any other
    r: every row reads its class text from the template."""
    built, rendered = [], []
    original = CurveClass.__post_init__
    original_render = CurveClass.render
    original_reseated = search._reseated

    def counting(self):
        built.append(self)
        original(self)

    def counting_reseated(pairs, r):
        reseated = original_reseated(pairs, r)
        built.extend(pair.curve for pair in reseated)
        return reseated

    def counting_render(self):
        rendered.append(self)
        return original_render(self)

    monkeypatch.setattr(CurveClass, "__post_init__", counting)
    monkeypatch.setattr(search, "_reseated", counting_reseated)
    monkeypatch.setattr(CurveClass, "render", counting_render)
    for r in (10, 11, 12, 13, 1000):
        built.clear()
        pairs = enumerate_critical_pairs(r)
        assert [c.d for c in built] == [p.d for p in pairs]
    command = cli.resolve_config(cli._parse_command_line(["verify", "--r", "20..69"]))
    plan = cli._RangePlan(20, 69, None)
    classes = []

    def documents():
        for r in range(20, 70):
            built.clear()
            rendered.clear()
            yield cli._verify_doc(r, plan)
            # the writer has written r's document before it asks for the next
            assert len(built) == 5, r
            if r in (20, 30, 34):
                assert [id(c) for c in rendered] == [id(c) for c in built], r
            else:
                assert rendered == [], r
            classes.append(list(built))

    templates = 0
    json_template = cli._json_template

    def counting_template(*args):
        nonlocal templates
        templates += 1
        return json_template(*args)

    monkeypatch.setattr(cli, "_json_template", counting_template)
    assert not cli._write_documents(command, documents(), [])
    docs = json.loads(capsys.readouterr().out)["results"]
    assert len(docs) == len(classes) == 50
    for doc, kept in zip(docs, classes):
        assert doc["all_pass"]
        rows = [(row["class"], row["M"]) for row in doc["small_degree_pairs"]]
        assert rows == [(original_render(c), c.total_multiplicity) for c in kept]
    assert templates == 3


def test_maximal_total_evaluations_per_r(monkeypatch):
    """Each (d, t) solves for its maximal M in closed form, once: 180 calls
    at r = 10 (966 evaluations of (**) for the resumed scan before), and
    from r = 20 on a handful per r for the d-scan, whatever r is.  The
    enumeration itself makes none there: it reads the small-degree list."""
    calls = 0
    original = search._max_total_satisfying_edim

    def counting(d, t, r):
        nonlocal calls
        calls += 1
        return original(d, t, r)

    monkeypatch.setattr(search, "_max_total_satisfying_edim", counting)
    assert len(enumerate_critical_pairs(10)) == 100
    assert calls <= 200
    for r in range(20, 3001):
        calls = 0
        search._scan_critical_pairs(r)
        assert calls <= 8, r
        calls = 0
        enumerate_critical_pairs(r)
        assert calls == 0, r


def _scan_over_d(t, r, d_stop):
    """(d, (M, lhs)) for d = t+1 .. d_stop-1, by the linear M-scan resumed
    across d: the term-by-term left side of (**), stepped one unit of M at a
    time."""
    rhs = max(comb(t + 1, 2) - 2, 0)
    m_total = 1
    for d in range(t + 1, d_stop):
        while _balanced_edim_lhs(d, m_total + 1, r) > rhs:
            m_total += 1
        yield d, (m_total, _balanced_edim_lhs(d, m_total, r))


def test_closed_form_maximal_total_matches_the_linear_scan():
    """486,495 (d, t, r): r = 10..199 with d < 70, and with d < 40 r = 10^3,
    10^6, 10^12, 10^18 - 1, 10^18 and 50 seeded random r below 10^18."""
    rng = random.Random(1901)
    grid = [(r, 70) for r in range(10, 200)]
    grid += [(r, 40) for r in (10**3, 10**6, 10**12, 10**18 - 1, 10**18)]
    grid += [(rng.randrange(10, 10**18), 40) for _ in range(50)]
    checked = 0
    for r, d_stop in grid:
        for t in range(1, d_stop - 1):
            for d, expected in _scan_over_d(t, r, d_stop):
                assert search._max_total_satisfying_edim(d, t, r) == expected, (d, t, r)
                checked += 1
    assert checked == 486_495


def test_total_multiplicity_bound_starts_at_its_answer(monkeypatch):
    """The isqrt start is the bound or one below it: at most three sign
    tests for r = 10..20000, near 10^18 and at 200 seeded random r."""
    calls = 0
    original = search._field_sign

    def counting(a, b, n):
        nonlocal calls
        calls += 1
        return original(a, b, n)

    monkeypatch.setattr(search, "_field_sign", counting)
    rng = random.Random(1901)
    rs = [*range(10, 20001), *range(10**18 - 1000, 10**18 + 1)]
    for r in rs + [rng.randrange(10, 10**18) for _ in range(200)]:
        calls = 0
        total_multiplicity_bound(r)
        assert calls <= 3, r


def test_maximal_total_is_at_least_one():
    """M = 1 satisfies (**) whenever 1 <= t < d, so the scan that starts
    there never raises and no (d, t) has an empty maximum."""
    for r in (10, 11, 12, 13, 20, 100, 10**6, 10**18):
        for d in range(2, 25):
            for t in range(1, d):
                lhs_at_one = _balanced_edim_lhs(d, 1, r)
                assert lhs_at_one == comb(d + 2, 2) - 1 > max(comb(t + 1, 2) - 2, 0)
                best, lhs = search._max_total_satisfying_edim(d, t, r)
                assert best >= 1
                assert lhs == _balanced_edim_lhs(d, best, r)


def test_mu_minus_matches_the_quadratic_arithmetic():
    """check_pair builds mu_- from one squarefree split; it is the same
    canonical triple as (sqrt(Delta) * (-t) + dM) / (d^2 - t^2)."""
    kinds = set()
    for r in [*range(10, 301), 1000, 100000]:
        for pair in enumerate_critical_pairs(r):
            verdict = check_pair(pair, threshold(r).mu0)
            if verdict.mu_minus is None:
                continue
            d, t, total = pair.d, pair.t, pair.total_multiplicity
            lead = d * d - t * t
            expected = (QuadraticNumber.sqrt(verdict.delta) * (-t) + d * total) / lead
            got = verdict.mu_minus
            assert (got.a, got.b, got.rad) == (expected.a, expected.b, expected.rad)
            assert type(got.a) is type(got.b) is Fraction
            if verdict.delta == 0:
                kinds.add("zero")
            elif got.rad == 0:
                kinds.add("square")
    assert kinds == {"zero", "square"}

def test_check_pair_and_locus_share_the_roots():
    """Wherever check_pair's mu_- is at least sqrt(r) it is the lower end of
    the pair's locus, and the upper end is (dM + t sqrt(Delta))/(d^2 - t^2)
    as built from QuadraticNumber.sqrt(Delta)."""
    lower_ends = 0
    for r in [*range(10, 61), 1000, 10**6, 10**18 - 1]:
        mu0 = threshold(r).mu0
        sqrt_r = QuadraticNumber.sqrt(r)
        for pair in enumerate_critical_pairs(r):
            verdict = check_pair(pair, mu0)
            if verdict.delta < 0:
                continue
            d, t, total = pair.d, pair.t, pair.total_multiplicity
            lead = d * d - t * t
            mu_plus = (QuadraticNumber.sqrt(verdict.delta) * t + d * total) / lead
            locus = submaximal_locus(pair.curve, t, r)
            if compare(mu_plus, sqrt_r) < 0:
                assert locus == []
                continue
            [iv] = locus
            assert iv.hi == mu_plus
            if compare(verdict.mu_minus, sqrt_r) >= 0:
                assert iv.lo == verdict.mu_minus
                lower_ends += 1
            else:
                assert iv.lo == sqrt_r
    assert lower_ends > 0


def test_root_route_splits_delta_once(monkeypatch):
    """check_pair splits Delta once; submaximal_locus splits Delta and r, and
    builds mu_+ without a further split."""
    calls = []
    original = exact.squarefree_decomposition

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(exact, "squarefree_decomposition", counting)
    monkeypatch.setattr(surface, "squarefree_decomposition", counting)
    most = {"check_pair": 0, "submaximal_locus": 0}
    for r in (10, 11, 12, 13, 50, 1000):
        mu0 = threshold(r).mu0
        for pair in enumerate_critical_pairs(r):
            calls.clear()
            check_pair(pair, mu0)
            most["check_pair"] = max(most["check_pair"], len(calls))
            calls.clear()
            submaximal_locus(pair.curve, pair.t, r)
            most["submaximal_locus"] = max(most["submaximal_locus"], len(calls))
    assert most == {"check_pair": 1, "submaximal_locus": 2}


def test_brute_force_oracle_matches_enumeration():
    """The exhaustive sweep against the d-scan at r = 10..19 and against the
    small-degree route from r = 20 on, past every point where it shrinks."""
    for r in [*range(10, 401), 500, 1000, 2000]:
        report = brute_force_oracle(r)
        assert report.all_pass
        assert report.matches_enumeration
        assert not report.counterexamples
        assert report.pairs_checked > len(report.critical)
        assert list(report.critical) == list(enumerate_critical_pairs(r))
