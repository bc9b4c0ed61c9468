"""Thresholds, the witness catalog, coverage sweep, and classification."""

import sys
from fractions import Fraction

import pytest

from seshadri.errors import NotAboveSqrtR, UnsupportedR
from seshadri.exact import QuadraticNumber, compare
from seshadri.surface import CurveClass, MuInterval
from seshadri import thresholds as th
from seshadri.thresholds import (
    CatalogCurve,
    Classification,
    RationalityVerdict,
    ThresholdEntry,
    catalog,
    classify,
    threshold,
    verify_coverage,
)


def test_threshold_exact_values():
    assert threshold(10).mu0 == QuadraticNumber.from_rational(Fraction(77, 24))
    assert threshold(11).mu0 == QuadraticNumber(Fraction(4), Fraction(-1, 3), 3)
    assert threshold(12).mu0 == QuadraticNumber.sqrt(13)
    assert threshold(13).mu0 == QuadraticNumber(Fraction(13, 3), Fraction(-1, 6), 13)
    assert threshold(14).mu0 == QuadraticNumber.sqrt(15)
    assert threshold(200).mu0 == QuadraticNumber.sqrt(201)
    with pytest.raises(UnsupportedR):
        threshold(9)


def test_threshold_sits_above_sqrt_r():
    for r in range(10, 40):
        mu0 = threshold(r).mu0
        assert compare(mu0 * mu0, r) > 0


def test_threshold_entry_invariant():
    with pytest.raises(ValueError):
        ThresholdEntry(10, QuadraticNumber.from_rational(3))
    with pytest.raises(ValueError):
        ThresholdEntry(10, QuadraticNumber.from_rational(-4))


def test_threshold_entry_integer_sign_test():
    """The check decides mu0 > 0 and mu0^2 >= r in integers; it agrees with
    squaring mu0 in Fractions, and sqrt(r) itself is admitted."""
    with pytest.raises(ValueError):
        ThresholdEntry(20, QuadraticNumber.sqrt(19))
    with pytest.raises(ValueError):
        ThresholdEntry(10, -QuadraticNumber.sqrt(11))
    for r in list(range(10, 14)) + [14, 1500]:
        assert ThresholdEntry(r, threshold(r).mu0).mu0 == threshold(r).mu0
    ThresholdEntry(16, QuadraticNumber.from_rational(4))
    ThresholdEntry(17, QuadraticNumber.sqrt(17))
    values = sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)})
    for n in (2, 13):
        for a in values:
            for b in values:
                mu0 = QuadraticNumber(a, b, n)
                for r in (2, 5, 13):
                    above = compare(mu0, 0) > 0 and compare(mu0 * mu0, r) >= 0
                    if above:
                        ThresholdEntry(r, mu0)
                    else:
                        with pytest.raises(ValueError):
                            ThresholdEntry(r, mu0)


def test_catalog_shapes():
    c10 = catalog(10)
    assert [str(cc.curve) for cc in c10] == ["E1", "(3;1^9)", "(10;4,3^9)"]
    assert [cc.t for cc in c10] == [1, 1, 2]
    c12 = catalog(12)
    assert [str(cc.curve) for cc in c12] == ["E1"]
    c13 = catalog(13)
    assert [str(cc.curve) for cc in c13] == ["E1", "(4;1^13)"]
    assert c13[1].t == 2
    c8 = catalog(8)
    assert [str(cc.curve) for cc in c8] == ["E1", "(6;3,2^7)"]
    with pytest.raises(ValueError):
        catalog(0)


def test_catalog_loci_nonempty():
    from seshadri.surface import submaximal_locus

    for r in range(1, 31):
        for cc in catalog(r):
            assert submaximal_locus(cc.curve, cc.t, r), (r, str(cc.curve))


def test_threshold_is_the_smallest_enumerated_mu_minus():
    """mu_0(r) is sqrt(r + 1) or the lower root mu_- of a critical pair,
    whichever is smaller: the hand-written table agrees with the search."""
    from functools import cmp_to_key

    from seshadri.search import enumerate_critical_pairs
    from seshadri.surface import lower_root

    for r in range(10, 501):
        roots = [QuadraticNumber.sqrt(r + 1)]
        for pair in enumerate_critical_pairs(r):
            _, mu_minus = lower_root(pair.curve, pair.t)
            if mu_minus is not None:
                roots.append(mu_minus)
        smallest = min(roots, key=cmp_to_key(compare))
        assert compare(threshold(r).mu0, smallest) == 0, r


def test_interior_witnesses_are_critical_pairs():
    """Every interior catalog curve, with its t, is a critical pair that the
    search enumerates."""
    from seshadri.search import BalancedPair, enumerate_critical_pairs

    seen = 0
    for r in range(10, 200):
        pairs = set(enumerate_critical_pairs(r))
        for cc in catalog(r)[1:]:
            assert BalancedPair(cc.curve, cc.t) in pairs, (r, str(cc.curve), cc.t)
            seen += 1
    assert seen == 4  # (3;1^9) and (10;4,3^9) at 10, one pencil each at 11 and 13


def test_coverage_covered_through_30():
    for r in range(1, 31):
        report = verify_coverage(r)
        assert report.covered, (r, report.gaps)
        assert not report.gaps


def test_coverage_chain_r10_exact():
    report = verify_coverage(10)
    rendered = [(str(cc.curve), iv.render()) for cc, iv in report.chain]
    assert rendered == [
        ("(10;4,3^9)", "[77/24, 13/4]"),
        ("(3;1^9)", "[13/4, 7/2]"),
        ("E1", "[sqrt(11), inf)"),
    ]
    assert report.target_lo == threshold(10).mu0
    doc = report.to_json_dict()
    assert doc["covered"] is True
    assert doc["target"] == "[77/24, inf)"
    assert doc["gaps"] == []
    assert doc["chain"][0] == {"class": "(10;4,3^9)", "t": 2, "locus": "[77/24, 13/4]"}


def test_coverage_detects_gap_when_catalog_thins(monkeypatch):
    """Remove the interior curves at r = 10; the sweep must report the gap
    between the threshold and the exceptional ray."""

    def only_exceptional(r):
        # the locally imported name still points at the real function
        return [cc for cc in catalog(r) if cc.curve.is_exceptional]

    monkeypatch.setattr(th, "catalog", only_exceptional)
    report = th.verify_coverage(10)
    assert not report.covered
    assert len(report.gaps) == 1
    lo, hi = report.gaps[0]
    assert lo == threshold(10).mu0
    assert hi == QuadraticNumber.sqrt(11)


def test_classify_witnesses():
    c = classify(10, Fraction(7, 2))
    assert c.verdict is RationalityVerdict.RATIONAL_WITH_WITNESS
    assert str(c.witness.curve) == "(3;1^9)"
    assert not c.conditional_on_conjecture
    assert c.witness_locus.render() == "[13/4, 7/2]"

    tie = classify(10, Fraction(13, 4))
    # both the cubic and the decic pencil contain 13/4: lowest degree wins
    assert str(tie.witness.curve) == "(3;1^9)"

    edge = classify(10, Fraction(77, 24))
    assert edge.verdict is RationalityVerdict.RATIONAL_WITH_WITNESS
    assert str(edge.witness.curve) == "(10;4,3^9)"

    quartic = classify(13, Fraction(4))
    assert str(quartic.witness.curve) == "(4;1^13)"

    exc = classify(12, Fraction(4))
    assert str(exc.witness.curve) == "E1"
    assert exc.witness_locus.render() == "[sqrt(13), inf)"


def test_classify_below_threshold():
    cond = classify(10, Fraction(16, 5))
    assert cond.verdict is RationalityVerdict.CONDITIONALLY_IRRATIONAL
    assert cond.mu_below_mu0
    assert cond.l_squared == Fraction(6, 25)
    assert not cond.l_squared_is_rational_square
    assert cond.conditional_on_conjecture
    assert cond.witness is None

    sq = classify(12, Fraction(7, 2))
    assert sq.verdict is RationalityVerdict.RATIONAL_SQRT
    assert sq.l_squared == Fraction(1, 4)
    assert sq.l_squared_is_rational_square
    # rationality of a square value does not ride on the conjecture: if the
    # conjecture fails, some curve computes the value, which is again rational
    assert not sq.conditional_on_conjecture


def test_classify_json_fields():
    doc = classify(10, Fraction(7, 2)).to_json_dict()
    assert doc["verdict"] == "RationalWithWitness"
    assert doc["witness"]["class"] == "(3;1^9)"
    assert doc["witness"]["locus"] == "[13/4, 7/2]"
    assert doc["mu0"] == "77/24"
    assert doc["mu_below_mu0"] is False
    assert doc["conditional_on_conjecture"] is False
    cond = classify(10, Fraction(16, 5)).to_json_dict()
    assert cond["witness"] is None
    assert cond["l_squared"] == "6/25"
    assert cond["conditional_on_conjecture"] is True


def test_classify_validation():
    with pytest.raises(UnsupportedR):
        classify(9, Fraction(7, 2))
    with pytest.raises(NotAboveSqrtR):
        classify(10, 3)
    with pytest.raises(NotAboveSqrtR):
        classify(10, Fraction(1, 2))
    with pytest.raises(NotAboveSqrtR):
        classify(10, Fraction(-7, 2))


def test_classify_exhaustive_trichotomy():
    """Every verdict in a mu grid at r = 10, 12 falls in exactly one branch,
    and only the conditional branches set the conjecture flag."""
    for r in (10, 12):
        for numerator in range(320, 420, 7):
            mu = Fraction(numerator, 100)
            if mu * mu <= r:
                continue
            c = classify(r, mu)
            if c.verdict is RationalityVerdict.RATIONAL_WITH_WITNESS:
                assert not c.conditional_on_conjecture
                assert c.witness is not None
            else:
                assert c.witness is None
                assert c.mu_below_mu0
                assert c.conditional_on_conjecture == (
                    c.verdict is RationalityVerdict.CONDITIONALLY_IRRATIONAL
                )


def test_large_r_reduces_r_plus_1_once(monkeypatch):
    """coverage and classify make one squarefree split per call near MAX_R,
    for the threshold and the exceptional ray together: every call is
    counted, at every module that binds squarefree_decomposition. r + 1 is
    10^18 (fast to split) and 10^18 + 1 (about 70 ms by trial division)."""
    from seshadri import exact

    original = exact.squarefree_decomposition
    calls = []

    def counting(n):
        calls.append(n)
        return original(n)

    bound = set()
    for name, module in list(sys.modules.items()):
        if name == "seshadri" or name.startswith("seshadri."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
                    bound.add(name)
    assert {"seshadri.exact", "seshadri.surface"} <= bound
    for r in (10**18 - 1, 10**18):
        calls.clear()
        assert verify_coverage(r).covered
        assert calls == [r + 1]
        calls.clear()
        result = classify(r, Fraction(10**9 + 1))
        assert result.verdict is RationalityVerdict.RATIONAL_WITH_WITNESS
        assert calls == [r + 1]
