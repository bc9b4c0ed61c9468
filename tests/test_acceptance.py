"""Acceptance gate: one test per headline guarantee, one PASS/FAIL line each.

Every criterion is exact arithmetic end to end; the stated runtime budgets
are asserted, not just observed.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

from seshadri.cli import EXIT_PASS, main
from seshadri.exact import (
    QuadraticNumber,
    RationalInterval,
    compare,
    sqrt_enclosure,
)
from seshadri.region import audit_certificate, verify_t_bound, verify_large_r
from seshadri.search import (
    balanced_split,
    balancing_move,
    brute_force_oracle,
    check_pair,
    edim_condition,
    enumerate_critical_pairs,
    small_degree_pairs,
    verify_no_counterexample,
)
from seshadri.surface import (
    CurveClass,
    MuInterval,
    arithmetic_genus,
    expected_dim,
    parse_curve_class,
    submaximal_locus,
    submaximality_quadratic,
)
from seshadri.thresholds import threshold


def _report(capsys, number, description, fn, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        fn()
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget}s budget"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"{status} criterion {number}: {description} ({elapsed:.2f}s)")


# (class, t, M, delta, mu_minus) for every critical pair at r = 12,
# ordered by (t, d); mu_minus is the canonical string when delta >= 0.
R12_TABLE = [
    ("(2;1^5)", 1, 5, -11, None),
    ("(3;1^9)", 1, 9, -15, None),
    ("(4;2,1^11)", 1, 13, -11, None),
    ("(5;2^4,1^8)", 1, 16, -32, None),
    ("(9;3^6,2^6)", 1, 30, -60, None),
    ("(13;4^8,3^4)", 1, 44, -80, None),
    ("(3;1^8)", 2, 8, 4, "4"),
    ("(4;1^12)", 2, 12, 0, "4"),
    ("(5;2^3,1^9)", 2, 15, -27, None),
    ("(6;2^7,1^5)", 2, 19, -23, None),
    ("(7;2^11,1)", 2, 23, -11, None),
    ("(8;3^2,2^10)", 2, 26, -44, None),
    ("(9;3^5,2^7)", 2, 29, -83, None),
    ("(10;3^9,2^3)", 2, 33, -63, None),
    ("(11;4,3^11)", 2, 37, -35, None),
    ("(12;4^4,3^8)", 2, 40, -80, None),
    ("(4;1^10)", 3, 10, 16, "4"),
    ("(5;2^2,1^10)", 3, 14, 4, "4"),
    ("(6;2^5,1^7)", 3, 17, -35, None),
    ("(7;2^9,1^3)", 3, 21, -39, None),
    ("(8;3,2^11)", 3, 25, -35, None),
    ("(9;3^4,2^8)", 3, 28, -80, None),
    ("(10;3^8,2^4)", 3, 32, -68, None),
    ("(11;3^12)", 3, 36, -48, None),
    ("(12;4^3,3^9)", 3, 39, -99, None),
    ("(13;4^7,3^5)", 3, 43, -71, None),
    ("(14;4^10,3^2)", 3, 46, -128, None),
]


def test_criterion_1_table_reproduction(capsys):
    def run():
        mu0 = threshold(12).mu0
        pairs = enumerate_critical_pairs(12)
        assert len(pairs) == 27
        actual = []
        for p in pairs:
            v = check_pair(p, mu0)
            rendered = v.mu_minus.render() if v.mu_minus is not None else None
            actual.append((str(p.curve), p.t, p.total_multiplicity, v.delta, rendered))
        assert actual == R12_TABLE

    _report(
        capsys, 1,
        "all 27 critical pairs at r=12 match the reference table bit-exactly",
        run, budget=1.0,
    )


def test_criterion_2_core_range_verification(capsys):
    def run():
        expected_mu0 = {
            10: QuadraticNumber.from_rational(Fraction(77, 24)),
            11: QuadraticNumber(Fraction(4), Fraction(-1, 3), 3),
            12: QuadraticNumber.sqrt(13),
            13: QuadraticNumber(Fraction(13, 3), Fraction(-1, 6), 13),
        }
        for r in range(10, 20):
            report = verify_no_counterexample(r)
            assert report.all_pass, f"counterexample at r={r}"
            target = expected_mu0.get(r, QuadraticNumber.sqrt(r + 1))
            assert report.mu0 == target
        assert main(["verify", "--r", "10..19"]) == EXIT_PASS
        capsys.readouterr()

    _report(
        capsys, 2,
        "every critical pair for r=10..19 passes against the exact thresholds",
        run, budget=5.0,
    )


def test_criterion_3_large_r_extension(capsys):
    def run():
        assert main(["verify", "--r", "20..200"]) == EXIT_PASS
        capsys.readouterr()
        for r in range(20, 201):
            mu0 = threshold(r).mu0
            for pair in small_degree_pairs(r):
                verdict = check_pair(pair, mu0)
                assert verdict.delta < 0, (r, str(pair.curve))
            assert verify_large_r(r), r

    _report(
        capsys, 3,
        "r=20..200: the five small-degree pairs have delta < 0 and the "
        "closed-form inequalities hold",
        run, budget=10.0,
    )


def test_criterion_4_interval_endpoints(capsys):
    def run():
        half = Fraction(1, 2)
        expectations = [
            ("(10;4,3^9)", 2, 10, Fraction(77, 24), Fraction(13, 4)),
            ("(3;1^9,0)", 1, 10, Fraction(13, 4), Fraction(7, 2)),
            ("(3;1^9)", 1, 9, Fraction(3), Fraction(15, 4)),
            ("(6;3,2^7)", 1, 8, Fraction(99, 35), Fraction(3)),
            (
                "(4;2,1^10)", 2, 11,
                QuadraticNumber(Fraction(4), Fraction(-1, 3), 3),
                QuadraticNumber(Fraction(4), Fraction(1, 3), 3),
            ),
            (
                "(4;1^13)", 2, 13,
                QuadraticNumber(Fraction(13, 3), Fraction(-1, 6), 13),
                QuadraticNumber(Fraction(13, 3), Fraction(1, 6), 13),
            ),
        ]
        for text, t, r, lo, hi in expectations:
            c = parse_curve_class(text, r)
            lo_q = QuadraticNumber._coerce(lo)
            hi_q = QuadraticNumber._coerce(hi)
            assert submaximal_locus(c, t, r) == [MuInterval(lo_q, hi_q)], text
            assert submaximality_quadratic(c, t, r, lo_q) == 0, text
            assert submaximality_quadratic(c, t, r, hi_q) == 0, text

    _report(
        capsys, 4,
        "all six reference loci reproduced exactly with R vanishing at both ends",
        run,
    )


def test_criterion_5_region_certificates(capsys):
    def run():
        jobs = [(10, 6), (11, 5), (12, 4)] + [(r, 3) for r in range(13, 20)]
        for r, t0 in jobs:
            start = time.perf_counter()
            cert = verify_t_bound(r, t0)
            ok, problems = audit_certificate(cert.to_json_dict())
            elapsed = time.perf_counter() - start
            assert ok, (r, t0, problems)
            assert cert.max_depth <= 40, (r, t0)
            assert elapsed < 2.0, (r, t0, elapsed)

    _report(
        capsys, 5,
        "bisection certificates close and audit cleanly for all ten (r, t0)",
        run,
    )


def test_criterion_6_oracle_equivalence(capsys):
    def run():
        for r in range(10, 20):
            report = brute_force_oracle(r)
            assert not report.counterexamples, r
            assert report.matches_enumeration, r
            assert list(report.critical) == list(enumerate_critical_pairs(r)), r

    _report(
        capsys, 6,
        "exhaustive sweep over all bounded balanced pairs (r=10..19) finds the "
        "same critical set and no counterexample",
        run, budget=60.0,
    )


def test_criterion_7_classification_example(capsys):
    def run():
        assert main(["classify", "--r", "10", "--mu", "16/5"]) == EXIT_PASS
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "ConditionallyIrrational"
        assert doc["mu_below_mu0"] is True
        assert doc["mu0"] == "77/24"
        assert doc["l_squared"] == "6/25"
        assert doc["l_squared_is_rational_square"] is False
        assert doc["conditional_on_conjecture"] is True

    _report(
        capsys, 7,
        "mu = 16/5 at r = 10 classifies as conditionally irrational "
        "(6/25 is not a rational square)",
        run,
    )


def test_criterion_8_property_battery(capsys):
    def run():
        rng = random.Random(20260817)

        # sqrt enclosures: bracketing and width, 300 draws
        for _ in range(300):
            x = Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**3))
            width = Fraction(1, 2 ** rng.randrange(4, 48))
            iv = sqrt_enclosure(x, width)
            assert 0 <= iv.lo <= iv.hi
            assert iv.lo * iv.lo <= x <= iv.hi * iv.hi
            assert iv.hi - iv.lo <= width

        # exact comparison agrees with floats whenever floats are decisive
        for _ in range(300):
            a = QuadraticNumber(
                Fraction(rng.randrange(-50, 50), rng.randrange(1, 20)),
                Fraction(rng.randrange(-50, 50), rng.randrange(1, 20)),
                rng.choice([2, 3, 5, 7]),
            )
            b = QuadraticNumber(
                Fraction(rng.randrange(-50, 50), rng.randrange(1, 20)),
                Fraction(rng.randrange(-50, 50), rng.randrange(1, 20)),
                rng.choice([2, 3, 5, 7]),
            )
            fa = float(a.a) + float(a.b) * a.rad**0.5
            fb = float(b.a) + float(b.b) * b.rad**0.5
            if abs(fa - fb) > 1e-9:
                assert compare(a, b) == (1 if fa > fb else -1)

        # interval arithmetic contains the exact value of a nested expression
        for _ in range(300):
            point = Fraction(rng.randrange(1, 400), rng.randrange(1, 40))
            box = (RationalInterval.point(point) * point + 3).sqrt(
                Fraction(1, 2**40)
            ) / (point + 5)
            exact = QuadraticNumber.sqrt(point * point + 3) / (point + 5)
            assert compare(exact, box.lo) >= 0 and compare(exact, box.hi) <= 0

        # criticality sandwich for every enumerated pair
        for r in range(10, 20):
            for p in enumerate_critical_pairs(r):
                assert edim_condition(p.curve, p.t)
                m_next, s_next = balanced_split(p.total_multiplicity + 1, r)
                bigger = CurveClass.from_multiplicities(
                    p.d, (m_next,) * s_next + (m_next - 1,) * (r - s_next)
                )
                assert not edim_condition(bigger, p.t)
                if p.t < p.d - 1:
                    assert not edim_condition(p.curve, p.t + 1)

        # balancing moves: conserved total, monotone condition count,
        # fixed point equal to the balanced profile (1000 instances)
        for _ in range(1000):
            r = rng.randrange(2, 16)
            mults = tuple(rng.randrange(0, 7) for _ in range(r))
            total = sum(mults)
            current = tuple(sorted(mults, reverse=True))
            for _ in range(200):
                nxt = balancing_move(current)
                assert sum(nxt) == total
                assert sum(comb(m + 1, 2) for m in nxt) <= sum(
                    comb(m + 1, 2) for m in current
                )
                if nxt == current:
                    break
                current = nxt
            if total > 0:
                m, s = balanced_split(total, r)
                assert current == (m,) * s + (m - 1,) * (r - s)
            else:
                assert current == (0,) * r

        # permutation invariance of the lattice-only quantities
        for _ in range(200):
            r = rng.randrange(3, 12)
            d = rng.randrange(1, 14)
            mults = tuple(rng.randrange(0, 5) for _ in range(r))
            shuffled = list(mults)
            rng.shuffle(shuffled)
            a = CurveClass.from_multiplicities(d, mults)
            b = CurveClass.from_multiplicities(d, tuple(shuffled))
            assert expected_dim(a) == expected_dim(b)
            assert arithmetic_genus(a) == arithmetic_genus(b)

    _report(
        capsys, 8,
        "property battery: enclosure soundness, comparison oracle, interval "
        "containment, criticality sandwich, balancing closure, permutation "
        "invariance",
        run,
    )
